"""Run the benchmark over several seeds and report each metric's spread.

    python3 tdcbench/spread.py --seeds 1-10 [--workloads sr_batch ...] [--trace 0]
                               [--json summary.json]

Runs `run.py` once per (workload, seed), one after another, for the
`run_seconds` that BENCHMARK.json fixes. For each metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread
(Q3 - Q1) / median next to the metric's bound. `--json` writes the same
summary with every run's values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json")
    args = p.parse_args(argv)
    spec = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        rows = {}
        for name in spec:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": values}
            bound = spec[name].get("bound")
            flag = "" if bound is None else f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            print(f"  {name:44s} median {med:12.6g}  spread {spread:7.4f}  {flag}")
        summary[workload] = rows
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
