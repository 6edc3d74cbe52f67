"""tdcnet benchmark: one workload, one seed, one run.

    python3 tdcbench/run.py --workload sr_batch --seed 1 --seconds 30 --trace 0

Run from anywhere; the library is imported from `src/` of the checkout that
holds this file, never from an installed copy. The run is a closed loop: one
client in one process sends each operation after the previous one returns,
with BLAS/OpenMP pools capped at one thread and `TDC_THREADS` unset.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(spans recorded around calls into tdcnet's public functions; see tracer.py).
End-to-end times are scaled to a reference machine speed: each operation and
each set-up is timed between two runs of a fixed probe (speed.py) and
multiplied by the probe's reference time over their mean, so that a shared
host's slow spells do not read as a slower program. The times as measured
are printed and recorded beside them under `raw.`.
Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}, with exactly the metrics
BENCHMARK.json lists for the mode. A per-layer metric of a traced function
that no longer exists reads -1 and is listed as missing. The full record
(environment, every metric, tail percentiles) and, when tracing, the spans
go to `.tdcbench_out/` in the checkout.
"""
from __future__ import annotations

import os
import sys

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_CAPS:          # must precede the first numpy import
    os.environ[_var] = "1"
os.environ.pop("TDC_THREADS", None)

import argparse
import gc
import importlib
import json
import platform
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import speed
import tracer as tr
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".tdcbench_out"
LAYERS = ("pipeline", "quant", "reference", "tdc", "scheduler", "dataflow",
          "model", "cli")
SETUP_REPEATS = 5
MIN_SAMPLES = 11                 # per op kind, so a tail with 10 beyond exists

# Public functions the tracer wraps; `reference.chroma` sums the three
# colour-space functions the luma network never touches.
TRACED = (
    "pipeline.infer", "pipeline.infer_streaming",
    "quant.float_forward", "quant.quantized_forward", "quant.quantized_conv_rows",
    "quant.quantize_network",
    "reference.conv2d", "reference.depth_to_space", "reference.deconv2d_canvas",
    "reference.rgb_to_ycbcr", "reference.bicubic_upscale_plane", "reference.ycbcr_to_rgb",
    "tdc.transform_weights", "tdc.find_crop_offset", "tdc.deconv_via_transform",
    "tdc.deconv_oracle",
    "scheduler.schedule_deconv_layer", "scheduler.simulate_dclp",
    "model.parse_weights", "cli.main",
)
GROUPS = {"reference.chroma": ("reference.rgb_to_ycbcr",
                               "reference.bicubic_upscale_plane",
                               "reference.ycbcr_to_rgb")}
LABELLED = ("reference.conv2d", "quant.quantized_conv_rows")
# BENCHMARK.json names the latency metrics by op-kind position, so every
# workload reports them: kind 0 is float (sr_*) or verify (tdc_verify).
KIND_ALIASES = ("float_or_verify", "fixed_or_sim")
MISSING = -1


def load_library(doc: dict, scales) -> SimpleNamespace:
    """Fresh import of tdcnet, weight parse and network build."""
    for name in [n for n in sys.modules if n == "tdcnet" or n.startswith("tdcnet.")]:
        del sys.modules[name]
    importlib.import_module("tdcnet")
    lib = SimpleNamespace(**{n: importlib.import_module(f"tdcnet.{n}") for n in LAYERS})
    ws = lib.model.parse_weights(doc)
    lib.nets = {s: ws.network(s) for s in scales}
    return lib


def setup(work, doc) -> tuple[SimpleNamespace, list[float], list[float]]:
    """SETUP_REPEATS times: import, parse, build and one warm-up op. Returns
    the library and the set-up times, scaled and as measured."""
    scaled, raw, lib = [], [], None
    speed.probe()                   # warm the probe itself
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        lib = load_library(doc, work.scales)
        work.op(lib, 0)[1]()
        dt = perf_counter() - t0
        after = speed.probe()
        scaled.append(dt * speed.factor(before, after))
        raw.append(dt)
        before = after
    return lib, scaled, raw


def taggers(lib) -> dict:
    """Layer attribution for conv calls: L<i> and useful MACs of the call."""
    by_id, by_shape = {}, {}
    for net in lib.nets.values():
        for label, conv, shape, useful in wl.layer_table(lib, net):
            if conv is not None:
                by_id[id(conv)] = (label, useful)
            else:
                by_shape[shape] = (label, useful)

    def conv2d(x, layer):
        hit = by_id.get(id(layer)) or by_shape.get(
            (layer.kernel, layer.out_maps, layer.in_maps))
        if hit is None:
            return None
        return hit[0], hit[1] * x.data.shape[1] * x.data.shape[2]

    def conv_rows(qlayer, padded, qnet):
        idx = next(i for i, q in enumerate(qnet.layers) if q is qlayer)
        spec = qlayer.spec
        key = (spec.kernel, spec.out_maps, spec.in_maps)
        useful = by_shape.get(key, (None, spec.out_maps * spec.in_maps * spec.kernel ** 2))[1]
        k1 = spec.kernel - 1
        return f"L{idx}", useful * (padded.shape[1] - k1) * (padded.shape[2] - k1)

    return {name: {"reference.conv2d": conv2d,
                   "quant.quantized_conv_rows": conv_rows}.get(name) for name in TRACED}


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 samples beyond it, and its
    percentile."""
    v = sorted(values)
    rank = len(v) - 10
    return v[rank - 1], 100.0 * rank / len(v)


def measure(work, lib, seconds: float, trc) -> dict:
    """Closed loop for `seconds` (input generation and checks included; only
    the operation itself is timed), in blocks of one op of each kind. With a
    tracer, blocks alternate between untraced and traced. Each op is timed
    between two speed probes; `scaled` holds its time at reference speed."""
    kinds = work.kinds
    lat = {(k, t): [] for k in kinds for t in (False, True)}
    scaled = {(k, t): [] for k in kinds for t in (False, True)}
    wall = scaled_wall = 0.0
    done, failed, work_done = 0, 0, {k: 0.0 for k in kinds}
    traced_ops, first_error = set(), None
    gc.collect()
    gc.freeze()
    probes = []
    i, t_start = 0, perf_counter()
    # stop only after whole blocks, so every kind ran equally often
    while (i % len(kinds) or perf_counter() - t_start < seconds
           or min(len(lat[(k, False)]) for k in kinds) < MIN_SAMPLES):
        kind, call, check = work.op(lib, i)
        traced = trc is not None and (i // len(kinds)) % 2 == 1
        probes.append(speed.probe())
        if traced:
            trc.op = i
            trc.install()
        t0 = perf_counter()
        try:
            out, ok = call(), True
        except Exception as e:          # a raising op counts as failed
            out, ok, first_error = None, False, first_error or e
        dt = perf_counter() - t0
        if traced:
            trc.uninstall()
            traced_ops.add(i)
        probes.append(speed.probe())
        dt_scaled = dt * speed.factor(probes[-2], probes[-1])
        if ok:
            try:
                ok = bool(check(out))
            except Exception as e:
                ok, first_error = False, first_error or e
        wall += dt
        scaled_wall += dt_scaled
        done += 1
        failed += not ok
        work_done[kind] += work.units(kind)
        lat[(kind, traced)].append(dt)
        scaled[(kind, traced)].append(dt_scaled)
        i += 1
    gc.unfreeze()
    if first_error is not None:
        print(f"first failure: {first_error!r}", file=sys.stderr)
    return {"lat": lat, "wall": wall, "scaled": scaled, "scaled_wall": scaled_wall,
            "probes": probes, "done": done, "failed": failed, "work": work_done,
            "traced_ops": traced_ops}


def peak_memory_mb(work, lib) -> float:
    """tracemalloc peak over one untimed pass of the op mix (the first op of
    each kind, so every run measures the same shapes)."""
    calls = [work.op(lib, j)[1] for j in range(len(work.kinds))]
    gc.collect()
    tracemalloc.start()
    try:
        for call in calls:
            call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def timings(work, run, setup_times, lat: str, wall: str) -> dict:
    """Set-up, latency and throughput metrics from one set of op times."""
    kinds, v_by = work.kinds, run[lat]
    m = {"setup_s": statistics.median(setup_times),
         "ops_per_s": run["done"] / run[wall]}
    for kind in kinds:
        v = v_by[(kind, False)]
        m[f"{kind}_p50_ms"] = statistics.median(v) * 1e3
        m[f"{kind}_tail_ms"] = tail(v)[0] * 1e3
    if isinstance(work, wl.SuperResolution):
        m["out_mpix_per_s"] = sum(run["work"].values()) / run[wall]
    else:
        m["trials_per_s"] = run["work"]["verify"] / sum(v_by[("verify", False)])
    return m


def end_to_end(work, run, setup_scaled, setup_raw, mem_mb) -> dict:
    """Scaled timings (the gated metrics), memory and failures; the times as
    measured under `raw.`."""
    m = timings(work, run, setup_scaled, "scaled", "scaled_wall")
    m["peak_mem_mb"] = mem_mb
    m["fail_ratio"] = run["failed"] / run["done"]
    notes = {}
    for alias, kind in zip(KIND_ALIASES, work.kinds):
        v = run["scaled"][(kind, False)]
        notes[f"{kind}_p50_ms"] = f"as {alias}_p50_ms"
        notes[f"{kind}_tail_ms"] = f"as {alias}_tail_ms; p{tail(v)[1]:.1f} of n={len(v)}"
    for name, value in timings(work, run, setup_raw, "lat", "wall").items():
        m[f"raw.{name}"] = value
        notes[f"raw.{name}"] = "as measured"
    m["raw.speed_probe_ms"] = statistics.median(run["probes"]) * 1e3
    notes["raw.speed_probe_ms"] = f"median; scaled times refer to {speed.REF_MS} ms"
    return m, notes


def per_layer(work, run, trc, counts) -> dict:
    """Per traced op: calls and self time per function, self time and MMAC/s
    per conv layer; parse time of the traced set-up; tracing overhead."""
    agg = tr.aggregate(trc.spans, run["traced_ops"])
    by_name, by_label = agg["by_name"], agg["by_label"]
    n_ops = len(run["traced_ops"])
    missing = set(trc.missing)
    m = {}
    for name in TRACED:
        row = by_name.get(name, {"calls": 0, "self_s": 0.0})
        gone = name in missing
        m[f"{name}.calls"] = MISSING if gone else row["calls"] / n_ops
        m[f"{name}.self_ms"] = MISSING if gone else row["self_s"] * 1e3 / n_ops
    for group, members in GROUPS.items():
        present = [n for n in members if n not in missing]
        m[f"{group}.self_ms"] = (sum(m[f"{n}.self_ms"] for n in present)
                                 if present else MISSING)
    for name in LABELLED:
        for i in range(len(wl.conv_shapes()) + 1):
            lab = by_label.get((name, f"L{i}"), {"self_s": 0.0, "macs": 0})
            if name in missing:
                self_ms = rate = MISSING
            else:
                self_ms = lab["self_s"] * 1e3 / n_ops
                rate = lab["macs"] / lab["self_s"] / 1e6 if lab["self_s"] > 0 else 0.0
            m[f"{name}.L{i}.self_ms"], m[f"{name}.L{i}.mmac_per_s"] = self_ms, rate
    setup_row = tr.aggregate(trc.spans, {"setup"})["by_name"].get(
        "model.parse_weights", {"self_s": 0.0})
    m["model.parse_weights.self_ms"] = (MISSING if "model.parse_weights" in missing
                                        else setup_row["self_s"] * 1e3)
    ratios = []
    for kind in work.kinds:
        plain, traced = run["scaled"][(kind, False)], run["scaled"][(kind, True)]
        if plain and traced:
            ratios.append(statistics.median(traced) / statistics.median(plain))
    m["trace.overhead_pct"] = (statistics.mean(ratios) - 1.0) * 100.0
    m["trace.missing_functions"] = len(missing)
    m.update(counts)
    return m


def spec_metrics(mode: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[mode]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tdcnet" / "__init__.py").is_file():
        print(f"error: no tdcnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = wl.make(args.workload, args.seed)
    doc = wl.weight_doc(args.seed)
    lib, setup_scaled, setup_raw = setup(work, doc)

    # computed counts must repeat exactly for a second seed of the same shapes
    other = lib.model.parse_weights(wl.weight_doc(args.seed + 1))
    counts = work.model_counts(lib, lib.nets, args.seed)
    counts_repeat = counts == work.model_counts(
        lib, {s: other.network(s) for s in work.scales}, args.seed + 1)

    trc = None
    if args.trace:
        # one traced weight parse, standing in for set-up's
        trc = tr.Tracer(taggers(lib))
        trc.op = "setup"
        trc.install()
        lib.model.parse_weights(doc)
        trc.uninstall()
    run = measure(work, lib, args.seconds, trc)

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "thread_caps": {v: os.environ[v] for v in THREAD_CAPS},
           "TDC_THREADS": os.environ.get("TDC_THREADS", "unset"),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "ops": run["done"],
           "ops_by_kind": {f"{k}{'_traced' if t else ''}": len(v)
                           for (k, t), v in run["lat"].items() if v}}
    record = {"env": env, "correct_counts_repeat": counts_repeat,
              "attempted": run["done"], "failed": run["failed"]}
    if isinstance(work, wl.SuperResolution) and not work.streaming:
        record["fixed_saturated_samples"] = work.saturated

    mode = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        metrics = per_layer(work, run, trc, counts)
        record["missing"] = trc.missing
        notes = {k: "computed" for k in counts}
    else:
        metrics, notes = end_to_end(work, run, setup_scaled, setup_raw,
                                    peak_memory_mb(work, lib))
    record["metrics"], record["notes"] = metrics, notes

    print("env " + json.dumps(env, sort_keys=True))
    print(f"counts repeat across seeds {args.seed}, {args.seed + 1}: {counts_repeat}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        shown = ("missing" if value == MISSING and name.split(".")[0] in LAYERS
                 else f"{value:.6g}")
        print(f"  {name:48s} {shown:>14s}  {note}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if trc is not None:
        tr.write_spans(trc.spans, f"{stem}.spans.jsonl")

    alias = {f"{a}_{stat}_ms": f"{k}_{stat}_ms"
             for a, k in zip(KIND_ALIASES, work.kinds) for stat in ("p50", "tail")}
    out = {m["name"]: {"value": metrics[alias.get(m["name"], m["name"])], "unit": m["unit"]}
           for m in spec_metrics(mode)}
    failed = run["failed"]
    print(json.dumps({"correct": failed == 0 and counts_repeat,
                      "attempted": run["done"], "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
