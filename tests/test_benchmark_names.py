"""The benchmark traces tdcnet functions by name and drives its workloads
through tdcnet's public API; a renamed function or a changed schedule
interface would silently read -1 or fail the benchmark run, so both are
checked here."""
import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent.parent / "tdcbench"
RUN_PY = BENCH / "run.py"


def test_traced_names_resolve():
    # parsed, not imported: importing run.py sets thread environment variables
    tree = ast.parse(RUN_PY.read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    assert traced
    missing = [name for name in traced
               if not callable(getattr(importlib.import_module(
                   "tdcnet." + name.split(".")[0]), name.split(".")[1], None))]
    assert not missing, f"traced names without a tdcnet function: {missing}"


def test_transform_verify_workload_runs(monkeypatch):
    # workloads.py sets no thread variables and imports only numpy and oracles
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    lib = SimpleNamespace(**{n: importlib.import_module(f"tdcnet.{n}")
                             for n in ("model", "scheduler", "tdc")})
    ws = lib.model.parse_weights(wl.weight_doc(0))
    lib.nets = {s: ws.network(s) for s in wl.SCALES}
    work = wl.TransformVerify(0)
    counts = work.model_counts(lib, lib.nets, 0)
    # every K_D^2 tap of all X groups is scheduled once per scale
    assert counts["scheduler.simulate_dclp.instructions"] == len(wl.SCALES) * wl.X * wl.KD ** 2
    assert counts["scheduler.simulate_dclp.cycles"] == counts["scheduler.L7.cycles_proposed"] > 0
    kind, call, check = work.op(lib, 1)
    assert kind == "sim" and check(call())


def test_super_resolution_workloads_run(monkeypatch):
    # sr_batch and sr_stream, at small shapes: a pipeline change must keep
    # their model counts computable and every op kind passing its own check
    monkeypatch.syspath_prepend(str(BENCH))
    wl = importlib.import_module("workloads")
    lib = SimpleNamespace(**{n: importlib.import_module(f"tdcnet.{n}")
                             for n in ("dataflow", "model", "pipeline", "quant",
                                       "reference", "scheduler", "tdc")})
    ws = lib.model.parse_weights(wl.weight_doc(0))
    lib.nets = {s: ws.network(s) for s in wl.SCALES}
    for scale, h, w, streaming in ((4, 9, 8, False), (3, 4, 12, True)):
        work = wl.SuperResolution(0, scale, h, w, streaming)
        counts = work.model_counts(lib, lib.nets, 0)
        assert counts["tdc.L0.macs_dense"] == 5 * 5 * wl.X * h * w
        if streaming:
            # both are the planned line buffers of the same network and width
            assert counts["pipeline.stream.peak_samples"] == counts["dataflow.line_buffer_words"] > 0
        for i, want in enumerate(work.kinds):
            kind, call, check = work.op(lib, i)
            assert kind == want and check(call())
