"""Command-line front end. Every subcommand but `sweep-bitwidth` emits a
machine-readable JSON report (schema in tdcnet/schemas/report.schema.json);
`sweep-bitwidth` writes CSV rows `bits,psnr_db`. Identical argv + seed produce
byte-identical output.

Exit codes: 0 success, 1 verification failure (a failed trial or internal
self-check), 2 usage/parse error. Each integer flag's range is declared once,
as its argparse `type=`, and checked while parsing; a value outside it is a
`TdcnetError` naming the flag.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import dataflow, imageio, model, quant, scheduler, tdc
from .errors import InternalConsistencyError, TdcnetError, WeightFormatError
from .model import DeconvLayerSpec, FsrcnnConfig, Tensor3, build_fsrcnn, parse_weights
from .pipeline import infer

SCHEMA_VERSION = 1

# Layer shapes of the two built-in reproduction presets. The DCGAN generator
# preset stores shapes only (out maps, in maps, input H=W, kernel, stride).
DCGAN_LAYERS = [
    {"layer": 1, "m": 512, "n": 1024, "hin": 4, "kd": 5, "s": 2},
    {"layer": 2, "m": 256, "n": 512, "hin": 8, "kd": 5, "s": 2},
    {"layer": 3, "m": 128, "n": 256, "hin": 16, "kd": 5, "s": 2},
    {"layer": 4, "m": 3, "n": 128, "hin": 32, "kd": 5, "s": 2},
]
DCGAN_TILES = (4, 128)
FSRCNN_TILES = (56, 9)
FSRCNN_DECONV = {"m": 1, "n": 56, "kd": 9}
# Input pixel count back-solved from the baseline preset's published cycle
# total: 21,233,016 = ceil(56/9) * 81 * 4 * pixels  =>  pixels = 9,362.
FSRCNN_PIXELS = 9362
# Layer flags of `cycles --model custom`; --win defaults to --hin.
CUSTOM_FLAGS = ("m", "n", "hin", "win", "kd", "stride", "tm", "tn")
# --bits widths: QFormat(b, b - 4) keeps a sign and 3 integer bits and
# holds at most 32 bits
BITS = range(4, 33)
# the most a flag that sizes arrays (kernel, maps, depth) may give, refused
# before anything is allocated; verify-tdc's own sweep reaches kd 11. Its
# square, the tap count of the largest kernel, bounds --pes and --trials: PEs
# beyond a layer's taps get empty streams
SIZE_LIMIT = 128


def _int_flag(flag: str, low: int = 1, high: int | None = None):
    """argparse `type=` of --flag: an int in low..high, else a TdcnetError naming
    the flag, raised while parsing and so before anything is allocated."""
    def parse(text) -> int:
        value = int(text)
        if low > 1 and not low <= value <= high:
            raise TdcnetError(f"--{flag} must lie in {low}..{high}, got {value}")
        if value < low:
            kind = "positive" if low else "non-negative"
            raise TdcnetError(f"--{flag} must be a {kind} integer, got {value}")
        if high is not None and value > high:
            raise TdcnetError(f"--{flag} must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"   # argparse's own error names the type: "invalid int value"
    return parse


_bit_width = _int_flag("bits", BITS[0], BITS[-1])


def _parse_bits(spec: str) -> range | list[int]:
    """Bit-widths from "LO..HI" (inclusive) or "B1,B2,..."; none is an error."""
    lo, dots, hi = spec.partition("..")
    try:
        bits = range(int(lo), int(hi) + 1) if dots else [int(t) for t in spec.split(",") if t]
    except ValueError:
        bits = []
    if not bits:
        raise TdcnetError(f"--bits names no bit-width: {spec!r} "
                          "(give LO..HI with LO <= HI, or B1,B2,...)")
    for b in (bits[0], bits[-1]) if dots else bits:
        _bit_width(b)
    return bits


def _digest(argv: list[str], files: list[str]) -> str:
    h = hashlib.sha256()
    for tok in argv:
        h.update(tok.encode())
        h.update(b"\0")
    for path in files:
        with open(path, "rb") as f:
            for chunk in iter(functools.partial(f.read, 1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def _write_out(args, text: str) -> None:
    """Write a report or CSV to --out (`infer`'s --report), or else to stdout."""
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, argv, results, input_files=()):
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": list(argv),
        "inputs_digest": _digest(list(argv), list(input_files)),
        "results": results,
    }
    _write_out(args, json.dumps(report, indent=2, sort_keys=True) + "\n")


def _load_weight_file(path: str) -> model.WeightSet:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise WeightFormatError(f"{path}: not a JSON weight file ({e})") from None
    return parse_weights(doc)


# ---------------------------------------------------------------- subcommands

def _cmd_transform(args, argv):
    ws = _load_weight_file(args.weights)
    net = ws.network(args.scale)
    dec = net.deconv
    conv, za = tdc.transform_weights(dec)
    geom = tdc.derive_geometry(dec.kernel, dec.scale)
    results = {
        "geometry": _geometry_dict(geom),
        "transformed": {
            "kc": conv.kernel,
            "m": conv.out_maps,
            "n": conv.in_maps,
            "weights": conv.weights.reshape(-1).tolist(),
            "bias": conv.bias.tolist(),
        },
        "zero_analysis": {
            "num_zero": za.num_zero,
            "zero_ratio": za.zero_ratio,
            "per_filter_nonzero": list(za.per_filter_nonzero),
        },
    }
    _emit(args, argv, results, [args.weights])
    return 0


def _geometry_dict(geom: tdc.TdcGeometry) -> dict:
    return {
        "deconv_kernel": geom.deconv_kernel,
        "stride": geom.stride,
        "overlap": [geom.overlap.numerator, geom.overlap.denominator],
        "conv_kernel": geom.conv_kernel,
        "overlap_frac_ge_half": geom.overlap_frac_ge_half,
        "crop_offset": geom.crop_offset,
    }


def _verify_one(kd: int, s: int, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    layer = DeconvLayerSpec(
        kd, s, m, n,
        rng.integers(-16, 17, size=(m, n, kd, kd)).astype(float),
        rng.integers(-16, 17, size=m).astype(float),
    )
    x = Tensor3(rng.integers(-16, 17, size=(n, h, w)).astype(float))
    got = tdc.deconv_via_transform(x, layer)
    want = tdc.deconv_oracle(x, layer)
    return bool(np.array_equal(got.data, want.data))


def _cmd_verify_tdc(args, argv):
    if args.kd is not None:
        pairs = [(args.kd, 2 if args.stride is None else args.stride)]
    elif args.stride is not None:
        raise TdcnetError("--stride applies with --kd only")
    else:
        pairs = [(kd, s) for s in (2, 3, 4) for kd in range(s, 12)]
    seq = np.random.SeedSequence(args.seed)
    failures = 0
    detail = []
    for (kd, s), child in zip(pairs, seq.spawn(len(pairs))):
        seeds = [int(v) for v in child.generate_state(args.trials)]
        bad = sum(1 for sd in seeds if not _verify_one(kd, s, sd))
        tdc.find_crop_offset(
            DeconvLayerSpec(kd, s, 1, 1, np.zeros((1, 1, kd, kd)), np.zeros(1))
        )
        failures += bad
        detail.append({"kd": kd, "stride": s, "trials": args.trials, "failures": bad})
    _emit(args, argv, {"failures": failures, "configs": detail})
    return 0 if failures == 0 else 1


def _cmd_schedule(args, argv):
    layer = DeconvLayerSpec(
        args.kd, args.stride, 1, 1,
        np.arange(1.0, args.kd ** 2 + 1).reshape(1, 1, args.kd, args.kd),
        np.zeros(1),
    )
    pes = args.stride ** 2 if args.pes is None else args.pes
    ls = scheduler.schedule_deconv_layer(layer, pes)
    streams = [[] for _ in range(pes)]
    for _, _, pe, p, y, x, wt in ls.table.tolist():
        streams[pe].append({"phase": p, "pos": [y, x], "weight": wt})
    _emit(args, argv, {
        "geometry": _geometry_dict(ls.geometry),
        "pe_count": ls.pe_count,
        "depth": ls.depth,
        "streams": streams,
    })
    return 0


def _cycle_row(model_name: str, m: int, n: int, hin: int, win: int, kd: int, s: int,
               tm: int, tn: int, **extra) -> dict:
    proposed = scheduler.cycles_proposed(m, n, hin, win, kd, s, tm, tn)
    baseline = scheduler.cycles_baseline(m, n, s * hin, s * win, kd, tm, tn)
    case, speedup = scheduler.classify_case(m, tm, s, kd)
    return {
        "model": model_name, **extra, "kd": kd, "stride": s, "tm": tm, "tn": tn,
        "proposed_cycles": proposed, "baseline_cycles": baseline,
        "speedup": baseline / proposed, "case": case, "case_speedup": speedup,
    }


def _cmd_cycles(args, argv):
    given = [flag for flag in CUSTOM_FLAGS if getattr(args, flag) is not None]
    if args.model != "custom" and given:
        raise TdcnetError(f"--{given[0]} applies to --model custom only")
    if args.model == "dcgan":
        rows = [_cycle_row("dcgan", l["m"], l["n"], l["hin"], l["hin"], l["kd"], l["s"],
                           *DCGAN_TILES, layer=l["layer"]) for l in DCGAN_LAYERS]
    elif args.model == "fsrcnn":
        m, n, kd = FSRCNN_DECONV["m"], FSRCNN_DECONV["n"], FSRCNN_DECONV["kd"]
        rows = [_cycle_row("fsrcnn", m, n, FSRCNN_PIXELS, 1, kd, s, *FSRCNN_TILES,
                           layer=8, pixels=FSRCNN_PIXELS) for s in (2, 3, 4)]
        # the published S=4 total (786k cycles) is twice the preset's result. A
        # nine-phase output tile (Tm = 9) reproduces it, running the sixteen
        # phases in two passes; the preset keeps Tm = 56, as no source fixes Tm
        nine = scheduler.cycles_proposed(m, n, FSRCNN_PIXELS, 1, kd, 4, 9, FSRCNN_TILES[1])
        rows[2].update(published_cycles_k=786, unexplained_discrepancy=True,
                       nine_phase_tile={"tm": 9, "proposed_cycles": nine})
    else:
        for flag in CUSTOM_FLAGS:
            if flag != "win" and getattr(args, flag) is None:
                raise TdcnetError(f"--model custom requires --{flag}")
        win = args.hin if args.win is None else args.win
        rows = [_cycle_row("custom", args.m, args.n, args.hin, win,
                           args.kd, args.stride, args.tm, args.tn)]
    totals = {
        "proposed_cycles": sum(r["proposed_cycles"] for r in rows),
        "baseline_cycles": sum(r["baseline_cycles"] for r in rows),
    }
    totals["speedup"] = totals["baseline_cycles"] / totals["proposed_cycles"]
    _emit(args, argv, {"layers": rows, "totals": totals})
    return 0


def _fsrcnn(args) -> model.NetworkSpec:
    """The FSRCNN network that `resources` and `plan` describe, from their flags."""
    cfg = FsrcnnConfig(args.x, args.y, args.z, args.kd, frozenset({args.scale}))
    return build_fsrcnn(cfg, args.scale)


def _cmd_resources(args, argv):
    report = dataflow.resource_report(_fsrcnn(args), args.alpha, args.bits, args.width)
    geom = tdc.derive_geometry(args.kd, args.scale)
    za = tdc.zero_analysis(geom, 1, args.x)
    _emit(args, argv, {
        "config": {"x": args.x, "y": args.y, "z": args.z, "kd": args.kd,
                   "scale": args.scale},
        "geometry": _geometry_dict(geom),
        "zero_analysis": {"num_zero": za.num_zero, "zero_ratio": za.zero_ratio},
        "multiply_count": report.multiply_count,
        "dsp_count": report.dsp_count,
        "alpha": report.alpha,
        "bram_count": report.bram_count,
        "total_line_buffer_bits": report.total_line_buffer_bits,
        "bit_width": args.bits,
        "input_width": args.width,
        "note": "bram_count covers line buffers only; weight buffers, "
                "chroma-path buffers and I/O FIFOs are excluded",
    })
    return 0


def _cmd_plan(args, argv):
    plan = dataflow.plan_dataflow(_fsrcnn(args), args.width, args.bits)
    layers = [{
        "name": l.name, "kernel": l.kernel, "in_maps": l.in_maps,
        "out_maps": l.out_maps,
        "tiling": {"tm": l.tiling.out_tile, "tn": l.tiling.in_tile,
                   "tk": l.tiling.kernel_tile},
        "combined_with_next": l.combined_with_next,
        "buffered": l.buffered,
        "line_buffer_bits": l.line_buffer_bits,
    } for l in plan.layers]
    _emit(args, argv, {
        "layers": layers,
        "input_width": plan.input_width,
        "bit_width": plan.bit_width,
        "total_line_buffer_bits": plan.total_line_buffer_bits,
        "bram_count": dataflow.bram_count(plan),
    })
    return 0


def _cmd_infer(args, argv):
    if args.mode == "float" and args.bits is not None:
        raise TdcnetError("--bits applies with --mode fixed only")
    ws = _load_weight_file(args.weights)
    net = ws.network(args.scale)
    image = imageio.read_image(args.input)
    kwargs = {}
    if args.mode == "fixed":
        bits = 13 if args.bits is None else args.bits
        q = quant.QFormat(bits, bits - 4)
        kwargs = {"q_weights": q, "q_activations": q}
    out = infer(image, net, args.scale, mode=args.mode, **kwargs)
    imageio.write_image(args.output, out)
    _emit(args, argv, {
        "input": args.input, "output": args.output,
        "scale": args.scale, "mode": args.mode,
        "input_size": list(image.shape), "output_size": list(out.shape),
    }, [args.weights, args.input])
    return 0


def _cmd_sweep_bitwidth(args, argv):
    ws = _load_weight_file(args.weights)
    net = ws.network(args.scale)
    exts = (".ppm", ".pgm", ".png")
    paths = sorted(
        os.path.join(args.images, f) for f in os.listdir(args.images)
        if f.lower().endswith(exts)
    )
    if not paths:
        raise TdcnetError(f"no .ppm/.pgm/.png images in {args.images}")
    images = [imageio.read_image(p) for p in paths]
    results = quant.sweep_bitwidth(net, images, args.bits, args.scale)
    _write_out(args, "bits,psnr_db\n" + "".join(f"{b},{p:.6f}\n" for b, p in results))
    return 0


# ------------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tdcnet",
        description="Deconv-to-conv transform, PE scheduling, cycle/resource "
                    "models, and fixed-point super-resolution inference.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("transform", help="transform a deconv layer to conv filters")
    t.add_argument("--weights", required=True)
    t.add_argument("--scale", type=int, required=True)
    t.add_argument("--out")
    t.set_defaults(func=_cmd_transform)

    v = sub.add_parser("verify-tdc", help="randomized transform-vs-oracle suite")
    v.add_argument("--kd", type=_int_flag("kd", high=SIZE_LIMIT))
    v.add_argument("--stride", type=_int_flag("stride"))
    v.add_argument("--trials", type=_int_flag("trials", high=SIZE_LIMIT ** 2), default=100)
    v.add_argument("--seed", type=_int_flag("seed", low=0), default=0)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify_tdc)

    s = sub.add_parser("schedule", help="print PE instruction streams and depth")
    s.add_argument("--kd", type=_int_flag("kd", high=SIZE_LIMIT), required=True)
    s.add_argument("--stride", type=_int_flag("stride"), required=True)
    s.add_argument("--pes", type=_int_flag("pes", high=SIZE_LIMIT ** 2))
    s.add_argument("--out")
    s.set_defaults(func=_cmd_schedule)

    c = sub.add_parser("cycles", help="proposed vs baseline cycle report")
    c.add_argument("--model", choices=["fsrcnn", "dcgan", "custom"], required=True)
    for flag in CUSTOM_FLAGS:
        c.add_argument(f"--{flag}", type=_int_flag(flag))
    c.add_argument("--out")
    c.set_defaults(func=_cmd_cycles)

    # the FSRCNN network of `resources` and `plan`; FsrcnnConfig allows z = 0
    fsrcnn = argparse.ArgumentParser(add_help=False)
    fsrcnn.add_argument("--x", type=_int_flag("x", high=SIZE_LIMIT), required=True)
    fsrcnn.add_argument("--y", type=_int_flag("y", high=SIZE_LIMIT), required=True)
    fsrcnn.add_argument("--z", type=_int_flag("z", low=0, high=SIZE_LIMIT), required=True)
    fsrcnn.add_argument("--kd", type=_int_flag("kd", high=SIZE_LIMIT), required=True)
    fsrcnn.add_argument("--scale", type=_int_flag("scale", 2, SIZE_LIMIT), required=True)
    fsrcnn.add_argument("--bits", type=_int_flag("bits"), default=13)
    fsrcnn.add_argument("--width", type=_int_flag("width"), default=1920)

    r = sub.add_parser("resources", parents=[fsrcnn],
                       help="multiplier/DSP/BRAM resource report")
    r.add_argument("--model", choices=["fsrcnn"], default="fsrcnn")
    r.add_argument("--alpha", type=float, default=0.7)
    r.add_argument("--out")
    r.set_defaults(func=_cmd_resources)

    pl = sub.add_parser("plan", parents=[fsrcnn], help="per-layer dataflow/line-buffer plan")
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_plan)

    i = sub.add_parser("infer", help="run super-resolution on one image")
    i.add_argument("--weights", required=True)
    i.add_argument("--scale", type=int, required=True)
    i.add_argument("--mode", choices=["float", "fixed"], default="float")
    i.add_argument("--bits", type=_bit_width,
                   help=f"fixed-point width, {BITS[0]}..{BITS[-1]} (default 13)")
    i.add_argument("--in", dest="input", required=True)
    i.add_argument("--out", dest="output", required=True)
    i.add_argument("--report", dest="out")
    i.set_defaults(func=_cmd_infer)

    sw = sub.add_parser("sweep-bitwidth", help="fixed-vs-float PSNR per bit-width")
    sw.add_argument("--weights", required=True)
    sw.add_argument("--scale", type=int, required=True)
    sw.add_argument("--bits", type=_parse_bits, default="8..16",
                    help=f"widths LO..HI or B1,B2,..., each {BITS[0]}..{BITS[-1]} "
                         "(default 8..16)")
    sw.add_argument("--images", required=True)
    sw.add_argument("--out")
    sw.set_defaults(func=_cmd_sweep_bitwidth)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args, argv)
    except SystemExit as e:   # argparse's own usage errors and --help
        return 2 if e.code not in (0, None) else 0
    except (TdcnetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        # two redundant computations disagreeing is a failed check, not bad input
        return 1 if isinstance(e, InternalConsistencyError) else 2


if __name__ == "__main__":
    sys.exit(main())
