"""Seeded inputs, the three workloads' operations and their output checks, and
the computed (not measured) model counts next to them.

Every input comes from the run's `--seed`: FSRCNN(x=56, y=12, z=4, K_D=9)
weights for scales 2, 3 and 4, drawn like the test suite's random weight
documents, and a fresh image or layer input per operation.
"""
from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import oracles

X, Y, Z, KD, SCALES = 56, 12, 4, 9, (2, 3, 4)
TILES = (56, 9)                  # Tm, Tn of the `cycles --model fsrcnn` preset
LINE_BUFFER_BITS = 13


def conv_shapes() -> list[tuple[int, int, int]]:
    """(kernel, out_maps, in_maps) of the FSRCNN conv layers L0..L6."""
    return [(5, X, 1), (1, Y, X)] + [(3, Y, Y)] * Z + [(1, X, Y)]


def weight_doc(seed: int) -> dict:
    """A tdcnet-weights-v1 document, as `json.load` would return it."""
    rng = np.random.default_rng([seed, 0])
    convs = []
    for i, (k, m, n) in enumerate(conv_shapes()):
        convs.append({
            "name": f"conv{i + 1}", "kc": k, "m": m, "n": n,
            "weights": rng.normal(0, 0.2, m * n * k * k).tolist(),
            "bias": rng.normal(0, 0.05, m).tolist(),
            "prelu": np.abs(rng.normal(0, 0.2, m)).tolist(),
        })
    deconvs = [{"scale": s, "kd": KD,
                "weights": rng.normal(0, 0.1, X * KD * KD).tolist(),
                "bias": rng.normal(0, 0.05, 1).tolist()} for s in SCALES]
    return {"format": "tdcnet-weights-v1",
            "config": {"x": X, "y": Y, "z": Z, "kd": KD, "scales": list(SCALES)},
            "conv_layers": convs, "deconv": deconvs}


DECONV_LABEL = f"L{len(conv_shapes())}"


def deconv_row(lib, dec) -> tuple[tuple[int, int, int], int]:
    """(kernel, out_maps, in_maps) of the transformed deconv and its useful
    MACs per input pixel, structural zeros excluded."""
    geom = lib.tdc.derive_geometry(dec.kernel, dec.scale)
    za = lib.tdc.zero_analysis(geom, dec.out_maps, dec.in_maps)
    kc, m = geom.conv_kernel, dec.scale ** 2 * dec.out_maps
    return (kc, m, dec.in_maps), m * dec.in_maps * kc * kc - za.num_zero


def layer_table(lib, net) -> list[tuple[str, object, tuple[int, int, int], int]]:
    """(label, conv spec or None, (kernel, out_maps, in_maps), useful MACs per
    pixel) for L0..L7; L7 is the transformed deconv."""
    rows = [(f"L{i}", c, (c.kernel, c.out_maps, c.in_maps),
             c.out_maps * c.in_maps * c.kernel ** 2)
            for i, c in enumerate(net.layers[:-1])]
    return rows + [(DECONV_LABEL, None, *deconv_row(lib, net.deconv))]


def _layer_counts(lib, rows, dec, h: int, w: int, into: dict) -> None:
    for label, _, (k, m, n), useful in rows:
        into[f"tdc.{label}.macs_dense"] += m * n * k * k * h * w
        into[f"tdc.{label}.macs_useful"] += useful * h * w
    into["scheduler.L7.cycles_proposed"] += lib.scheduler.cycles_proposed(
        dec.out_maps, dec.in_maps, h, w, dec.kernel, dec.scale, *TILES)
    into["scheduler.L7.cycles_baseline"] += lib.scheduler.cycles_baseline(
        dec.out_maps, dec.in_maps, dec.scale * h, dec.scale * w, dec.kernel, *TILES)


def _finish_counts(c: dict) -> dict:
    dense = sum(v for k, v in c.items() if k.endswith("macs_dense"))
    useful = sum(v for k, v in c.items() if k.endswith("macs_useful"))
    c["tdc.useful_mac_ratio"] = useful / dense
    return c


def _blank_counts() -> dict:
    c = {}
    for i in range(len(conv_shapes()) + 1):
        c[f"tdc.L{i}.macs_dense"] = 0
        c[f"tdc.L{i}.macs_useful"] = 0
    for name in ("scheduler.L7.cycles_proposed", "scheduler.L7.cycles_baseline",
                 "scheduler.simulate_dclp.cycles", "scheduler.simulate_dclp.instructions",
                 "pipeline.stream.peak_samples", "dataflow.line_buffer_words"):
        c[name] = 0
    return c


class SuperResolution:
    """`pipeline.infer` or `pipeline.infer_streaming` on fresh RGB images,
    alternating float and fixed mode."""

    kinds = ("float", "fixed")

    def __init__(self, seed: int, scale: int, height: int, width: int,
                 streaming: bool):
        self.scale, self.h, self.w, self.streaming = scale, height, width, streaming
        self.scales = (scale,)
        self.rng = np.random.default_rng([seed, 1])
        self.saturated = 0

    def _image(self, rng) -> np.ndarray:
        return rng.integers(0, 256, (self.h, self.w, 3), dtype=np.uint8)

    def units(self, kind: str) -> float:
        """Output megapixels of one operation."""
        return self.scale ** 2 * self.h * self.w / 1e6

    def op(self, lib, i: int):
        mode = self.kinds[i % 2]
        img, net, s = self._image(self.rng), lib.nets[self.scale], self.scale
        if self.streaming:
            def call():
                return lib.pipeline.infer_streaming(img, net, s, mode)

            def check(out):
                return np.array_equal(out, lib.pipeline.infer(img, net, s, mode))
        else:
            def call():
                return lib.pipeline.infer(img, net, s, mode)

            def check(out):
                if mode == "float":
                    ref = oracles.float_sr(lib, img, net, s)
                    return (out.shape == ref.shape and int(np.max(np.abs(
                        out.astype(np.int16) - ref.astype(np.int16)))) <= 1)
                ref, saturated = oracles.fixed_sr(lib, img, net, s)
                self.saturated += saturated
                return np.array_equal(out, ref)
        return mode, call, check

    def model_counts(self, lib, nets, seed: int) -> dict:
        c = _blank_counts()
        net = nets[self.scale]
        _layer_counts(lib, layer_table(lib, net), net.deconv, self.h, self.w, c)
        if self.streaming:
            stats = lib.pipeline.StreamStats()
            img = self._image(np.random.default_rng([seed, 3]))
            lib.pipeline.infer_streaming(img, net, self.scale, "float", stats=stats)
            c["pipeline.stream.peak_samples"] = sum(stats.peak_samples.values())
            plan = lib.dataflow.plan_dataflow(net, self.w, LINE_BUFFER_BITS)
            c["dataflow.line_buffer_words"] = plan.total_line_buffer_bits // LINE_BUFFER_BITS
        return _finish_counts(c)


CONFIGS = [(kd, s) for s in SCALES for kd in range(s, 12)]    # verify-tdc's 27
TRIALS = 8
SIM_HW = 8


def _run_cli(lib, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(argv)
    return rc, buf.getvalue()


def _replay(lib, layer, x):
    s = layer.scale
    sched = lib.scheduler.schedule_deconv_layer(layer, s * s)
    out, cycles = lib.scheduler.simulate_dclp(x, sched, sched.geometry, TILES[1])
    return sched, out, cycles


def _instructions(sched) -> int:
    return sum(len(st) for g in sched.groups.values() for st in g.streams)


def sim_layer(lib, dec):
    """The FSRCNN deconv at its 13-bit codes, zero codes nudged to one LSB.

    Dyadic weights times small integers sum exactly in float64, so the
    simulator must equal the canvas oracle bit for bit; every one of the
    K_D^2 taps stays a real weight, as the cycle model assumes.
    """
    one = 1 << oracles.Q_FRAC
    codes = np.clip(np.rint(dec.weights * one), -4096, 4095)
    codes = np.where(codes == 0, np.where(dec.weights < 0, -1.0, 1.0), codes)
    return lib.model.DeconvLayerSpec(dec.kernel, dec.scale, dec.out_maps, dec.in_maps,
                                     codes / one, np.rint(dec.bias * one) / one)


class TransformVerify:
    """`cli.main verify-tdc` over the 27 (kd, stride) configs, interleaved with
    schedule + simulate replays of the FSRCNN deconv."""

    kinds = ("verify", "sim")
    scales = SCALES

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self._layers: dict = {}

    def units(self, kind: str) -> float:
        """verify-tdc trials of one operation."""
        return TRIALS if kind == "verify" else 0

    def _layer(self, lib, s: int):
        dec = lib.nets[s].deconv
        if self._layers.get(s, (None,))[0] is not dec:
            self._layers[s] = (dec, sim_layer(lib, dec))
        return self._layers[s][1]

    def _input(self, lib, rng):
        return lib.model.Tensor3(rng.integers(-16, 17, (X, SIM_HW, SIM_HW)).astype(float))

    def op(self, lib, i: int):
        if i % 2 == 0:
            kd, s = CONFIGS[(i // 2) % len(CONFIGS)]
            argv = ["verify-tdc", "--kd", str(kd), "--stride", str(s),
                    "--trials", str(TRIALS), "--seed", str(int(self.rng.integers(2 ** 31)))]

            def call():
                return _run_cli(lib, argv)

            def check(out):
                rc, text = out
                if rc != 0:
                    return False
                res = json.loads(text)["results"]
                return res["failures"] == 0 and res["configs"][0]["trials"] == TRIALS
            return "verify", call, check

        s = SCALES[(i // 2) % len(SCALES)]
        layer, x = self._layer(lib, s), self._input(lib, self.rng)

        def call():
            return _replay(lib, layer, x)

        def check(out):
            sched, got, cycles = out
            want = lib.tdc.deconv_oracle(x, layer).data
            expect = lib.scheduler.cycles_proposed(
                layer.out_maps, layer.in_maps, SIM_HW, SIM_HW, layer.kernel, s,
                s * s, TILES[1])
            return (np.array_equal(oracles.depth_to_space(got.data, s), want)
                    and cycles == expect)
        return "sim", call, check

    def model_counts(self, lib, nets, seed: int) -> dict:
        c = _blank_counts()
        rng = np.random.default_rng([seed, 3])
        for s in SCALES:
            layer = sim_layer(lib, nets[s].deconv)
            row = (DECONV_LABEL, None, *deconv_row(lib, layer))
            _layer_counts(lib, [row], layer, SIM_HW, SIM_HW, c)
            sched, _, cycles = _replay(lib, layer, self._input(lib, rng))
            c["scheduler.simulate_dclp.cycles"] += cycles
            c["scheduler.simulate_dclp.instructions"] += _instructions(sched)
        return _finish_counts(c)


def make(name: str, seed: int):
    if name == "sr_batch":
        return SuperResolution(seed, 4, 96, 96, streaming=False)
    if name == "sr_stream":
        return SuperResolution(seed, 3, 12, 160, streaming=True)
    if name == "tdc_verify":
        return TransformVerify(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sr_batch", "sr_stream", "tdc_verify")
