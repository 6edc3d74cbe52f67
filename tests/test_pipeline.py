import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcnet import quant, reference
from tdcnet.errors import ConfigurationError, DimensionError
from tdcnet.model import NetworkSpec, Tensor3, conv_layer, parse_weights
from tdcnet.pipeline import StreamStats, infer, infer_streaming
from tdcnet.quant import (QFormat, _inference_convs, quantize_array,
                          quantize_network, quantized_conv_rows, quantized_forward)
from tdcnet.reference import (bicubic_upscale_plane, conv2d, depth_to_space,
                              depth_to_space_array, rgb_to_ycbcr, ycbcr_to_rgb)

from conftest import random_net, random_weight_doc
from test_reference import _bicubic_axis, stacked

Q13 = QFormat(13, 9)


class TestInfer:
    def test_identity_conv_passthrough(self, rng):
        net = NetworkSpec((conv_layer(1, 1, 1, np.ones((1, 1, 1, 1))),))
        img = rng.integers(0, 256, (5, 7)).astype(np.uint8)
        assert np.array_equal(infer(img, net, 1), img)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(2, 4),
           h=st.integers(1, 6), w=st.integers(1, 6))
    @example(seed=0, scale=2, h=1, w=1)
    @example(seed=1, scale=3, h=1, w=6)
    @example(seed=2, scale=4, h=6, w=1)
    def test_matches_manual_composition(self, seed, scale, h, w):
        # an independent whole-plane chain: explicit padding, no row blocks
        rng = np.random.default_rng(seed)
        net = random_net(rng, scale=scale)
        img = rng.integers(0, 256, (h, w)).astype(np.uint8)
        cur = Tensor3((img.astype(np.float64) / 255.0)[None])
        for conv, dts in _inference_convs(net):
            cur = conv2d(cur, conv)
            if dts:
                cur = depth_to_space(cur, dts)
        manual = np.clip(np.rint(cur.data[0] * 255.0), 0, 255).astype(np.uint8)
        assert np.array_equal(infer(img, net, scale), manual)
        assert np.array_equal(infer_streaming(img, net, scale), manual)

        qnet = quantize_network(net, Q13, Q13)
        x_raw = quantize_array(img / 255.0, Q13)[None]
        raw = x_raw
        for q in qnet.layers:
            pb, pa = q.spec.pad_before, q.spec.pad_after
            raw = quantized_conv_rows(q, np.pad(raw, ((0, 0), (pb, pa), (pb, pa))), qnet)
            if q.depth_to_space:
                raw = depth_to_space_array(raw, q.depth_to_space)
        assert np.array_equal(quantized_forward(qnet, x_raw), raw)
        manual = np.clip(np.rint(raw[0] * Q13.step * 255.0), 0, 255).astype(np.uint8)
        for run in (infer, infer_streaming):
            assert np.array_equal(run(img, net, scale, mode="fixed"), manual)

    @pytest.mark.parametrize("h, w, scale", [(6, 6, 2), (7, 5, 3), (1, 9, 3)],
                             ids=["6x6-s2", "7x5-s3", "1x9-s3"])
    def test_rgb_chroma_path(self, rng, h, w, scale):
        net = random_net(rng, scale=scale, depth=1)
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        y, cb, cr = rgb_to_ycbcr(img)
        expect = ycbcr_to_rgb(_luma(net, y),
                              bicubic_upscale_plane(cb, scale),
                              bicubic_upscale_plane(cr, scale))
        for run in (infer, infer_streaming):
            out = run(img, net, scale)
            assert out.shape == (h * scale, w * scale, 3)
            assert np.array_equal(out, expect)

    def test_wrong_scale(self, rng):
        with pytest.raises(ConfigurationError):
            infer(np.zeros((4, 4), dtype=np.uint8), random_net(rng, scale=2), 3)

    def test_requires_uint8(self, rng):
        with pytest.raises(ConfigurationError):
            infer(np.zeros((4, 4)), random_net(rng, scale=2), 2)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (0, 0, 3)])
    def test_empty_image(self, rng, shape):
        # one error for both modes and both drivers, as for any bad shape
        net = random_net(rng, scale=2)
        for run in (infer, infer_streaming):
            for mode in ("float", "fixed"):
                with pytest.raises(DimensionError):
                    run(np.zeros(shape, dtype=np.uint8), net, 2, mode=mode)

    @pytest.mark.parametrize("formats", [{"q_weights": QFormat(8, 4)},
                                         {"q_activations": Q13},
                                         {"q_weights": Q13, "q_activations": Q13}])
    def test_float_mode_refuses_formats(self, rng, formats):
        # the float result, formats ignored without a word, before
        net = random_net(rng, scale=2)
        for run in (infer, infer_streaming):
            with pytest.raises(ConfigurationError):
                run(np.zeros((4, 4), dtype=np.uint8), net, 2, mode="float", **formats)

    def test_output_dimensions(self, rng):
        for s in (2, 3):
            net = random_net(rng, scale=s)
            img = rng.integers(0, 256, (5, 6)).astype(np.uint8)
            assert infer(img, net, s).shape == (5 * s, 6 * s)


def _float_chain(net, x):
    """Whole-plane float chain: conv2d with explicit padding, then depth-to-space."""
    cur = Tensor3(x)
    trace = []
    for conv, dts in _inference_convs(net):
        cur = conv2d(cur, conv)
        if dts:
            cur = depth_to_space(cur, dts)
        trace.append(cur.data)
    return trace


def _fixed_chain(qnet, x_raw):
    """Whole-plane fixed chain: np.pad, quantized_conv_rows, depth-to-space."""
    raw, trace = x_raw, []
    for q in qnet.layers:
        pb, pa = q.spec.pad_before, q.spec.pad_after
        raw = quantized_conv_rows(q, np.pad(raw, ((0, 0), (pb, pa), (pb, pa))), qnet)
        if q.depth_to_space:
            raw = depth_to_space_array(raw, q.depth_to_space)
        trace.append(raw)
    return trace


def _tile_rows(w):
    return max(2, quant._TILE_PIXELS // w)


def _band_rows(w, scale):
    """Input rows of one colour band: its float64 Y, Cb and Cr within the
    scratch budget, but at least 4."""
    return max(4, reference._rows_within(24 * w * scale * scale))


# (rows, w, scale): T + rows input rows, T = _tile_rows(w), at a random scale
# (a 96-wide plane takes tiles of many rows, the wider one the 2-row floor);
# or a whole height at one scale: 96x96 s=4, 12x160 s=3, and colour bands
# meeting at +-1 input row
SEAMS = [(rows, w, None) for w in (96, quant._TILE_PIXELS // 2 + 1)
         for rows in (-1, 0, 1, "2T+1")] + [(96, 96, 4), (12, 160, 3)] + [
    (_band_rows(w, s) * k + d, w, s) for w, s in ((96, 4), (160, 3), (160, 2))
    for k, d in ((1, -1), (1, 1), (2, 1))]


class TestRowTiles:
    """Batch inference runs in row tiles of _tile_rows(W), and colour in
    bands of _band_rows(W, scale); every tile and band boundary must leave
    the output exactly as whole-plane passes give it."""

    @pytest.mark.parametrize("rows, w, scale", SEAMS, ids=[
        f"{r}-{w}" if s is None else f"{r}x{w}-s{s}" for r, w, s in SEAMS])
    @pytest.mark.parametrize("rgb", [False, True], ids=["grey", "rgb"])
    @pytest.mark.parametrize("mode", ["float", "fixed"])
    def test_tiles_cross_boundaries_exactly(self, rows, w, scale, rgb, mode):
        # the expected RGB comes from a test-side colour path: BT.601
        # formulas for Y, Cb and Cr, the gather loop of bicubic and the
        # stacked conversion of test_reference; no library colour function,
        # which the benchmark's own oracle calls and so cannot check
        if scale is None:
            t = _tile_rows(w)
            assert t > 2 if w == 96 else t == 2
            h = 2 * t + 1 if rows == "2T+1" else t + rows
        else:
            h = rows
        rng = np.random.default_rng([w, h, rgb])
        scale = scale or int(rng.integers(2, 5))
        net = random_net(rng, scale=scale)
        img = rng.integers(0, 256, (h, w, 3) if rgb else (h, w)).astype(np.uint8)
        x = img.astype(np.float64)
        if rgb:
            y_full = 0.299 * x[..., 0] + 0.587 * x[..., 1] + 0.114 * x[..., 2]
            y = np.clip(16.0 + (219.0 / 255.0) * y_full, 16.0, 235.0)
        else:
            y = x
        if mode == "float":
            luma = _float_chain(net, (y / 255.0)[None])[-1][0] * 255.0
        else:
            qnet = quantize_network(net, Q13, Q13)
            x_raw = quantize_array((y / 255.0)[None], Q13)
            raw = _fixed_chain(qnet, x_raw)[-1]
            assert np.array_equal(quantized_forward(qnet, x_raw), raw)
            luma = raw[0] * Q13.step * 255.0
        luma = np.clip(np.rint(luma), 0, 255)
        if rgb:
            cb, cr = (np.clip(128.0 + (112.0 / 255.0) * (x[..., c] - y_full) / (1.0 - k),
                              16.0, 240.0) for c, k in ((2, 0.114), (0, 0.299)))
            want = stacked(luma, *(_bicubic_axis(_bicubic_axis(p, scale, 0), scale, 1)
                                   for p in (cb, cr)))
        else:
            want = luma.astype(np.uint8)
        for run in (infer, infer_streaming):
            assert run(img, net, scale, mode=mode).tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", [17, 1000])
    def test_trace_is_stitched(self, w):
        rng = np.random.default_rng(w)
        net = random_net(rng, scale=3, depth=3)
        h = 2 * _tile_rows(w) + 3                  # three tiles or more
        x = rng.uniform(0, 1, (1, h, w))
        want = _float_chain(net, x)
        out, trace = quant.float_forward(net, Tensor3(x), collect=True)
        assert len(trace) == len(want)
        for got, ref in zip(trace, want):
            assert np.array_equal(got.data, ref)
        assert np.array_equal(out.data, want[-1])

        qnet = quantize_network(net, Q13, Q13)
        x_raw = quantize_array(x, Q13)
        want = _fixed_chain(qnet, x_raw)
        out, trace = quantized_forward(qnet, x_raw, collect=True)
        assert len(trace) == len(want)
        for got, ref in zip(trace, want):
            assert got.dtype == np.int64 and np.array_equal(got, ref)
        assert np.array_equal(out, want[-1])


def _luma(net, y_plane):
    from tdcnet.quant import float_forward
    out = float_forward(net, Tensor3((y_plane / 255.0)[None]))
    return np.clip(np.rint(out.data[0] * 255.0), 0.0, 255.0)


class TestStreaming:
    def test_equals_batch_float(self, rng):
        for _ in range(8):
            net = random_net(rng)
            img = rng.integers(0, 256, (int(rng.integers(1, 8)),
                                        int(rng.integers(2, 8)))).astype(np.uint8)
            assert np.array_equal(infer_streaming(img, net, 2),
                                  infer(img, net, 2))

    # the float64 rint epilogue on BLAS sums, the int64 shift epilogue on BLAS
    # sums, and conv_taps on int64 codes with the shift epilogue
    @pytest.mark.parametrize("q, shifts, loops", [
        (Q13, False, False), (QFormat(24, 20), True, False), (QFormat(32, 28), True, True),
    ], ids=["q13_rint", "q24_shift", "q32_loop"])
    def test_equals_batch_fixed_bitwise(self, monkeypatch, rng, q, shifts, loops):
        calls = {"shifts": 0, "loops": 0}
        def count(key, fn, when=lambda *a: True):
            return lambda *a: calls.__setitem__(key, calls[key] + when(*a)) or fn(*a)
        monkeypatch.setattr(quant, "_rshift_half_even_into",
                            count("shifts", quant._rshift_half_even_into))
        monkeypatch.setattr(quant, "conv_taps", count(   # conv_taps on int64 codes
            "loops", quant.conv_taps, lambda x, *a: x.dtype == np.int64))
        for _ in range(8):
            net = random_net(rng)
            img = rng.integers(0, 256, (int(rng.integers(1, 8)),
                                        int(rng.integers(2, 8)))).astype(np.uint8)
            a = infer_streaming(img, net, 2, mode="fixed",
                                q_weights=q, q_activations=q)
            b = infer(img, net, 2, mode="fixed",
                      q_weights=q, q_activations=q)
            assert np.array_equal(a, b)
        assert (bool(calls["shifts"]), bool(calls["loops"])) == (shifts, loops)

    def test_one_row_image(self, rng):
        net = random_net(rng, scale=2)
        img = rng.integers(0, 256, (1, 9)).astype(np.uint8)
        assert np.array_equal(infer_streaming(img, net, 2), infer(img, net, 2))

    def test_rgb(self, rng):
        net = random_net(rng, scale=2)
        img = rng.integers(0, 256, (5, 4, 3)).astype(np.uint8)
        assert np.array_equal(infer_streaming(img, net, 2), infer(img, net, 2))

    def test_peak_buffering_matches_plan(self, rng):
        net = random_net(rng, scale=2, depth=3)
        img = rng.integers(0, 256, (6, 7)).astype(np.uint8)
        stats = StreamStats()
        infer_streaming(img, net, 2, stats=stats)
        convs = _inference_convs(net)
        w = img.shape[1]
        expected = {}
        idx = 0
        for i, (conv, dts) in enumerate(convs):
            fused = conv.kernel == 1 and i > 0
            expected[idx] = 0 if fused else conv.kernel * w * conv.in_maps
            idx += 1
            if dts:
                idx += 1
        assert stats.peak_samples == expected


class TestMemory:
    """Rows in, rows out: a call keeps only tile-sized float scratch, so its
    traced allocation peak grows with its 8-bit output alone."""

    MARGIN = 16384          # bytes; a float64 copy of the smaller input plane is 73728

    @pytest.mark.parametrize("run", [infer, infer_streaming])
    @pytest.mark.parametrize("rgb", [False, True], ids=["grey", "rgb"])
    @pytest.mark.parametrize("mode", ["float", "fixed"])
    def test_doubling_height_adds_only_output(self, run, rgb, mode):
        net = random_net(np.random.default_rng(5), scale=2, depth=3)
        w = 96

        def peak(h):
            img = np.random.default_rng(h).integers(0, 256, (h, w, 3) if rgb else (h, w),
                                                    dtype=np.uint8)
            run(img, net, 2, mode)             # numpy's one-off allocations first
            gc.collect()
            tracemalloc.start()
            try:
                run(img, net, 2, mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        h = 3 * quant._tile_rows(w)            # so both heights run a tile between the edge ones
        extra_output = h * w * 2 * 2 * (3 if rgb else 1)
        assert peak(2 * h) - peak(h) <= extra_output + self.MARGIN


class TestScratchBudget:
    """The executor's private scratch budget (reference._SCRATCH_BYTES) bounds
    every per-push temporary: its per-layer caps keep each layer's block and
    output, so also the PReLU products formed on that output, within the
    budget or at one row."""

    @staticmethod
    def _peak(call):
        call()                                  # numpy's one-off allocations first
        gc.collect()
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("mode", ["float", "fixed"])
    @pytest.mark.parametrize("shape", [(96, 96, 3), (6, 640), (3, 1920)],
                             ids=["96x96_rgb", "6x640_grey", "3x1920_grey"])
    def test_prelu_sums_within_the_budget(self, monkeypatch, mode, shape):
        # FSRCNN(56, 12, 4, K_D = 9) at s = 4: at 640 and 1920 wide one row of
        # a 56-map layer is a third of the budget or more, so the caps split
        # pushes; every block PReLU sees must fit the budget or be one row
        ws = parse_weights(random_weight_doc(np.random.default_rng(3), x=56, y=12, z=4,
                                             kd=9, scales=(4,)))
        img = np.random.default_rng(5).integers(0, 256, shape, dtype=np.uint8)
        blocks = []
        prelu = reference._prelu_into
        def spy(v, slopes, product):
            blocks.append((v.nbytes, v.shape[1]))
            prelu(v, slopes, product)
        monkeypatch.setattr(reference, "_prelu_into", spy)
        monkeypatch.setattr(quant, "_prelu_into", spy)
        for f in (infer, infer_streaming):
            f(img, ws.network(4), 4, mode)
        assert blocks
        assert all(size <= reference._SCRATCH_BYTES or rows == 1 for size, rows in blocks)

    @pytest.mark.parametrize("mode", ["float", "fixed"])
    def test_fsrcnn_infer_peak(self, mode):
        # FSRCNN(56, 12, 4, K_D = 9) at 96x96 RGB, s = 4: the uint8 output is
        # 0.42 MiB; the rest is the executor's bounded pushes or a chroma band
        # (2.4 MiB in all, against 3.6 / 3.8 MiB with block-sized products)
        ws = parse_weights(random_weight_doc(np.random.default_rng(3), x=56, y=12, z=4,
                                             kd=9, scales=(4,)))
        img = np.random.default_rng(4).integers(0, 256, (96, 96, 3), dtype=np.uint8)
        _, peak = self._peak(lambda: infer(img, ws.network(4), 4, mode))
        assert peak < 2.6 * 2 ** 20


class TestCompiledChains:
    """Each network keeps its transformed float chain and one fixed-point
    chain, built on first use; per-call state (line buffers) stays per call."""

    FORMATS = [("float", None), ("fixed", Q13), ("fixed", QFormat(32, 28)), ("fixed", Q13)]

    @staticmethod
    def _doc():
        return random_weight_doc(np.random.default_rng(11), x=6, y=3, z=2, kd=7, scales=(3,))

    @staticmethod
    def _run(f, img, net, mode, q):
        kw = {} if q is None else {"q_weights": q, "q_activations": q}
        return f(img, net, 3, mode, **kw)

    def test_second_call_compiles_nothing(self, monkeypatch, rng):
        calls = {"transform_weights": 0, "quantize_network": 0}
        for name in calls:
            fn = getattr(quant, name)
            monkeypatch.setattr(quant, name, lambda *a, fn=fn, name=name: (
                calls.__setitem__(name, calls[name] + 1) or fn(*a)))
        net = parse_weights(self._doc()).network(3)
        img = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        for f in (infer, infer_streaming):
            for mode in ("float", "fixed"):
                f(img, net, 3, mode)
        assert calls == {"transform_weights": 1, "quantize_network": 1}
        for f in (infer, infer_streaming):
            for mode in ("float", "fixed"):
                f(img, net, 3, mode)
        assert calls == {"transform_weights": 1, "quantize_network": 1}

    @pytest.mark.parametrize("f", [infer, infer_streaming])
    def test_cache_hits_equal_a_fresh_network(self, rng, f):
        # Q13 -> Q32.28 -> Q13 replaces the fixed chain twice on one network
        doc = self._doc()
        net = parse_weights(doc).network(3)
        img = rng.integers(0, 256, (6, 5, 3)).astype(np.uint8)
        for mode, q in self.FORMATS:
            fresh = self._run(f, img, parse_weights(doc).network(3), mode, q)
            for _ in range(2):                  # cache fill, then cache hit
                assert np.array_equal(self._run(f, img, net, mode, q), fresh)
            if q is not None:
                assert net._chains["fixed"].q_activations == q

    def test_sweep_keeps_one_fixed_chain(self, rng):
        net = parse_weights(self._doc()).network(3)
        imgs = [rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)]
        quant.sweep_bitwidth(net, imgs, range(8, 17), 3)
        assert sorted(net._chains) == ["fixed", "float"]
        assert net._chains["fixed"].q_weights == QFormat(16, 12)

    def test_two_threads_stream_one_network(self, rng):
        # both threads fill and replace the fixed chain while the other runs on it
        import sys
        import threading
        doc = self._doc()
        imgs = [rng.integers(0, 256, (4, 6, 3)).astype(np.uint8) for _ in range(2)]
        want = [[self._run(infer_streaming, img, parse_weights(doc).network(3), *fmt)
                 for fmt in self.FORMATS] for img in imgs]
        net = parse_weights(doc).network(3)
        start, got = threading.Barrier(2, timeout=60), [None, None]

        def stream(i):
            start.wait()
            got[i] = [self._run(infer_streaming, imgs[i], net, *fmt) for fmt in self.FORMATS]

        threads = [threading.Thread(target=stream, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert g is not None and all(np.array_equal(a, b) for a, b in zip(g, w))
