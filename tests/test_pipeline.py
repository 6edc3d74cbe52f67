import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcnet import quant
from tdcnet.errors import ConfigurationError, DimensionError
from tdcnet.model import NetworkSpec, Tensor3, conv_layer
from tdcnet.pipeline import StreamStats, infer, infer_streaming
from tdcnet.quant import (QFormat, _inference_convs, quantize_array,
                          quantize_network, quantized_conv_rows, quantized_forward)
from tdcnet.reference import (bicubic_upscale_plane, conv2d, depth_to_space,
                              depth_to_space_array, rgb_to_ycbcr, ycbcr_to_rgb)

from conftest import random_net

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


class TestRowTiles:
    """Batch inference runs in row tiles of _tile_rows(W); every tile boundary
    must leave the output exactly as one whole-plane pass gives it."""

    # a 96-wide plane takes tiles of many rows, the wider one the 2-row floor
    @pytest.mark.parametrize("w", [96, quant._TILE_PIXELS // 2 + 1])
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2T+1"])
    @pytest.mark.parametrize("rgb", [False, True], ids=["grey", "rgb"])
    @pytest.mark.parametrize("mode", ["float", "fixed"])
    def test_tiles_cross_boundaries_exactly(self, w, extra, rgb, mode):
        t = _tile_rows(w)
        assert t > 2 if w == 96 else t == 2
        h = 2 * t + 1 if extra == "2T+1" else t + extra
        rng = np.random.default_rng([w, h, rgb])
        scale = int(rng.integers(2, 5))
        net = random_net(rng, scale=scale)
        img = rng.integers(0, 256, (h, w, 3) if rgb else (h, w)).astype(np.uint8)
        y, cb, cr = rgb_to_ycbcr(img) if rgb else (img.astype(np.float64), None, None)
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
            want = ycbcr_to_rgb(luma, bicubic_upscale_plane(cb, scale),
                                bicubic_upscale_plane(cr, scale))
        else:
            want = luma.astype(np.uint8)
        for run in (infer, infer_streaming):
            assert np.array_equal(run(img, net, scale, mode=mode), want)

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
