import itertools
import warnings

import numpy as np
import pytest

from tdcnet.errors import ConfigurationError, DimensionError
from tdcnet.model import NetworkSpec, Tensor3, conv_layer, parse_weights
from tdcnet.pipeline import infer
from tdcnet.quant import (QFormat, QuantizedNetwork, dequantize, double_mac_product,
                          fixed_point_error_bound, float_forward, quantize_array,
                          quantize_network, quantize_value, quantized_forward,
                          round_half_even_rshift, sweep_bitwidth)

from conftest import random_net, random_weight_doc

Q13 = QFormat(13, 9)


class TestQFormat:
    def test_range(self):
        assert Q13.min_raw == -4096 and Q13.max_raw == 4095
        assert Q13.step == 2.0 ** -9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QFormat(1, 0)
        with pytest.raises(ConfigurationError):
            QFormat(8, 8)


class TestQuantizeValue:
    def test_exact(self):
        assert quantize_value(0.5, Q13) == 256

    def test_third(self):
        raw = quantize_value(1.0 / 3.0, Q13)
        assert raw == 171
        assert dequantize(raw, Q13) == pytest.approx(0.333984375)

    def test_saturation(self):
        assert quantize_value(100.0, Q13) == 4095
        assert quantize_value(-100.0, Q13) == -4096

    def test_half_to_even(self):
        q = QFormat(8, 1)
        assert quantize_value(0.75, q) == 2     # 1.5 -> 2
        assert quantize_value(1.25, q) == 2     # 2.5 -> 2

    def test_saturation_is_silent(self):
        # 1e308 * 2**31 passes float64's range; the value is clipped first
        q = QFormat(32, 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quantize_array(np.array([1e308, -1e308]), q).tolist() == [q.max_raw,
                                                                             q.min_raw]
            assert quantize_value(1e308, q) == q.max_raw
            assert quantize_value(-np.inf, q) == q.min_raw

    def test_roundtrip_error_bound(self, rng):
        v = rng.uniform(-3, 3, 1000)
        err = np.abs(dequantize(quantize_array(v, Q13), Q13) - v)
        assert err.max() <= 2.0 ** -10

    def test_idempotent_on_representable(self, rng):
        raw = rng.integers(Q13.min_raw, Q13.max_raw + 1, 100)
        again = quantize_array(dequantize(raw, Q13), Q13)
        assert np.array_equal(again, raw)


class TestRoundHalfEvenRshift:
    def test_cases(self):
        assert round_half_even_rshift(np.array([5]), 1)[0] == 2     # 2.5 -> 2
        assert round_half_even_rshift(np.array([7]), 1)[0] == 4     # 3.5 -> 4
        assert round_half_even_rshift(np.array([-5]), 1)[0] == -2   # -2.5 -> -2
        assert round_half_even_rshift(np.array([6]), 2)[0] == 2     # 1.5 -> 2

    def test_matches_float_rint(self, rng):
        v = rng.integers(-10000, 10000, 2000)
        got = round_half_even_rshift(v, 4)
        want = np.rint(v / 16.0).astype(np.int64)
        assert np.array_equal(got, want)


class TestQuantizedForward:
    def test_lossless_when_representable(self, rng):
        # weights in 1/16 steps are exact in any format with >= 4 frac bits
        k, m, n = 3, 2, 2
        layer = conv_layer(k, m, n,
                           rng.integers(-8, 9, (m, n, k, k)) / 16.0,
                           rng.integers(-8, 9, m) / 16.0)
        net = NetworkSpec((layer,))
        q = QFormat(24, 12)
        qnet = quantize_network(net, q, q)
        x_raw = (rng.integers(-4, 5, (n, 4, 4)) * (1 << 12)).astype(np.int64)
        out_raw = quantized_forward(qnet, x_raw)
        want = float_forward(net, Tensor3(x_raw * q.step)).data
        assert np.array_equal(out_raw * q.step, want)

    def test_zero_network(self, rng):
        net = NetworkSpec((conv_layer(3, 1, 1, np.zeros((1, 1, 3, 3))),))
        for bits in (8, 13, 16):
            q = QFormat(bits, bits - 4)
            out = quantized_forward(quantize_network(net, q, q),
                                    np.full((1, 3, 3), 7, dtype=np.int64))
            assert not out.any()

    def test_rejects_codes_outside_the_activation_format(self):
        # int64 products of such codes would wrap: 2**62 * 0.5 returned 0
        qnet = quantize_network(NetworkSpec((conv_layer(1, 1, 1, [[[[0.5]]]]),)), Q13, Q13)
        for bad in (2 ** 62, Q13.max_raw + 1, Q13.min_raw - 1):
            with pytest.raises(ConfigurationError, match=r"\[-4096, 4095\]"):
                quantized_forward(qnet, np.array([[[0, bad]]]))
        out = quantized_forward(qnet, np.array([[[Q13.min_raw, Q13.max_raw]]]))
        assert out.tolist() == [[[-2048, 2048]]]

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_layer_input_channels_checked(self, rng, kernel):
        # each layer's input is checked against its in_maps, also past the
        # first layer, as a hand-built QuantizedNetwork is not validated
        net = random_net(rng)
        qnet = quantize_network(net, Q13, Q13)
        with pytest.raises(DimensionError, match="input channels 2 != layer in_maps 1"):
            float_forward(net, Tensor3(rng.uniform(0, 1, (2, 4, 4))))
        with pytest.raises(DimensionError, match="input channels 2 != layer in_maps 1"):
            quantized_forward(qnet, np.zeros((2, 4, 4), dtype=np.int64))
        layers = tuple(quantize_network(NetworkSpec((conv_layer(k, m, n, np.ones((m, n, k, k))),)),
                                        Q13, Q13).layers[0]
                       for k, m, n in ((3, 2, 1), (kernel, 1, 3)))    # 2 maps out, 3 in
        with pytest.raises(DimensionError, match="input channels 2 != layer in_maps 3"):
            quantized_forward(QuantizedNetwork(layers, Q13, Q13),
                              np.zeros((1, 4, 4), dtype=np.int64))

    def test_error_within_self_computed_bound(self, rng):
        for _ in range(5):
            net = random_net(rng)
            qnet = quantize_network(net, Q13, Q13)
            bounds = fixed_point_error_bound(net, qnet)
            x = rng.uniform(0, 1, (1, 5, 5))
            x_raw = quantize_array(x, Q13)
            _, fixed_trace = quantized_forward(qnet, x_raw, collect=True)
            _, float_trace = float_forward(net, Tensor3(x_raw * Q13.step),
                                           collect=True)
            for bound, f_raw, f_ref in zip(bounds, fixed_trace, float_trace):
                err = np.abs(f_raw * Q13.step - f_ref.data).max()
                assert err <= bound + 1e-12


    def test_rejects_non_integer_codes(self):
        qnet = quantize_network(NetworkSpec((conv_layer(1, 1, 1, [[[[1.0]]]]),)), Q13, Q13)
        with pytest.raises(ConfigurationError, match="integers"):
            quantized_forward(qnet, np.array([[[0.7, 2.9, -1.5]]]))
        with pytest.raises(ConfigurationError):
            quantized_forward(qnet, np.array([[[0.0, np.nan]]]))
        out = quantized_forward(qnet, np.array([[[0.0, 2.0, -1.0]]]))
        assert out.tolist() == [[[0, 2, -1]]]

    @pytest.mark.parametrize("bits", [16, 24, 27, 28, 30, 32])
    def test_prelu_rescale_exact_in_wide_formats(self, rng, bits):
        # inputs across the whole format: at 27 bits and more the sums times
        # the slope codes pass 2**63, which int64 products wrapped
        q = QFormat(bits, bits - 4)
        layer = conv_layer(3, 2, 2, rng.normal(0, 0.3, (2, 2, 3, 3)),
                           rng.normal(0, 0.05, 2), np.array([0.25, 1.5]))
        qnet = quantize_network(NetworkSpec((layer,)), q, q)
        x = rng.integers(q.min_raw, q.max_raw + 1, (2, 4, 5))
        assert np.array_equal(quantized_forward(qnet, x), _python_int_layer(qnet, x))

    def test_codes_rounded_to_zero_skip_their_taps(self, rng):
        # weights below half a step at two (map, tap)s leave the float layer
        # dense, but its codes are zero there: their own runs skip those taps,
        # and the sums stay exact
        w = rng.choice([-1.0, 1.0], (2, 2, 3, 3)) * rng.uniform(0.1, 0.5, (2, 2, 3, 3))
        w[0, :, 0, 1] = w[1, :, 2, 2] = 1e-4
        layer = conv_layer(3, 2, 2, w, rng.normal(0, 0.05, 2), np.array([0.25, 1.5]))
        qnet = quantize_network(NetworkSpec((layer,)), Q13, Q13)
        everything = slice(None)
        assert layer.operands.runs is None
        assert qnet.layers[0].operands.runs == (
            (0, 0, 6, everything), (1, 0, 2, slice(1, 2, 1)), (1, 2, 6, everything),
            (2, 0, 4, everything), (2, 4, 6, slice(0, 1, 1)))
        x = rng.integers(Q13.min_raw, Q13.max_raw + 1, (2, 4, 5))
        assert np.array_equal(quantized_forward(qnet, x), _python_int_layer(qnet, x))

    def test_wide_sums_refused_not_wrapped(self):
        # the true sum 3 * (2**31 - 1) * -2**31 = -1.38e19 wrapped int64 to
        # +2147483647; two weights' -(2**63 - 2**32) lies in [2**62, 2**63), so
        # is refused too; a single weight's -(2**62 - 2**31) still runs and saturates
        q = QFormat(32, 0)

        def run(maps):
            w = np.full((1, maps, 1, 1), 2.0 ** 31 - 1)
            qnet = quantize_network(NetworkSpec((conv_layer(1, 1, maps, w),)), q, q)
            return quantized_forward(qnet, np.full((maps, 1, 1), q.min_raw))

        for maps in (3, 2):
            with pytest.raises(ConfigurationError, match=r"2\*\*62"):
                run(maps)
        assert run(1).tolist() == [[[q.min_raw]]]

    def test_wide_formats_track_float(self):
        rng = np.random.default_rng(3)
        net = parse_weights(random_weight_doc(rng, x=8, y=4, z=2, kd=9)).network(2)
        img = rng.integers(0, 256, (10, 10, 3), dtype=np.uint8)
        ref = infer(img, net, 2).astype(int)
        for bits in (24, 28, 32):
            q = QFormat(bits, bits - 4)
            out = infer(img, net, 2, "fixed", q, q).astype(int)
            assert np.abs(out - ref).max() <= 1, bits


def _python_int_layer(qnet, x):
    """One same-padded fixed-point conv layer with PReLU, in Python ints."""
    ql, qa, bits = qnet.layers[0], qnet.q_activations, qnet.q_weights.frac_bits

    def rshift_even(v):
        q, r = divmod(v, 1 << bits)
        return q + (r > 1 << (bits - 1) or (r == 1 << (bits - 1) and q % 2 == 1))

    w = ql.weights_raw.tolist()
    m_maps, n_maps, k, _ = ql.weights_raw.shape
    _, h, wd = x.shape
    pad = ql.spec.pad_before
    out = np.zeros((m_maps, h, wd), dtype=np.int64)
    for m, y, xx in itertools.product(range(m_maps), range(h), range(wd)):
        v = int(ql.bias_raw[m]) + sum(
            w[m][n][i][j] * int(x[n, y + i - pad, xx + j - pad])
            for n, i, j in itertools.product(range(n_maps), range(k), range(k))
            if 0 <= y + i - pad < h and 0 <= xx + j - pad < wd)
        if v < 0:
            v = rshift_even(v * int(ql.prelu_raw[m]))
        out[m, y, xx] = min(qa.max_raw, max(qa.min_raw, rshift_even(v)))
    return out


class TestDoubleMac:
    def test_zero(self):
        for b in (-4096, -1, 0, 1, 4095):
            assert double_mac_product(0, b) == 0

    def test_square(self):
        assert double_mac_product(4095, 4095) == 16769025

    def test_extreme(self):
        assert double_mac_product(-4096, 4095) == -16773120

    def test_random_pairs(self, rng):
        a = rng.integers(-4096, 4096, 10000)
        b = rng.integers(-4096, 4096, 10000)
        assert np.array_equal(double_mac_product(a, b), a * b)

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            double_mac_product(4096, 0)


class TestSweepBitwidth:
    def test_structural(self, rng):
        net = random_net(rng, depth=1)
        imgs = [rng.integers(0, 256, (8, 8)).astype(np.uint8)]
        res = sweep_bitwidth(net, imgs, [8, 13, 16], 2)
        assert [b for b, _ in res] == [8, 13, 16]

    def test_zero_network_constant_psnr(self, rng):
        from tdcnet.model import DeconvLayerSpec
        net = NetworkSpec((DeconvLayerSpec(4, 2, 1, 1, np.zeros((1, 1, 4, 4)),
                                           np.zeros(1)),))
        imgs = [rng.integers(0, 256, (6, 6)).astype(np.uint8)]
        res = sweep_bitwidth(net, imgs, [8, 13], 2)
        assert res[0][1] == res[1][1]

    def test_empty_images(self, rng):
        with pytest.raises(ConfigurationError):
            sweep_bitwidth(random_net(rng), [], [13], 2)
