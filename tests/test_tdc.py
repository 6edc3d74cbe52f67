import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from tdcnet.errors import ConfigurationError
from tdcnet.model import DeconvLayerSpec, Tensor3
from tdcnet.reference import conv2d, depth_to_space
from tdcnet.tdc import (_axis_map, deconv_oracle, deconv_via_transform, derive_geometry,
                        find_crop_offset, map_coefficient, transform_plan,
                        transform_weights, zero_analysis)

from conftest import random_deconv

# (deconv kernel, stride) -> (conv kernel, zero-weight percentage)
KNOWN_GEOMETRY = {
    (9, 2): (5, 19.0), (9, 3): (3, 0.0), (9, 4): (3, 43.8),
    (7, 2): (4, 23.4), (7, 3): (3, 39.5), (7, 4): (2, 23.4),
    (5, 2): (3, 30.6), (5, 3): (2, 30.6), (5, 4): (2, 60.9),
}


class TestGeometry:
    @pytest.mark.parametrize("kd,s", sorted(KNOWN_GEOMETRY))
    def test_conv_kernel(self, kd, s):
        assert derive_geometry(kd, s).conv_kernel == KNOWN_GEOMETRY[(kd, s)][0]

    def test_overlap_values(self):
        assert derive_geometry(9, 2).overlap == Fraction(2)
        assert derive_geometry(7, 2).overlap == Fraction(3, 2)
        assert derive_geometry(5, 4).overlap == Fraction(1, 2)

    def test_half_overlap_is_exact(self):
        # the 0.5 boundary must be hit exactly, not via float comparison
        assert derive_geometry(7, 2).overlap_frac_ge_half
        assert not derive_geometry(5, 2).overlap_frac_ge_half

    def test_rejects_kernel_below_stride(self):
        with pytest.raises(ConfigurationError):
            derive_geometry(3, 4)

    @pytest.mark.parametrize("kd,s,c", [(5, 2, 1), (7, 2, 2), (5, 4, -2),
                                        (9, 2, 3), (9, 3, 3), (9, 4, 1)])
    def test_crop_offset_closed_form(self, kd, s, c):
        assert derive_geometry(kd, s).crop_offset == c


def _geometry_oracle(kd, s):
    """K_C, the half-overlap branch, the crop offset and the axis map as
    rational arithmetic and a loop over every (phase, tap) pair."""
    overlap = Fraction(kd // 2, s)
    whole = overlap.numerator // overlap.denominator
    ge_half = overlap - whole >= Fraction(1, 2)
    kc = 2 * -(-overlap.numerator // overlap.denominator) if ge_half else 2 * whole + 1
    crop = kd - s * (kc // 2 + 1) + (1 if ge_half else 0)
    table = np.full((s, kc), -1, dtype=int)
    for o in range(s):
        for i in range(kc):
            d = (kd + (1 if ge_half else 0) - s * i) - (s - o)
            if 0 <= d < kd:
                table[o, i] = d
    return (kd, s, overlap, kc, ge_half, crop), table


class TestGeometryOracle:
    def test_integer_geometry_equals_rational_oracle(self):
        pairs = [(kd, s) for s in range(2, 13) for kd in range(s, 41)]
        assert len(pairs) == 374
        for kd, s in pairs:
            geom = derive_geometry(kd, s)
            fields, table = _geometry_oracle(kd, s)
            got = dataclasses.astuple(geom)
            assert got == fields and [type(v) for v in got[3:]] == [int, bool, int]
            axis = _axis_map(geom)
            assert axis.dtype == table.dtype and np.array_equal(axis, table)


class TestMapCoefficient:
    def test_hand_examples(self):
        geom = derive_geometry(5, 2)
        assert map_coefficient(geom, 0, 0, 1, 1) == (4, 4)
        assert map_coefficient(geom, 2, 2, 0, 0) is None     # x_d = -1
        assert map_coefficient(geom, 1, 1, 0, 0) == (1, 1)   # x_r = 3

    def test_range_check(self):
        geom = derive_geometry(5, 2)
        with pytest.raises(ConfigurationError):
            map_coefficient(geom, 3, 0, 0, 0)

    @pytest.mark.parametrize("kd,s", sorted(KNOWN_GEOMETRY))
    def test_bijection(self, kd, s):
        geom = derive_geometry(kd, s)
        kc = geom.conv_kernel
        seen = {}
        for yo in range(s):
            for xo in range(s):
                for yi in range(kc):
                    for xi in range(kc):
                        d = map_coefficient(geom, xi, yi, xo, yo)
                        if d is not None:
                            assert d not in seen, (d, seen[d], (xi, yi, xo, yo))
                            seen[d] = (xi, yi, xo, yo)
        assert len(seen) == kd * kd


class TestZeroAnalysis:
    @pytest.mark.parametrize("kd,s", sorted(KNOWN_GEOMETRY))
    def test_known_ratios(self, kd, s):
        za = zero_analysis(derive_geometry(kd, s), 1, 1)
        assert abs(100.0 * za.zero_ratio - KNOWN_GEOMETRY[(kd, s)][1]) <= 0.0501

    def test_num_zero_scales_with_maps(self):
        geom = derive_geometry(9, 2)
        assert zero_analysis(geom, 1, 56).num_zero == 19 * 56 == 1064

    def test_per_filter_counts_5_2(self):
        za = zero_analysis(derive_geometry(5, 2), 1, 1)
        assert sorted(za.per_filter_nonzero) == [4, 6, 6, 9]
        assert sum(za.per_filter_nonzero) == 25


class TestTransformWeights:
    def test_zero_weights_stay_zero(self):
        layer = DeconvLayerSpec(5, 2, 1, 1, np.zeros((1, 1, 5, 5)), np.zeros(1))
        conv, _ = transform_weights(layer)
        assert not conv.weights.any()

    def test_entries_permuted_not_lost(self):
        w = np.arange(1.0, 26.0).reshape(1, 1, 5, 5)
        layer = DeconvLayerSpec(5, 2, 1, 1, w, np.zeros(1))
        conv, _ = transform_weights(layer)
        assert conv.kernel == 3 and conv.out_maps == 4
        nonzero = conv.weights[conv.weights != 0]
        assert sorted(nonzero.tolist()) == list(range(1, 26))
        counts = sorted(int(np.count_nonzero(conv.weights[p])) for p in range(4))
        assert counts == [4, 6, 6, 9]

    def test_bias_on_every_phase(self, rng):
        layer = random_deconv(rng, 5, 2, m=2, n=1)
        conv, _ = transform_weights(layer)
        assert np.array_equal(conv.bias, np.repeat(layer.bias, 4))

    def test_equivalence_sample(self, rng):
        for kd, s in [(5, 2), (7, 2), (9, 3), (9, 4), (5, 4)]:
            layer = random_deconv(rng, kd, s)
            x = Tensor3(rng.integers(-16, 17,
                                     size=(layer.in_maps, 4, 5)).astype(float))
            got = deconv_via_transform(x, layer)
            want = deconv_oracle(x, layer)
            assert np.array_equal(got.data, want.data), (kd, s)

    def test_transform_matches_conv_composition(self, rng):
        layer = random_deconv(rng, 7, 2, m=1, n=2)
        x = Tensor3(rng.integers(-16, 17, size=(2, 3, 3)).astype(float))
        conv, _ = transform_weights(layer)
        manual = depth_to_space(conv2d(x, conv), 2)
        assert np.array_equal(deconv_via_transform(x, layer).data, manual.data)


def _padded_gather(layer):
    """The transformed weights as a per-call np.pad gather builds them, on the
    rational oracle's axis map: its index -1 picks the zero row or column
    padded on at the end."""
    s, m, n = layer.scale, layer.out_maps, layer.in_maps
    (*_, kc, _, _), axis = _geometry_oracle(layer.kernel, s)
    padded = np.pad(layer.weights, ((0, 0), (0, 0), (0, 1), (0, 1)))
    wc = padded[:, :, axis[:, None, :, None], axis[None, :, None, :]]
    return wc.transpose(0, 2, 3, 1, 4, 5).reshape(s * s * m, n, kc, kc)


class TestTransformPlan:
    PAIRS = [(kd, s) for s in range(2, 6) for kd in range(s, 16)]

    def _check(self, rng, kd, s):
        m, n = (int(v) for v in rng.integers(1, 4, size=2))
        w = rng.integers(-2, 3, size=(m, n, kd, kd)).astype(float)
        w[:, :, kd // 2, 0] = 0                  # zero weights among the taps, always
        layer = DeconvLayerSpec(kd, s, m, n, w, rng.integers(-16, 17, size=m).astype(float))
        conv, _ = transform_weights(layer)
        want = _padded_gather(layer)
        assert conv.weights.shape == want.shape and conv.weights.tobytes() == want.tobytes()
        assert np.array_equal(conv.bias, np.repeat(layer.bias, s * s))

    def test_equals_padded_gather(self, rng):
        for kd, s in self.PAIRS:
            self._check(rng, kd, s)

    def test_arrays_read_only(self):
        plan = transform_plan(9, 2)
        for arr in (plan.axis, plan.gather):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert plan.geometry is derive_geometry(9, 2) and plan is transform_plan(9, 2)

    def test_sweep_past_the_cache_bound(self, rng):
        pairs = [(kd, s) for s in range(2, 10) for kd in range(s, s + 12)]
        assert len(pairs) > transform_plan.cache_info().maxsize
        for _ in range(2):                      # the second pass rebuilds evicted plans
            for kd, s in pairs:
                self._check(rng, kd, s)


class TestCropOffsetSearch:
    @pytest.mark.parametrize("kd,s", [(5, 2), (7, 2), (5, 4)])
    def test_search_agrees_with_closed_form(self, kd, s):
        layer = DeconvLayerSpec(kd, s, 1, 1, np.zeros((1, 1, kd, kd)), np.zeros(1))
        assert find_crop_offset(layer) == derive_geometry(kd, s).crop_offset
