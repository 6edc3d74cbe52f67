import dataclasses
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdcnet.errors import ConfigurationError, ScheduleMismatchError
from tdcnet.model import DeconvLayerSpec, Tensor3
from tdcnet.reference import conv2d
from tdcnet.scheduler import (INSTRUCTION, classify_case, cycles_baseline,
                              cycles_proposed, schedule_deconv_layer, simulate_dclp)
from tdcnet.tdc import derive_geometry, transform_weights

from conftest import random_deconv

from test_tdc import KNOWN_GEOMETRY


def _ceil(a, b):
    return -(-a // b)


def _dealt(conv, s2, pe_count):
    """The round-robin deal, one (m, n) group at a time: phase filters in
    stable descending density order, each one's taps in (y, x) order, tap j
    of the group to PE j % pe_count."""
    rows = []
    for m in range(conv.out_maps // s2):
        for n in range(conv.in_maps):
            filters = conv.weights[m * s2:(m + 1) * s2, n]
            order = np.argsort(-np.count_nonzero(filters, axis=(1, 2)), kind="stable")
            taps = [(int(p), y, x) for p in order for y in range(conv.kernel)
                    for x in range(conv.kernel) if filters[p, y, x] != 0]
            rows += [(m, n, j % pe_count, p, y, x, filters[p, y, x])
                     for j, (p, y, x) in enumerate(taps)]
    return rows


@st.composite
def _deal_cases(draw):
    """(kd, s, m, n, PEs up to past a group's kd^2 taps, share of zeroed
    weights, seed)."""
    s = draw(st.integers(2, 4))
    kd = draw(st.integers(s, 11))
    return (kd, s, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            draw(st.integers(1, kd * kd + 2)), draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
            draw(st.integers(0, 2 ** 32 - 1)))


class TestBuildSchedule:
    @pytest.mark.parametrize("kd,s,depth", [(5, 2, 7), (9, 3, 9), (9, 4, 6)])
    def test_known_depths(self, rng, kd, s, depth):
        layer = random_deconv(rng, kd, s, m=1, n=1, lo=1)   # dense weights
        sched = schedule_deconv_layer(layer, s * s)
        assert sched.depth == depth == _ceil(kd * kd, s * s)

    def test_completeness(self, rng):
        layer = random_deconv(rng, 5, 2, m=1, n=1, lo=1, hi=26)
        conv, _ = transform_weights(layer)
        table = schedule_deconv_layer(layer, 4).table
        scheduled = sorted(zip(table["phase"].tolist(), table["y"].tolist(),
                               table["x"].tolist(), table["weight"].tolist()))
        expected = sorted(
            (p, y, x, float(conv.weights[p, 0, y, x]))
            for p in range(4) for y in range(3) for x in range(3)
            if conv.weights[p, 0, y, x] != 0
        )
        assert scheduled == expected
        assert not table["m"].any() and not table["n"].any()

    def test_only_nonzero_scheduled(self, rng):
        layer = random_deconv(rng, 7, 2, m=1, n=1)
        table = schedule_deconv_layer(layer, 4).table
        assert len(table) and table["weight"].all()

    def test_pe_count_validation(self, rng):
        layer = random_deconv(rng, 5, 2, m=1, n=1)
        with pytest.raises(ConfigurationError):
            schedule_deconv_layer(layer, 0)

    @pytest.mark.parametrize("kd,s,pes", [(5, 2, 4), (9, 3, 9), (7, 4, 5), (6, 3, 1), (4, 2, 11)])
    def test_table_is_the_round_robin_deal(self, rng, kd, s, pes):
        layer = random_deconv(rng, kd, s, lo=-2, hi=3)      # zeros thin the filters unevenly
        sched = schedule_deconv_layer(layer, pes)
        assert sched.table.dtype == INSTRUCTION and not sched.table.flags.writeable
        assert sched.table.tolist() == _dealt(sched.conv, s * s, pes)
        counts = [len(sched.table[(sched.table["m"] == m) & (sched.table["n"] == n)])
                  for m in range(layer.out_maps) for n in range(layer.in_maps)]
        assert sched.depth == _ceil(max(counts), pes)

    @settings(max_examples=150, deadline=None)
    @given(_deal_cases())
    @example((5, 2, 2, 3, 4, 1.0, 0))                   # the all-zero layer: an empty table
    def test_table_equals_the_dealer(self, case):
        kd, s, m, n, pes, zeros, seed = case
        rng = np.random.default_rng(seed)
        # weights in -2..2 plus a zeroed share: phase densities tie and differ
        w = rng.integers(-2, 3, (m, n, kd, kd)) * (rng.random((m, n, kd, kd)) >= zeros)
        layer = DeconvLayerSpec(kd, s, m, n, w.astype(float), np.zeros(m))
        sched = schedule_deconv_layer(layer, pes)
        want = np.array(_dealt(sched.conv, s * s, pes), dtype=INSTRUCTION)
        assert sched.table.dtype == INSTRUCTION and not sched.table.flags.writeable
        assert sched.table.tobytes() == want.tobytes()
        counts = np.bincount(want["m"] * n + want["n"], minlength=m * n)
        assert sched.depth == _ceil(int(counts.max()), pes)

    def test_groups_view(self, rng):
        layer = random_deconv(rng, 7, 3, m=2, n=3, lo=-2, hi=3)
        sched = schedule_deconv_layer(layer, 4)
        assert sorted(sched.groups) == [(m, n) for m in range(2) for n in range(3)]
        for (m, n), group in sched.groups.items():
            rows = sched.table[(sched.table["m"] == m) & (sched.table["n"] == n)]
            assert group.pe_count == 4 and group.depth == _ceil(len(rows), 4)
            for pe, stream in enumerate(group.streams):
                assert stream.tolist() == rows[pe::4].tolist()
                assert (stream["pe"] == pe).all()
        with pytest.raises(TypeError):
            sched.groups[(0, 0)] = None
        # a replaced table brings its own view and depth
        bad = dataclasses.replace(sched, table=sched.table[:1])
        assert sum(len(st) for g in bad.groups.values() for st in g.streams) == 1
        assert bad.depth == 1

    def test_groups_deal_from_the_pe_column(self, rng):
        # a table that puts every tap on PE 0: the cycle model's depth is 25,
        # where a view dealt by row order would hand rows to PEs 1-3 and read 7
        sched = schedule_deconv_layer(random_deconv(rng, 5, 2, m=1, n=1, lo=1), 4)
        table = sched.table.copy()
        table["pe"] = 0
        one_pe = dataclasses.replace(sched, table=table)
        group = one_pe.groups[(0, 0)]
        assert one_pe.depth == group.depth == len(table) == 25
        assert group.streams[0].tolist() == table.tolist()
        assert [len(st) for st in group.streams[1:]] == [0, 0, 0]


class TestSimulateDclp:
    def test_matches_conv2d(self, rng):
        layer = random_deconv(rng, 5, 2, m=2, n=2)
        sched = schedule_deconv_layer(layer, 4)
        conv, _ = transform_weights(layer)
        x = Tensor3(rng.integers(-16, 17, size=(2, 4, 4)).astype(float))
        out, _ = simulate_dclp(x, sched, sched.geometry, in_tile=1)
        assert np.array_equal(out.data, conv2d(x, conv).data)

    def test_zero_input_cycles_unchanged(self, rng):
        layer = random_deconv(rng, 5, 2, m=1, n=1)
        sched = schedule_deconv_layer(layer, 4)
        zero = Tensor3(np.zeros((1, 3, 3)))
        rand = Tensor3(rng.normal(size=(1, 3, 3)))
        _, c0 = simulate_dclp(zero, sched, sched.geometry, in_tile=1)
        _, c1 = simulate_dclp(rand, sched, sched.geometry, in_tile=1)
        assert c0 == c1

    def test_cycle_example(self, rng):
        layer = random_deconv(rng, 9, 3, m=1, n=1)
        sched = schedule_deconv_layer(layer, 9)
        x = Tensor3(rng.normal(size=(1, 2, 2)))
        _, cycles = simulate_dclp(x, sched, sched.geometry, in_tile=1)
        assert cycles == 9 * 2 * 2 * 1 * 1 == 36

    def test_geometry_mismatch(self, rng):
        layer = random_deconv(rng, 5, 2, m=1, n=1)
        sched = schedule_deconv_layer(layer, 4)
        with pytest.raises(ScheduleMismatchError):
            simulate_dclp(Tensor3(np.zeros((1, 2, 2))), sched,
                          derive_geometry(7, 2), in_tile=1)


    @pytest.mark.parametrize("kd,s", [(kd, s) for s in (2, 3, 4) for kd in range(s, 12)])
    def test_cycles_match_model(self, rng, kd, s):
        # pe_count = out_tile = S^2: the simulator's depth and tiling are the model's
        layer = random_deconv(rng, kd, s, lo=1)             # dense weights
        sched = schedule_deconv_layer(layer, s * s)
        h, w, tn = 3, 2, int(rng.integers(1, layer.in_maps + 1))
        x = Tensor3(np.ones((layer.in_maps, h, w)))
        _, cycles = simulate_dclp(x, sched, sched.geometry, in_tile=tn)
        assert cycles == cycles_proposed(layer.out_maps, layer.in_maps, h, w,
                                         kd, s, s * s, tn)


    @pytest.mark.parametrize("phase,pos", [(4, (0, 0)), (-1, (0, 0)), (0, (0, 3)),
                                           (0, (3, 0)), (0, (-1, 0))])
    def test_instruction_outside_layer(self, rng, phase, pos):
        layer = random_deconv(rng, 5, 2, m=1, n=1, lo=1)     # kc = 3, 4 phases
        sched = schedule_deconv_layer(layer, 4)
        table = sched.table.copy()
        table["phase"][0] = phase
        table["y"][0], table["x"][0] = pos
        bad = dataclasses.replace(sched, table=table)
        with pytest.raises(ScheduleMismatchError):
            simulate_dclp(Tensor3(np.ones((1, 3, 3))), bad, bad.geometry, in_tile=1)

    @pytest.mark.parametrize("col,value", [("m", 2), ("m", -1), ("n", 1), ("n", -1),
                                           ("pe", 4), ("pe", -1)])
    def test_instruction_outside_maps(self, rng, col, value):
        layer = random_deconv(rng, 5, 2, m=2, n=1, lo=1)
        sched = schedule_deconv_layer(layer, 4)
        table = sched.table.copy()
        table[col][-1] = value
        bad = dataclasses.replace(sched, table=table)
        with pytest.raises(ScheduleMismatchError):
            simulate_dclp(Tensor3(np.ones((1, 3, 3))), bad, bad.geometry, in_tile=1)


    def test_depth_reads_the_pe_column(self, rng):
        # 25 taps dealt over 4 PEs are 7 deep; piled onto PE 0 they are 25 deep
        layer = random_deconv(rng, 5, 2, m=1, n=1, lo=1)
        sched = schedule_deconv_layer(layer, 4)
        table = sched.table.copy()
        table["pe"] = 0
        piled = dataclasses.replace(sched, table=table)
        x = Tensor3(np.ones((1, 3, 3)))
        assert (sched.depth, simulate_dclp(x, sched, sched.geometry, 1)[1]) == (7, 7 * 9)
        assert (piled.depth, simulate_dclp(x, piled, piled.geometry, 1)[1]) == (25, 25 * 9)


class TestCycleModels:
    def test_dcgan_layer1(self):
        assert cycles_proposed(512, 1024, 4, 4, 5, 2, 4, 128) == 458752
        assert cycles_baseline(512, 1024, 8, 8, 5, 4, 128) == 1638400

    def test_dcgan_layer4(self):
        assert cycles_proposed(3, 128, 32, 32, 5, 2, 4, 128) == 21504
        assert cycles_baseline(3, 128, 64, 64, 5, 4, 128) == 102400

    def test_fsrcnn_deconv(self):
        assert cycles_proposed(1, 56, 9362, 1, 9, 2, 56, 9) == 1376214
        assert cycles_baseline(1, 56, 4 * 9362, 1, 9, 56, 9) == 21233016

    def test_fsrcnn_published_rows_at_nine_phase_tile(self):
        # the abstract's 108x: a 9-phase output tile (Tm = 9) gives all three
        # published deconv rows, running s = 4's 16 phases in two passes
        rows = [cycles_proposed(1, 56, 9362, 1, 9, s, 9, 9) for s in (2, 3, 4)]
        assert rows == [1376214, 589806, 786408]
        baseline = cycles_baseline(1, 56, 16 * 9362, 1, 9, 9, 9)
        assert baseline == 84932064 and baseline / rows[2] == 108.0
        assert classify_case(1, 9, 4, 9) == (2, 108.0)

    def test_degenerate_baseline(self):
        assert cycles_baseline(3, 5, 1, 1, 7, 3, 5) == 49

    def test_monotone_in_tiles(self):
        base = cycles_proposed(8, 16, 10, 10, 5, 2, 4, 4)
        assert cycles_proposed(8, 16, 10, 10, 5, 2, 8, 4) <= base
        assert cycles_proposed(8, 16, 10, 10, 5, 2, 4, 8) <= base


class TestClassifyCase:
    def test_fsrcnn_s3_case1(self):
        case, speedup = classify_case(1, 56, 3, 9)
        assert case == 1 and speedup == 81.0

    def test_fsrcnn_s2_case1(self):
        case, speedup = classify_case(1, 56, 2, 9)
        assert case == 1
        assert speedup == pytest.approx(4 * 81 / 21)

    def test_dcgan_case3(self):
        case, speedup = classify_case(512, 4, 2, 5)
        assert case == 3
        assert speedup == pytest.approx(25 / 7)

    def test_case2_band(self):
        case, _ = classify_case(3, 4, 2, 5)     # T_m/S^2 < M <= T_m
        assert case == 2


def _regime_oracle(m, tm, s, kd, div=operator.truediv):
    """The three regime expressions classify_case once held of its own."""
    s2, kd2 = s * s, kd ** 2
    depth = _ceil(kd2, s2)
    if m * s2 <= tm:
        return 1, div(s2 * kd2, depth)
    if m <= tm:
        return 2, div(s2, _ceil(s2 * m, tm)) * div(kd2, depth)
    return 3, div(s2 * _ceil(m, tm), _ceil(s2 * m, tm)) * div(kd2, depth)


class TestOneCycleFormula:
    GRID = [(m, tm, s, kd) for m in range(1, 40) for tm in range(1, 70)
            for s in range(1, 7) for kd in range(s, 14)]

    def test_classify_case_equals_regime_expressions(self):
        assert len(self.GRID) == 169533
        for case in self.GRID:
            regime, speedup = classify_case(*case)
            exact_regime, exact = _regime_oracle(*case, div=Fraction)
            float_regime, rounded = _regime_oracle(*case)
            # the speedup is the exact ratio, rounded once
            assert regime == exact_regime == float_regime and speedup == float(exact)
            # the float expressions round up to three times: within 3 ulp
            assert abs(rounded - speedup) <= 3 * math.ulp(speedup)

    @pytest.mark.parametrize("kd,stride", [(5, 0), (0, 0), (5, -1)])
    def test_cycles_proposed_rejects_nonpositive_stride(self, kd, stride):
        # a ZeroDivisionError before
        with pytest.raises(ConfigurationError):
            cycles_proposed(1, 1, 2, 2, kd, stride, 1, 1)
        with pytest.raises(ConfigurationError):
            classify_case(1, 1, stride, kd)

    @pytest.mark.parametrize("in_tile", [0, -1])
    def test_simulate_dclp_rejects_nonpositive_in_tile(self, rng, in_tile):
        # a ZeroDivisionError at 0 and negative cycles at -1 before
        layer = random_deconv(rng, 5, 2, m=1, n=1)
        sched = schedule_deconv_layer(layer, 4)
        with pytest.raises(ConfigurationError):
            simulate_dclp(Tensor3(np.ones((1, 3, 3))), sched, sched.geometry, in_tile)

    def test_all_zero_layer_has_no_cycles(self):
        layer = DeconvLayerSpec(5, 2, 2, 3, np.zeros((2, 3, 5, 5)), np.zeros(2))
        sched = schedule_deconv_layer(layer, 4)
        out, cycles = simulate_dclp(Tensor3(np.ones((3, 3, 4))), sched, sched.geometry, 1)
        assert sched.depth == 0 and len(sched.table) == 0 and cycles == 0
        assert not out.data.any()


class TestDepthBound:
    @pytest.mark.parametrize("kd,s", sorted(KNOWN_GEOMETRY))
    def test_depth_is_ceil_kd2_over_s2(self, rng, kd, s):
        layer = random_deconv(rng, kd, s, m=1, n=1, lo=1)   # dense weights
        assert schedule_deconv_layer(layer, s * s).depth == _ceil(kd * kd, s * s)
