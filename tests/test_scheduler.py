import dataclasses

import numpy as np
import pytest

from tdcnet.errors import ConfigurationError, ScheduleMismatchError
from tdcnet.model import Tensor3
from tdcnet.reference import conv2d
from tdcnet.scheduler import (PEInstruction, build_schedule, classify_case,
                              cycles_baseline, cycles_proposed,
                              schedule_deconv_layer, simulate_dclp)
from tdcnet.tdc import derive_geometry, transform_weights

from conftest import random_deconv

from test_tdc import KNOWN_GEOMETRY


def _ceil(a, b):
    return -(-a // b)


class TestBuildSchedule:
    @pytest.mark.parametrize("kd,s,depth", [(5, 2, 7), (9, 3, 9), (9, 4, 6)])
    def test_known_depths(self, rng, kd, s, depth):
        layer = random_deconv(rng, kd, s, m=1, n=1, lo=1)   # dense weights
        sched = schedule_deconv_layer(layer, s * s)
        assert sched.depth == depth == _ceil(kd * kd, s * s)

    def test_completeness(self, rng):
        layer = random_deconv(rng, 5, 2, m=1, n=1, lo=1, hi=26)
        conv, _ = transform_weights(layer)
        sched = schedule_deconv_layer(layer, 4).groups[(0, 0)]
        scheduled = sorted(
            (i.phase_channel, i.input_pos, i.weight)
            for stream in sched.streams for i in stream
        )
        expected = sorted(
            (p, (y, x), float(conv.weights[p, 0, y, x]))
            for p in range(4) for y in range(3) for x in range(3)
            if conv.weights[p, 0, y, x] != 0
        )
        assert scheduled == expected

    def test_only_nonzero_scheduled(self, rng):
        layer = random_deconv(rng, 7, 2, m=1, n=1)
        sched = schedule_deconv_layer(layer, 4).groups[(0, 0)]
        assert all(i.weight != 0 for s in sched.streams for i in s)

    def test_pe_count_validation(self):
        with pytest.raises(ConfigurationError):
            build_schedule(np.ones((4, 3, 3)), 0)


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
        group = sched.groups[(0, 0)]
        first = group.streams[0][0]
        streams = ((PEInstruction(phase, pos, first.weight),) + group.streams[0][1:],
                   *group.streams[1:])
        bad = dataclasses.replace(
            sched, groups={(0, 0): dataclasses.replace(group, streams=streams)})
        with pytest.raises(ScheduleMismatchError):
            simulate_dclp(Tensor3(np.ones((1, 3, 3))), bad, bad.geometry, in_tile=1)


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


class TestDepthBound:
    @pytest.mark.parametrize("kd,s", sorted(KNOWN_GEOMETRY))
    def test_depth_is_ceil_kd2_over_s2(self, rng, kd, s):
        layer = random_deconv(rng, kd, s, m=1, n=1, lo=1)   # dense weights
        assert schedule_deconv_layer(layer, s * s).depth == _ceil(kd * kd, s * s)
