"""Property tests: the shared conv executor against an independent
sliding-window reference (dense and skipping zero maps), the transform against
the canvas oracle, the DCLP simulator against faulty schedules, and streaming
against batch inference."""
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tdcnet.model import Tensor3, tap_map_runs
from tdcnet.pipeline import infer, infer_streaming
from tdcnet.reference import conv2d, conv_taps
from tdcnet.scheduler import PEInstruction, schedule_deconv_layer, simulate_dclp
from tdcnet.tdc import deconv_oracle, deconv_via_transform

from conftest import random_deconv, random_net


def conv_windows(padded, weights, bias):
    """Valid convolution as one contraction over (N, K, K) windows."""
    k = weights.shape[2]
    win = sliding_window_view(padded, (k, k), axis=(1, 2))   # (N, R, W, K, K)
    return bias[:, None, None] + np.einsum("nrwyx,mnyx->mrw", win, weights)


@st.composite
def conv_blocks(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 3, 5]))
    r, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.integers(-64, 65, (n, r + k - 1, w + k - 1)),
            rng.integers(-64, 65, (m, n, k, k)),
            rng.integers(-4096, 4097, m))


@settings(max_examples=60, deadline=None)
@given(conv_blocks(), st.sampled_from([np.int64, np.float64]))
def test_conv_taps_matches_windows(block, dtype):
    # integer-valued data keeps float sums exact in any order
    padded, weights, bias = (a.astype(dtype) for a in block)
    got = conv_taps(padded, weights, bias)
    assert got.dtype == dtype
    assert np.array_equal(got, conv_windows(padded, weights, bias))


def _live_pattern(rng, m: int, kind: str) -> np.ndarray:
    """Boolean live-map mask of one tap: a strided run or an irregular set."""
    live = np.zeros(m, dtype=bool)
    if kind == "run":
        start, step = int(rng.integers(0, m)), int(rng.integers(1, m + 1))
        live[start:int(rng.integers(start, m)) + 1:step] = True
    elif kind == "irregular":
        live[:] = rng.random(m) < 0.5
    else:
        live[:] = kind == "all"
    return live


@settings(max_examples=80, deadline=None)
@given(conv_blocks(), st.sampled_from([np.int64, np.float64]),
       st.lists(st.sampled_from(["all", "none", "run", "irregular"]), min_size=25,
                max_size=25),
       st.integers(0, 2 ** 32 - 1))
def test_conv_taps_skips_zero_maps(block, dtype, kinds, seed):
    padded, weights, bias = (a.astype(dtype) for a in block)
    m, _, k, _ = weights.shape
    rng = np.random.default_rng(seed)
    for t in range(k * k):
        dead = ~_live_pattern(rng, m, kinds[t])
        weights[dead, :, t // k, t % k] = 0
    plan = tap_map_runs(weights)
    live = np.any(weights, axis=1).reshape(m, -1)
    for t, sl in enumerate(plan or (None,) * (k * k)):
        picked = np.zeros(m, dtype=bool)
        picked[slice(None) if sl is None else sl] = True
        assert not (live[:, t] & ~picked).any()        # never skips a live map
        if sl is not None:
            assert np.array_equal(picked, live[:, t])  # a run is exactly the live maps
    got = conv_taps(padded, weights, bias, plan)
    assert got.dtype == dtype
    assert np.array_equal(got, conv_windows(padded, weights, bias))


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 4), extra=st.integers(0, 7), m=st.integers(1, 3),
       n=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
@example(s=4, extra=5, m=1, n=2, h=1, w=5, seed=0)
@example(s=3, extra=0, m=2, n=1, h=4, w=1, seed=1)
@example(s=2, extra=7, m=3, n=3, h=1, w=1, seed=2)
def test_transform_equals_oracle(s, extra, m, n, h, w, seed):
    rng = np.random.default_rng(seed)
    layer = random_deconv(rng, s + extra, s, m=m, n=n)
    x = Tensor3(rng.integers(-16, 17, (n, h, w)).astype(float))
    assert np.array_equal(deconv_via_transform(x, layer).data,
                          deconv_oracle(x, layer).data)


def _faulty(sched, fault: str, rng):
    """The schedule with one instruction dropped, duplicated or misplaced."""
    key = sorted(sched.groups)[int(rng.integers(len(sched.groups)))]
    group = sched.groups[key]
    streams = [list(stream) for stream in group.streams]
    pe = int(rng.choice([i for i, stream in enumerate(streams) if stream]))
    j = int(rng.integers(len(streams[pe])))
    instr = streams[pe][j]
    if fault == "drop":
        del streams[pe][j]
    elif fault == "duplicate":
        streams[int(rng.integers(len(streams)))].append(instr)
    elif fault == "phase":
        s2 = sched.geometry.stride ** 2
        phase = (instr.phase_channel + int(rng.integers(1, s2))) % s2
        streams[pe][j] = PEInstruction(phase, instr.input_pos, instr.weight)
    else:
        kc = sched.conv.kernel
        y, x = instr.input_pos
        flat = (y * kc + x + int(rng.integers(1, kc * kc))) % (kc * kc)
        streams[pe][j] = PEInstruction(instr.phase_channel, divmod(flat, kc), instr.weight)
    group = dataclasses.replace(group, streams=tuple(map(tuple, streams)))
    return dataclasses.replace(sched, groups={**sched.groups, key: group})


@settings(max_examples=60, deadline=None)
@given(s=st.integers(2, 4), extra=st.integers(0, 5), m=st.integers(1, 2),
       n=st.integers(1, 2), fault=st.sampled_from(["drop", "duplicate", "phase", "position"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_simulate_dclp_detects_faulty_schedule(s, extra, m, n, fault, seed):
    rng = np.random.default_rng(seed)
    layer = random_deconv(rng, s + extra, s, m=m, n=n, lo=1)   # no zero weight
    sched = schedule_deconv_layer(layer, s * s)
    kc = sched.conv.kernel
    if fault == "position" and kc == 1:
        fault = "phase"                          # a 1x1 kernel has one position
    # distinct positive samples, kc x kc so every tap reaches a real sample:
    # any lost, extra or moved product changes some output
    x = Tensor3(rng.permutation(n * kc * kc).reshape(n, kc, kc) + 1.0)
    want = conv2d(x, sched.conv).data
    assert np.array_equal(simulate_dclp(x, sched, sched.geometry, 1)[0].data, want)
    bad = _faulty(sched, fault, rng)
    got = simulate_dclp(x, bad, bad.geometry, 1)[0].data
    assert not np.array_equal(got, want)
    # and it runs exactly the instructions it holds, a moved one included
    filters = np.zeros(sched.conv.weights.shape)
    for (mi, ni), group in bad.groups.items():
        for instr in (i for stream in group.streams for i in stream):
            filters[mi * s * s + instr.phase_channel, ni][instr.input_pos] += instr.weight
    pb = sched.conv.pad_before
    padded = np.pad(x.data, ((0, 0), (pb, kc - 1 - pb), (pb, kc - 1 - pb)))
    assert np.array_equal(got, conv_windows(padded, filters, sched.conv.bias))


@pytest.mark.parametrize("mode", ["float", "fixed"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(2, 4),
       h=st.integers(1, 6), w=st.integers(1, 6))
def test_streaming_equals_batch(mode, seed, scale, h, w):
    rng = np.random.default_rng(seed)
    net = random_net(rng, scale=scale)
    img = rng.integers(0, 256, (h, w)).astype(np.uint8)
    assert np.array_equal(infer_streaming(img, net, scale, mode=mode),
                          infer(img, net, scale, mode=mode))
