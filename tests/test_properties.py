"""Property tests: the shared conv kernel and the fixed-point layer (both
its float64 and its int64 contraction, with slopes on both sides of 1)
against an independent sliding-window reference (dense and skipping zero
maps), the float PReLU against its oracle, the kernel's float rows against
one-row blocks, against other batchings of its column gemms and across
block layouts, the transform against the canvas oracle, the DCLP simulator
against faulty schedules, streaming against batch inference, and the
weight-file and PNM round trips."""
import dataclasses
import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tdcnet import quant, reference
from tdcnet.imageio import read_image, write_image
from tdcnet.model import (DeconvLayerSpec, FsrcnnConfig, Tensor3, WeightSet, _conv_shapes,
                          conv_layer, conv_operands, parse_weights, save_weights)
from tdcnet.pipeline import infer, infer_streaming
from tdcnet.quant import (QFormat, QuantizedLayer, QuantizedNetwork,
                          _rshift_half_even_into, quantize_array, quantize_value,
                          quantized_conv_rows)
from tdcnet.reference import conv2d, conv_rows, conv_taps, prelu
from tdcnet.scheduler import schedule_deconv_layer, simulate_dclp
from tdcnet.tdc import deconv_oracle, deconv_via_transform, transform_weights

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
    got = conv_taps(padded, conv_operands(weights, bias))
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
    m, n, k, _ = weights.shape
    rng = np.random.default_rng(seed)
    for t in range(k * k):
        dead = ~_live_pattern(rng, m, kinds[t])
        weights[dead, :, t // k, t % k] = 0
    ops = conv_operands(weights, bias)
    live = np.any(weights, axis=1)                     # (M, ky, kx)
    for kx, j0, j1, maps in ops.runs or ():
        picked = np.zeros(m, dtype=bool)
        picked[maps] = True
        for ky in range(j0 // n, j1 // n):
            assert not (live[:, ky, kx] & ~picked).any()        # never skips a live map
            if maps != slice(None):
                assert np.array_equal(picked, live[:, ky, kx])  # a run is exactly the live maps
    if ops.runs is not None:                           # a tap in no run has no live map
        covered = np.zeros((k, k), dtype=bool)
        for kx, j0, j1, _ in ops.runs:
            covered[j0 // n:j1 // n, kx] = True
        assert not live[:, ~covered].any()
    got = conv_taps(padded, ops)
    assert got.dtype == dtype
    assert np.array_equal(got, conv_windows(padded, weights, bias))


@st.composite
def float_row_blocks(draw):
    """Non-dyadic float weights (stacked or per-tap, some maps zeroed per tap)
    and a block of R <= 8 rows cut at a drawn row and column offset from a
    larger padded array."""
    k = draw(st.sampled_from([1, 3, 5]))
    stacked = k == 1 or draw(st.booleans())           # conv_taps' rule: N*K*K <= M
    n = draw(st.integers(1, 2 if stacked else 4))
    m = draw(st.integers(n * k * k, n * k * k + 3) if stacked and k > 1
             else st.integers(1, 8 if k == 1 else min(16, n * k * k - 1)))
    r, w = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    y0, x0 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.standard_normal((m, n, k, k)) / 3
    for t in range(k * k):
        kind = draw(st.sampled_from(["all", "none", "run", "irregular"]))
        weights[~_live_pattern(rng, m, kind), :, t // k, t % k] = 0
    big = rng.standard_normal((n, y0 + r + k - 1 + 2, x0 + w + k - 1 + 2))
    return big[:, y0:y0 + r + k - 1, x0:x0 + w + k - 1], weights, rng.standard_normal(m)


@settings(max_examples=120, deadline=None)
@given(float_row_blocks())
def test_conv_taps_rows_independent(case):
    # the BLAS assumption the float streaming == batch contract rests on: a gemm
    # of one shape gives the same bits for any number of rows and wherever its
    # operands lie, so an R-row block equals its one-row slices bit for bit
    padded, weights, bias = case
    k = weights.shape[2]
    ops = conv_operands(weights, bias)
    got = conv_taps(padded, ops)
    for i in range(got.shape[1]):
        one = padded[:, i:i + k]
        assert np.array_equal(got[:, i:i + 1], conv_taps(one, ops))
        assert np.array_equal(got[:, i:i + 1], conv_taps(one.copy(), ops))


@settings(max_examples=120, deadline=None)
@given(float_row_blocks(), st.sampled_from([np.float64, np.int64]))
def test_conv_taps_grouping_changes_nothing(case, dtype):
    # one matmul call per tap, or g whole kernel rows per call up to the whole
    # kernel: every (tap, row) gemm and every tap's addition stay the same, so
    # no bit moves. Grouping applies to dense layers (runs None) only, so no
    # map is zeroed
    padded, weights, bias = case
    if dtype == np.int64:
        padded, weights, bias = (np.rint(a * 64).astype(np.int64) for a in case)
    weights = np.where(weights == 0, 32 if dtype == np.int64 else 0.5, weights)
    padded = padded.copy()                      # contiguous, as the library's blocks are
    m, n, k, _ = weights.shape
    r, w = padded.shape[1] - (k - 1), padded.shape[2] - (k - 1)
    ops, got = conv_operands(weights, bias), []
    assert ops.runs is None
    with pytest.MonkeyPatch.context() as mp:
        for g in range(k + 1):                  # products of g kernel rows per call
            mp.setattr(reference, "_GROUP_BYTES", g * k * r * m * w * 8)
            got.append(conv_taps(padded, ops))
    assert got[0].dtype == dtype
    assert all(_same_bits(a, got[0]) for a in got[1:])
    assert _same_bits(conv_taps(padded, ops), got[0])


def _same_bits_in_both_layouts(padded, weights, bias, dtype):
    """conv_taps of one logical block held in C order and row-interleaved,
    as (rows, N, width) memory: one copy into that memory, or none, gives the
    same gemms, so the same bits, in float64 and in int64 (values times 64,
    rounded)."""
    if dtype == np.int64:
        padded, weights, bias = (np.rint(a * 64).astype(np.int64) for a in (padded, weights, bias))
    ops = conv_operands(weights, bias)
    got = conv_taps(np.ascontiguousarray(padded), ops)
    interleaved = np.ascontiguousarray(padded.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert got.dtype == dtype and _same_bits(got, conv_taps(interleaved, ops))


@settings(max_examples=120, deadline=None)
@given(float_row_blocks(), st.booleans(), st.sampled_from([np.float64, np.int64]))
def test_conv_taps_layout_independent(case, dense, dtype):
    # stacked, dense (no zeroed map) and sparse runs
    padded, weights, bias = case
    if dense:
        weights = np.where(weights == 0, 0.5, weights)
    _same_bits_in_both_layouts(padded, weights, bias, dtype)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([np.float64, np.int64]))
def test_conv_taps_layout_independent_on_deconvs(seed, dtype):
    # the transformed deconv of every s in 2..5 and K_D in s..11, its
    # structural zeros making the column runs, some more weights zeroed
    rng = np.random.default_rng(seed)
    for s in range(2, 6):
        for kd in range(s, 12):
            m, n = (int(v) for v in rng.integers(1, 4, 2))
            w = rng.standard_normal((m, n, kd, kd))
            w[rng.random(w.shape) < 0.1] = 0.0
            conv, _ = transform_weights(DeconvLayerSpec(kd, s, m, n, w, rng.standard_normal(m)))
            k, r, width = conv.kernel, int(rng.integers(1, 5)), int(rng.integers(1, 9))
            padded = rng.standard_normal((n, r + k - 1, width + k - 1))
            _same_bits_in_both_layouts(padded, conv.weights, conv.bias, dtype)


_SLOPES = [-1.5, -0.25, 0.0, 0.25, 1.0, 1.5, 3.0]


@st.composite
def prelu_layers(draw):
    """A float layer with one map per slope of _SLOPES, in drawn order, some
    maps with zero weights and bias so their sums are exactly 0, and a padded
    block with +0.0 and -0.0 among normal draws."""
    k, n = draw(st.sampled_from([1, 3])), draw(st.integers(1, 3))
    r, w = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = len(_SLOPES)
    weights, bias = rng.standard_normal((m, n, k, k)), rng.standard_normal(m)
    dead = rng.random(m) < 0.3
    weights[dead], bias[dead] = 0.0, 0.0
    padded = rng.standard_normal((n, r + k - 1, w + k - 1))
    zeros = rng.random(padded.shape) < 0.3
    padded[zeros] = np.copysign(0.0, rng.standard_normal(padded.shape))[zeros]
    return conv_layer(k, m, n, weights, bias, rng.permutation(_SLOPES)), padded


@settings(max_examples=80, deadline=None)
@given(prelu_layers())
def test_conv_rows_prelu_matches_oracle(case):
    # slopes above 1 take the min of v and s * v, the others the max
    layer, padded = case
    sums = conv_taps(padded, layer.operands)
    want = prelu(Tensor3(sums), layer.prelu_slope).data
    assert np.array_equal(conv_rows(padded, layer), want)


@st.composite
def formats_and_values(draw):
    """A 2-32-bit format and values on its grid (ties included), around and far
    beyond its range, up to float64's largest magnitudes and infinities."""
    bits = draw(st.integers(2, 32))
    q = QFormat(bits, draw(st.integers(0, bits - 1)))
    grid = st.builds(lambda i, f: math.ldexp(i + f, -q.frac_bits),
                     st.integers(4 * q.min_raw, 4 * q.max_raw),
                     st.sampled_from([0, 0.25, 0.5, 0.75]))
    huge = st.sampled_from([sys.float_info.max, 2.0 ** 63, 2.0 ** 64, 1e30, math.inf])
    values = st.one_of(grid, st.floats(allow_nan=False), huge, huge.map(lambda v: -v))
    return q, draw(st.lists(values, min_size=1, max_size=16))


@settings(max_examples=200, deadline=None)
@given(formats_and_values())
def test_quantize_rounds_half_even_and_saturates(case):
    q, values = case
    want = [q.max_raw if v == math.inf else q.min_raw if v == -math.inf else
            min(q.max_raw, max(q.min_raw, round(Fraction(v) * 2 ** q.frac_bits)))
            for v in values]                  # Fraction rounds half to even, exactly
    with np.errstate(over="ignore"):          # v * 2**frac_bits may reach inf
        got = quantize_array(np.array(values), q)
        assert [quantize_value(v, q) for v in values] == want
    assert got.dtype == np.int64 and got.tolist() == want


def _rshift_even(v, bits):
    """v / 2**bits rounded half to even, from quotient and remainder."""
    if bits == 0:
        return v
    q, rem, half = v >> bits, v & ((1 << bits) - 1), 1 << (bits - 1)
    return q + ((rem > half) | ((rem == half) & (q % 2 == 1)))


def quantized_windows(padded, ql: QuantizedLayer, qnet: QuantizedNetwork):
    """quantized_conv_rows as conv_windows in int64 and the epilogue written out,
    its slope products in Python ints, which cannot wrap."""
    bits, qa = qnet.q_weights.frac_bits, qnet.q_activations
    acc = conv_windows(padded.astype(np.int64), ql.weights_raw, ql.bias_raw)
    if ql.prelu_raw is not None:
        acc = acc.astype(object)
        acc = np.where(acc < 0, _rshift_even(acc * ql.prelu_raw.astype(object)[:, None, None],
                                             bits), acc)
    return np.clip(_rshift_even(acc, bits), qa.min_raw, qa.max_raw).astype(np.int64)


def int_layer(weights, bias, prelu, qw: QFormat, qa: QFormat):
    """A one-layer QuantizedNetwork over raw codes."""
    m, n, k, _ = weights.shape
    spec = conv_layer(k, m, n, weights.astype(np.float64))
    ql = QuantizedLayer(spec, weights, np.asarray(bias, dtype=np.int64), prelu, 0)
    return ql, QuantizedNetwork((ql,), qw, qa)


@st.composite
def int_layers(draw):
    """Raw codes of a layer and an in-format block, often at the format
    extremes, in formats on both sides of the 2**53 guard, with some (map,
    tap) weights zeroed. Formats stay within 56 bits, so the int64 reference
    sums cannot overflow. PReLU slope codes keep the largest sum times the
    slope below 2**62, or its rescaled value below 2**62, or span the format,
    where the products pass 2**63 and the rescaled sums may pass int64."""
    # M >= N*K*K runs as one matmul over the stacked windows, else one per tap
    m, n = draw(st.integers(1, 4) | st.sampled_from([9, 26])), draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 3, 5]))
    r, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    tw = draw(st.integers(2, 32))
    ta = draw(st.integers(2, min(32, 56 - tw)))
    qw = QFormat(tw, draw(st.integers(0, tw - 1)))
    qa = QFormat(ta, draw(st.integers(0, ta - 1)))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))       # of codes at an extreme
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def codes(q, shape, lo=None, hi=None):
        lo, hi = q.min_raw if lo is None else lo, q.max_raw if hi is None else hi
        a = rng.integers(lo, hi + 1, shape)
        at = rng.random(shape) < share
        a[at] = rng.choice([lo, hi], shape)[at]
        return a

    weights = codes(qw, (m, n, k, k))
    for t in range(k * k):
        kind = draw(st.sampled_from(["all", "none", "run", "irregular"]))
        weights[~_live_pattern(rng, m, kind), :, t // k, t % k] = 0
    bias = codes(qw, m) << qa.frac_bits
    prelu = None
    if draw(st.booleans()):
        bound = int(np.abs(weights).sum(axis=(1, 2, 3)).max()) * -qa.min_raw + int(
            np.abs(bias).max())
        top = draw(st.sampled_from([2 ** 62, 2 ** (62 + qw.frac_bits), 2 ** 94]))
        cap = min(qw.max_raw, top // max(bound, 1))
        prelu = codes(qw, m, -cap, cap)
    padded = codes(qa, (n, r + k - 1, w + k - 1))
    return (*int_layer(weights, bias, prelu, qw, qa), padded)


@settings(max_examples=150, deadline=None)
@given(int_layers(), st.sampled_from([np.int64, np.float64]))
def test_quantized_conv_rows_matches_windows(case, dtype):
    ql, qnet, padded = case
    got = quantized_conv_rows(ql, padded.astype(dtype), qnet)
    assert got.dtype == np.float64 and np.array_equal(got, np.rint(got))
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


@pytest.mark.parametrize("k", [1, 3])        # one stacked matmul; one matmul per tap
@pytest.mark.parametrize("w, bias, qw, qa, blas", [
    # bound 2**53 - 1: the BLAS path
    (2 ** 27 - 1, 1 - 2 ** 26, QFormat(29, 27), QFormat(27, 0), True),
    # bound and true sum -(2**53 + 1): the int64 loop
    (2 ** 27, -1, QFormat(29, 27), QFormat(27, 0), False),
    # 2**53 + 2**22 + 1 would round to even in float64, visibly after >> 23
    (-2 ** 22, 2 ** 22 + 1, QFormat(24, 23), QFormat(32, 0), False),
])
def test_quantized_conv_rows_guard_edge(monkeypatch, k, w, bias, qw, qa, blas):
    # the bound is max_m sum |w| * 2**(bits - 1) + max |bias|; with one nonzero
    # (centre) weight and every input at the largest code magnitude, the true
    # sum reaches it
    weights = np.zeros((1, 1, k, k), dtype=np.int64)
    weights[0, 0, k // 2, k // 2] = w
    ql, qnet = int_layer(weights, [bias], None, qw, qa)
    padded = np.full((1, k, k), qa.min_raw)
    loops = []
    monkeypatch.setattr(quant, "conv_taps", lambda x, *a: (
        x.dtype == np.int64 and loops.append(1)) or conv_taps(x, *a))   # the int64 pass
    got = quantized_conv_rows(ql, padded.astype(np.float64), qnet)
    assert (not loops) == blas
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("slope, bound, frac, rint", [
    # bound * slope = 2**53 - 1 = 6361 * 1416003655831: the float64 rint epilogue
    (6361, (2 ** 53 - 1) // 6361, 22, True),
    # the same with slope 6361 / 2**12 > 1, whose rows take the negated max
    (6361, (2 ** 53 - 1) // 6361, 12, True),
    # bound * slope = 2**53: the int64 shifts
    (2 ** 13, 2 ** 40, 22, False),
])
def test_quantized_conv_rows_epilogue_guard_edge(monkeypatch, k, slope, bound, frac, rint):
    # one nonzero (centre) weight w and a bias of -b make bound = w * 2**31 + b,
    # which the true sum reaches at the largest input code magnitude
    qw, qa = QFormat(32, frac), QFormat(32, 0)
    w, b = bound >> 31, bound - (bound >> 31 << 31)
    weights = np.zeros((1, 1, k, k), dtype=np.int64)
    weights[0, 0, k // 2, k // 2] = w
    ql, qnet = int_layer(weights, [-b], np.array([slope]), qw, qa)
    assert ql.abs_bounds == (w, b, slope) and w << 31 == bound - b
    codes = [qa.min_raw, qa.min_raw + 1, -2 ** 20 - 1, -1, 0, 1, 2 ** 20 + 1, qa.max_raw]
    padded = np.zeros((1, k, k - 1 + len(codes)), dtype=np.int64)
    padded[0, k // 2, k // 2:k // 2 + len(codes)] = codes
    shifts = []
    monkeypatch.setattr(quant, "_rshift_half_even_into",
                        lambda *a: shifts.append(1) or _rshift_half_even_into(*a))
    got = quantized_conv_rows(ql, padded.astype(np.float64), qnet)
    assert (not shifts) == rint
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


@pytest.mark.parametrize("frac", [1, 2])
@pytest.mark.parametrize("slope", [-3, -1, 0, 1, 3, 5])    # slope * 2**-frac up to 2.5
def test_rint_epilogue_rounds_ties_to_even(frac, slope):
    # the sums -40..40 through one unit weight: both the PReLU rescale and the
    # requantization meet ties on odd and even quotients
    qw, qa = QFormat(8, frac), QFormat(8, 0)
    ql, qnet = int_layer(np.ones((1, 1, 1, 1), dtype=np.int64), [0], np.array([slope]), qw, qa)
    padded = np.arange(-40, 41).reshape(1, 1, -1)
    got = quantized_conv_rows(ql, padded.astype(np.float64), qnet)
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([
    # (qw, qa, largest weight code, (float64 PReLU and rounding, float64 sums))
    (QFormat(16, 4), QFormat(16, 0), 64, (True, True)),
    (QFormat(32, 2), QFormat(24, 0), 2 ** 10, (False, True)),
    (QFormat(32, 2), QFormat(32, 0), 2 ** 22, (False, False)),
]), st.sampled_from([1, 3]), st.integers(1, 3), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([np.int64, np.float64]))
def test_quantized_prelu_mixed_slopes(fmt, k, n, r, w, seed, dtype):
    # one layer whose maps have slope codes below, at and above 2**f and at the
    # format's limits, on each side of the 2**53 guards (the largest weight
    # code is always drawn, so every draw takes its case's path); small input
    # codes keep most outputs inside the format, extreme ones saturate
    qw, qa, top, path = fmt
    f = qw.frac_bits
    slopes = [qw.min_raw, -(3 << f) // 2, -(1 << f) // 4, 0, (1 << f) // 4, (1 << f) - 1,
              1 << f, (1 << f) + 1, (3 << f) // 2, 3 << f, qw.max_raw]
    rng = np.random.default_rng(seed)
    m = len(slopes)
    weights = rng.integers(-top, top + 1, (m, n, k, k))
    weights.flat[rng.integers(weights.size)] = top
    bias = rng.integers(-2 ** 12, 2 ** 12 + 1, m)
    ql, qnet = int_layer(weights, bias, rng.permutation(slopes), qw, qa)
    l1, b, p = ql.abs_bounds
    bound = (l1 << (qa.total_bits - 1)) + b
    assert (bound * p < 2 ** 53, bound < 2 ** 53) == path
    shape = (n, r + k - 1, w + k - 1)
    padded = rng.integers(-8, 9, shape)
    extreme = rng.random(shape) < 0.2
    padded[extreme] = rng.choice([qa.min_raw, qa.max_raw], shape)[extreme]
    got = quantized_conv_rows(ql, padded.astype(dtype), qnet)
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


@pytest.mark.parametrize("w, slope", [
    # bound * slope = (2**32 + 2**17 + 1) * 2**31, just past 2**63: the
    # largest sum times the slope would wrap int64
    (2 ** 16 + 1, 2 ** 16 + 1),
    # at -1, lo * slope ends in a rounding tie while hi * slope is odd, and
    # the output stays inside the format
    (2316482, 7915),
])
def test_prelu_rescale_split_edge(w, slope):
    qw, qa = QFormat(32, 2), QFormat(32, 0)
    ql, qnet = int_layer(np.full((1, 1, 1, 1), w), [0], np.array([slope]), qw, qa)
    padded = np.array([[[qa.min_raw, -3, -2, -1, 0, 1]]])
    got = quantized_conv_rows(ql, padded.astype(np.float64), qnet)
    assert np.array_equal(got, quantized_windows(padded, ql, qnet))


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
    """The schedule with one table row dropped, duplicated or misplaced."""
    table = sched.table.copy()
    j = int(rng.integers(len(table)))
    if fault == "drop":
        table = np.delete(table, j)
    elif fault == "duplicate":
        table = np.insert(table, int(rng.integers(len(table) + 1)), table[j])
    elif fault == "phase":
        s2 = sched.geometry.stride ** 2
        table["phase"][j] = (table["phase"][j] + int(rng.integers(1, s2))) % s2
    else:
        kc = sched.conv.kernel
        flat = (table["y"][j] * kc + table["x"][j] + int(rng.integers(1, kc * kc))) % (kc * kc)
        table["y"][j], table["x"][j] = divmod(flat, kc)
    return dataclasses.replace(sched, table=table)


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
    for mi, ni, _, phase, y, xx, weight in bad.table.tolist():
        filters[mi * s * s + phase, ni, y, xx] += weight
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


@pytest.mark.parametrize("mode", ["float", "fixed"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(2, 4), rgb=st.booleans(),
       h=st.integers(1, 9), w=st.integers(1, 9))
def test_scratch_budget_splits_change_nothing(mode, seed, scale, rgb, h, w):
    # a one-byte budget splits every push, bottom padding included, into
    # sub-pushes of one row, so every block holds just K rows or fewer; the
    # outputs and every layer's trace must not move by a bit
    rng = np.random.default_rng(seed)
    net = random_net(rng, scale=scale, depth=3)
    img = rng.integers(0, 256, (h, w, 3) if rgb else (h, w)).astype(np.uint8)
    x = rng.uniform(0, 1, (1, h, w))
    qnet = quant.quantize_network(net, QFormat(13, 9), QFormat(13, 9))

    def run():
        outs = [f(img, net, scale, mode=mode) for f in (infer, infer_streaming)]
        if mode == "float":
            out, trace = quant.float_forward(net, Tensor3(x), collect=True)
            return outs + [out.data] + [t.data for t in trace]
        out, trace = quant.quantized_forward(qnet, quantize_array(x, QFormat(13, 9)), collect=True)
        return outs + [out] + trace

    want = run()
    heights = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference, "_SCRATCH_BYTES", 1)
        build = quant._padded_block

        def spy(rows, k, *args):
            block, carry = build(rows, k, *args)
            if block is not None:
                heights.append(block.shape[1] - k)
            return block, carry
        mp.setattr(quant, "_padded_block", spy)
        got = run()
    assert heights and max(heights) <= 0
    assert all(_same_bits(a, b) for a, b in zip(got, want))


@st.composite
def weight_sets(draw):
    """A WeightSet of random shape, its values normal draws with some
    hypothesis floats (zeros, subnormals, extremes) scattered in."""
    scales = draw(st.sets(st.integers(2, 4), min_size=1))
    cfg = FsrcnnConfig(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                       draw(st.integers(0, 2)), draw(st.integers(max(scales), 6)), scales)
    special = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def values(shape):
        a = rng.normal(0, 0.3, shape)
        for v in special:
            a.flat[rng.integers(a.size)] = v
        return a

    convs = tuple(conv_layer(k, m, n, values((m, n, k, k)), values(m),
                             values(m) if draw(st.booleans()) else None)
                  for k, m, n in _conv_shapes(cfg))
    kd = cfg.deconv_kernel
    deconvs = {s: DeconvLayerSpec(kd, s, 1, cfg.x, values((1, cfg.x, kd, kd)), values(1))
               for s in scales}
    return WeightSet(cfg, tuple(f"c{i}" for i in range(len(convs))), convs, deconvs)


def _same_bits(a, b) -> bool:
    return (a is None and b is None) or (
        a is not None and b is not None and a.shape == b.shape and a.tobytes() == b.tobytes())


@settings(max_examples=40, deadline=None)
@given(weight_sets())
def test_weight_file_round_trip(ws):
    back = parse_weights(json.loads(json.dumps(save_weights(ws))))
    assert back.config == ws.config and back.conv_names == ws.conv_names
    for a, b in zip(back.conv_layers, ws.conv_layers, strict=True):
        assert (a.kernel, a.out_maps, a.in_maps, a.pad_before, a.pad_after) == (
            b.kernel, b.out_maps, b.in_maps, b.pad_before, b.pad_after)
        assert all(_same_bits(getattr(a, f), getattr(b, f))
                   for f in ("weights", "bias", "prelu_slope"))
    assert back.deconv_by_scale.keys() == ws.deconv_by_scale.keys()
    for s, b in ws.deconv_by_scale.items():
        a = back.deconv_by_scale[s]
        assert (a.kernel, a.scale, a.out_maps, a.in_maps) == (b.kernel, b.scale,
                                                              b.out_maps, b.in_maps)
        assert _same_bits(a.weights, b.weights) and _same_bits(a.bias, b.bias)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), rgb=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(h=1, w=1, rgb=False, seed=0)
@example(h=1, w=7, rgb=True, seed=1)
@example(h=7, w=1, rgb=False, seed=2)
def test_pnm_round_trip(h, w, rgb, seed):
    img = np.random.default_rng(seed).integers(0, 256, (h, w, 3) if rgb else (h, w),
                                               dtype=np.uint8)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "img.ppm" if rgb else "img.pgm")
        write_image(path, img)
        back = read_image(path)
    assert back.dtype == np.uint8 and back.shape == img.shape
    assert back.tobytes() == img.tobytes()
