"""Property tests: the shared conv executor against an independent
sliding-window reference, and streaming against batch inference."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from tdcnet.pipeline import infer, infer_streaming
from tdcnet.reference import conv_taps

from conftest import random_net


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
