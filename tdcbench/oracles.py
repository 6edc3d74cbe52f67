"""Benchmark-side references the measured outputs are checked against.

They share no conv loop with tdcnet: every layer is an im2col contraction
(`sliding_window_view` + `tensordot`). The fixed-point reference runs its
integer arithmetic in float64, which is exact here: 13-bit weights times
13-bit activations summed over at most 504 taps stay below 2**34, far inside
float64's 53-bit mantissa, so the BLAS summation order cannot change a bit.
All of this runs outside the timed and traced regions.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Q_TOTAL, Q_FRAC = 13, 9          # pipeline's default weight/activation format


def conv_same(x: np.ndarray, weights: np.ndarray, kernel: int,
              pad_before: int) -> np.ndarray:
    """(M, H, W) stride-1 same-size convolution of (N, H, W), no bias."""
    n, h, w = x.shape
    padded = np.zeros((n, h + kernel - 1, w + kernel - 1))
    padded[:, pad_before:pad_before + h, pad_before:pad_before + w] = x
    win = sliding_window_view(padded, (kernel, kernel), axis=(1, 2))
    return np.tensordot(weights, win, axes=([1, 2, 3], [0, 3, 4]))


def depth_to_space(t: np.ndarray, s: int) -> np.ndarray:
    """Channel S^2*m + S*yo + xo at (Y, X) -> channel m at (S*Y+yo, S*X+xo)."""
    c, h, w = t.shape
    m = c // (s * s)
    return t.reshape(m, s, s, h, w).transpose(0, 3, 1, 4, 2).reshape(m, h * s, w * s)


def _rshift_half_even(v: np.ndarray, bits: int) -> np.ndarray:
    # |v| < 2**47 here, so the float64 quotient is exact and rint ties to even
    return np.rint(v.astype(np.float64) / float(1 << bits)).astype(np.int64)


def _to_rgb(lib, img: np.ndarray, y_out: np.ndarray, scale: int) -> np.ndarray:
    ref = lib.reference
    _, cb, cr = ref.rgb_to_ycbcr(img)
    return ref.ycbcr_to_rgb(y_out, ref.bicubic_upscale_plane(cb, scale),
                            ref.bicubic_upscale_plane(cr, scale))


def float_sr(lib, img: np.ndarray, net, scale: int) -> np.ndarray:
    """RGB output of the float network; the deconv runs as tdc.deconv_oracle."""
    cur = (lib.reference.rgb_to_ycbcr(img)[0] / 255.0)[None]
    for conv in net.layers[:-1]:
        acc = conv_same(cur, conv.weights, conv.kernel, conv.pad_before)
        acc += conv.bias[:, None, None]
        cur = np.where(acc >= 0, acc, conv.prelu_slope[:, None, None] * acc)
    out = lib.tdc.deconv_oracle(lib.model.Tensor3(cur), net.deconv).data
    y_out = np.clip(np.rint(out[0] * 255.0), 0.0, 255.0)
    return _to_rgb(lib, img, y_out, scale)


def fixed_sr(lib, img: np.ndarray, net, scale: int) -> tuple[np.ndarray, int]:
    """RGB output of the integer network and its saturated-sample count.

    Weights, biases and slopes are the raw codes of `quant.quantize_network`;
    everything after that (input quantisation, accumulation, PReLU rescale,
    round-half-even requantisation, saturation) is recomputed here.
    """
    q = lib.quant.QFormat(Q_TOTAL, Q_FRAC)
    qnet = lib.quant.quantize_network(net, q, q)
    lo, hi = q.min_raw, q.max_raw
    y = lib.reference.rgb_to_ycbcr(img)[0]
    cur = np.clip(np.rint(y / 255.0 * (1 << Q_FRAC)), lo, hi)[None]
    saturated = 0
    for ql in qnet.layers:
        spec = ql.spec
        acc = conv_same(cur, ql.weights_raw.astype(np.float64), spec.kernel,
                        spec.pad_before).astype(np.int64)
        acc += ql.bias_raw[:, None, None]
        if ql.prelu_raw is not None:
            scaled = _rshift_half_even(acc * ql.prelu_raw[:, None, None], Q_FRAC)
            acc = np.where(acc < 0, scaled, acc)
        act = _rshift_half_even(acc, Q_FRAC)
        saturated += int(np.count_nonzero((act < lo) | (act > hi)))
        act = np.clip(act, lo, hi)
        if ql.depth_to_space:
            act = depth_to_space(act, ql.depth_to_space)
        cur = act.astype(np.float64)
    y_out = np.clip(np.rint(cur[0] * q.step * 255.0), 0.0, 255.0)
    return _to_rgb(lib, img, y_out, scale), saturated
