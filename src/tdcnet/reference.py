"""Floating-point oracle implementations of every primitive the models rely on.

These are the ground truth the transformed/scheduled/quantized paths are checked
against. `conv_taps` is the one conv kernel: the float layers, `conv2d`, the
DCLP simulator and the fixed-point layers of `quant` all run through it. It
contracts each output row with matmuls of one fixed shape, so a row's float
result does not depend on how many rows its block holds, and integer codes
(int64, or float64 under quant's 2**53 guard) sum exactly.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DimensionError
from .model import ConvLayerSpec, DeconvLayerSpec, Tensor3


def conv_taps(padded: np.ndarray, weights: np.ndarray, bias: np.ndarray,
              tap_maps: Optional[tuple[Optional[slice], ...]] = None) -> np.ndarray:
    """Bias plus the valid stride-1 convolution of a padded block: the one conv
    kernel of every float and fixed-point layer.

    `padded` is (N, R + K - 1, W + K - 1) and `weights` (M, N, K, K); returns
    the (M, R, W) sums in their common dtype (float64 or int64), as a view of
    an (R, M, W) buffer. Each output row is contracted by matmuls of one fixed
    shape: where K = 1 or N*K*K <= M, one (M, N*K*K) x (N*K*K, W) product over
    the row's stacked tap windows (for K = 1 the row itself); otherwise, per
    tap (ky, kx) in order, one (M_t, N) x (N, W) product over the maps
    `tap_maps[ky * K + kx]` selects (all M where it or `tap_maps` is None),
    added into the row's sums. A row's arithmetic thus depends on (M, N, K, W)
    and the tap plan, never on R or on where the block lies, so a one-row
    block and a whole plane agree bit for bit as long as the BLAS gives a
    gemm of fixed shape the same bits wherever its operands sit
    (test_conv_taps_rows_independent). int64 runs numpy's exact integer
    matmul. Skipping only maps whose weights at that tap are all zero leaves
    every sample unchanged as long as the input is finite.
    """
    m, n, k, _ = weights.shape
    r, w = padded.shape[1] - (k - 1), padded.shape[2] - (k - 1)
    dtype = np.result_type(padded, weights)
    rows = padded.transpose(1, 0, 2)                 # (R + K - 1, N, W + K - 1)
    acc = np.empty((r, m, w), dtype=dtype)
    if k == 1 or n * k * k <= m:
        stack = rows if k == 1 else np.stack(
            [rows[ky:ky + r, :, kx:kx + w] for ky in range(k) for kx in range(k)], axis=2)
        stacked = weights.reshape(m, -1).astype(dtype, copy=False)   # (n, ky, kx) order
        np.matmul(stacked, stack.reshape(r, -1, w), out=acc)
        acc += bias[:, None]
        return acc.transpose(1, 0, 2)
    acc[...] = bias[:, None]
    tmp = np.empty_like(acc)
    taps = np.ascontiguousarray(weights.transpose(2, 3, 0, 1), dtype=dtype)   # (K, K, M, N)
    for t, sl in enumerate(tap_maps or (None,) * (k * k)):
        ky, kx = divmod(t, k)
        sl = slice(None) if sl is None else sl
        wt = taps[ky, kx, sl]
        if len(wt):
            prod = tmp[:, :len(wt)]
            np.matmul(wt, rows[ky:ky + r, :, kx:kx + w], out=prod)
            acc[:, sl] += prod
    return acc.transpose(1, 0, 2)


def _prelu_into(v: np.ndarray, slopes: np.ndarray, product) -> None:
    """PReLU in place on (M, R, W) sums, for float and fixed-point layers alike:
    max(v, s * v) where s <= 1, and where s > 1 min(v, s * v), the max on rows
    negated before and after. `product(v)` gives slope * v per map for the M
    `slopes`, plain in float and rounded half to even in fixed point."""
    steep = slopes > 1
    flip = steep.any()
    if flip:
        v[steep] *= -1
    np.maximum(v, product(v), out=v)
    if flip:
        v[steep] *= -1


def conv_rows(padded: np.ndarray, layer: ConvLayerSpec) -> np.ndarray:
    """One float layer over a padded block: conv_taps, then PReLU in place."""
    out = conv_taps(padded, layer.weights, layer.bias, layer.tap_maps)
    s = layer.prelu_slope
    if s is not None:
        _prelu_into(out, s, lambda v: v * s[:, None, None])
    return out


def conv2d(x: Tensor3, layer: ConvLayerSpec) -> Tensor3:
    """Stride-1 zero-padded convolution preserving spatial size.

    Applies bias always and PReLU only when the layer carries slopes.
    """
    if x.channels != layer.in_maps:
        raise DimensionError(f"input channels {x.channels} != layer in_maps {layer.in_maps}")
    n_in, h, w = x.data.shape
    k, pb = layer.kernel, layer.pad_before
    padded = np.zeros((n_in, h + k - 1, w + k - 1))
    padded[:, pb:pb + h, pb:pb + w] = x.data
    return Tensor3(conv_rows(padded, layer))


def deconv2d_canvas(x: Tensor3, layer: DeconvLayerSpec) -> Tensor3:
    """Brute-force transposed convolution onto the full accumulation canvas.

    Canvas size is (H-1)*S + K per axis; every input pixel scatters a K x K
    block at stride S and overlapping contributions accumulate. Bias is *not*
    added here; callers add it per cropped-output pixel.
    """
    if x.channels != layer.in_maps:
        raise DimensionError(f"input channels {x.channels} != layer in_maps {layer.in_maps}")
    n_in, h, w = x.data.shape
    k, s, m = layer.kernel, layer.scale, layer.out_maps
    ch = (h - 1) * s + k
    cw = (w - 1) * s + k
    canvas = np.zeros((m, ch, cw))
    wt = layer.weights
    for om in range(m):
        for n in range(n_in):
            for ky in range(k):
                for kx in range(k):
                    canvas[om, ky:ky + (h - 1) * s + 1:s, kx:kx + (w - 1) * s + 1:s] += (
                        wt[om, n, ky, kx] * x.data[n]
                    )
    return Tensor3(canvas)


def canvas_window(canvas: Tensor3, offset: int, out_h: int, out_w: int) -> Tensor3:
    """Window of the canvas starting at (offset, offset), zero-extended outside."""
    out = np.zeros((canvas.channels, out_h, out_w))
    ch, cw = canvas.height, canvas.width
    y0, y1 = max(offset, 0), min(offset + out_h, ch)
    x0, x1 = max(offset, 0), min(offset + out_w, cw)
    if y0 < y1 and x0 < x1:
        out[:, y0 - offset:y1 - offset, x0 - offset:x1 - offset] = canvas.data[:, y0:y1, x0:x1]
    return Tensor3(out)


def depth_to_space_array(a: np.ndarray, scale: int) -> np.ndarray:
    """Move the S x S block phase out of the channel dimension, any dtype.

    Input channel S^2*m + S*yo + xo at (Y, X) lands on output channel m at
    (S*Y + yo, S*X + xo).
    """
    s = scale
    c, h, w = a.shape
    if c % (s * s) != 0:
        raise DimensionError(f"channels {c} not divisible by scale^2 = {s * s}")
    m = c // (s * s)
    blocks = a.reshape(m, s, s, h, w)               # (m, yo, xo, Y, X)
    return blocks.transpose(0, 3, 1, 4, 2).reshape(m, h * s, w * s)


def depth_to_space(t: Tensor3, scale: int) -> Tensor3:
    """depth_to_space_array on a Tensor3."""
    return Tensor3(depth_to_space_array(t.data, scale))


def prelu(t: Tensor3, slopes) -> Tensor3:
    """f(v) = v for v >= 0 else slope_c * v, one slope per channel."""
    slopes = np.asarray(slopes, dtype=np.float64)
    if slopes.size != t.channels:
        raise DimensionError(f"slope count {slopes.size} != channels {t.channels}")
    d = t.data
    out = np.where(d >= 0, d, slopes[:, None, None] * d)
    return Tensor3(out)


def _cubic_kernel(d: np.ndarray) -> np.ndarray:
    """Keys cubic interpolation kernel (a = -0.5), evaluated at absolute distances d."""
    d = np.abs(d)
    near = 1.5 * d ** 3 - 2.5 * d ** 2 + 1
    far = -0.5 * d ** 3 + 2.5 * d ** 2 - 4 * d + 2
    return np.where(d <= 1, near, np.where(d < 2, far, 0.0))


def _bicubic_planes(planes: np.ndarray, scale: int) -> np.ndarray:
    """Separable Keys bicubic upscale of stacked (C, H, W) float64 planes, rows
    first, then columns, as a polyphase filter on the low-resolution grid.

    Output sample d of an axis of n samples sits at src = (d + 0.5) / scale - 0.5
    and sums, in tap order t = -1..2, _cubic_kernel(src - (base + t)) times the
    sample at base + t clamped to [0, n - 1], base = floor(src). Since
    base[scale * i + p] == i + base[p], phase p reads shifted slices.
    """
    if scale == 1:
        return planes.copy()
    for axis in (1, 2):
        shape, n = planes.shape, planes.shape[axis]
        src = (np.arange(n * scale) + 0.5) / scale - 0.5      # half-pixel centres
        base = np.floor(src)
        # per tap, the weight of every output sample as (n, scale), along the axis
        wgts = [_cubic_kernel(src - (base + t)).reshape((n, scale) + (1,) * (2 - axis))
                for t in (-1, 0, 1, 2)]
        planes = np.pad(planes, [(2 * (a == axis),) * 2 for a in range(3)], mode="edge")
        out = np.empty(shape[:axis + 1] + (scale,) + shape[axis + 1:])
        acc, tmp = np.empty(shape), np.empty(shape)
        lead = (slice(None),) * axis
        for p in range(scale):
            for t, wgt in enumerate(wgts):           # taps -1..2, edge-clamped
                start = int(base[p]) + t + 1
                window = planes[lead + (slice(start, start + n),)]
                if t == 0:
                    np.multiply(window, wgt[:, p], out=acc)
                else:
                    acc += np.multiply(window, wgt[:, p], out=tmp)
            out[lead + (slice(None), p)] = acc
        planes = out.reshape(shape[:axis] + (n * scale,) + shape[axis + 1:])
    return planes


def bicubic_upscale_plane(plane: np.ndarray, scale: int) -> np.ndarray:
    """Separable Keys bicubic (a = -0.5) upscale of a non-empty 2-D plane."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.size == 0 or scale < 1:
        raise DimensionError(f"expected a non-empty 2-D plane, scale >= 1: {plane.shape}, {scale}")
    return _bicubic_planes(plane[None], scale)[0]


def bicubic_upscale(plane: Tensor3, scale: int) -> Tensor3:
    """bicubic_upscale_plane of a single-channel Tensor3."""
    if plane.channels != 1:
        raise DimensionError("bicubic_upscale expects a single-channel plane")
    return Tensor3(bicubic_upscale_plane(plane.data[0], scale)[None])


# ITU-R BT.601 studio swing (Y in [16,235], Cb/Cr in [16,240])
_KR, _KG, _KB = 0.299, 0.587, 0.114


def rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-bit RGB (H, W, 3) to real-valued studio-swing Y/Cb/Cr planes."""
    rgb = np.asarray(img, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3) RGB image, got {rgb.shape}")
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y_full = _KR * r + _KG * g + _KB * b
    y = 16.0 + (219.0 / 255.0) * y_full
    cb = 128.0 + (112.0 / 255.0) * (b - y_full) / (1.0 - _KB)
    cr = 128.0 + (112.0 / 255.0) * (r - y_full) / (1.0 - _KR)
    y = np.clip(y, 16.0, 235.0)
    cb = np.clip(cb, 16.0, 240.0)
    cr = np.clip(cr, 16.0, 240.0)
    return y, cb, cr


def _ycbcr_into_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """ycbcr_to_rgb in place on float64 planes of one shape, with one scratch
    plane: y, cb and cr are left holding G, B and R."""
    y -= 16.0
    y *= 255.0 / 219.0
    for c, k in ((cr, _KR), (cb, _KB)):
        c -= 128.0
        c *= 1.0 - k
        c *= 255.0 / 112.0
        c += y
    scratch = np.multiply(cr, _KR)
    y -= scratch
    y -= np.multiply(cb, _KB, out=scratch)
    y /= _KG
    rgb = np.empty(y.shape + (3,), dtype=np.uint8)
    for c, plane in enumerate((cr, y, cb)):         # rounded and clamped in place
        rgb[..., c] = np.clip(np.rint(plane, out=plane), 0, 255, out=plane)
    return rgb


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Inverse of rgb_to_ycbcr, rounded and clamped to 8-bit RGB; the inputs
    are left alone."""
    planes = np.broadcast_arrays(y, cb, cr)
    return _ycbcr_into_rgb(*(np.array(p, dtype=np.float64) for p in planes))


def psnr(a, b, border: int = 0) -> float:
    """10*log10(255^2 / MSE) on 8-bit-scaled samples, border cropped on all sides."""
    da = a.data if isinstance(a, Tensor3) else np.asarray(a, dtype=np.float64)
    db = b.data if isinstance(b, Tensor3) else np.asarray(b, dtype=np.float64)
    if da.shape != db.shape:
        raise DimensionError(f"shape mismatch {da.shape} vs {db.shape}")
    if border > 0:
        da = da[..., border:-border, border:-border]
        db = db[..., border:-border, border:-border]
        if da.size == 0:
            raise DimensionError("border crop removed the whole image")
    mse = float(np.mean((da - db) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 ** 2 / mse)
