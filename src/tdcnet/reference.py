"""Floating-point oracle implementations of every primitive the models rely on.

These are the ground truth the transformed/scheduled/quantized paths are checked
against. `conv_taps` is the one conv kernel: the float layers, `conv2d`, the
DCLP simulator and the fixed-point layers of `quant` all run through it. It
contracts each output row with matmuls of one fixed shape, so a row's float
result does not depend on how many rows its block holds, and integer codes
(int64, or float64 under quant's 2**53 guard) sum exactly.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import Optional

import numpy as np

from .errors import DimensionError
from .model import ConvLayerSpec, ConvOperands, DeconvLayerSpec, Tensor3

_TILE_PIXELS = 3072       # batch row tile, in input pixels: 32 rows of a 96-wide plane
_SCRATCH_BYTES = 32 * 8 * _TILE_PIXELS    # any one per-push temporary: 32 float64 maps of a tile
# products of one conv_taps matmul call over kernel columns: in 160-wide streaming
# the p50 falls up to 256 KiB, and the tracemalloc peak holds to 512 KiB but grows 2%
# at the whole budget
_GROUP_BYTES = _SCRATCH_BYTES // 3    # 256 KiB


def _rows_within(row_bytes: int, held: int = 0) -> int:
    """Rows of `row_bytes`, at least one, that fit the budget beside `held` more."""
    return max(1, _SCRATCH_BYTES // row_bytes - held)


def _padded_block(rows: np.ndarray, k: int, pad_before: int, pad_after: int,
                  carry: Optional[np.ndarray] = None
                  ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """The zero-padded block that (N, R, W) input rows complete, and the carry
    for the next rows: the one builder of conv blocks, a line buffer's for the
    layer executor and a whole plane's for conv2d and the DCLP replay.

    The block is the carry (or, first, `pad_before` zero rows), then the rows
    `pad_before` columns in, then `pad_after` zero rows, held row-interleaved
    in (rows, N, W + K - 1) memory as conv_taps reads it and seen as
    (N, rows, W + K - 1). Its last K - 1 rows are the next carry; while it is
    shorter than K it is (None, rows so far). K = 1 returns the rows themselves.
    """
    if k == 1:
        return rows, carry
    n, r, w = rows.shape
    c = pad_before if carry is None else len(carry)
    block = np.zeros((c + r + pad_after, n, w + k - 1))
    if carry is not None:
        block[:c] = carry
    block[c:c + r, :, pad_before:pad_before + w] = rows.transpose(1, 0, 2)
    if len(block) < k:
        return None, block
    return block.transpose(1, 0, 2), block[len(block) - (k - 1):].copy()


def conv_taps(padded: np.ndarray, ops: ConvOperands) -> np.ndarray:
    """Bias plus the valid stride-1 convolution of a padded block: the one conv
    kernel of every float and fixed-point layer.

    `padded` is (N, R + K - 1, W + K - 1), held row-interleaved as line
    buffers hold it, a view of (R + K - 1, N, W + K - 1) memory (any other
    block is copied into that memory once); `ops` are model.conv_operands,
    built once per layer. Returns the (M, R, W) sums in the common dtype of
    the block and the operands (float64 or int64), a view of an (R, M, W)
    buffer. Each output row is contracted by matmuls of fixed shapes: where
    the operands are stacked, one (M, N*K*K) x (N*K*K, W) product over the
    row's stacked tap windows (for K = 1 the row itself, read in place);
    otherwise, per kernel column kx in order, one (M, K*N) x (K*N, W)
    product, its K*N input rows (ky, n) one zero-copy matrix of row stride
    W + K - 1 starting kx samples in (in a sparse layer, one product per run
    of `ops.runs`; skipping maps whose weights are all zero there changes no
    sample of finite input), added into the row's sums. A row's arithmetic
    thus never depends on R or on where the block lies, so a one-row block
    and a whole plane agree bit for bit as long as the BLAS gives a gemm of
    fixed shape and leading dimensions the same bits wherever its operands
    sit (test_conv_taps_rows_independent). int64 runs numpy's exact integer
    matmul. A dense layer makes one broadcast matmul per group of columns
    whose products fit _GROUP_BYTES: numpy still runs each (column, row)
    gemm on its own, and each column is still added on its own, in order, so
    the grouping changes no bit. (Summing a group in one reduction would, as
    numpy sums pairwise.)
    """
    k, wts, bias, runs = ops
    m = bias.shape[0]
    rows = np.ascontiguousarray(padded.transpose(1, 0, 2))     # (R + K - 1, N, W + K - 1)
    hp, n, wp = rows.shape
    r, w, s = hp - (k - 1), wp - (k - 1), rows.itemsize
    acc = np.empty((r, m, w), dtype=np.result_type(rows, wts))
    cols = np.ndarray((k, r, k * n, w), rows.dtype, rows, 0, (s, n * wp * s, wp * s, s))
    if wts.ndim == 2:                                        # stacked
        np.matmul(wts, cols.transpose(1, 0, 2, 3).reshape(r, -1, w), out=acc)
        acc += bias
        return acc.transpose(1, 0, 2)
    acc[...] = bias
    if runs is None:
        g = max(1, min(k, _GROUP_BYTES // (acc.nbytes or 1)))
        prods = np.empty((g, r, m, w), acc.dtype)
        for a in range(0, k, g):
            for prod in np.matmul(wts[a:a + g], cols[a:a + g], out=prods[:min(g, k - a)]):
                acc += prod
        return acc.transpose(1, 0, 2)
    tmp = np.empty_like(acc)
    for kx, j0, j1, maps in runs:
        wt = wts[kx, 0, maps, j0:j1]
        prod = tmp[:, :len(wt)]
        np.matmul(wt, cols[kx, :, j0:j1], out=prod)
        acc[:, maps] += prod
    return acc.transpose(1, 0, 2)


def _prelu_into(v: np.ndarray, steep: Optional[np.ndarray], product) -> None:
    """PReLU in place on (M, R, W) sums, for float and fixed point: max(v, s * v)
    where s <= 1, and where s > 1 min(v, s * v), the max on rows negated before
    and after. `steep` is the layer's model.steep_maps mask of the maps whose
    slope is above 1, or None; `product(v)` gives slope * v per map, plain in
    float, rounded half to even in fixed point."""
    if steep is not None:
        v[steep] *= -1
    np.maximum(v, product(v), out=v)
    if steep is not None:
        v[steep] *= -1


def conv_rows(padded: np.ndarray, layer: ConvLayerSpec) -> np.ndarray:
    """One float layer over a padded block: conv_taps on the layer's operands,
    then PReLU in place."""
    out = conv_taps(padded, layer.operands)
    s = layer.prelu_slope
    if s is not None:
        _prelu_into(out, layer.steep, lambda v: v * s[:, None, None])
    return out


def conv2d(x: Tensor3, layer: ConvLayerSpec) -> Tensor3:
    """Stride-1 zero-padded convolution preserving spatial size.

    Applies bias always and PReLU only when the layer carries slopes.
    """
    if x.channels != layer.in_maps:
        raise DimensionError(f"input channels {x.channels} != layer in_maps {layer.in_maps}")
    block, _ = _padded_block(x.data, layer.kernel, layer.pad_before, layer.pad_after)
    return Tensor3(conv_rows(block, layer))


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


def _taps_window(lo: int, hi: int, n: int) -> np.ndarray:
    """Indices of samples lo - 2 .. hi + 1 of an axis of n samples, clamped to
    [0, n - 1]: the edge-padded window that the bicubic taps of samples
    lo..hi - 1 read."""
    return np.clip(np.arange(lo - 2, hi + 2), 0, n - 1)


def _phase_weights(n: int, scale: int) -> np.ndarray:
    """Keys weights of an n-sample axis upscaled by `scale`, per tap t = -1..2
    and phase p: output sample d at src = (d + 0.5) / scale - 0.5 weighs input
    sample floor(src) + t by _cubic_kernel(src - (floor(src) + t)). One scalar
    each where every sample of a phase has the same weight (scale 2 and 4,
    where src is exact), else (4, scale, n) rows that a band slices."""
    src = (np.arange(n * scale) + 0.5) / scale - 0.5  # half-pixel centres
    wgts = _cubic_kernel(src - (np.floor(src) + np.arange(-1, 3)[:, None]))
    wgts = np.ascontiguousarray(wgts.reshape(4, n, scale).transpose(0, 2, 1))
    return wgts[..., 0].copy() if (wgts == wgts[..., :1]).all() else wgts


@functools.lru_cache(maxsize=32)
def _bicubic_weights(h: int, w: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights _bicubic_planes reads for (H, W) planes, built once per
    shape and kept, read-only, in a bounded cache: of the rows, and of the
    columns and their 4 edge-padding ones."""
    rows, cols = _phase_weights(h, scale), _phase_weights(w + 4, scale)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _bicubic_planes(planes: np.ndarray, weights: tuple[np.ndarray, np.ndarray],
                    rows: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Separable Keys bicubic upscale of stacked (C, H, W) float64 planes, rows
    first, then columns, as a polyphase filter on the low-resolution grid,
    samples edge-clamped, with `weights` = _bicubic_weights(H, W, scale).

    With `rows` = (r0, r1), both multiples of scale, only high-resolution rows
    r0..r1 - 1 are made, and `planes` holds just the low-resolution rows they
    read, _taps_window(r0 // scale, r1 // scale, H) of the whole planes; every
    sample equals the whole-plane one, of the same weights in the same order.

    Output sample scale * i + p sums, in tap order t = -1..2, its weight times
    input sample i + t + floor((p + 0.5) / scale - 0.5). The rows pass writes
    each row phase as one block of a flat buffer of (W + 4)-sample rows and 4
    spare samples, so each columns tap is one contiguous slice of it; the 4
    products per row that wrap into the next row are dropped on interleaving.
    """
    row_wts, col_wts = weights
    scale = row_wts.shape[1]
    c, h, w = planes.shape
    if rows is None:
        rows = 0, h * scale
        planes = planes[:, _taps_window(0, h, h)]
    if scale == 1:
        return planes[:, 2:-2].copy()
    n, lo, wp = planes.shape[1] - 4, rows[0] // scale, w + 4
    planes = planes[:, :, _taps_window(0, w, w)]
    size = scale * c * n * wp
    flat = np.empty(size + 4)
    flat[size:] = 0.0
    high = flat[:size].reshape(scale, c, n, wp)     # row phase p of input row i: high[p, :, i]
    acc, prod = np.empty(high.shape), np.empty(high.shape)
    for p in range(scale):
        shift = 2 * p + 1 >= scale                  # floor((p + 0.5) / scale - 0.5) + 1
        for t in range(4):
            wgt = row_wts[t, p] if row_wts.ndim == 2 else row_wts[t, p, lo:lo + n, None]
            part = planes[:, t + shift:t + shift + n]
            if t == 0:
                np.multiply(part, wgt, out=high[p])
            else:
                high[p] += np.multiply(part, wgt, out=prod[0])
    out = np.empty((c, n, scale, w, scale))
    for p in range(scale):
        shift = 2 * p + 1 >= scale
        for t in range(4):
            part = flat[t + shift:t + shift + size].reshape(high.shape)
            if t == 0:
                np.multiply(part, col_wts[t, p], out=acc)
            else:
                acc += np.multiply(part, col_wts[t, p], out=prod)
        out[..., p] = acc[..., :w].transpose(1, 2, 0, 3)
    return out.reshape(c, n * scale, w * scale)


def bicubic_upscale_plane(plane: np.ndarray, scale: int) -> np.ndarray:
    """Separable Keys bicubic (a = -0.5) upscale of a non-empty 2-D plane."""
    plane = np.asarray(plane, dtype=np.float64)
    try:
        scale = operator.index(scale)
    except TypeError:
        raise DimensionError(f"scale must be a positive integer, got {scale!r}") from None
    if plane.ndim != 2 or plane.size == 0 or scale < 1:
        raise DimensionError(f"expected a non-empty 2-D plane, scale >= 1: {plane.shape}, {scale}")
    return _bicubic_planes(plane[None], _bicubic_weights(*plane.shape, scale))[0]


# ITU-R BT.601 studio swing (Y in [16,235], Cb/Cr in [16,240])
_KR, _KG, _KB = 0.299, 0.587, 0.114


def _luma(rgb: np.ndarray) -> np.ndarray:
    """Full-range Y of float64 RGB (..., 3): the one Y expression."""
    return _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]


def _studio_luma(y_full: np.ndarray) -> np.ndarray:
    """Studio-swing Y, clipped to [16, 235], of full-range Y."""
    return np.clip(16.0 + (219.0 / 255.0) * y_full, 16.0, 235.0)


def _cbcr(rgb: np.ndarray, y_full: np.ndarray) -> np.ndarray:
    """Clipped studio-swing (Cb, Cr), stacked, of float64 RGB with full-range Y."""
    cbcr = np.stack([128.0 + (112.0 / 255.0) * (rgb[..., c] - y_full) / (1.0 - k)
                     for c, k in ((2, _KB), (0, _KR))])
    return np.clip(cbcr, 16.0, 240.0, out=cbcr)


def rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-bit RGB (H, W, 3) to real-valued studio-swing Y/Cb/Cr planes."""
    rgb = np.asarray(img, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3) RGB image, got {rgb.shape}")
    y_full = _luma(rgb)
    cb, cr = _cbcr(rgb, y_full)
    return _studio_luma(y_full), cb, cr


def _ycbcr_into_rgb(y: np.ndarray, cbcr: np.ndarray, rgb: np.ndarray) -> np.ndarray:
    """ycbcr_to_rgb in place on float64 planes, with one scratch plane, into
    the (..., 3) uint8 `rgb`: `y` (studio Y) and `cbcr` (stacked Cb, Cr) are
    left holding G and stacked B, R. Each channel is clipped, then rounded
    into `rgb`, which equals rounding first as 0 and 255 are integers."""
    y -= 16.0
    y *= 255.0 / 219.0
    cbcr -= 128.0
    cbcr[0] *= 1.0 - _KB
    cbcr[1] *= 1.0 - _KR
    cbcr *= 255.0 / 112.0
    cbcr += y
    cb, cr = cbcr
    scratch = np.multiply(cr, _KR, out=np.empty_like(y))
    y -= scratch
    y -= np.multiply(cb, _KB, out=scratch)
    y /= _KG
    for plane, channels in ((cbcr, np.moveaxis(rgb[..., 2::-2], -1, 0)), (y, rgb[..., 1])):
        np.rint(np.clip(plane, 0, 255, out=plane), out=channels, casting="unsafe")
    return rgb


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Inverse of rgb_to_ycbcr, rounded and clamped to 8-bit RGB; the inputs
    are left alone."""
    y, cb, cr = np.broadcast_arrays(y, cb, cr)
    return _ycbcr_into_rgb(np.array(y, dtype=np.float64), np.array((cb, cr), dtype=np.float64),
                           np.empty(y.shape + (3,), dtype=np.uint8))


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
