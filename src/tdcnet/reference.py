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
from .model import ConvLayerSpec, ConvOperands, DeconvLayerSpec, Tensor3

_TILE_PIXELS = 3072       # batch row tile, in input pixels: 32 rows of a 96-wide plane
_SCRATCH_BYTES = 32 * 8 * _TILE_PIXELS    # any one per-push temporary: 32 float64 maps of a tile
# products of one conv_taps matmul call over whole kernel rows: in 160-wide streaming
# the p50 falls up to 256 KiB, and the tracemalloc peak holds to 512 KiB but grows 2%
# at the whole budget
_GROUP_BYTES = _SCRATCH_BYTES // 3    # 256 KiB


def _rows_within(row_bytes: int, held: int = 0) -> int:
    """Rows of `row_bytes`, at least one, that fit the budget beside `held` more."""
    return max(1, _SCRATCH_BYTES // row_bytes - held)


def _tap_windows(padded: np.ndarray, k: int) -> np.ndarray:
    """The zero-copy (K, K, R, N, W) view of a padded (N, R + K - 1, W + K - 1)
    block whose [ky, kx] holds the (R, N, W) input rows of tap (ky, kx), as a
    plain ndarray on the buffer of the block, made contiguous first (every
    block the library builds already is)."""
    padded = np.ascontiguousarray(padded)
    n, hp, wp = padded.shape
    sn, sh, sw = padded.strides
    shape, strides = (k, k, hp - k + 1, n, wp - k + 1), (sh, sw, sh, sn, sw)
    return np.ndarray(shape, padded.dtype, padded, 0, strides)


def conv_taps(padded: np.ndarray, ops: ConvOperands) -> np.ndarray:
    """Bias plus the valid stride-1 convolution of a padded block: the one conv
    kernel of every float and fixed-point layer.

    `padded` is (N, R + K - 1, W + K - 1) and `ops` the layer's (M, N, K, K)
    weights and bias as model.conv_operands lays them out, built once per
    layer; returns the (M, R, W) sums in the common dtype of the block and the
    operands (float64 or int64), as a view of an (R, M, W) buffer. Each output
    row is contracted by matmuls of one fixed shape: where the operands are
    stacked (K = 1 or N*K*K <= M), one (M, N*K*K) x (N*K*K, W) product over
    the row's stacked tap windows (for K = 1 the row itself); otherwise, per
    tap (ky, kx) in order, one (M_t, N) x (N, W) product over the maps
    `ops.tap_maps[ky * K + kx]` selects (all M where it or `tap_maps` is
    None), added into the row's sums. A row's arithmetic thus depends on
    (M, N, K, W) and the tap plan, never on R or on where the block lies, so a
    one-row block and a whole plane agree bit for bit as long as the BLAS
    gives a gemm of fixed shape the same bits wherever its operands sit
    (test_conv_taps_rows_independent). int64 runs numpy's exact integer
    matmul. Skipping only maps whose weights at that tap are all zero leaves
    every sample unchanged as long as the input is finite.

    Every tap window is read from one view of the block (_tap_windows); the
    stacked windows are one reshape copy of it. A dense layer (`tap_maps`
    None) whose products of g whole kernel rows fit _GROUP_BYTES makes one
    broadcast matmul per g kernel rows, (g, K, 1, M, N) tap matrices against
    (g, K, R, N, W) windows: numpy still runs each (tap, row) gemm on its own,
    of the same shape on the same operands, and each tap's product is still
    added on its own in tap order, so the grouping changes no bit. (Summing a
    group in one reduction would, as numpy sums pairwise.) Other layers, and
    blocks too tall for the bound, make one matmul call per tap.
    """
    k, taps, bias, tap_maps = ops
    m = bias.shape[0]
    r, w = padded.shape[1] - (k - 1), padded.shape[2] - (k - 1)
    acc = np.empty((r, m, w), dtype=np.result_type(padded, taps))
    if taps.ndim == 2:                                       # stacked
        stack = padded.transpose(1, 0, 2) if k == 1 else (     # (R, N*K*K, W)
            _tap_windows(padded, k).transpose(2, 3, 0, 1, 4).reshape(r, -1, w))
        np.matmul(taps, stack, out=acc)
        acc += bias
        return acc.transpose(1, 0, 2)
    acc[...] = bias
    win = _tap_windows(padded, k)
    g = min(k, _GROUP_BYTES // (k * acc.nbytes)) if tap_maps is None and acc.size else 0
    if g:
        prods = np.empty((g, k, r, m, w), acc.dtype)
        for a in range(0, k, g):
            prod = np.matmul(taps[a:a + g, :, None], win[a:a + g], out=prods[:min(g, k - a)])
            for tap in prod.reshape(-1, r, m, w):            # (ky, kx) order
                acc += tap
        return acc.transpose(1, 0, 2)
    tmp = np.empty_like(acc)
    for t, sl in enumerate(tap_maps or (None,) * (k * k)):
        ky, kx = divmod(t, k)
        sl = slice(None) if sl is None else sl
        wt = taps[ky, kx, sl]
        if len(wt):
            prod = tmp[:, :len(wt)]
            np.matmul(wt, win[ky, kx], out=prod)
            acc[:, sl] += prod
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


def _taps_window(lo: int, hi: int, n: int) -> np.ndarray:
    """Indices of samples lo - 2 .. hi + 1 of an axis of n samples, clamped to
    [0, n - 1]: the edge-padded window that the bicubic taps of samples
    lo..hi - 1 read."""
    return np.clip(np.arange(lo - 2, hi + 2), 0, n - 1)


def _polyphase_axis(window: np.ndarray, scale: int, axis: int, first: int) -> np.ndarray:
    """All `scale` phases, along `axis`, of the samples whose taps read
    `window`, which holds them and two more beyond each end (a _taps_window);
    output sample 0 is sample `first`, a multiple of scale, of the whole
    upscaled axis.

    Output sample d sits at src = (d + 0.5) / scale - 0.5 and sums, in tap
    order t = -1..2, _cubic_kernel(src - (base + t)) times the sample at
    base + t, base = floor(src). Since base[scale * i + p] == i + base[p],
    phase p reads shifted slices of the window.
    """
    n = window.shape[axis] - 4
    src = (np.arange(first, first + n * scale) + 0.5) / scale - 0.5  # half-pixel centres
    base = np.floor(src)
    # per tap, the weight of every output sample as (n, scale), along the axis
    taps = np.arange(-1, 3)[:, None]
    wgts = _cubic_kernel(src - (base + taps)).reshape((4, n, scale) + (1,) * (2 - axis))
    shape = window.shape[:axis] + (n,) + window.shape[axis + 1:]
    out = np.empty(shape[:axis + 1] + (scale,) + shape[axis + 1:])
    acc, tmp = np.empty(shape), np.empty(shape)
    lead = (slice(None),) * axis
    for p in range(scale):
        for t, wgt in enumerate(wgts):               # taps -1..2
            start = int(base[p]) - first // scale + t + 1
            part = window[lead + (slice(start, start + n),)]
            if t == 0:
                np.multiply(part, wgt[:, p], out=acc)
            else:
                acc += np.multiply(part, wgt[:, p], out=tmp)
        out[lead + (slice(None), p)] = acc
    return out.reshape(shape[:axis] + (n * scale,) + shape[axis + 1:])


def _bicubic_planes(planes: np.ndarray, scale: int,
                    rows: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Separable Keys bicubic upscale of stacked (C, H, W) float64 planes, rows
    first, then columns, as a polyphase filter on the low-resolution grid,
    samples edge-clamped.

    With `rows` = (r0, r1), both multiples of scale, only high-resolution rows
    r0..r1 - 1 are made, and `planes` holds just the low-resolution rows they
    read, _taps_window(r0 // scale, r1 // scale, H) of the whole planes. Every
    sample equals the whole-plane one, as it comes from the same weights in
    the same tap order.
    """
    if rows is None:
        rows = 0, planes.shape[1] * scale
        planes = planes[:, _taps_window(0, planes.shape[1], planes.shape[1])]
    if scale == 1:
        return planes[:, 2:-2].copy()
    w = planes.shape[2]
    cols = _polyphase_axis(planes, scale, 1, rows[0])[:, :, _taps_window(0, w, w)]
    return _polyphase_axis(cols, scale, 2, 0)


def bicubic_upscale_plane(plane: np.ndarray, scale: int) -> np.ndarray:
    """Separable Keys bicubic (a = -0.5) upscale of a non-empty 2-D plane."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.ndim != 2 or plane.size == 0 or scale < 1:
        raise DimensionError(f"expected a non-empty 2-D plane, scale >= 1: {plane.shape}, {scale}")
    return _bicubic_planes(plane[None], scale)[0]


# ITU-R BT.601 studio swing (Y in [16,235], Cb/Cr in [16,240])
_KR, _KG, _KB = 0.299, 0.587, 0.114


def _luma(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full-range and clipped studio-swing Y of float64 RGB (..., 3)."""
    y_full = _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]
    return y_full, np.clip(16.0 + (219.0 / 255.0) * y_full, 16.0, 235.0)


def rgb_to_ycbcr(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """8-bit RGB (H, W, 3) to real-valued studio-swing Y/Cb/Cr planes."""
    rgb = np.asarray(img, dtype=np.float64)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise DimensionError(f"expected (H, W, 3) RGB image, got {rgb.shape}")
    y_full, y = _luma(rgb)
    cb = 128.0 + (112.0 / 255.0) * (rgb[..., 2] - y_full) / (1.0 - _KB)
    cr = 128.0 + (112.0 / 255.0) * (rgb[..., 0] - y_full) / (1.0 - _KR)
    return y, np.clip(cb, 16.0, 240.0), np.clip(cr, 16.0, 240.0)


def _ycbcr_into_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray,
                    rgb: np.ndarray) -> np.ndarray:
    """ycbcr_to_rgb in place on float64 planes of one shape, with one scratch
    plane, into the (H, W, 3) uint8 `rgb`: y, cb and cr are left holding G, B
    and R."""
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
    for c, plane in enumerate((cr, y, cb)):         # rounded and clamped in place
        rgb[..., c] = np.clip(np.rint(plane, out=plane), 0, 255, out=plane)
    return rgb


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Inverse of rgb_to_ycbcr, rounded and clamped to 8-bit RGB; the inputs
    are left alone."""
    planes = [np.array(p, dtype=np.float64) for p in np.broadcast_arrays(y, cb, cr)]
    return _ycbcr_into_rgb(*planes, np.empty(planes[0].shape + (3,), dtype=np.uint8))


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
