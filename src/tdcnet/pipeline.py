"""End-to-end super-resolution inference: batch mode and a streaming mode that
emulates the on-chip row-by-row dataflow.

The luma channel runs through the network (deconv executed as its transformed
convolution followed by depth-to-space); Cb and Cr are bicubic-upscaled
together and converted to RGB in place with the network's luma. 8-bit
samples are normalized to [0, 1] in front of the network and denormalized with
round-half-to-even afterwards. Both modes push the luma plane through the one
layer executor of `quant`, each layer keeping only its last kernel - 1 input
rows between pushes: batch in row tiles sized to stay in cache, streaming one
row at a time. The results are identical (exactly in float, bitwise in fixed).

Rows in, rows out: each input tile is converted to Y and normalised on its
own, and each output block the executor yields is finished into the one
preallocated 8-bit output. Colour is converted after the luma, in bands whose
float64 Y, Cb and Cr fit the scratch budget, each from only the input rows
its chroma taps read: no whole-plane float copy of the image exists.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataflow import plan_dataflow
from .errors import ConfigurationError, DimensionError
from .model import NetworkSpec
from .quant import QFormat, _forward, _layers, _quantized, _rint_codes
from .reference import (_bicubic_planes, _bicubic_weights, _cbcr, _luma,
                        _rows_within, _studio_luma, _taps_window, _ycbcr_into_rgb)

_Q13 = QFormat(13, 9)       # default weight and activation format


@dataclass
class StreamStats:
    """Line-buffer capacity per layer index of a streaming run, in samples.

    This is the planned capacity (`dataflow.plan_dataflow`'s line buffer:
    kernel * width * in_maps, none for a 1x1 layer after the first), not an
    observed occupancy.
    """

    peak_samples: dict[int, int] = field(default_factory=dict)


def _chroma_into(img: np.ndarray, weights: tuple[np.ndarray, np.ndarray], out: np.ndarray,
                 r0: int, r1: int) -> None:
    """Convert high-resolution rows r0..r1 - 1 of `out` to RGB, their G plane
    holding the finished luma, with Cb/Cr upscaled from just the input rows
    their taps read; `weights` are the call's _bicubic_weights."""
    scale = weights[0].shape[1]
    rgb = img[_taps_window(r0 // scale, r1 // scale, img.shape[0])].astype(np.float64)
    cbcr = _bicubic_planes(_cbcr(rgb, _luma(rgb)), weights, (r0, r1))
    _ycbcr_into_rgb(out[r0:r1, :, 1].astype(np.float64), cbcr, out[r0:r1])


def _infer(image, net: NetworkSpec, scale: int, mode: str, q_weights: Optional[QFormat],
           q_activations: Optional[QFormat], rows: Optional[int]) -> np.ndarray:
    """Checks, then the luma network pushed `rows` rows at a time, each output
    block finished in place, then the chroma path in bands."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ConfigurationError(f"expected an 8-bit image, got dtype {img.dtype}")
    if img.ndim not in (2, 3) or (img.ndim == 3 and img.shape[2] != 3):
        raise DimensionError(f"expected (H, W) or (H, W, 3) image, got shape {img.shape}")
    if img.size == 0:
        raise DimensionError(f"expected a non-empty image, got shape {img.shape}")
    net_scale = net.deconv.scale if net.deconv is not None else 1
    if net_scale != scale:
        raise ConfigurationError(f"network upscales by {net_scale}, requested scale {scale}")
    if mode not in ("float", "fixed"):
        raise ConfigurationError(f"mode must be 'float' or 'fixed', got {mode!r}")
    if mode == "float" and (q_weights is not None or q_activations is not None):
        raise ConfigurationError("fixed-point formats apply with mode='fixed' only")
    if mode == "float":
        layers, lsb, norm = _layers(net), None, lambda t: t / 255.0
    else:
        qa = q_activations or _Q13
        layers = _layers(None, _quantized(net, q_weights or _Q13, qa))
        lsb, norm = qa.step, lambda t: _rint_codes(t / 255.0, qa)
    rgb = img.ndim == 3
    out = np.empty((img.shape[0] * scale, img.shape[1] * scale) + img.shape[2:], np.uint8)
    luma = out[..., 1] if rgb else out        # G holds each luma row until its band converts
    prep = (lambda t: norm(_studio_luma(_luma(t[0].astype(np.float64))))[None]) if rgb else norm
    done = 0
    for block in _forward(layers, img[None], rows, prep=prep):
        y = block[0]
        y *= 255.0 if lsb is None else 255.0 * lsb    # lsb is a power of two: one rounding
        luma[done:done + len(y)] = np.clip(np.rint(y, out=y), 0.0, 255.0, out=y)
        done += len(y)
        del block, y                           # before the executor runs the next push
    if rgb:     # a band's float64 Y, Cb and Cr within the budget, of at least 4 input rows
        band = scale * max(4, _rows_within(24 * img.shape[1] * scale ** 2))
        weights = _bicubic_weights(*img.shape[:2], scale)
        for r0 in range(0, done, band):
            _chroma_into(img, weights, out, r0, min(r0 + band, done))
    return out


def infer(image, net: NetworkSpec, scale: int, mode: str = "float",
          q_weights: Optional[QFormat] = None,
          q_activations: Optional[QFormat] = None) -> np.ndarray:
    """High-resolution image from an 8-bit RGB or single-channel input."""
    return _infer(image, net, scale, mode, q_weights, q_activations, None)


def infer_streaming(image, net: NetworkSpec, scale: int, mode: str = "float",
                    q_weights: Optional[QFormat] = None,
                    q_activations: Optional[QFormat] = None,
                    stats: Optional[StreamStats] = None) -> np.ndarray:
    """Row-at-a-time inference; identical output to infer()."""
    out = _infer(image, net, scale, mode, q_weights, q_activations, 1)
    if stats is not None:
        plan = plan_dataflow(net, np.shape(image)[1], 1)
        stats.peak_samples.update((i, l.line_buffer_bits) for i, l in enumerate(plan.layers))
    return out
