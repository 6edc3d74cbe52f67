"""End-to-end super-resolution inference: batch mode and a streaming mode that
emulates the on-chip row-by-row dataflow.

The luma channel runs through the network (deconv executed as its transformed
convolution followed by depth-to-space); chroma is bicubic-upscaled. 8-bit
samples are normalized to [0, 1] in front of the network and denormalized with
round-half-to-even afterwards. Both modes push the luma plane through the one
layer executor of `quant`, each layer keeping only its last kernel - 1 input
rows between pushes: batch in row tiles sized to stay in cache, streaming one
row at a time. The results are identical (exactly in float, bitwise in fixed).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dataflow import plan_dataflow
from .errors import ConfigurationError, DimensionError
from .model import NetworkSpec
from .quant import QFormat, _forward, _layers, quantize_array, quantize_network
from .reference import bicubic_upscale_plane, rgb_to_ycbcr, ycbcr_to_rgb

_Q13 = QFormat(13, 9)       # default weight and activation format


@dataclass
class StreamStats:
    """Line-buffer capacity per layer index of a streaming run, in samples.

    This is the planned capacity (`dataflow.plan_dataflow`'s line buffer:
    kernel * width * in_maps, none for a 1x1 layer after the first), not an
    observed occupancy.
    """

    peak_samples: dict[int, int] = field(default_factory=dict)


def _luma(net: NetworkSpec, y_plane: np.ndarray, mode: str, q_weights: Optional[QFormat],
          q_activations: Optional[QFormat], rows: Optional[int]) -> np.ndarray:
    """The network's 8-bit-range output plane for one luma plane."""
    x = (y_plane / 255.0)[None]
    if mode == "float":
        y = _forward(_layers(net), x, rows)[0]
    else:
        qa = q_activations or _Q13
        qnet = quantize_network(net, q_weights or _Q13, qa)
        raw = _forward(_layers(None, qnet), quantize_array(x, qa), rows)
        y = raw[0] * qa.step
    y *= 255.0
    return np.clip(np.rint(y, out=y), 0.0, 255.0, out=y)


def _infer(image, net: NetworkSpec, scale: int, mode: str, q_weights: Optional[QFormat],
           q_activations: Optional[QFormat], rows: Optional[int]) -> np.ndarray:
    """Checks, the luma network pushed `rows` rows at a time, and the chroma path."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ConfigurationError(f"expected an 8-bit image, got dtype {img.dtype}")
    if img.ndim not in (2, 3) or (img.ndim == 3 and img.shape[2] != 3):
        raise DimensionError(f"expected (H, W) or (H, W, 3) image, got shape {img.shape}")
    net_scale = net.deconv.scale if net.deconv is not None else 1
    if net_scale != scale:
        raise ConfigurationError(f"network upscales by {net_scale}, requested scale {scale}")
    if mode not in ("float", "fixed"):
        raise ConfigurationError(f"mode must be 'float' or 'fixed', got {mode!r}")
    if mode == "float" and (q_weights is not None or q_activations is not None):
        raise ConfigurationError("fixed-point formats apply with mode='fixed' only")
    if img.ndim == 2:
        return _luma(net, img.astype(np.float64), mode, q_weights, q_activations,
                     rows).astype(np.uint8)
    y, cb, cr = rgb_to_ycbcr(img)
    y_out = _luma(net, y, mode, q_weights, q_activations, rows)
    return ycbcr_to_rgb(y_out, bicubic_upscale_plane(cb, scale), bicubic_upscale_plane(cr, scale))


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
