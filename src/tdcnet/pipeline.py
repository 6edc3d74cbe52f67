"""End-to-end super-resolution inference: batch mode and a streaming mode that
emulates the on-chip row-by-row dataflow.

The luma channel runs through the network (deconv executed as its transformed
convolution followed by depth-to-space); chroma is bicubic-upscaled. 8-bit
samples are normalized to [0, 1] in front of the network and denormalized with
round-half-to-even afterwards. Streaming keeps only the most recent `kernel`
input rows per buffered layer and produces bitwise-identical results to batch
mode (exactly in float, bitwise in fixed).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DimensionError
from .model import ConvLayerSpec, DeconvLayerSpec, NetworkSpec, Tensor3
from .quant import (QFormat, QuantizedLayer, QuantizedNetwork, _inference_convs,
                    float_forward, quantize_array, quantize_network,
                    quantized_conv_rows, quantized_forward)
from .reference import (bicubic_upscale_plane, conv_rows, depth_to_space_array,
                        rgb_to_ycbcr, ycbcr_to_rgb)


@dataclass
class StreamStats:
    """Peak retained samples per layer index, gathered during streaming runs."""

    peak_samples: dict[int, int] = field(default_factory=dict)


def _network_scale(net: NetworkSpec) -> int:
    dec = net.deconv
    return dec.scale if dec is not None else 1


def _check_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ConfigurationError(f"expected an 8-bit image, got dtype {img.dtype}")
    if img.ndim not in (2, 3) or (img.ndim == 3 and img.shape[2] != 3):
        raise DimensionError(f"expected (H, W) or (H, W, 3) image, got shape {img.shape}")
    return img


def _denormalize(y: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(y * 255.0), 0.0, 255.0)


def _luma_float(net: NetworkSpec, y_plane: np.ndarray) -> np.ndarray:
    out = float_forward(net, Tensor3((y_plane / 255.0)[None]))
    return _denormalize(out.data[0])


def _luma_fixed(net: NetworkSpec, y_plane: np.ndarray, qw: QFormat,
                qa: QFormat) -> np.ndarray:
    qnet = quantize_network(net, qw, qa)
    x_raw = quantize_array(y_plane / 255.0, qa)[None]
    out_raw = quantized_forward(qnet, x_raw)
    return _denormalize(out_raw[0].astype(np.float64) * qa.step)


def _default_formats(q_weights, q_activations):
    qw = q_weights if q_weights is not None else QFormat(13, 9)
    qa = q_activations if q_activations is not None else QFormat(13, 9)
    return qw, qa


def _finish(image: np.ndarray, y_out: np.ndarray, scale: int) -> np.ndarray:
    if image.ndim == 2:
        return y_out.astype(np.uint8)
    _, cb, cr = rgb_to_ycbcr(image)
    cb_up = bicubic_upscale_plane(cb, scale)
    cr_up = bicubic_upscale_plane(cr, scale)
    return ycbcr_to_rgb(y_out, cb_up, cr_up)


def infer(image, net: NetworkSpec, scale: int, mode: str = "float",
          q_weights: Optional[QFormat] = None,
          q_activations: Optional[QFormat] = None) -> np.ndarray:
    """High-resolution image from an 8-bit RGB or single-channel input."""
    img = _check_image(image)
    if _network_scale(net) != scale:
        raise ConfigurationError(
            f"network upscales by {_network_scale(net)}, requested scale {scale}"
        )
    if mode not in ("float", "fixed"):
        raise ConfigurationError(f"mode must be 'float' or 'fixed', got {mode!r}")
    y_plane = img.astype(np.float64) if img.ndim == 2 else rgb_to_ycbcr(img)[0]
    if mode == "float":
        y_out = _luma_float(net, y_plane)
    else:
        qw, qa = _default_formats(q_weights, q_activations)
        y_out = _luma_fixed(net, y_plane, qw, qa)
    return _finish(img, y_out, scale)


# --------------------------------------------------------------------------
# Streaming mode
# --------------------------------------------------------------------------

class _ConvStage:
    """One layer processor consuming input rows and emitting output rows.

    Keeps a ring of the most recent `kernel` rows. A 1x1 layer fused with its
    upstream processor passes rows straight through (no line buffer).
    """

    def __init__(self, conv: ConvLayerSpec, width: int, mode: str,
                 qlayer: Optional[QuantizedLayer] = None,
                 qnet: Optional[QuantizedNetwork] = None,
                 fused_into_prev: bool = False):
        self.conv = conv
        self.width = width
        self.mode = mode
        self.qlayer = qlayer
        self.qnet = qnet
        self.fused = fused_into_prev and conv.kernel == 1
        k = conv.kernel
        dtype = np.int64 if mode == "fixed" else np.float64
        self.ring = None if self.fused else np.zeros((conv.in_maps, k, width), dtype=dtype)
        self.rows_in = 0
        self._next_out = 0
        self.height: Optional[int] = None     # set by the driver before feeding

    @property
    def buffered_samples(self) -> int:
        return 0 if self.fused else self.conv.kernel * self.width * self.conv.in_maps

    def _window(self, out_row: int) -> np.ndarray:
        """Rows out_row-pad_before .. out_row+pad_after, zero-padded on all sides."""
        k, pb = self.conv.kernel, self.conv.pad_before
        win = np.zeros((self.conv.in_maps, k, self.width + k - 1), dtype=self.ring.dtype)
        for t in range(k):
            r = out_row - pb + t
            if 0 <= r < self.height:
                win[:, t, pb:pb + self.width] = self.ring[:, r % k, :]
        return win

    def _emit(self, padded: np.ndarray) -> np.ndarray:
        """(M, width) output row from an (N, K, width + K - 1) padded window."""
        if self.mode == "fixed":
            return quantized_conv_rows(self.qlayer, padded, self.qnet)[:, 0, :]
        return conv_rows(padded, self.conv)[:, 0, :]

    def push(self, row: Optional[np.ndarray]) -> list[np.ndarray]:
        """Feed one input row (None = end-of-image flush step); collect ready rows."""
        conv = self.conv
        if self.fused:
            if row is None:
                return []
            return [self._emit(row[:, None, :])]
        if row is not None:
            self.ring[:, self.rows_in % conv.kernel, :] = row
            self.rows_in += 1
            # after input row r arrives, output row r - pad_after is complete
            ready_until = self.rows_in - 1 - conv.pad_after
        else:
            ready_until = self.height - 1    # flush: remaining rows pad with zeros
        ready_until = min(ready_until, self.height - 1)
        produced = []
        for out_row in range(self._next_out, ready_until + 1):
            produced.append(self._emit(self._window(out_row)))
        self._next_out = max(self._next_out, ready_until + 1)
        return produced


class _DepthToSpaceStage:
    """Expand one row of S^2*M phase channels into S rows of M channels."""

    def __init__(self, scale: int):
        self.scale = scale

    def push(self, row: Optional[np.ndarray]) -> list[np.ndarray]:
        if row is None:
            return []
        return list(depth_to_space_array(row[:, None, :], self.scale).swapaxes(0, 1))


def infer_streaming(image, net: NetworkSpec, scale: int, mode: str = "float",
                    q_weights: Optional[QFormat] = None,
                    q_activations: Optional[QFormat] = None,
                    stats: Optional[StreamStats] = None) -> np.ndarray:
    """Row-at-a-time inference; identical output to infer()."""
    img = _check_image(image)
    if _network_scale(net) != scale:
        raise ConfigurationError(
            f"network upscales by {_network_scale(net)}, requested scale {scale}"
        )
    if mode not in ("float", "fixed"):
        raise ConfigurationError(f"mode must be 'float' or 'fixed', got {mode!r}")
    y_plane = img.astype(np.float64) if img.ndim == 2 else rgb_to_ycbcr(img)[0]
    h, w = y_plane.shape

    qnet = None
    if mode == "fixed":
        qw, qa = _default_formats(q_weights, q_activations)
        qnet = quantize_network(net, qw, qa)

    # every conv layer preserves spatial size, so all stages see height h
    stages: list = []
    for i, (conv, dts) in enumerate(_inference_convs(net)):
        stage = _ConvStage(conv, w, mode, qnet.layers[i] if qnet else None,
                           qnet, fused_into_prev=(i > 0))
        stage.height = h
        stages.append(stage)
        if dts:
            stages.append(_DepthToSpaceStage(dts))

    if mode == "fixed":
        first = quantize_array(y_plane / 255.0, qa)[None]
    else:
        first = (y_plane / 255.0)[None]

    out_rows: list[np.ndarray] = []

    def feed(stage_idx: int, row: Optional[np.ndarray]):
        if stage_idx == len(stages):
            if row is not None:
                out_rows.append(row)
            return
        for produced in stages[stage_idx].push(row):
            feed(stage_idx + 1, produced)
        if row is None:
            feed(stage_idx + 1, None)

    for r in range(h):
        feed(0, first[:, r, :])
    feed(0, None)

    if stats is not None:
        for i, st in enumerate(stages):
            if isinstance(st, _ConvStage):
                stats.peak_samples[i] = st.buffered_samples

    raw = np.stack(out_rows, axis=1)     # (M, S*H, S*W)
    if mode == "fixed":
        y_out = _denormalize(raw[0].astype(np.float64) * qa.step)
    else:
        y_out = _denormalize(raw[0])
    return _finish(img, y_out, scale)
