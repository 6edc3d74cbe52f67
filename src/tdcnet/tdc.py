"""Rewriting a transposed convolution as S^2 sparse stride-1 convolutions.

A K x K stride-S deconv layer becomes a single conv layer with S^2 times the
output maps and a smaller kernel; interleaving the phase channels back into
S x S blocks (depth_to_space) reproduces the deconvolution output exactly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, InternalConsistencyError, TdcnetError
from .model import ConvLayerSpec, DeconvLayerSpec, Tensor3, conv_layer
from .reference import canvas_window, conv2d, deconv2d_canvas, depth_to_space


@dataclass(frozen=True)
class TdcGeometry:
    """Derived transform quantities for one (deconv kernel, stride) pair."""

    deconv_kernel: int
    stride: int
    overlap: Fraction            # neighboring blocks overlapping per axis, exact
    conv_kernel: int
    overlap_frac_ge_half: bool
    crop_offset: int             # canvas row/col where the interleaved output starts


@dataclass(frozen=True)
class ZeroAnalysis:
    """Zero-weight accounting for a transformed layer."""

    num_zero: int
    zero_ratio: float
    per_filter_nonzero: tuple[int, ...]   # length S^2, ordered by phase S*yo+xo


@dataclass(frozen=True)
class TransformPlan:
    """The index work of one (K_D, S) transform, done once (transform_plan), read-only."""

    geometry: TdcGeometry
    axis: np.ndarray                      # (S, K_C) _axis_map
    gather: np.ndarray                    # (S^2, K_C, K_C) taps' flat kernel index, K_D^2: zero
    per_filter_nonzero: tuple[int, ...]   # ZeroAnalysis's, for every M and N


def derive_geometry(deconv_kernel: int, stride: int) -> TdcGeometry:
    """Conv kernel size and canvas alignment for the transform, as its
    transform_plan holds them."""
    return transform_plan(deconv_kernel, stride).geometry


# typed: a numpy-integer call must not leave its types in a later int call's geometry
@functools.lru_cache(maxsize=64, typed=True)
def transform_plan(deconv_kernel: int, stride: int) -> TransformPlan:
    """The TransformPlan of one (K_D, S) pair, built on first use and kept in a
    bounded cache keyed by the two integers.

    Neighboring blocks overlap by (K_D // 2) / S = q + r/S per axis. The
    half-overlap branch (r/S >= 1/2, e.g. kernel 7 stride 2 lies exactly on it)
    is decided in integers, never by floating-point comparison.
    """
    kd, s = deconv_kernel, stride
    if s < 2:
        raise ConfigurationError(f"stride must be >= 2, got {s}")
    if kd < s:
        raise ConfigurationError(f"deconv kernel {kd} must be >= stride {s}")
    q, r = divmod(kd // 2, s)
    ge_half = 2 * r >= s
    kc = 2 * q + 1 + ge_half
    crop = kd - s * (kc // 2 + 1) + ge_half
    geom = TdcGeometry(kd, s, Fraction(kd // 2, s), kc, ge_half, crop)
    axis = _axis_map(geom)
    live = axis >= 0
    # tap (yo, xo, yi, xi) reads kernel row axis[yo, yi], column axis[xo, xi];
    # a zero tap reads the zero transform_weights appends to the flat kernel
    gather = np.where(live[:, None, :, None] & live[None, :, None, :],
                      axis[:, None, :, None] * kd + axis[None, :, None, :],
                      kd * kd).reshape(s * s, kc, kc)
    per_filter = tuple((gather < kd * kd).sum(axis=(1, 2)).tolist())
    if sum(per_filter) != kd * kd:
        raise InternalConsistencyError(
            f"per-filter nonzero counts {per_filter} do not sum to {kd * kd}"
        )
    axis.flags.writeable = gather.flags.writeable = False
    return TransformPlan(geom, axis, gather, per_filter)


def map_coefficient(geom: TdcGeometry, x_in: int, y_in: int,
                    x_out: int, y_out: int):
    """Deconv weight index feeding input tap (x_in, y_in) for phase (x_out, y_out).

    Returns (x_d, y_d) or None when the tap is a structural zero.
    """
    s, kc = geom.stride, geom.conv_kernel
    if not (0 <= x_in < kc and 0 <= y_in < kc and 0 <= x_out < s and 0 <= y_out < s):
        raise ConfigurationError(
            f"indices out of range: in=({x_in},{y_in}) out=({x_out},{y_out}) "
            f"for conv_kernel {kc}, stride {s}"
        )
    axis = transform_plan(geom.deconv_kernel, s).axis
    x_d, y_d = int(axis[x_out, x_in]), int(axis[y_out, y_in])
    return (x_d, y_d) if x_d >= 0 and y_d >= 0 else None


def _axis_map(geom: TdcGeometry) -> np.ndarray:
    """Per-axis map[out_phase][in_tap] -> deconv index, or -1 for a zero tap."""
    kd, s, kc = geom.deconv_kernel, geom.stride, geom.conv_kernel
    o, i = np.ogrid[:s, :kc]
    d = kd + geom.overlap_frac_ge_half - s * i - (s - o)
    return np.where((0 <= d) & (d < kd), d, -1)


def zero_analysis(geom: TdcGeometry, out_maps: int, in_maps: int) -> ZeroAnalysis:
    """Structural zero count of the transformed filters."""
    kd, s, kc = geom.deconv_kernel, geom.stride, geom.conv_kernel
    num_zero = (kc * kc * s * s - kd * kd) * out_maps * in_maps
    ratio = num_zero / (kc * kc * s * s * out_maps * in_maps)
    return ZeroAnalysis(num_zero, ratio, transform_plan(kd, s).per_filter_nonzero)


def transform_weights(layer: DeconvLayerSpec) -> tuple[ConvLayerSpec, ZeroAnalysis]:
    """Transformed conv layer with S^2 * M output maps plus its zero analysis.

    Output map S^2*m + S*yo + xo holds the phase-(yo, xo) filter of deconv map
    m; every phase map carries bias[m], so the bias lands once per output pixel.
    """
    plan = transform_plan(layer.kernel, layer.scale)
    s2, kc = layer.scale ** 2, plan.geometry.conv_kernel
    m, n = layer.out_maps, layer.in_maps
    flat = np.zeros((m, n, layer.kernel ** 2 + 1))     # the zero every zero tap reads
    flat[:, :, :-1] = layer.weights.reshape(m, n, -1)
    wc = flat[:, :, plan.gather].transpose(0, 2, 1, 3, 4).reshape(s2 * m, n, kc, kc)
    # channel order is S^2*m + phase: all S^2 phase maps of m carry bias[m]
    bias = np.repeat(layer.bias, s2)
    conv = conv_layer(kc, s2 * m, n, wc, bias=bias)
    return conv, zero_analysis(plan.geometry, m, n)


def find_crop_offset(layer: DeconvLayerSpec) -> int:
    """Exhaustively locate the canvas window the transformed output corresponds to.

    Runs a seeded random-integer 4 x 4 single-map probe of the same (kernel,
    stride), searches offsets in [-K, K] for the unique window matching
    transformed-conv + depth_to_space, and cross-checks the closed-form
    prediction in the geometry.
    """
    geom = derive_geometry(layer.kernel, layer.scale)
    kd, s = layer.kernel, layer.scale
    rng = np.random.default_rng(0)
    probe = DeconvLayerSpec(
        kd, s, 1, 1,
        rng.integers(-16, 17, size=(1, 1, kd, kd)).astype(float),
        np.zeros(1),
    )
    x = Tensor3(rng.integers(-16, 17, size=(1, 4, 4)).astype(float))
    produced = deconv_via_transform(x, probe)
    canvas = deconv2d_canvas(x, probe)
    h, w = produced.height, produced.width
    # offset c's zero-extended window starts at row and column c + kd here
    padded = np.zeros((1, 2 * kd + h, 2 * kd + w))
    padded[:, kd:kd + canvas.height, kd:kd + canvas.width] = canvas.data
    matches = [c for c in range(-kd, kd + 1) if np.array_equal(
        padded[:, c + kd:c + kd + h, c + kd:c + kd + w], produced.data)]
    if len(matches) != 1:
        raise InternalConsistencyError(
            f"crop offset search found {len(matches)} matches for "
            f"(kernel={kd}, stride={s}): {matches}"
        )
    if matches[0] != geom.crop_offset:
        raise InternalConsistencyError(
            f"searched crop offset {matches[0]} != closed form {geom.crop_offset} "
            f"for (kernel={kd}, stride={s})"
        )
    return matches[0]


def deconv_via_transform(x: Tensor3, layer: DeconvLayerSpec) -> Tensor3:
    """S*H x S*W deconvolution output via the transform (bias included)."""
    conv, _ = transform_weights(layer)
    return depth_to_space(conv2d(x, conv), layer.scale)


def deconv_oracle(x: Tensor3, layer: DeconvLayerSpec) -> Tensor3:
    """S*H x S*W deconvolution output via the brute-force canvas (bias included)."""
    geom = derive_geometry(layer.kernel, layer.scale)
    canvas = deconv2d_canvas(x, layer)
    win = canvas_window(canvas, geom.crop_offset, layer.scale * x.height,
                        layer.scale * x.width)
    return Tensor3(win.data + layer.bias[:, None, None])
