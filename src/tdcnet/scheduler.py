"""Load-balanced PE schedules for the transformed filters plus cycle models.

Only nonzero weights are scheduled. Because every transformed filter group of
one deconv map covers the same kernel-window registers, weights may be moved
between phase filters freely; balanced assignment brings the pipeline depth
down to ceil(K^2 / PEs) instead of the densest filter's tap count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ScheduleMismatchError
from .model import ConvLayerSpec, DeconvLayerSpec, Tensor3, tap_map_runs
from .reference import conv_taps
from .tdc import TdcGeometry, derive_geometry, transform_weights


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True, slots=True)
class PEInstruction:
    phase_channel: int          # output index k = S*yo + xo within the group
    input_pos: tuple[int, int]  # (row, col) in the fetched kernel window
    weight: float


@dataclass(frozen=True)
class PESchedule:
    pe_count: int
    streams: tuple[tuple[PEInstruction, ...], ...]
    depth: int


@dataclass(frozen=True)
class TilingParams:
    out_tile: int
    in_tile: int
    kernel_tile: int

    def __post_init__(self):
        if min(self.out_tile, self.in_tile, self.kernel_tile) < 1:
            raise ConfigurationError("tile sizes must be >= 1")


@dataclass(frozen=True)
class LayerSchedule:
    """Per-(output map, input map) group schedules for one transformed layer."""

    geometry: TdcGeometry
    conv: ConvLayerSpec          # the transformed layer the schedule executes
    out_maps: int                # deconv output maps M (conv has S^2 * M)
    in_maps: int
    pe_count: int
    groups: dict[tuple[int, int], PESchedule]

    @property
    def depth(self) -> int:
        return max(g.depth for g in self.groups.values())


def build_schedule(filters: np.ndarray, pe_count: int) -> PESchedule:
    """Distribute the nonzero taps of one group's phase filters over PEs.

    `filters` is (phases, K, K): the phase filters of one (m, n) pair produced
    by the transform. Taps are taken in descending per-filter-density order and
    dealt round robin, each to the least-loaded PE (the first one on a tie), so
    the depth is exactly ceil(total nonzeros / pe_count).
    """
    if pe_count < 1:
        raise ConfigurationError("pe_count must be >= 1")
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim != 3 or filters.shape[1] != filters.shape[2]:
        raise ScheduleMismatchError(f"expected (phases, K, K) filters, got {filters.shape}")
    order = np.argsort(-np.count_nonzero(filters, axis=(1, 2)), kind="stable")
    ordered = filters[order]
    rank, ys, xs = np.nonzero(ordered)
    triples = [
        PEInstruction(p, (y, x), wt)
        for p, y, x, wt in zip(order[rank].tolist(), ys.tolist(), xs.tolist(),
                               ordered[rank, ys, xs].tolist())
    ]
    streams = tuple(tuple(triples[pe::pe_count]) for pe in range(pe_count))
    return PESchedule(pe_count, streams, _ceil_div(len(triples), pe_count))


def schedule_deconv_layer(layer: DeconvLayerSpec, pe_count: int) -> LayerSchedule:
    """Transform the layer and build one balanced schedule per (m, n) group."""
    geom = derive_geometry(layer.kernel, layer.scale)
    conv, _ = transform_weights(layer)
    s2 = layer.scale ** 2
    groups = {}
    for m in range(layer.out_maps):
        for n in range(layer.in_maps):
            filters = conv.weights[m * s2:(m + 1) * s2, n]
            groups[(m, n)] = build_schedule(filters, pe_count)
    return LayerSchedule(geom, conv, layer.out_maps, layer.in_maps, pe_count, groups)


def simulate_dclp(x: Tensor3, schedule: LayerSchedule, geometry: TdcGeometry,
                  in_tile: int) -> tuple[Tensor3, int]:
    """Behavioral run of the scheduled PE array over every sliding window.

    Every PE instruction adds its weight into the phase filter its output index
    names; the filters rebuilt that way then run through the conv executor, so
    a dropped, duplicated or misplaced instruction changes the output, which
    must equal the transformed-layer convolution. Cycles follow the analytic
    model and are data-independent.
    """
    if geometry != schedule.geometry:
        raise ScheduleMismatchError("geometry does not match the schedule's layer")
    conv = schedule.conv
    if x.channels != conv.in_maps:
        raise ScheduleMismatchError(
            f"input channels {x.channels} != schedule in_maps {conv.in_maps}"
        )
    n_in, h, w = x.data.shape
    k, pb = conv.kernel, conv.pad_before
    s2 = geometry.stride ** 2
    padded = np.zeros((n_in, h + k - 1, w + k - 1))
    padded[:, pb:pb + h, pb:pb + w] = x.data
    # flat (phase map, n, y, x) offset of each instruction, streamed into arrays
    # without a Python list per instruction; bincount sums repeats. The lookups
    # reject a phase or window position outside the layer instead of aliasing it.
    kk = k * k
    phase_offset = {p: p * n_in * kk for p in range(s2)}
    tap_offset = {(y, xx): y * k + xx for y in range(k) for xx in range(k)}
    try:
        index = np.fromiter(
            ((m * s2 * n_in + n) * kk + phase_offset[i.phase_channel] + tap_offset[i.input_pos]
             for (m, n), group in schedule.groups.items()
             for stream in group.streams for i in stream), dtype=np.intp)
    except KeyError as e:
        raise ScheduleMismatchError(f"instruction target {e} is outside the layer") from None
    weight = np.fromiter((i.weight for group in schedule.groups.values()
                          for stream in group.streams for i in stream), dtype=np.float64)
    filters = np.bincount(index, weights=weight, minlength=conv.weights.size)
    filters = filters.reshape(conv.weights.shape)
    out = conv_taps(padded, filters, conv.bias, tap_map_runs(filters))
    cycles = _cycles(conv.out_maps, schedule.pe_count, schedule.in_maps, in_tile,
                     h, w, schedule.depth)
    return Tensor3(out), cycles


def _cycles(out_phases: int, out_tile: int, in_maps: int, in_tile: int,
            h: int, w: int, depth: int) -> int:
    """Output-phase tiles x input-map tiles x pixels x pipeline depth."""
    return _ceil_div(out_phases, out_tile) * _ceil_div(in_maps, in_tile) * h * w * depth


def cycles_proposed(out_maps: int, in_maps: int, in_h: int, in_w: int,
                    deconv_kernel: int, stride: int,
                    out_tile: int, in_tile: int) -> int:
    """Analytic execution cycles of the transformed (load-balanced) layer."""
    if min(out_maps, in_maps, in_h, in_w, out_tile, in_tile) < 1:
        raise ConfigurationError("all arguments must be >= 1")
    if deconv_kernel < stride:
        raise ConfigurationError("deconv kernel must be >= stride")
    s2 = stride * stride
    return _cycles(s2 * out_maps, out_tile, in_maps, in_tile, in_h, in_w,
                   _ceil_div(deconv_kernel ** 2, s2))


def cycles_baseline(out_maps: int, in_maps: int, out_h: int, out_w: int,
                    deconv_kernel: int, out_tile: int, in_tile: int) -> int:
    """Conventional reverse-looping accelerator: full kernel per output pixel."""
    if min(out_maps, in_maps, out_h, out_w, out_tile, in_tile) < 1:
        raise ConfigurationError("all arguments must be >= 1")
    return _cycles(out_maps, out_tile, in_maps, in_tile, out_h, out_w, deconv_kernel ** 2)


def classify_case(out_maps: int, out_tile: int, stride: int,
                  deconv_kernel: int) -> tuple[int, float]:
    """Which speedup regime the layer falls into and its predicted speedup."""
    if min(out_maps, out_tile, stride, deconv_kernel) < 1:
        raise ConfigurationError("all arguments must be >= 1")
    s2 = stride * stride
    kd2 = deconv_kernel ** 2
    depth = _ceil_div(kd2, s2)
    if out_maps * s2 <= out_tile:
        return 1, s2 * kd2 / depth
    if out_maps <= out_tile:
        return 2, (s2 / _ceil_div(s2 * out_maps, out_tile)) * (kd2 / depth)
    return 3, (s2 * _ceil_div(out_maps, out_tile)
               / _ceil_div(s2 * out_maps, out_tile)) * (kd2 / depth)
