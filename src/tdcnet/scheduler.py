"""Load-balanced PE schedules for the transformed filters plus cycle models.

Only nonzero weights are scheduled. Because every transformed filter group of
one deconv map covers the same kernel-window registers, weights may be moved
between phase filters freely; balanced assignment brings the pipeline depth
down to ceil(K^2 / PEs) instead of the densest filter's tap count.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ScheduleMismatchError
from .model import ConvLayerSpec, DeconvLayerSpec, Tensor3, conv_operands
from .reference import _padded_block, conv_taps
from .tdc import TdcGeometry, derive_geometry, transform_weights

INSTRUCTION = np.dtype([("m", np.intp), ("n", np.intp), ("pe", np.intp), ("phase", np.intp),
                        ("y", np.intp), ("x", np.intp), ("weight", np.float64)])


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class PESchedule:
    pe_count: int
    streams: tuple[np.ndarray, ...]     # per PE, its INSTRUCTION rows in dispatch order
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
    """One transformed layer's instruction table: an INSTRUCTION row per scheduled
    tap (deconv maps m and n, PE, phase filter S*yo + xo, position y, x in the
    fetched kernel window, weight) in the order the round-robin deal hands them out.
    The simulator reads only the table; `depth` and `groups` derive from it."""

    geometry: TdcGeometry
    conv: ConvLayerSpec          # the transformed layer the schedule executes
    out_maps: int                # deconv output maps M (conv has S^2 * M)
    in_maps: int
    pe_count: int
    table: np.ndarray

    @cached_property
    def depth(self) -> int:
        """Cycles per window: the most instructions one PE of an (m, n) group
        holds, counted from the `pe` column of a table whose columns lie in
        range, as simulate_dclp checks."""
        t = self.table
        lanes = int(t["pe"].max(initial=0)) + 1     # not pe_count: a million PEs stay cheap
        return int(np.bincount((t["m"] * self.in_maps + t["n"]) * lanes + t["pe"]).max(initial=0))

    @cached_property
    def groups(self) -> Mapping[tuple[int, int], PESchedule]:
        """Read-only (m, n) -> PESchedule view of the table, dealt from its `pe`
        column: PE p's stream is the group's rows whose `pe` is p, in table
        order, after one stable sort on (group, pe) and one split. It stays
        only because tdcbench/workloads._instructions reads it, until
        ROADMAP item 1a counts from the table."""
        t, pes, groups = self.table, self.pe_count, self.out_maps * self.in_maps
        lane = (t["m"] * self.in_maps + t["n"]) * pes + t["pe"]    # as depth, columns in range
        order = np.argsort(lane, kind="stable")
        cuts = np.searchsorted(lane[order], np.arange(groups * pes + 1)).tolist()
        rows = t[order]
        streams = [rows[a:b] for a, b in zip(cuts, cuts[1:])]
        dealt = (tuple(streams[a:a + pes]) for a in range(0, groups * pes, pes))
        return MappingProxyType({divmod(g, self.in_maps): PESchedule(pes, st, max(map(len, st)))
                                 for g, st in enumerate(dealt)})


def schedule_deconv_layer(layer: DeconvLayerSpec, pe_count: int) -> LayerSchedule:
    """Transform the layer and deal every (m, n) group's nonzero taps over PEs.

    Within a group the phase filters are taken in descending density order
    (stable on ties) and their taps in (y, x) order; tap j of the group goes
    to PE j % pe_count, so each group's depth is ceil(nonzeros / pe_count).
    The transformed filters are read as (M*S^2*N, K^2) phase rows: one flat
    gather puts them in deal order and one flatnonzero over the ordered rows
    yields every tap in that order.
    """
    if pe_count < 1:
        raise ConfigurationError("pe_count must be >= 1")
    geom = derive_geometry(layer.kernel, layer.scale)
    conv, _ = transform_weights(layer)
    s2, m_maps, n_maps, k = layer.scale ** 2, layer.out_maps, layer.in_maps, conv.kernel
    rows = conv.weights.reshape(-1, k * k)                   # row (m*S^2 + p)*N + n
    density = np.count_nonzero(rows, axis=1)
    phase = np.argsort(-density.reshape(m_maps, s2, n_maps), axis=1, kind="stable")
    m, n, phase = (a.ravel() for a in np.broadcast_arrays(   # per row in (m, n, rank) order
        np.arange(m_maps)[:, None, None], np.arange(n_maps)[:, None], phase.transpose(0, 2, 1)))
    src = (m * s2 + phase) * n_maps + n
    ordered, taps = rows[src], density[src]
    pos = np.flatnonzero(ordered)
    yx = pos - np.repeat(np.arange(0, ordered.size, k * k), taps)    # within its row
    y = yx // k
    totals = taps.reshape(-1, s2).sum(axis=1)                # per (m, n) group
    table = np.empty(len(pos), dtype=INSTRUCTION)
    table["m"], table["n"] = np.repeat(m, taps), np.repeat(n, taps)
    table["pe"] = (np.arange(len(pos)) - np.repeat(np.cumsum(totals) - totals, totals)) % pe_count
    table["phase"] = np.repeat(phase, taps)
    table["y"], table["x"] = y, yx - y * k
    table["weight"] = ordered.ravel()[pos]
    table.flags.writeable = False
    return LayerSchedule(geom, conv, m_maps, n_maps, pe_count, table)


def simulate_dclp(x: Tensor3, schedule: LayerSchedule, geometry: TdcGeometry,
                  in_tile: int) -> tuple[Tensor3, int]:
    """Behavioral run of the scheduled PE array over every sliding window.

    One bincount over the table adds every instruction's weight into the filter
    tap its row names (a map, PE, phase or position outside the layer is
    rejected, not aliased); the rebuilt filters run through the conv executor,
    so a dropped, duplicated or misplaced instruction changes the output, which
    must equal the transformed-layer convolution. Cycles follow the analytic
    model at the table's depth.
    """
    if in_tile < 1:
        raise ConfigurationError(f"in_tile must be >= 1, got {in_tile}")
    if geometry != schedule.geometry:
        raise ScheduleMismatchError("geometry does not match the schedule's layer")
    conv = schedule.conv
    if x.channels != conv.in_maps:
        raise ScheduleMismatchError(
            f"input channels {x.channels} != schedule in_maps {conv.in_maps}"
        )
    n_in, h, w = x.data.shape
    k = conv.kernel
    s2 = geometry.stride ** 2
    t = schedule.table
    for col, hi in (("m", schedule.out_maps), ("n", n_in), ("pe", schedule.pe_count),
                    ("phase", s2), ("y", k), ("x", k)):
        if t.size and (t[col].min() < 0 or t[col].max() >= hi):
            raise ScheduleMismatchError(f"an instruction's {col} is outside [0, {hi})")
    index = (((t["m"] * s2 + t["phase"]) * n_in + t["n"]) * k + t["y"]) * k + t["x"]
    filters = np.bincount(index, t["weight"], conv.weights.size).reshape(conv.weights.shape)
    block, _ = _padded_block(x.data, k, conv.pad_before, conv.pad_after)
    out = conv_taps(block, conv_operands(filters, conv.bias))
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
    if min(out_maps, in_maps, in_h, in_w, stride, out_tile, in_tile) < 1:
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
    """Which speedup regime the layer falls into (1: all S^2 * M phases fit one
    output tile, 2: the M maps do, 3: neither) and its predicted speedup, the
    baseline over the proposed cycles per input pixel."""
    speedup = (cycles_baseline(out_maps, 1, stride, stride, deconv_kernel, out_tile, 1)
               / cycles_proposed(out_maps, 1, 1, 1, deconv_kernel, stride, out_tile, 1))
    regime = 1 if stride * stride * out_maps <= out_tile else 2 if out_maps <= out_tile else 3
    return regime, speedup
