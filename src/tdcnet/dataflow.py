"""On-chip dataflow planning (line buffers, combined processors) and resource models.

The planner pins every layer at computation-to-transmission ratio 1 (full
unrolling: out tile = maps, kernel tile = kernel), so no frame buffer is ever
needed; rows stream through per-layer line buffers instead. Layer processors
feeding a 1x1 layer are fused with it, removing that layer's line buffer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigurationError
from .model import (ConvLayerSpec, DeconvLayerSpec, FsrcnnConfig, NetworkSpec,
                    build_fsrcnn)
from .scheduler import TilingParams, _ceil_div
from .tdc import derive_geometry

# one BRAM-18kb holds 512 32-bit words; modeled as 16,384 usable bits
# regardless of the stored word width
BRAM_BITS = 512 * 32


@dataclass(frozen=True)
class ClpLayerPlan:
    name: str
    kernel: int                 # conv kernel (transformed kernel for the deconv)
    in_maps: int
    out_maps: int               # post-transform for the deconv (S^2 * M)
    tiling: TilingParams
    combined_with_next: bool
    buffered: bool
    line_buffer_bits: int


@dataclass(frozen=True)
class ClpPlan:
    layers: tuple[ClpLayerPlan, ...]
    input_width: int
    bit_width: int

    @property
    def total_line_buffer_bits(self) -> int:
        return sum(l.line_buffer_bits for l in self.layers)


@dataclass(frozen=True)
class ResourceReport:
    multiply_count: int
    dsp_count: int
    alpha: float
    bram_count: int
    total_line_buffer_bits: int


def ctt_ratio(out_maps: int, out_tile: int, kernel: int, kernel_tile: int) -> int:
    """Computation cycles per transmitted-pixel cycle for one layer processor."""
    if min(out_maps, out_tile, kernel, kernel_tile) < 1:
        raise ConfigurationError("all arguments must be >= 1")
    return _ceil_div(out_maps, out_tile) * _ceil_div(kernel, kernel_tile) ** 2


def _planned_layers(net: NetworkSpec) -> list[tuple[str, int, int, int]]:
    """(name, kernel, in_maps, out_maps) per layer, deconv viewed post-transform."""
    rows = []
    for i, layer in enumerate(net.layers):
        if isinstance(layer, DeconvLayerSpec):
            geom = derive_geometry(layer.kernel, layer.scale)
            rows.append((f"deconv{i + 1}", geom.conv_kernel, layer.in_maps,
                         layer.scale ** 2 * layer.out_maps))
        else:
            rows.append((f"conv{i + 1}", layer.kernel, layer.in_maps, layer.out_maps))
    return rows


def plan_dataflow(net: NetworkSpec, input_width: int, bit_width: int) -> ClpPlan:
    """Ratio-1 tilings, combined-processor fusion, and per-layer line buffers.

    A buffered layer keeps its most recent `kernel` input rows:
    kernel * input_width * in_maps words. The 1x1 member of a combined pair
    consumes upstream outputs directly and holds no line buffer.
    """
    if input_width < 1 or bit_width < 1:
        raise ConfigurationError("input_width and bit_width must be >= 1")
    rows = _planned_layers(net)
    plans = []
    for i, (name, kernel, in_maps, out_maps) in enumerate(rows):
        combined = i + 1 < len(rows) and rows[i + 1][1] == 1
        member_of_pair = kernel == 1 and i > 0
        buffered = not member_of_pair
        bits = kernel * input_width * in_maps * bit_width if buffered else 0
        plans.append(ClpLayerPlan(
            name, kernel, in_maps, out_maps,
            TilingParams(out_maps, in_maps, kernel),
            combined, buffered, bits,
        ))
    return ClpPlan(tuple(plans), input_width, bit_width)


def bram_count(plan: ClpPlan) -> int:
    """BRAM-18kb units for the aggregate line-buffer capacity (ceiling once)."""
    return _ceil_div(plan.total_line_buffer_bits, BRAM_BITS)


def multiply_count(net: NetworkSpec) -> int:
    """Distinct multiplier operands across all layers, the deconv counted
    post-transform with its structural zeros removed. The transform puts each
    of a deconv's K_D^2 taps per map pair in exactly one phase filter, so
    every layer keeps out_maps * in_maps * kernel^2 operands."""
    return sum(l.out_maps * l.in_maps * l.kernel ** 2 for l in net.layers)


def dsp_count(multiplies: int, alpha: float) -> int:
    """DSP blocks with a fraction alpha of multipliers packed two per DSP."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    return math.ceil(alpha * multiplies / 2 + (1 - alpha) * multiplies)


def resource_report(net: NetworkSpec, alpha: float, bit_width: int,
                    input_width: int) -> ResourceReport:
    plan = plan_dataflow(net, input_width, bit_width)
    mult = multiply_count(net)
    return ResourceReport(
        multiply_count=mult,
        dsp_count=dsp_count(mult, alpha),
        alpha=alpha,
        bram_count=bram_count(plan),
        total_line_buffer_bits=plan.total_line_buffer_bits,
    )


def search_models(x_range, y_range, z_range, deconv_kernel: int, scale: int,
                  alpha: float, dsp_budget: Optional[int] = None,
                  bram_budget: Optional[int] = None,
                  input_width: int = 1440,
                  bit_width: int = 13) -> list[tuple[FsrcnnConfig, ResourceReport]]:
    """Enumerate model candidates within the resource budgets.

    Deterministic ordering: ascending dsp_count, then x.
    """
    x_range, y_range, z_range = list(x_range), list(y_range), list(z_range)
    if not (x_range and y_range and z_range):
        raise ConfigurationError("ranges must be non-empty")
    results = []
    for z in z_range:
        for y in y_range:
            for x in x_range:
                cfg = FsrcnnConfig(x, y, z, deconv_kernel, frozenset({scale}))
                net = build_fsrcnn(cfg, scale)
                report = resource_report(net, alpha, bit_width, input_width)
                if dsp_budget is not None and report.dsp_count > dsp_budget:
                    continue
                if bram_budget is not None and report.bram_count > bram_budget:
                    continue
                results.append((cfg, report))
    results.sort(key=lambda cr: (cr[1].dsp_count, cr[0].x))
    return results
