"""tdcnet: deconvolution-to-convolution transform, PE scheduling, cycle and
FPGA resource models, and fixed-point super-resolution inference."""

from .dataflow import (ClpLayerPlan, ClpPlan, ResourceReport, bram_count,
                       ctt_ratio, dsp_count, multiply_count, plan_dataflow,
                       resource_report, search_models)
from .errors import (ConfigurationError, DimensionError,
                     InternalConsistencyError, ScheduleMismatchError,
                     TdcnetError, WeightFormatError)
from .model import (ConvLayerSpec, DeconvLayerSpec, FsrcnnConfig, NetworkSpec,
                    Tensor3, WeightSet, build_fsrcnn, conv_layer, load_weights,
                    parse_weights, same_padding, save_weights)
from .pipeline import StreamStats, infer, infer_streaming
from .quant import (QFormat, QuantizedLayer, QuantizedNetwork,
                    double_mac_product, fixed_point_error_bound,
                    quantize_array, quantize_network, quantize_value,
                    quantized_forward, round_half_even_rshift, sweep_bitwidth)
from .scheduler import (LayerSchedule, PESchedule, TilingParams,
                        classify_case, cycles_baseline, cycles_proposed,
                        schedule_deconv_layer, simulate_dclp)
from .tdc import (TdcGeometry, ZeroAnalysis, deconv_oracle,
                  deconv_via_transform, derive_geometry, find_crop_offset,
                  map_coefficient, transform_weights, zero_analysis)

__version__ = "0.1.0"

__all__ = [
    "ClpLayerPlan", "ClpPlan", "ConfigurationError", "ConvLayerSpec",
    "DeconvLayerSpec", "DimensionError", "FsrcnnConfig",
    "InternalConsistencyError", "LayerSchedule", "NetworkSpec", "PESchedule",
    "QFormat", "QuantizedLayer", "QuantizedNetwork", "ResourceReport",
    "ScheduleMismatchError", "StreamStats", "TdcGeometry", "TdcnetError",
    "Tensor3", "TilingParams", "WeightFormatError", "WeightSet", "bram_count",
    "build_fsrcnn", "classify_case", "conv_layer", "ctt_ratio",
    "cycles_baseline", "cycles_proposed", "deconv_oracle",
    "deconv_via_transform", "derive_geometry", "double_mac_product",
    "dsp_count", "find_crop_offset", "fixed_point_error_bound", "infer",
    "infer_streaming", "load_weights", "map_coefficient", "multiply_count",
    "parse_weights", "plan_dataflow", "quantize_array", "quantize_network",
    "quantize_value", "quantized_forward", "resource_report",
    "round_half_even_rshift", "same_padding", "save_weights",
    "schedule_deconv_layer", "search_models", "simulate_dclp",
    "sweep_bitwidth", "transform_weights", "zero_analysis",
]
