"""Tensors, layer/network descriptors, the FSRCNN topology builder, and the weight file.

All descriptor types are immutable after construction (frozen dataclasses over
read-only numpy arrays), so they can be shared freely across threads.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import ConfigurationError, DimensionError, WeightFormatError

WEIGHT_FORMAT = "tdcnet-weights-v1"


def _frozen(a, shape=None, dtype=np.float64) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Tensor3:
    """A channels x height x width feature map, channel-major then row-major."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise DimensionError(f"Tensor3 expects 3-D data, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise DimensionError(f"Tensor3 dimensions must be >= 1, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


class ConvOperands(NamedTuple):
    """A layer's weights and bias in the layout `reference.conv_taps` reads,
    in one dtype: `weights` the (M, K*N) matrix of each kernel column, with
    [kx, m, ky*N + n] = w[m, n, ky, kx], stacked (M, K*K*N) where K = 1 or
    N*K*K <= M, else (K, 1, M, K*N); `bias` as an (M, 1) column; `runs` None
    for stacked or dense weights, else each gemm of the column matrices in
    (kx, ky) order: (kx, j0, j1, maps) contracts rows j0..j1 - 1 of column kx
    (whole kernel rows) into output maps `maps`."""

    kernel: int
    weights: np.ndarray
    bias: np.ndarray
    runs: Optional[tuple[tuple[int, int, int, slice], ...]]


def conv_operands(weights, bias, dtype=None) -> ConvOperands:
    """(M, N, K, K) weights and (M,) bias as read-only ConvOperands in `dtype`
    (the weights' when None), the weights C-contiguous, as the gemms read
    their matrices fastest. In the column layout, each run of consecutive
    kernel rows in a column whose taps share one slice of live maps (maps
    whose weights there are not all zero) becomes one gemm over those maps,
    and dead taps none. Build them once per layer: every conv_taps call reads
    them as they are."""
    weights = np.asarray(weights)
    m, n, k, _ = weights.shape
    dtype = weights.dtype if dtype is None else dtype
    runs = None
    w = np.ascontiguousarray(weights.transpose(3, 0, 2, 1), dtype)      # (kx, m, ky, n)
    if k == 1 or n * k * k <= m:
        w = np.ascontiguousarray(w.transpose(1, 0, 2, 3)).reshape(m, -1)
    else:
        w = w.reshape(k, 1, m, k * n)
        live = np.any(weights, axis=1)
        runs = _column_runs(live.shape, live.tobytes(), n)
    b = np.asarray(bias, w.dtype).reshape(m, 1)
    w.flags.writeable = b.flags.writeable = False
    return ConvOperands(k, w, b, runs)


@lru_cache(maxsize=256)
def _column_runs(shape: tuple[int, ...], mask: bytes, n: int):
    """ConvOperands.runs of one (M, K, K) live mask, given as its shape and
    bytes, for N input maps: None where every map is live at every tap. A
    tap's maps are a slice of its live maps where they form a strided run
    short of all maps, as each tap's phases do in a transformed single-map
    deconv, and all maps otherwise, which is never wrong, only slower."""
    live = np.frombuffer(mask, dtype=bool).reshape(shape)
    if live.all():
        return None
    m, k, _ = shape
    runs = []
    for kx in range(k):
        taps = []
        for col in live[:, :, kx].T.tolist():                # ky order
            idx = [i for i, v in enumerate(col) if v]
            step = idx[1] - idx[0] if len(idx) > 1 else 1
            strided = 0 < len(idx) < m and idx == list(range(idx[0], idx[-1] + 1, step))
            taps.append(slice(idx[0], idx[-1] + 1, step) if strided
                        else slice(None) if idx else None)
        j = 0
        for maps, group in groupby(taps):
            span = n * len(list(group))
            if maps is not None:
                runs.append((kx, j, j + span, maps))
            j += span
    return tuple(runs)


def steep_maps(slopes) -> Optional[np.ndarray]:
    """Mask of the maps whose PReLU slope is above 1, or None where none is."""
    if slopes is None:
        return None
    steep = np.asarray(slopes) > 1
    return steep if steep.any() else None


def same_padding(kernel: int) -> tuple[int, int]:
    """(pad_before, pad_after) preserving spatial size for stride-1 convolution."""
    if kernel % 2 == 1:
        return kernel // 2, kernel // 2
    return kernel // 2, kernel // 2 - 1


@dataclass(frozen=True)
class ConvLayerSpec:
    """Stride-1 convolution layer; weights indexed [out][in][row][col]."""

    kernel: int
    out_maps: int
    in_maps: int
    pad_before: int
    pad_after: int
    weights: np.ndarray
    bias: np.ndarray
    prelu_slope: Optional[np.ndarray] = None

    def __post_init__(self):
        k, m, n = self.kernel, self.out_maps, self.in_maps
        if k < 1 or m < 1 or n < 1:
            raise ConfigurationError("kernel/out_maps/in_maps must be >= 1")
        if self.pad_before + self.pad_after != k - 1:
            raise ConfigurationError(
                f"pad_before + pad_after must equal kernel-1 "
                f"({self.pad_before}+{self.pad_after} != {k - 1})"
            )
        w = np.asarray(self.weights, dtype=np.float64)
        if w.size != m * n * k * k:
            raise DimensionError(
                f"conv weights length {w.size} != {m}x{n}x{k}x{k}"
            )
        object.__setattr__(self, "weights", _frozen(w, (m, n, k, k)))
        b = np.asarray(self.bias, dtype=np.float64)
        if b.size != m:
            raise DimensionError(f"bias length {b.size} != out_maps {m}")
        object.__setattr__(self, "bias", _frozen(b, (m,)))
        if self.prelu_slope is not None:
            s = np.asarray(self.prelu_slope, dtype=np.float64)
            if s.size != m:
                raise DimensionError(f"prelu length {s.size} != out_maps {m}")
            object.__setattr__(self, "prelu_slope", _frozen(s, (m,)))

    @cached_property
    def operands(self) -> ConvOperands:
        """conv_operands of the weights and bias, built once per layer."""
        return conv_operands(self.weights, self.bias)

    @cached_property
    def steep(self) -> Optional[np.ndarray]:
        """steep_maps of the PReLU slopes, built once per layer."""
        return steep_maps(self.prelu_slope)


def conv_layer(kernel, out_maps, in_maps, weights, bias=None, prelu_slope=None) -> ConvLayerSpec:
    """ConvLayerSpec with default same-padding and zero bias."""
    pb, pa = same_padding(kernel)
    if bias is None:
        bias = np.zeros(out_maps)
    return ConvLayerSpec(kernel, out_maps, in_maps, pb, pa, weights, bias, prelu_slope)


@dataclass(frozen=True)
class DeconvLayerSpec:
    """Transposed-convolution layer with integer up-scale factor (its stride)."""

    kernel: int
    scale: int
    out_maps: int
    in_maps: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        k, s, m, n = self.kernel, self.scale, self.out_maps, self.in_maps
        if s < 2:
            raise ConfigurationError(f"deconv scale must be >= 2, got {s}")
        if k < s:
            raise ConfigurationError(f"deconv kernel {k} must be >= scale {s}")
        if m < 1 or n < 1:
            raise ConfigurationError("out_maps/in_maps must be >= 1")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.size != m * n * k * k:
            raise DimensionError(f"deconv weights length {w.size} != {m}x{n}x{k}x{k}")
        object.__setattr__(self, "weights", _frozen(w, (m, n, k, k)))
        b = np.asarray(self.bias, dtype=np.float64)
        if b.size != m:
            raise DimensionError(f"bias length {b.size} != out_maps {m}")
        object.__setattr__(self, "bias", _frozen(b, (m,)))


Layer = Union[ConvLayerSpec, DeconvLayerSpec]


@dataclass(frozen=True)
class NetworkSpec:
    """A linear chain of layers; at most one deconv layer, which must be last."""

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        for i, (a, b) in enumerate(zip(layers, layers[1:])):
            if a.out_maps != b.in_maps:
                raise DimensionError(
                    f"layer {i} out_maps {a.out_maps} != layer {i + 1} in_maps {b.in_maps}"
                )
        for i, layer in enumerate(layers):
            if isinstance(layer, DeconvLayerSpec) and i != len(layers) - 1:
                raise ConfigurationError("deconv layer must be the last layer")

    @cached_property
    def _chains(self) -> dict:
        """The executor's constants, compiled from this network on first use
        (`quant._inference_convs`, `quant._quantized`): one float chain and at
        most one fixed-point chain, replaced when the formats change."""
        return {}

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @property
    def deconv(self) -> Optional[DeconvLayerSpec]:
        if self.layers and isinstance(self.layers[-1], DeconvLayerSpec):
            return self.layers[-1]
        return None

    @property
    def conv_layers(self) -> tuple[ConvLayerSpec, ...]:
        return tuple(l for l in self.layers if isinstance(l, ConvLayerSpec))


@dataclass(frozen=True)
class FsrcnnConfig:
    """Sensitive variables of the FSRCNN family: feature width x, mapping width y,
    mapping depth z, plus the deconv kernel and supported scale set."""

    x: int
    y: int
    z: int
    deconv_kernel: int
    scales: frozenset[int]

    def __post_init__(self):
        if self.x < 1 or self.y < 1 or self.z < 0:
            raise ConfigurationError("require x >= 1, y >= 1, z >= 0")
        if self.deconv_kernel < 2:
            raise ConfigurationError("deconv kernel must be >= 2")
        scales = frozenset(int(s) for s in self.scales)
        if not scales or any(s < 2 for s in scales):
            raise ConfigurationError("scales must be a non-empty set of ints >= 2")
        object.__setattr__(self, "scales", scales)


def _conv_shapes(cfg: FsrcnnConfig) -> list[tuple[int, int, int]]:
    """(kernel, out_maps, in_maps) for each conv layer of the topology."""
    shapes = [(5, cfg.x, 1), (1, cfg.y, cfg.x)]
    shapes += [(3, cfg.y, cfg.y)] * cfg.z
    shapes += [(1, cfg.x, cfg.y)]
    return shapes


def build_fsrcnn(cfg: FsrcnnConfig, scale: int) -> NetworkSpec:
    """Feature extraction, shrink, z mapping layers, expand, then the deconv.

    Weights are zero-initialized; use the weight file to supply trained values.
    """
    if scale not in cfg.scales:
        raise ConfigurationError(f"scale {scale} not in supported scales {sorted(cfg.scales)}")
    layers: list[Layer] = []
    for k, m, n in _conv_shapes(cfg):
        layers.append(
            conv_layer(k, m, n, np.zeros((m, n, k, k)), prelu_slope=np.zeros(m))
        )
    kd = cfg.deconv_kernel
    layers.append(
        DeconvLayerSpec(kd, scale, 1, cfg.x, np.zeros((1, cfg.x, kd, kd)), np.zeros(1))
    )
    return NetworkSpec(tuple(layers))


# --------------------------------------------------------------------------
# Weight file ("tdcnet-weights-v1", a JSON-structured document)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSet:
    """Parsed weight document: shared conv layers plus one deconv per scale."""

    config: FsrcnnConfig
    conv_names: tuple[str, ...]
    conv_layers: tuple[ConvLayerSpec, ...]
    deconv_by_scale: dict[int, DeconvLayerSpec]

    def network(self, scale: int) -> NetworkSpec:
        if scale not in self.deconv_by_scale:
            raise ConfigurationError(
                f"scale {scale} not in weight set (have {sorted(self.deconv_by_scale)})"
            )
        return NetworkSpec(self.conv_layers + (self.deconv_by_scale[scale],))


def _require(cond: bool, msg: str):
    if not cond:
        raise WeightFormatError(msg)


def _integer(value, what: str) -> int:
    _require(type(value) is int, f"{what}: {value!r} is not an integer")  # nor bool
    return value


def _numbers(values, length: int, what: str) -> np.ndarray:
    """`length` finite numbers as a float64 array, else WeightFormatError."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise WeightFormatError(f"{what}: not a list of numbers ({e})") from None
    _require(arr.shape == (length,), f"{what}: length {arr.size} != {length}")
    _require(bool(np.isfinite(arr).all()), f"{what}: contains NaN or infinity")
    return arr


def parse_weights(document: dict) -> WeightSet:
    """Parse and validate a weight document against its declared config."""
    _require(isinstance(document, dict), "weight document must be an object")
    _require(document.get("format") == WEIGHT_FORMAT,
             f"unsupported format {document.get('format')!r}")
    c = document.get("config")
    _require(isinstance(c, dict), "missing config object")
    try:
        cfg = FsrcnnConfig(*(_integer(c[f], f"config {f}") for f in ("x", "y", "z", "kd")),
                           frozenset(_integer(s, "config scales") for s in c["scales"]))
    except (KeyError, TypeError, ValueError) as e:
        raise WeightFormatError(f"bad config: {e}") from e

    expected = _conv_shapes(cfg)
    conv_entries = document.get("conv_layers")
    _require(isinstance(conv_entries, list), "conv_layers must be a list")
    _require(len(conv_entries) == len(expected),
             f"expected {len(expected)} conv layers, got {len(conv_entries)}")
    dec_entries = document.get("deconv")
    _require(isinstance(dec_entries, list) and dec_entries, "deconv must be a non-empty list")
    _require(all(isinstance(e, dict) for e in conv_entries + dec_entries),
             "every conv_layers and deconv entry must be an object")
    names, convs = [], []
    by_scale: dict[int, DeconvLayerSpec] = {}
    try:
        for entry, (k, m, n) in zip(conv_entries, expected):
            name = entry.get("name", f"conv{len(convs) + 1}")
            shape = tuple(_integer(entry[f], f"layer '{name}' {f}") for f in ("kc", "m", "n"))
            _require(shape == (k, m, n),
                     f"layer '{name}': declared shape {shape} != config shape ({k}, {m}, {n})")
            w = _numbers(entry["weights"], m * n * k * k, f"layer '{name}' weights")
            b = _numbers(entry["bias"], m, f"layer '{name}' bias")
            prelu = entry.get("prelu")
            if prelu is not None:
                prelu = _numbers(prelu, m, f"layer '{name}' prelu")
            names.append(name)
            convs.append(conv_layer(k, m, n, w, bias=b, prelu_slope=prelu))

        for entry in dec_entries:
            s = _integer(entry["scale"], "deconv scale")
            kd = _integer(entry["kd"], f"deconv(scale={s}) kd")
            _require(s in cfg.scales, f"deconv scale {s} not in declared scales")
            _require(s not in by_scale, f"deconv scale {s} given twice")
            _require(kd == cfg.deconv_kernel,
                     f"deconv: kd {kd} != config kd {cfg.deconv_kernel}")
            w = _numbers(entry["weights"], cfg.x * kd * kd, f"deconv(scale={s}) weights")
            b = _numbers(entry["bias"], 1, f"deconv(scale={s}) bias")
            by_scale[s] = DeconvLayerSpec(kd, s, 1, cfg.x, w, b)
    except KeyError as e:
        raise WeightFormatError(f"layer entry without key {e}") from None
    except (TypeError, ValueError) as e:
        raise WeightFormatError(f"bad layer entry: {e}") from None
    return WeightSet(cfg, tuple(names), tuple(convs), by_scale)


def load_weights(document: dict, scale: Optional[int] = None) -> NetworkSpec:
    """Network for the requested scale (default: smallest declared scale)."""
    ws = parse_weights(document)
    if scale is None:
        scale = min(ws.deconv_by_scale)
    return ws.network(scale)


def save_weights(weights: WeightSet) -> dict:
    """Inverse of parse_weights; values round-trip exactly through JSON floats."""
    cfg = weights.config
    doc = {
        "format": WEIGHT_FORMAT,
        "config": {"x": cfg.x, "y": cfg.y, "z": cfg.z, "kd": cfg.deconv_kernel,
                   "scales": sorted(cfg.scales)},
        "conv_layers": [],
        "deconv": [],
    }
    for name, layer in zip(weights.conv_names, weights.conv_layers):
        entry = {
            "name": name,
            "kc": layer.kernel,
            "m": layer.out_maps,
            "n": layer.in_maps,
            "weights": layer.weights.reshape(-1).tolist(),
            "bias": layer.bias.tolist(),
        }
        if layer.prelu_slope is not None:
            entry["prelu"] = layer.prelu_slope.tolist()
        doc["conv_layers"].append(entry)
    for s in sorted(weights.deconv_by_scale):
        dec = weights.deconv_by_scale[s]
        doc["deconv"].append({
            "scale": s,
            "kd": dec.kernel,
            "weights": dec.weights.reshape(-1).tolist(),
            "bias": dec.bias.tolist(),
        })
    return doc
