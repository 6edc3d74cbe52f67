"""Signed fixed-point quantization, the row-block layer executor that runs the
network in float or fixed point, and the double-MAC product decomposition.

Conventions:
  * round-half-to-even everywhere, saturation at format limits (never wrap);
  * MACs accumulate exactly at scale 2^(wf + af) and are requantized and
    saturated to the activation format exactly once per layer output, after
    bias and activation (a per-value truncating mode is not provided);
  * codes pass between layers as float64 integers (at most 2^31 in magnitude,
    so exact); int64 holds them only at the public edges (quantize_array,
    quantized_forward) and where sums may pass 2^53 (see quantized_conv_rows);
  * biases are quantized in the weight format and shifted into the accumulator
    scale exactly, adding no extra error.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError
from .model import ConvLayerSpec, DeconvLayerSpec, NetworkSpec, Tensor3
from .reference import _prelu_into, conv_rows, conv_taps, depth_to_space_array, psnr
from .tdc import transform_weights


@dataclass(frozen=True)
class QFormat:
    """Signed two's-complement fixed point: total_bits wide, frac_bits fractional."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        if not 2 <= self.total_bits <= 32:
            raise ConfigurationError(f"total_bits must be in [2, 32], got {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ConfigurationError(
                f"frac_bits must be in [0, total_bits), got {self.frac_bits}"
            )

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def step(self) -> float:
        return 2.0 ** -self.frac_bits


def _rint_codes(a, q: QFormat) -> np.ndarray:
    """Nearest codes (ties to even) as float64, saturated at the format range.

    Values are clipped to the range before scaling, so none overflows float64;
    as rint is monotone and the limits are codes, this equals saturating after.
    """
    v = np.clip(np.asarray(a, dtype=np.float64), q.min_raw * q.step, q.max_raw * q.step)
    return np.rint(v * (1 << q.frac_bits))


def quantize_value(v: float, q: QFormat) -> int:
    """Nearest raw code (ties to even), saturated at the format range."""
    return int(_rint_codes(v, q))


def quantize_array(a: np.ndarray, q: QFormat) -> np.ndarray:
    """Nearest raw codes (ties to even) as int64, saturated at the format range."""
    return _rint_codes(a, q).astype(np.int64)


def dequantize(raw, q: QFormat):
    return np.asarray(raw, dtype=np.float64) * q.step


def _rshift_half_even_into(v: np.ndarray, bits: int, odd: np.ndarray) -> None:
    """v <- v / 2**bits rounded half to even, in place.

    With q = v >> bits, (v + 2**(bits-1) - 1 + (q & 1)) >> bits rounds up
    exactly when the remainder exceeds half, or equals half and q is odd.
    `odd` is int8 scratch of v's shape that receives q & 1.
    """
    if bits == 0:
        return
    np.right_shift(v, bits, out=odd, casting="unsafe")     # low byte of q
    np.bitwise_and(odd, 1, out=odd)
    v += (1 << (bits - 1)) - 1
    v += odd
    v >>= bits


def round_half_even_rshift(v: np.ndarray, bits: int) -> np.ndarray:
    """Divide integers by 2**bits, rounding half to even. Exact, vectorized."""
    out = np.array(v, dtype=np.int64)
    _rshift_half_even_into(out, bits, np.empty(out.shape, dtype=np.int8))
    return out


@dataclass(frozen=True)
class QuantizedLayer:
    """One conv layer in raw-integer form (the deconv appears pre-transformed)."""

    spec: ConvLayerSpec                 # float reference spec (transformed for deconv)
    weights_raw: np.ndarray             # int64 (M, N, K, K) at weight scale
    bias_raw: np.ndarray                # int64 (M,) at accumulator scale wf+af
    prelu_raw: Optional[np.ndarray]     # int64 (M,) at weight scale
    depth_to_space: int                 # 0 for plain conv, else the deconv scale

    @cached_property
    def abs_bounds(self) -> tuple[int, int, int]:
        """Exact ints: max_m sum |weights_raw[m]|, max |bias_raw|, max |prelu_raw| or 0."""
        l1 = np.abs(self.weights_raw).sum(axis=(1, 2, 3))
        p = 0 if self.prelu_raw is None else int(np.abs(self.prelu_raw).max())
        return int(l1.max()), int(np.abs(self.bias_raw).max()), p


@dataclass(frozen=True)
class QuantizedNetwork:
    layers: tuple[QuantizedLayer, ...]
    q_weights: QFormat
    q_activations: QFormat


def _inference_convs(net: NetworkSpec) -> list[tuple[ConvLayerSpec, int]]:
    """The network as a pure conv chain: (conv spec, depth-to-space scale)."""
    rows: list[tuple[ConvLayerSpec, int]] = []
    for layer in net.layers:
        if isinstance(layer, DeconvLayerSpec):
            conv, _ = transform_weights(layer)
            rows.append((conv, layer.scale))
        else:
            rows.append((layer, 0))
    return rows


def quantize_network(net: NetworkSpec, q_weights: QFormat,
                     q_activations: QFormat) -> QuantizedNetwork:
    """Quantize all weights, biases and PReLU slopes of the inference chain."""
    qw, qa = q_weights, q_activations
    layers = []
    for conv, dts in _inference_convs(net):
        w_raw = quantize_array(conv.weights, qw)
        # bias at weight precision, left-shifted into the accumulator scale
        b_raw = quantize_array(conv.bias, qw) << qa.frac_bits
        p_raw = None
        if conv.prelu_slope is not None:
            p_raw = quantize_array(conv.prelu_slope, qw)
        layers.append(QuantizedLayer(conv, w_raw, b_raw, p_raw, dts))
    return QuantizedNetwork(tuple(layers), qw, qa)


def quantized_conv_rows(qlayer: QuantizedLayer, padded: np.ndarray,
                        qnet: QuantizedNetwork) -> np.ndarray:
    """Integer conv over a horizontally+vertically padded raw input block.

    `padded` is (N, R + K - 1, W + K - 1) codes of the activation format, held
    in int64 or float64 (the layer executor builds float64 blocks); returns
    (M, R, W) raw activations as float64 integers in a view of the buffer
    conv_taps returned. Shared by the batch and streaming paths so they agree
    bitwise.

    The sums are exact integers on both of its paths. Every partial sum, in
    any order, is at most bound = max_m sum |w[m]| * 2**(bits - 1) + max |bias|
    in magnitude, as no code exceeds 2**(bits - 1). When that bound is below
    2**53, float64 holds every partial sum exactly, so conv_taps' BLAS matmuls
    on float64 codes give the same integers as any order would. When,
    moreover, bound * max(1, max |slope|) < 2**53, every v * slope is an
    integer below 2**53 and 2**-bits scales exactly, so PReLU and rounding
    finish in float64, with rint rounding half to even as the int64 shifts
    do. Otherwise the sums become int64 and are shifted with one int8 scratch
    array and no masked (`where=`) ufuncs, which run an order of magnitude
    slower on int64. Where the bound reaches 2**53 (wide formats) the block
    runs again through conv_taps on int64 codes, after the float64 sums, as
    an estimate, show none reaches 2**62, as int64 sums could wrap past it.
    Both paths take PReLU from _prelu_into and saturate into the result.
    """
    bits, qa = qnet.q_weights.frac_bits, qnet.q_activations
    l1, b, p = qlayer.abs_bounds
    bound = (l1 << (qa.total_bits - 1)) + b
    conv = qlayer.weights_raw, qlayer.bias_raw, qlayer.spec.tap_maps
    acc = sums = conv_taps(np.asarray(padded, dtype=np.float64), *conv)
    slopes = None if qlayer.prelu_raw is None else qlayer.prelu_raw * 2.0 ** -bits
    if bound * max(p, 1) < 1 << 53:
        if slopes is not None:
            _prelu_into(sums, slopes, lambda v: np.rint(cv := v * slopes[:, None, None], out=cv))
        sums *= 2.0 ** -bits
        np.rint(sums, out=sums)
    else:
        if bound < 1 << 53:
            acc = sums.astype(np.int64)
        elif max(-sums.min(), sums.max()) >= 2.0 ** 62:
            raise ConfigurationError(
                f"fixed-point sums reach 2**62 in a layer at weights {qnet.q_weights}, "
                f"activations {qa}; int64 accumulation could wrap")
        else:
            acc = conv_taps(np.asarray(padded, dtype=np.int64), *conv)
        odd = np.empty(acc.shape, dtype=np.int8)
        if slopes is not None:
            slope = qlayer.prelu_raw[:, None, None]
            cap = ((1 << 31) + 1 << bits) // np.maximum(np.abs(slope), 1) + 2
            def product(v):
                # v = hi * 2**bits + lo, so that no product wraps int64 where v * slope
                # would: hi * slope, less its low bit, is added apart and that bit joins
                # lo * slope, so the rounding sees the quotient's parity. hi is clamped at
                # +-cap, past which |hi * slope| > T = (2**31 + 1) * 2**bits: then, for sums
                # of either sign, max(v, product) is v or beyond +-T, as with the true
                # product, and the final shift saturates it alike
                hi = np.clip(v >> bits, -cap, cap) * slope
                sv = (v & (1 << bits) - 1) * slope
                sv += (hi & 1) << bits
                _rshift_half_even_into(sv, bits, odd)
                return sv + (hi & -2)
            _prelu_into(acc, slopes, product)
        _rshift_half_even_into(acc, bits, odd)
    return np.clip(acc, qa.min_raw, qa.max_raw, out=sums)


class _Layer:
    """One conv layer fed row blocks, the way a line-buffered processor is.

    `run` maps a zero-padded (N, R + K - 1, W + K - 1) block to (M, R, W)
    outputs (conv_rows in float, quantized_conv_rows in fixed point), and a
    nonzero `scale` moves the deconv's phases to space afterwards. Blocks and
    outputs are float64 in both modes: fixed-point codes are integers of at
    most 2**31 in magnitude, exact in float64, so no layer converts them.
    Between pushes the layer keeps its last K - 1 padded input rows, none for 1x1.
    """

    def __init__(self, spec: ConvLayerSpec, run, scale: int):
        self.spec, self.run, self.scale = spec, run, scale
        self.carry: Optional[np.ndarray] = None

    def push(self, rows: np.ndarray, last: bool) -> Optional[np.ndarray]:
        """Output rows completed by the next (N, R, W) input rows, or None.

        The first block starts with the top zero padding and the last one
        (last=True) ends with the bottom padding, so it flushes the layer.
        """
        k, pb = self.spec.kernel, self.spec.pad_before
        n, r, w = rows.shape
        if n != self.spec.in_maps:
            raise DimensionError(f"input channels {n} != layer in_maps {self.spec.in_maps}")
        c = pb if self.carry is None else self.carry.shape[1]
        block = np.zeros((n, c + r + (self.spec.pad_after if last else 0), w + k - 1))
        if self.carry is not None:
            block[:, :c] = self.carry
        block[:, c:c + r, pb:pb + w] = rows
        if block.shape[1] < k:
            self.carry = block
            return None
        self.carry = block[:, block.shape[1] - (k - 1):].copy()
        out = self.run(block)
        return depth_to_space_array(out, self.scale) if self.scale else out


def _layers(net: Optional[NetworkSpec], qnet: Optional[QuantizedNetwork] = None) -> list[_Layer]:
    """Executor layers of the float chain of `net`, or of the fixed chain of `qnet`."""
    if qnet is not None:
        return [_Layer(q.spec, lambda b, q=q: quantized_conv_rows(q, b, qnet), q.depth_to_space)
                for q in qnet.layers]
    return [_Layer(c, lambda b, c=c: conv_rows(b, c), dts) for c, dts in _inference_convs(net)]


_TILE_PIXELS = 3072       # batch row tile, in input pixels: 32 rows of a 96-wide plane


def _forward(layers: list[_Layer], x: np.ndarray, rows: Optional[int] = None,
             trace: Optional[list] = None) -> np.ndarray:
    """Push (C, H, W) input through the layers `rows` rows at a time and return
    the last layer's output. rows=None is batch inference, in tiles of
    max(2, _TILE_PIXELS // W) rows so that each layer's scratch stays in cache
    rather than spanning the plane; rows=1 emulates the streaming line buffers.
    Any two tile heights agree bit for bit because conv_taps gives each output
    row the same matmul shapes for any block height (in float this rests on
    the BLAS, which test_conv_taps_rows_independent checks). `trace` receives
    every layer's whole-plane output, its tiles joined in order."""
    if x.ndim != 3 or min(x.shape) < 1:
        raise DimensionError(f"expected non-empty (C, H, W) input, got shape {x.shape}")
    h, w = x.shape[1:]
    step = rows or max(2, _TILE_PIXELS // w)
    out, tiles = [], [[] for _ in layers]
    for r in range(0, h, step):
        cur = x[:, r:r + step]
        for layer, kept in zip(layers, tiles):
            cur = layer.push(cur, r + step >= h)
            if cur is None:
                break
            if trace is not None:
                kept.append(cur)
        else:
            out.append(cur)
    if trace is not None:
        trace.extend(np.concatenate(t, axis=1) for t in tiles)
    return out[0] if len(out) == 1 else np.concatenate(out, axis=1)


def quantized_forward(qnet: QuantizedNetwork, x_raw: np.ndarray,
                      collect: bool = False):
    """Run the integer chain on raw input (C, H, W); returns int64 raw output
    (and per-layer int64 raw activations when collect=True).

    Every input code must lie in the activation format: the exactness guard
    of quantized_conv_rows and fixed_point_error_bound both assume it.
    """
    qa = qnet.q_activations
    raw = np.asarray(x_raw)
    if raw.dtype.kind == "f" and not np.array_equal(raw, np.rint(raw)):
        raise ConfigurationError("raw input codes must be integers")
    if raw.size and (raw.min() < qa.min_raw or raw.max() > qa.max_raw):
        raise ConfigurationError(
            f"raw input codes must lie in [{qa.min_raw}, {qa.max_raw}] of {qa}")
    trace = [] if collect else None
    out = _forward(_layers(None, qnet), np.asarray(raw, dtype=np.int64), trace=trace)
    out = out.astype(np.int64)
    return (out, [t.astype(np.int64) for t in trace]) if collect else out


def float_forward(net: NetworkSpec, x: Tensor3, collect: bool = False):
    """Float reference chain matching quantized_forward's structure."""
    trace = [] if collect else None
    out = Tensor3(_forward(_layers(net), x.data, trace=trace))
    return (out, [Tensor3(t) for t in trace]) if collect else out


def fixed_point_error_bound(net: NetworkSpec, qnet: QuantizedNetwork) -> list[float]:
    """Per-layer worst-case |fixed - float| bound by interval propagation, for
    inputs in [-1, 1] quantized to the nearest activation code.

    Uses the actual quantization residuals of the quantized network, the PReLU
    rescale rounding, and the per-layer requantization step. Valid only while
    no value saturates; raises if the propagated magnitude bound exceeds the
    representable range.
    """
    qw, qa = qnet.q_weights, qnet.q_activations
    amp = 1.0                # bound on |float activation|
    err = 0.5 * qa.step      # bound on |fixed - float|
    bounds = []
    for conv, qlayer in zip((c for c, _ in _inference_convs(net)), qnet.layers):
        w = conv.weights
        w_q = dequantize(qlayer.weights_raw, qw)
        b_q = np.asarray(qlayer.bias_raw, dtype=np.float64) * 2.0 ** -(qw.frac_bits + qa.frac_bits)
        dw_sum = np.abs(w - w_q).sum(axis=(1, 2, 3))      # per output map
        wq_sum = np.abs(w_q).sum(axis=(1, 2, 3))
        w_sum = np.abs(w).sum(axis=(1, 2, 3))
        db = np.abs(conv.bias - b_q)
        lin_err = float(np.max(wq_sum * err + dw_sum * amp + db))
        lin_amp = float(np.max(w_sum * amp + np.abs(conv.bias)))
        if conv.prelu_slope is not None:
            s = conv.prelu_slope
            s_q = dequantize(qlayer.prelu_raw, qw)
            lip = float(np.max(np.maximum(1.0, np.abs(s_q))))
            ds = float(np.max(np.abs(s - s_q)))
            act_err = lip * lin_err + ds * lin_amp + 0.5 * 2.0 ** -(qw.frac_bits + qa.frac_bits)
            act_amp = float(np.max(np.maximum(1.0, np.abs(s)))) * lin_amp
        else:
            act_err = lin_err
            act_amp = lin_amp
        err = act_err + 0.5 * qa.step      # final requantization
        amp = act_amp
        if amp + err > qa.max_raw * qa.step:
            raise ConfigurationError(
                f"activation bound {amp + err:.3g} exceeds the representable "
                f"range of {qa}; the error bound would not be valid"
            )
        bounds.append(err)
    return bounds


DOUBLE_MAC_BITS = 13
_DM_LOW = 5                          # unsigned low-part width of the split
_DM_MIN = -(1 << (DOUBLE_MAC_BITS - 1))
_DM_MAX = (1 << (DOUBLE_MAC_BITS - 1)) - 1


def double_mac_product(a, b):
    """13x13-bit product via the three-partial-product DSP-packing identity.

    Splits each operand into a signed high part and an unsigned 5-bit low part:
    a*b = (a_h*b_h) << 10 + (a_l*b_h) << 5 + a*b_l. Equals the direct product
    for every in-range operand pair. Accepts scalars or integer arrays.
    """
    a_arr = np.asarray(a, dtype=np.int64)
    b_arr = np.asarray(b, dtype=np.int64)
    if np.any((a_arr < _DM_MIN) | (a_arr > _DM_MAX)) or np.any((b_arr < _DM_MIN) | (b_arr > _DM_MAX)):
        raise ConfigurationError(
            f"operands must be {DOUBLE_MAC_BITS}-bit signed "
            f"([{_DM_MIN}, {_DM_MAX}])"
        )
    a_h, a_l = a_arr >> _DM_LOW, a_arr & ((1 << _DM_LOW) - 1)
    b_h, b_l = b_arr >> _DM_LOW, b_arr & ((1 << _DM_LOW) - 1)
    result = (a_h * b_h << 2 * _DM_LOW) + (a_l * b_h << _DM_LOW) + a_arr * b_l
    if np.isscalar(a) and np.isscalar(b):
        return int(result)
    return result


def sweep_bitwidth(net: NetworkSpec, images: Sequence[np.ndarray],
                   bits: Sequence[int], scale: int,
                   border: Optional[int] = None) -> list[tuple[int, float]]:
    """Mean PSNR of the fixed-point pipeline against the float pipeline.

    Each bit-width uses frac_bits = total_bits - 4 (sign + 3 integer bits) for
    both weights and activations.
    """
    from .pipeline import infer

    images = list(images)
    if not images:
        raise ConfigurationError("image set must be non-empty")
    if border is None:
        border = scale
    def _chw(img: np.ndarray) -> np.ndarray:
        # psnr crops the trailing two (spatial) axes; move RGB channels first
        arr = img.astype(np.float64)
        return arr.transpose(2, 0, 1) if arr.ndim == 3 else arr

    formats = [QFormat(b, b - 4) for b in bits]       # every width checked up front
    float_outputs = [infer(img, net, scale, mode="float") for img in images]
    results = []
    for b, q in zip(bits, formats):
        values = []
        for img, ref in zip(images, float_outputs):
            out = infer(img, net, scale, mode="fixed", q_weights=q, q_activations=q)
            values.append(psnr(_chw(out), _chw(ref), border))
        results.append((b, float(np.mean(values))))
    return results
