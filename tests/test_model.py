import numpy as np
import pytest

from tdcnet.errors import (ConfigurationError, DimensionError,
                           WeightFormatError)
from tdcnet.model import (ConvLayerSpec, DeconvLayerSpec, FsrcnnConfig,
                          NetworkSpec, Tensor3, _column_runs, build_fsrcnn, conv_layer,
                          conv_operands, load_weights, parse_weights, same_padding,
                          save_weights)
from tdcnet.tdc import transform_weights

from conftest import random_weight_doc


class TestTensor3:
    def test_immutable(self, rng):
        t = Tensor3(rng.normal(size=(1, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_bad_shape(self):
        with pytest.raises(DimensionError):
            Tensor3(np.zeros((2, 2)))


class TestLayerSpecs:
    def test_same_padding(self):
        assert same_padding(1) == (0, 0)
        assert same_padding(3) == (1, 1)
        assert same_padding(4) == (2, 1)
        assert same_padding(5) == (2, 2)

    def test_conv_pad_contract(self):
        with pytest.raises(ConfigurationError):
            ConvLayerSpec(3, 1, 1, 0, 0, np.zeros((1, 1, 3, 3)), np.zeros(1))

    def test_conv_weight_length(self):
        with pytest.raises(DimensionError):
            conv_layer(3, 2, 1, np.zeros(17))

    def test_deconv_kernel_ge_scale(self):
        with pytest.raises(ConfigurationError):
            DeconvLayerSpec(2, 3, 1, 1, np.zeros((1, 1, 2, 2)), np.zeros(1))

    def test_network_chain(self):
        a = conv_layer(3, 2, 1, np.zeros((2, 1, 3, 3)))
        b = conv_layer(3, 1, 3, np.zeros((1, 3, 3, 3)))
        with pytest.raises(DimensionError):
            NetworkSpec((a, b))

    def test_deconv_must_be_last(self):
        d = DeconvLayerSpec(4, 2, 1, 1, np.zeros((1, 1, 4, 4)), np.zeros(1))
        c = conv_layer(3, 1, 1, np.zeros((1, 1, 3, 3)))
        with pytest.raises(ConfigurationError):
            NetworkSpec((d, c))


def _runs_by_loop(weights):
    """conv_operands(weights, ...).runs of a column layout without its memo:
    each tap's live maps, then each column's runs of equal maps, by loops."""
    m, n, k, _ = weights.shape
    live = np.any(weights, axis=1)
    if live.all():
        return None
    runs = []
    for kx in range(k):
        taps = []
        for ky in range(k):
            idx = np.flatnonzero(live[:, ky, kx]).tolist()
            step = idx[1] - idx[0] if len(idx) > 1 else 1
            if not idx:
                taps.append(None)
            elif len(idx) < m and idx == list(range(idx[0], idx[-1] + 1, step)):
                taps.append(slice(idx[0], idx[-1] + 1, step))
            else:
                taps.append(slice(None))
        ky = 0
        while ky < k:
            end = ky
            while end < k and taps[end] == taps[ky]:
                end += 1
            if taps[ky] is not None:
                runs.append((kx, ky * n, end * n, taps[ky]))
            ky = end
    return tuple(runs)


class TestColumnRuns:
    def test_equal_masks_share_runs(self, rng):
        # the s = 4 transform of a dense single-map deconv, and int64 codes
        # with other values on the same zeros, laid out in either dtype
        dec = DeconvLayerSpec(9, 4, 1, 2, rng.integers(1, 9, (1, 2, 9, 9)), np.zeros(1))
        w = transform_weights(dec)[0].weights
        codes = np.where(w != 0, rng.integers(-50, 50, w.shape) | 1, 0).astype(np.int64)
        runs = conv_operands(w, np.zeros(16)).runs
        assert runs == _runs_by_loop(w)
        for dtype in (None, np.float64, np.int64):
            assert conv_operands(codes, np.ones(16), dtype).runs is runs

    def test_dense_dead_and_irregular_taps(self):
        w = np.ones((4, 2, 2, 2))
        assert conv_operands(w, np.zeros(4)).runs is None
        w[:, :, 0, 1] = 0                                # tap (0, 1): no live map
        w[[1, 3], :, 1, 0] = 0                           # tap (1, 0), maps 0, 2: a strided run
        w[2, 0, 1, 1] = w[2, 1, 1, 1] = 0                # tap (1, 1), maps 0, 1, 3: irregular
        assert conv_operands(w, np.zeros(4)).runs == (
            (0, 0, 2, slice(None)), (0, 2, 4, slice(0, 3, 2)), (1, 2, 4, slice(None)))

    def test_sweep_past_the_cache_bound(self, rng):
        # 8 maps of 1 x 3 x 3 taps: more taps than maps, so the column layout
        masks = rng.random((_column_runs.cache_info().maxsize + 60, 8, 1, 3, 3)) < 0.6
        for _ in range(2):                               # the second pass recomputes evicted runs
            for i, live in enumerate(masks):
                w = live * rng.integers(1, 9, live.shape)
                w = w.astype(np.float64 if i % 2 else np.int64)
                assert conv_operands(w, np.zeros(8)).runs == _runs_by_loop(w)


class TestConvOperands:
    @pytest.mark.parametrize("m, n, k", [(1, 1, 1), (9, 1, 3), (4, 1, 3), (12, 12, 3), (3, 2, 5)])
    def test_stacked_or_column_layout(self, rng, m, n, k):
        w = rng.normal(size=(m, n, k, k))
        ops = conv_operands(w, np.zeros(m))
        stacked = k == 1 or n * k * k <= m
        assert ops.weights.shape == ((m, k * k * n) if stacked else (k, 1, m, k * n))
        cols = ops.weights[:, 0] if not stacked else (
            ops.weights.reshape(m, k, k * n).transpose(1, 0, 2))      # [kx, m, ky * N + n]
        for mm, nn, ky, kx in np.ndindex(w.shape):
            assert cols[kx, mm, ky * n + nn] == w[mm, nn, ky, kx]
        assert ops.weights.flags.c_contiguous and not ops.weights.flags.writeable

    def test_s4_deconv_columns_make_six_gemms(self, rng):
        # K_C = 3 columns of 3 taps, 9 tap gemms: each column's two taps of
        # one live slice share a gemm, and the issued MACs stay those of the taps
        dec = DeconvLayerSpec(9, 4, 1, 2, rng.integers(1, 9, (1, 2, 9, 9)), np.zeros(1))
        conv = transform_weights(dec)[0]
        runs = conv.operands.runs
        everything, last4, every4th = slice(None), slice(12, 16, 1), slice(3, 16, 4)
        assert runs == ((0, 0, 4, everything), (0, 4, 6, last4), (1, 0, 4, everything),
                        (1, 4, 6, last4), (2, 0, 4, every4th), (2, 4, 6, slice(15, 16, 1)))
        live = np.any(conv.weights, axis=1)
        assert (sum((j1 - j0) * len(range(16)[maps]) for _, j0, j1, maps in runs)
                == 2 * live.sum())

    def test_dead_taps_make_no_gemm(self):
        w = np.ones((4, 2, 2, 2))
        w[:, :, :, 1] = 0                                # column 1 dead
        w[1:, :, 1, 0] = 0                               # map 0 alone at tap (1, 0)
        runs = conv_operands(w, np.zeros(4)).runs
        assert runs == ((0, 0, 2, slice(None)), (0, 2, 4, slice(0, 1, 1)))


class TestBuildFsrcnn:
    def test_full_model_is_8_layers(self):
        net = build_fsrcnn(FsrcnnConfig(56, 12, 4, 9, frozenset({2})), 2)
        assert net.layer_count == 8
        assert len(net.conv_layers) == 7
        assert net.deconv is not None

    def test_light_model_layers(self):
        net = build_fsrcnn(FsrcnnConfig(25, 5, 1, 7, frozenset({2})), 2)
        assert net.layer_count == 5
        kernels = [l.kernel for l in net.conv_layers]
        assert kernels == [5, 1, 3, 1]

    def test_z0_has_no_mapping_stage(self):
        net = build_fsrcnn(FsrcnnConfig(1, 1, 0, 2, frozenset({2})), 2)
        assert net.layer_count == 4

    def test_unsupported_scale(self):
        cfg = FsrcnnConfig(4, 2, 1, 5, frozenset({2}))
        with pytest.raises(ConfigurationError):
            build_fsrcnn(cfg, 3)

    def test_shapes_chain(self):
        net = build_fsrcnn(FsrcnnConfig(25, 5, 1, 7, frozenset({2})), 2)
        shapes = [(l.out_maps, l.in_maps) for l in net.layers]
        assert shapes == [(25, 1), (5, 25), (5, 5), (25, 5), (1, 25)]


class TestWeightFile:
    def test_roundtrip(self, rng):
        doc = random_weight_doc(rng)
        again = save_weights(parse_weights(doc))
        assert again == doc

    def test_multi_scale_selection(self, rng):
        doc = random_weight_doc(rng, scales=(2, 3, 4))
        for s in (2, 3, 4):
            net = load_weights(doc, s)
            assert net.deconv.scale == s
        assert load_weights(doc).deconv.scale == 2

    def test_bad_format_tag(self, rng):
        doc = random_weight_doc(rng)
        doc["format"] = "something-else"
        with pytest.raises(WeightFormatError):
            parse_weights(doc)

    def test_weight_length_mismatch_names_layer(self, rng):
        doc = random_weight_doc(rng)
        doc["conv_layers"][2]["weights"] = doc["conv_layers"][2]["weights"][:-1]
        with pytest.raises(WeightFormatError, match="conv3"):
            parse_weights(doc)

    def test_declared_shape_mismatch(self, rng):
        doc = random_weight_doc(rng)
        doc["conv_layers"][0]["kc"] = 7
        with pytest.raises(WeightFormatError, match="conv1"):
            parse_weights(doc)

    def test_deconv_scale_not_declared(self, rng):
        doc = random_weight_doc(rng)
        doc["deconv"][0]["scale"] = 3
        with pytest.raises(WeightFormatError):
            parse_weights(doc)

    def test_deconv_scale_given_twice(self, rng):
        # the last entry of a scale would silently win
        doc = random_weight_doc(rng, scales=(2, 3))
        doc["deconv"][1]["scale"] = 2
        with pytest.raises(WeightFormatError, match="scale 2 given twice"):
            parse_weights(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d["config"].__setitem__("x", 4.7),
        lambda d: d["config"].__setitem__("y", 2.0),
        lambda d: d["config"].__setitem__("z", True),
        lambda d: d["config"].__setitem__("kd", "5"),
        lambda d: d["config"].__setitem__("scales", [2.5]),
        lambda d: d["conv_layers"][0].__setitem__("n", True),
        lambda d: d["conv_layers"][1].__setitem__("kc", 1.0),
        lambda d: d["deconv"][0].__setitem__("scale", "2"),
        lambda d: d["deconv"][0].__setitem__("kd", 5.0),
    ], ids=["x_fraction", "y_float", "z_bool", "kd_string", "scale_fraction", "n_bool",
            "kc_float", "deconv_scale_string", "deconv_kd_float"])
    def test_integer_fields_must_be_integers(self, rng, edit):
        # each was truncated or coerced by int() before
        doc = random_weight_doc(rng)
        edit(doc)
        with pytest.raises(WeightFormatError, match="not an integer"):
            parse_weights(doc)
