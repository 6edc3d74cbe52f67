import numpy as np
import pytest

from tdcnet.errors import (ConfigurationError, DimensionError,
                           WeightFormatError)
from tdcnet.model import (ConvLayerSpec, DeconvLayerSpec, FsrcnnConfig,
                          NetworkSpec, Tensor3, build_fsrcnn, conv_layer,
                          load_weights, parse_weights, same_padding,
                          save_weights)

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
