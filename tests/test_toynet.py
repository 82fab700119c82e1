import numpy as np
import pytest

from cfmseg.core import FeatureMap, PixelBox, ValidationError
from cfmseg.formats import canonical_json
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry
from cfmseg.toynet import (
    ConvLayerSpec,
    PoolLayerSpec,
    ToyNet,
    ToyNetSpec,
    default_spec,
    forward,
    forward_region,
    init_toynet,
    load_spec,
    spec_from_json,
    spec_to_json,
    _conv2d,
)
from conftest import random_map
from oracles import loop_conv2d

# the net spec file `formats.dump_json` writes for default_spec(3, seed=5)
DEFAULT_SPEC_JSON = """\
{
  "layers": [
    {
      "in_channels": 3,
      "kernel": 3,
      "kind": "conv",
      "out_channels": 8,
      "pad": 1,
      "stride": 2
    },
    {
      "in_channels": 8,
      "kernel": 3,
      "kind": "conv",
      "out_channels": 16,
      "pad": 1,
      "stride": 2
    },
    {
      "in_channels": 16,
      "kernel": 3,
      "kind": "conv",
      "out_channels": 32,
      "pad": 1,
      "stride": 2
    }
  ],
  "seed": 5
}
"""


def tiny_net(weight: float, bias: float = 0.0) -> ToyNet:
    spec = ToyNetSpec((ConvLayerSpec(1, 1, 0, 1, 1),), seed=0)
    w = np.full((1, 1, 1, 1), weight, dtype=np.float32)
    b = np.full(1, bias, dtype=np.float32)
    return ToyNet(spec, ((w, b),))


class TestInit:
    def test_same_seed_same_weights(self):
        spec = default_spec(3, seed=7)
        a, b = init_toynet(spec), init_toynet(spec)
        for (wa, ba), (wb, bb) in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()

    def test_different_seeds_differ(self):
        a = init_toynet(default_spec(3, seed=0))
        b = init_toynet(default_spec(3, seed=1))
        assert not np.array_equal(a.weights[0][0], b.weights[0][0])

    def test_seed0_scalar_weight_frozen(self):
        # first draw of the documented PCG64(0) standard-normal stream
        net = init_toynet(ToyNetSpec((ConvLayerSpec(1, 1, 0, 1, 1),), seed=0))
        assert net.weights[0][0][0, 0, 0, 0] == np.float32(0.17780939)

    def test_negative_seed_rejected(self):
        # numpy's generators used to raise ValueError in init_toynet
        with pytest.raises(ValidationError, match="seed"):
            ToyNetSpec((ConvLayerSpec(1, 1, 0, 1, 1),), seed=-1)

    def test_layers_are_geometry_layers(self):
        spec = default_spec(3, seed=0)
        assert all(isinstance(layer, LayerSpec) for layer in spec.layers)
        assert compose_geometry(spec.layers) == NetGeometry(8, 15, 0.0)

    def test_channel_chain_checked(self):
        with pytest.raises(ValidationError):
            ToyNetSpec(
                (ConvLayerSpec(3, 1, 1, 3, 8), ConvLayerSpec(3, 1, 1, 4, 8)), seed=0
            )


class TestForward:
    def test_identity_kernel(self, rng):
        image = random_map(rng, 1, 5, 6)
        out = forward(tiny_net(1.0), image)
        # rectifier clips the negatives of the random input
        assert np.array_equal(out.values, np.maximum(image.values, 0.0))

    def test_zero_weights_zero_map(self, rng):
        image = random_map(rng, 1, 5, 5)
        assert not forward(tiny_net(0.0), image).values.any()

    def test_all_ones_3x3_sums_interior(self):
        spec = ToyNetSpec((ConvLayerSpec(3, 1, 0, 1, 1),), seed=0)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        net = ToyNet(spec, ((w, np.zeros(1, dtype=np.float32)),))
        v = 0.7
        image = FeatureMap(np.full((1, 6, 6), v, dtype=np.float32))
        out = forward(net, image)
        assert out.values == pytest.approx(np.full((1, 4, 4), 9 * v), abs=1e-5)

    def test_output_dims_follow_layer_arithmetic(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            spec = ToyNetSpec((ConvLayerSpec(k, s, p, 2, 3),), seed=1)
            net = init_toynet(spec)
            h, w = (int(v) for v in rng.integers(k + 1, 20, size=2))
            out = forward(net, random_map(rng, 2, h, w))
            assert out.height == (h + 2 * p - k) // s + 1
            assert out.width == (w + 2 * p - k) // s + 1

    def test_rectifier_non_negative(self, rng):
        net = init_toynet(default_spec(3, seed=3))
        out = forward(net, random_map(rng, 3, 32, 32))
        assert out.values.min() >= 0.0

    def test_deterministic_across_runs(self, rng):
        net = init_toynet(default_spec(3, seed=3))
        image = random_map(rng, 3, 24, 24)
        a = forward(net, image)
        b = forward(net, image)
        assert a.values.tobytes() == b.values.tobytes()

    def test_too_small_input_names_layer(self):
        spec = ToyNetSpec(
            (ConvLayerSpec(3, 1, 0, 1, 2), ConvLayerSpec(3, 1, 0, 2, 2)), seed=0
        )
        net = init_toynet(spec)
        with pytest.raises(ValidationError, match="layer 1"):
            forward(net, FeatureMap(np.ones((1, 4, 4), dtype=np.float32)))

    def test_pool_layer(self):
        spec = ToyNetSpec(
            (ConvLayerSpec(1, 1, 0, 1, 1), PoolLayerSpec(2, 2, 0)), seed=0
        )
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        net = ToyNet(spec, ((w, np.zeros(1, dtype=np.float32)), None))
        image = FeatureMap(
            np.array([[[1, 2, 3, 4], [5, 6, 7, 8], [1, 1, 1, 1], [2, 2, 2, 2]]],
                     dtype=np.float32)
        )
        out = forward(net, image)
        assert out.values.tolist() == [[[6.0, 8.0], [2.0, 2.0]]]

    def test_geometry_matches_output_dims(self, rng):
        net = init_toynet(default_spec(3, seed=0))
        g = compose_geometry(net.spec.geometry_layers())
        out = forward(net, random_map(rng, 3, 64, 64))
        assert (out.height, out.width) == (64 // g.stride, 64 // g.stride)


def conv_case(rng, k, s, p, c_in, c_out, h, w):
    layer = ConvLayerSpec(k, s, p, c_in, c_out)
    x = rng.standard_normal((c_in, h, w)).astype(np.float32)
    weights = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
    bias = rng.standard_normal(c_out).astype(np.float32)
    return x, layer, weights, bias


def in_len(rng, out: int, k: int, s: int, p: int) -> int:
    """A random one of the input lengths whose output length is `out`."""
    return max(1, (out - 1) * s + k - 2 * p + int(rng.integers(0, s)))


class TestConvSumOrder:
    """_conv2d gives the bytes of the documented order on every layer shape."""

    @staticmethod
    def assert_oracle_bytes(case):
        x, layer, w, b = case
        got = _conv2d(x, layer, w, b, 0)
        assert got.tobytes() == loop_conv2d(x, layer, w, b).tobytes(), (layer, x.shape)

    def test_random_layers(self, rng):
        for _ in range(150):
            k, s = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            p = int(rng.integers(0, k + 1))
            h, w = (int(v) for v in rng.integers(max(1, k - 2 * p), 24, size=2))
            c_in, c_out = (int(v) for v in rng.integers(1, 40, size=2))
            self.assert_oracle_bytes(conv_case(rng, k, s, p, c_in, c_out, h, w))

    @pytest.mark.parametrize("out_h, out_w", [(1, 1), (1, 7), (9, 1), (2, 17)])
    def test_narrow_outputs(self, rng, out_h, out_w):
        for _ in range(25):
            k, s = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            p = int(rng.integers(0, (k + 1) // 2))  # larger pads widen a 1-cell side
            h, w = in_len(rng, out_h, k, s, p), in_len(rng, out_w, k, s, p)
            c_in, c_out = (int(v) for v in rng.integers(1, 65, size=2))
            case = conv_case(rng, k, s, p, c_in, c_out, h, w)
            assert _conv2d(*case, 0).shape[1:] == (out_h, out_w)
            self.assert_oracle_bytes(case)

    def test_single_cell_from_strided_input(self, rng):
        # a contiguous copy of this tap reorders einsum's channel sum
        self.assert_oracle_bytes(conv_case(rng, 1, 3, 0, 11, 23, 3, 1))

    def test_one_by_one_kernel_on_one_cell_input(self, rng):
        # the tap's view is contiguous here, so einsum would sum it in blocks
        for _ in range(40):
            s = int(rng.integers(1, 4))
            c_in, c_out = (int(v) for v in rng.integers(2, 65, size=2))
            self.assert_oracle_bytes(conv_case(rng, 1, s, 0, c_in, c_out, 1, 1))


class TestForwardRegion:
    def test_full_box_native_warp_equals_forward(self, rng):
        net = init_toynet(default_spec(3, seed=2))
        image = random_map(rng, 3, 20, 20)
        whole = forward(net, image)
        region = forward_region(net, image, PixelBox(0, 0, 19, 19), 20)
        assert np.array_equal(whole.values, region.values)

    def test_constant_image_translation_invariant(self):
        net = init_toynet(default_spec(1, seed=5))
        image = FeatureMap(np.full((1, 40, 40), 0.3, dtype=np.float32))
        a = forward_region(net, image, PixelBox(0, 0, 9, 9), 16)
        b = forward_region(net, image, PixelBox(25, 25, 34, 34), 16)
        assert np.array_equal(a.values, b.values)

    def test_box_outside_rejected(self, rng):
        net = init_toynet(default_spec(1, seed=5))
        image = random_map(rng, 1, 10, 10)
        with pytest.raises(ValidationError):
            forward_region(net, image, PixelBox(0, 0, 10, 9), 8)


class TestSpecIO:
    def test_json_round_trip(self, tmp_path):
        spec = default_spec(3, seed=11)
        path = tmp_path / "net.json"
        import json

        path.write_text(json.dumps(spec_to_json(spec)))
        assert load_spec(path) == spec

    def test_spec_file_bytes_pinned(self):
        assert canonical_json(spec_to_json(default_spec(3, seed=5))) == DEFAULT_SPEC_JSON

    def test_pool_layer_round_trip(self):
        spec = ToyNetSpec((ConvLayerSpec(3, 1, 1, 3, 4), PoolLayerSpec(2, 2, 0)), seed=1)
        obj = spec_to_json(spec)
        assert obj["layers"][1] == {"kind": "pool", "kernel": 2, "stride": 2, "pad": 0}
        assert spec_from_json(obj) == spec

    @pytest.mark.parametrize("seed", [1.7, "5", True, None])
    def test_seed_must_be_an_integer(self, seed):
        # "seed": 1.7 used to load as seed 1
        obj = spec_to_json(default_spec(3, seed=0))
        obj["seed"] = seed
        with pytest.raises(ValidationError, match="'seed'"):
            spec_from_json(obj)

    def test_seed_defaults_to_zero(self):
        obj = spec_to_json(default_spec(3, seed=0))
        del obj["seed"]
        assert spec_from_json(obj).seed == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            spec_from_json({"seed": 0, "layers": [{"kind": "norm", "kernel": 1,
                                                   "stride": 1, "pad": 0}]})
