import tracemalloc

import numpy as np
import pytest

from cfmseg.core import (
    MAX_SIDE,
    FeatureMap,
    NearestResize,
    PixelBox,
    ValidationError,
    resize_nearest,
)
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
    _runs,
)
from conftest import random_map
from oracles import loop_conv2d, loop_forward

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


def full_conv(x, layer, w, b) -> np.ndarray:
    """The conv layer that `forward` runs, on a full map: every row and column
    its own run, so the output is full size too."""
    out, ids = _conv2d(x, (np.arange(x.shape[1]), np.arange(x.shape[2])), layer, w, b, 0)
    assert [len(a) for a in ids] == list(out.shape[1:])
    return out


class TestConvSumOrder:
    """The conv layer gives the bytes of the documented order on every layer shape."""

    @staticmethod
    def assert_oracle_bytes(case):
        x, layer, w, b = case
        got = full_conv(x, layer, w, b)
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
            assert full_conv(*case).shape[1:] == (out_h, out_w)
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


def pooled_net(seed: int = 4) -> ToyNet:
    """A padded pool first, so signed zeros of the input reach a max-pool."""
    spec = ToyNetSpec((PoolLayerSpec(2, 1, 1), ConvLayerSpec(3, 2, 1, 3, 6),
                       PoolLayerSpec(3, 2, 1), ConvLayerSpec(2, 1, 0, 6, 5)), seed=seed)
    return init_toynet(spec)


class TestForwardMatchesFullMaps:
    """forward, which computes one output per run of identical receptive fields,
    gives the bytes of the layer-by-layer pass over full maps."""

    @staticmethod
    def assert_oracle_bytes(net, values):
        values = np.asarray(values, dtype=np.float32)
        got = forward(net, FeatureMap(values)).values
        want = loop_forward(net, values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), values.shape

    @pytest.mark.parametrize("src, dst", [
        ((7, 5), (21, 20)),     # x3 rows, x4 columns
        ((6, 9), (23, 17)),     # non-integer on both axes
        ((5, 8), (40, 8)),      # rows only
        ((8, 3), (8, 29)),      # columns only
        ((4, 4), (56, 56)),     # a warp's x14
        ((1, 6), (12, 18)),     # one source row
        ((5, 1), (15, 9)),      # one source column
        ((1, 1), (10, 13)),     # one source cell
    ])
    def test_nearest_resizes(self, rng, src, dst):
        source = rng.standard_normal((3, *src)).astype(np.float32)
        values = resize_nearest(source, *dst)
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=6)), values)
        self.assert_oracle_bytes(pooled_net(), values)

    def test_constant_image(self):
        # every interior field is equal; only the pads tell the border apart
        values = np.full((3, 30, 26), 0.4, dtype=np.float32)
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=1)), values)
        self.assert_oracle_bytes(pooled_net(), values)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_neighbours_that_differ_in_one_value(self, rng, transpose):
        values = resize_nearest(rng.standard_normal((3, 6, 6)).astype(np.float32), 24, 24)
        values[2, 9, :] += 1.0   # row 9 equals row 8 except in channel 2
        values[1, 13, 5] -= 1.0  # row 13 equals row 12 except in column 5
        values[0, 17, 20] += 0.5  # row 17 equals row 16 except in channel 0, column 20
        if transpose:
            values = values.transpose(0, 2, 1).copy()
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=2)), values)
        self.assert_oracle_bytes(pooled_net(), values)

    def test_rows_differing_only_in_signed_zero(self, rng):
        values = resize_nearest(rng.standard_normal((3, 5, 5)).astype(np.float32), 20, 20)
        values[:, 4:8] = 0.0
        values[:, 6:8, ::3] = -0.0  # rows 5 and 6 differ only in the sign of zeros
        values[1, 12:16, 4] = 0.0
        values[1, 13, 4] = -0.0  # and rows 12 and 13 in the sign of one zero
        self.assert_oracle_bytes(pooled_net(), values)
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=3)), values)

    def test_signed_zeros_are_separate_runs(self):
        values = np.zeros((2, 4, 3), dtype=np.float32)
        values[1, 2] = -0.0
        assert _runs(values, 1).tolist() == [0, 0, 1, 2]
        assert _runs(values.transpose(0, 2, 1).copy(), 2).tolist() == [0, 0, 1, 2]

    def test_abab_rows(self, rng):
        a, b = rng.standard_normal((2, 3, 1, 18)).astype(np.float32)
        values = np.concatenate([a, a, b, b, a, a, b, b] * 2, axis=1)
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=4)), values)
        self.assert_oracle_bytes(init_toynet(default_spec(3, seed=4)),
                                 values.transpose(0, 2, 1))
        self.assert_oracle_bytes(pooled_net(), values)

    def test_random_layers_on_resized_inputs(self, rng):
        for _ in range(150):
            channels = int(rng.integers(1, 5))
            src = rng.integers(1, 7, size=2)
            dst = src * rng.integers(1, 5, size=2) + rng.integers(0, 3, size=2)
            source = rng.standard_normal((channels, *src)).astype(np.float32)
            values = resize_nearest(source, *(int(v) for v in dst))
            layers, c_in, sides = [], channels, values.shape[1:]
            for _ in range(int(rng.integers(1, 4))):
                k, s = int(rng.integers(1, 6)), int(rng.integers(1, 4))
                p = int(rng.integers(0, k))
                if layers and rng.random() < 0.4:
                    layer = PoolLayerSpec(k, s, p)
                else:
                    layer = ConvLayerSpec(k, s, p, c_in, int(rng.integers(1, 9)))
                if min(layer.out_len(n) for n in sides) < 1:
                    continue  # the map is too small for this layer
                layers.append(layer)
                c_in = getattr(layer, "out_channels", c_in)
                sides = [layer.out_len(n) for n in sides]
            if not layers:
                continue
            net = init_toynet(ToyNetSpec(tuple(layers), seed=int(rng.integers(0, 99))))
            self.assert_oracle_bytes(net, values)


def forward_outcome(net, image):
    try:
        out = forward(net, image).values
    except ValidationError as exc:
        return "error", str(exc)
    return out.shape, out.tobytes()


class TestNearestResizeForm:
    """forward reads a NearestResize from its source: the bytes of forwarding
    the built resize, on upscales, downscales, mixed and identity targets."""

    NETS = (init_toynet(default_spec(3, seed=7)), pooled_net())

    def assert_built_bytes(self, source, height, width):
        built = FeatureMap(resize_nearest(source, height, width))
        for net in self.NETS:
            got = forward_outcome(net, NearestResize(source, height, width))
            assert got == forward_outcome(net, built), (source.shape, height, width)

    @pytest.mark.parametrize("src, dst", [
        ((64, 64), (48, 48)),   # down on both axes
        ((40, 40), (16, 16)),   # a box larger than its warp
        ((10, 40), (24, 24)),   # rows up, columns down
        ((40, 10), (24, 24)),   # rows down, columns up
        ((9, 13), (9, 13)),     # identity
        ((1, 1), (7, 9)),       # one source cell
        ((1, 1), (1, 1)),
        ((30, 1), (4, 20)),     # one source column, rows down
    ])
    def test_fixed_shapes(self, rng, src, dst):
        self.assert_built_bytes(rng.standard_normal((3, *src)).astype(np.float32), *dst)

    def test_random_sources_and_targets(self, rng):
        for _ in range(120):
            src = rng.integers(1, 25, size=2)
            dst = [int(rng.choice([n, rng.integers(1, n + 1), n * rng.integers(1, 5)
                                   + rng.integers(0, 4)])) for n in src]
            source = rng.standard_normal((3, *src)).astype(np.float32)
            for view in (source, source.transpose(0, 2, 1)):  # rows, then columns
                for i in np.flatnonzero(rng.random(view.shape[1] - 1) < 0.4):
                    if rng.random() < 0.3:  # neighbours that differ only in a signed zero
                        view[:, i : i + 2] = 0.0
                        view[int(rng.integers(3)), i + 1, int(rng.integers(view.shape[2]))] = -0.0
                    else:  # bit-equal neighbours
                        view[:, i + 1] = view[:, i]
            self.assert_built_bytes(source, *dst)

    @pytest.mark.parametrize("source, height, width", [
        (np.zeros((3, 4, 4), np.float64), 8, 8),
        (np.zeros((4, 4), np.float32), 8, 8),
        (np.zeros((3, 4, 4), np.float32), 0, 8),
        (np.zeros((3, 4, 4), np.float32), 8, 0),
    ])
    def test_bad_form_rejected(self, source, height, width):
        with pytest.raises(ValidationError):
            NearestResize(source, height, width)


class TestForwardRegion:
    def test_largest_warp_is_never_built(self, rng):
        # the built 3 x 2048^2 float32 warp alone would be 48 MiB
        net = init_toynet(default_spec(3, seed=2))
        image = random_map(rng, 3, 8, 8)
        tracemalloc.start()
        try:
            out = forward_region(net, image, PixelBox(3, 4, 3, 4), MAX_SIDE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.height, out.width) == (MAX_SIDE // 8, MAX_SIDE // 8)
        assert peak < 24 * 2**20, peak

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
