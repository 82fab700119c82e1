import json
import math
from fractions import Fraction

import numpy as np
import pytest

from cfmseg.core import PixelBox, ValidationError
from cfmseg.netgeom import (
    LayerSpec,
    NetGeometry,
    compose_geometry,
    feature_extent,
    layers_from_json,
    load_layers,
)
from conftest import extent_one
from oracles import brute_force_geometry


def conv(k, s, p):
    return LayerSpec("conv", k, s, p)


def center(g: NetGeometry, u: int) -> float:
    """Image coordinate of the receptive-field center of feature index u."""
    return u * g.stride + g.offset


class TestComposeGeometry:
    def test_identity_layer(self):
        g = compose_geometry([conv(1, 1, 0)])
        assert (g.stride, g.rf_size, g.offset) == (1, 1, 0.0)
        assert center(g, 5) == 5

    def test_single_k3s2p1(self):
        g = compose_geometry([conv(3, 2, 1)])
        assert (g.stride, g.rf_size, g.offset) == (2, 3, 0.0)
        assert center(g, 3) == 6

    def test_stacked_k3s2p1(self):
        g = compose_geometry([conv(3, 2, 1), conv(3, 2, 1)])
        assert (g.stride, g.rf_size, g.offset) == (4, 7, 0.0)

    def test_half_pixel_pool(self):
        g = compose_geometry([LayerSpec("pool", 2, 2, 0)])
        assert (g.stride, g.rf_size, g.offset) == (2, 2, 0.5)
        assert center(g, 0) == 0.5

    def test_empty_stack_rejected(self):
        with pytest.raises(ValidationError):
            compose_geometry([])
        with pytest.raises(ValidationError):
            brute_force_geometry([])

    def test_matches_oracle_on_random_stacks(self, rng):
        for _ in range(300):
            depth = int(rng.integers(1, 6))
            layers = [
                LayerSpec(
                    "conv" if rng.random() < 0.5 else "pool",
                    int(rng.integers(1, 8)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(0, 4)),
                )
                for _ in range(depth)
            ]
            assert compose_geometry(layers) == brute_force_geometry(layers)

    def test_centers_are_arithmetic(self, rng):
        g = compose_geometry([conv(5, 3, 2), conv(3, 2, 0)])
        centers = [center(g, u) for u in range(10)]
        diffs = {b - a for a, b in zip(centers, centers[1:])}
        assert diffs == {float(g.stride)}


class TestFeatureExtent:
    def test_identity_geometry(self):
        g = NetGeometry(1, 1, 0.0)
        box = PixelBox(1, 1, 3, 2)
        assert extent_one(g, box, 8, 8) == PixelBox(1, 1, 3, 2)

    def test_stride_four(self):
        g = NetGeometry(4, 1, 0.0)
        got = extent_one(g, PixelBox(0, 0, 7, 0), 1, 8)
        assert (got.x0, got.x1) == (0, 2)

    def test_clamps_to_last_column(self):
        g = NetGeometry(4, 1, 0.0)
        # centers live at 0,4,8; a box past them clamps to the last cell
        got = extent_one(g, PixelBox(30, 0, 40, 0), 1, 3)
        assert (got.x0, got.x1) == (2, 2)
        assert got.width == 1

    def test_monotone_in_box(self, rng):
        g = compose_geometry([conv(3, 2, 1), conv(3, 2, 1)])
        for _ in range(100):
            x0, y0 = (int(v) for v in rng.integers(0, 20, size=2))
            x1 = x0 + int(rng.integers(0, 10))
            y1 = y0 + int(rng.integers(0, 10))
            inner = extent_one(g, PixelBox(x0, y0, x1, y1), 9, 9)
            outer = extent_one(
                g, PixelBox(max(0, x0 - 2), max(0, y0 - 1), x1 + 3, y1 + 2), 9, 9
            )
            assert outer.x0 <= inner.x0 and outer.y0 <= inner.y0
            assert outer.x1 >= inner.x1 and outer.y1 >= inner.y1

    def test_never_empty(self, rng):
        for _ in range(100):
            layers = [
                LayerSpec("conv", int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                          int(rng.integers(0, 3)))
            ]
            g = compose_geometry(layers)
            box = PixelBox(0, 0, int(rng.integers(0, 50)), int(rng.integers(0, 50)))
            fh, fw = (int(v) for v in rng.integers(1, 9, size=2))
            got = extent_one(g, box, fh, fw)
            assert 0 <= got.x0 <= got.x1 <= fw - 1
            assert 0 <= got.y0 <= got.y1 <= fh - 1


class TestFeatureExtentBatch:
    def test_matches_exact_per_box_formula(self, rng):
        """Each row is [floor((y0 - O) / S), floor((x0 - O) / S), ceil((y1 - O) / S),
        ceil((x1 - O) / S)], clamped to the grid, in exact rational arithmetic."""
        for _ in range(300):
            stride = int(rng.choice([1, 2, 3, 8, 16]))
            g = NetGeometry(stride, stride, int(rng.integers(-20, 40)) / 2)
            fh, fw = (int(v) for v in rng.integers(1, 30, size=2))
            lo = rng.integers(0, 200, size=(int(rng.integers(1, 20)), 2))
            boxes = np.concatenate([lo, lo + rng.integers(0, 60, size=lo.shape)], axis=1)
            before = boxes.copy()
            got = feature_extent(g, boxes, fh, fw)
            assert np.array_equal(boxes, before) and got.shape == boxes.shape

            def cell(coord, rounding, n):
                u = rounding((coord - Fraction(g.offset_x2, 2)) / g.stride)
                return min(max(u, 0), n - 1)

            want = [[cell(y0, math.floor, fh), cell(x0, math.floor, fw),
                     cell(y1, math.ceil, fh), cell(x1, math.ceil, fw)]
                    for y0, x0, y1, x1 in boxes.tolist()]
            assert got.tolist() == want

    def test_empty_batch_and_zero_dims(self):
        g = NetGeometry(2, 3, 0.5)
        assert feature_extent(g, np.empty((0, 4), np.int64), 4, 4).shape == (0, 4)
        with pytest.raises(ValidationError):
            feature_extent(g, np.zeros((1, 4), np.int64), 0, 4)


class TestConfigIO:
    def test_json_round_trip(self, tmp_path):
        layers = [
            {"kind": "conv", "kernel": 3, "stride": 2, "pad": 1},
            {"kind": "pool", "kernel": 2, "stride": 2, "pad": 0},
        ]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(layers))
        parsed = load_layers(path)
        assert parsed == [LayerSpec("conv", 3, 2, 1), LayerSpec("pool", 2, 2, 0)]

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError):
            layers_from_json([{"kind": "fc", "kernel": 1, "stride": 1, "pad": 0}])

    @pytest.mark.parametrize("field, value", [("kernel", None), ("stride", "2"),
                                              ("pad", 1.5), ("kernel", True)])
    def test_missing_or_non_integer_field_named(self, field, value):
        entry = {"kind": "conv", "kernel": 3, "stride": 2, "pad": 1, field: value}
        if value is None:
            del entry[field]
        with pytest.raises(ValidationError, match=repr(field)):
            layers_from_json([entry])

    def test_non_object_entry_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            layers_from_json([[3, 2, 1]])
