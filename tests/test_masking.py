import numpy as np
import pytest

from cfmseg.core import BinaryMask, FeatureMap, ValidationError
from cfmseg.masking import _axis_runs, project_mask, vote
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry
from conftest import random_mask, random_map
from oracles import apply_mask, brute_force_project, reduceat_project_mask


def identity_geometry():
    return NetGeometry(1, 1, 0.0)


class TestProjectMask:
    def test_all_ones_projects_to_all_ones(self):
        m = BinaryMask(np.ones((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        fm = project_mask(g, m, 4, 4)
        assert fm.bits.all()

    def test_all_zeros_projects_to_all_zeros(self):
        m = BinaryMask(np.zeros((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        assert not project_mask(g, m, 4, 4).bits.any()

    def test_identity_geometry_keeps_columns(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[:, :2] = True
        fm = project_mask(identity_geometry(), BinaryMask(bits), 4, 4)
        assert np.array_equal(fm.bits, bits)

    def test_stride_two_halves_columns(self):
        # pixels {0,1}->u0, {2,3}->u1, {4,5}->u2, {6,7}->u3 with ties downward
        bits = np.zeros((1, 8), dtype=bool)
        bits[0, :4] = True
        fm = project_mask(NetGeometry(2, 3, 0.0), BinaryMask(bits), 1, 4)
        assert fm.bits.tolist() == [[True, True, False, False]]

    def test_zero_dims_rejected(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            project_mask(identity_geometry(), m, 0, 2)

    def test_single_pixel_sets_at_most_one_cell(self, rng):
        for _ in range(50):
            h, w = (int(v) for v in rng.integers(4, 16, size=2))
            bits = np.zeros((h, w), dtype=bool)
            bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
            g = compose_geometry(
                [LayerSpec("conv", int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                           int(rng.integers(0, 3)))]
            )
            fh = max(1, h // g.stride)
            fw = max(1, w // g.stride)
            fm = project_mask(g, BinaryMask(bits), fh, fw)
            assert fm.bits.sum() <= 1
            assert np.array_equal(
                fm.bits, brute_force_project(g, BinaryMask(bits), fh, fw).bits
            )

    @staticmethod
    def confined(rng, bits: np.ndarray, kind: str) -> np.ndarray:
        """bits kept only inside a random sub-rectangle, a corner, one row or nowhere."""
        h, w = bits.shape
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        y1, x1 = int(rng.integers(y0, h)), int(rng.integers(x0, w))
        if kind == "corner":
            y0, x0 = y1, x1 = (0, 0) if rng.random() < 0.5 else (h - 1, w - 1)
            bits = np.ones_like(bits)
        elif kind == "row":
            y1, x0, x1 = y0, 0, w - 1
        out = np.zeros_like(bits)
        if kind != "empty":
            out[y0 : y1 + 1, x0 : x1 + 1] = bits[y0 : y1 + 1, x0 : x1 + 1]
        return out

    def test_matches_oracle_on_random_cases(self, rng):
        for i in range(500):
            kind = ("dense", "rect", "corner", "row", "empty")[i % 5]
            depth = int(rng.integers(1, 4))
            layers = [
                LayerSpec(
                    "conv" if rng.random() < 0.5 else "pool",
                    int(rng.integers(1, 5)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(0, 3)),
                )
                for _ in range(depth)
            ]
            g = compose_geometry(layers)
            h, w = (int(v) for v in rng.integers(3, 20, size=2))
            # up to 3 extra rows/columns of cells that no pixel is nearest to
            fh = max(1, int(np.ceil(h / g.stride))) + int(rng.integers(0, 4))
            fw = max(1, int(np.ceil(w / g.stride))) + int(rng.integers(0, 4))
            m = random_mask(rng, h, w, density=float(rng.random()))
            if kind != "dense":
                m = BinaryMask(self.confined(rng, m.bits, kind))
            fast = project_mask(g, m, fh, fw)
            slow = brute_force_project(g, m, fh, fw)
            assert np.array_equal(fast.bits, slow.bits)

    def test_block_projects_as_its_padded_frame(self, rng):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1), LayerSpec("pool", 2, 2, 0)])
        for _ in range(200):
            fh, fw = (int(v) for v in rng.integers(1, 12, size=2))
            frame = tuple(int(v) for v in rng.integers(1, 40, size=2))
            h, w = (int(rng.integers(1, n + 1)) for n in frame)
            y, x = (int(rng.integers(0, n - k + 1)) for n, k in zip(frame, (h, w)))
            block = random_mask(rng, h, w, density=float(rng.random()))
            padded = np.zeros(frame, dtype=bool)
            padded[y : y + h, x : x + w] = block.bits
            got = project_mask(g, block, fh, fw, (y, x), frame)
            full = project_mask(g, BinaryMask(padded), fh, fw)
            assert np.array_equal(got.bits, full.bits)
            own = project_mask(g, block, fh, fw, (0, 0), (h, w))
            assert np.array_equal(own.bits, project_mask(g, block, fh, fw).bits)

    def test_coverage_monotonicity(self, rng):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)])
        for _ in range(50):
            a = random_mask(rng, 12, 12, density=0.3)
            extra = random_mask(rng, 12, 12, density=0.2)
            b = BinaryMask(a.bits | extra.bits)
            fa = project_mask(g, a, 6, 6)
            fb = project_mask(g, b, 6, 6)
            # a subset-mask can only lose cells, never gain them over b
            assert not (fa.bits & ~fb.bits).any()


class TestReduceatOracle:
    """project_mask reads each block's runs from the cached pixel-to-cell lookup;
    the oracle finds them by binary search."""

    def test_matches_binary_search_runs(self, rng):
        seen = {"edge block": 0, "clamped cell": 0, "empty run": 0, "half offset": 0}
        for case in range(3000):
            stride = (1, 2, 8)[case % 3]
            g = NetGeometry(stride, stride, int(rng.integers(-12, 25)) / 2)
            frame = tuple(int(v) for v in rng.integers(1, 70, size=2))
            # from too few cells (the border ones collect the clamped pixels) to
            # more cells than pixels (runs past the frame's end are empty)
            fh, fw = (max(1, int(n / stride * rng.uniform(0.3, 1.6))) for n in frame)
            h, w = (int(rng.integers(1, n + 1)) for n in frame)
            y, x = (int(rng.choice([0, n - k, rng.integers(0, n - k + 1)]))
                    for n, k in zip(frame, (h, w)))
            block = BinaryMask(rng.random((h, w)) < rng.random())
            got = project_mask(g, block, fh, fw, (y, x), frame)
            want = reduceat_project_mask(g, block, fh, fw, (y, x), frame)
            assert np.array_equal(got.bits, want.bits)
            sizes = np.concatenate([np.subtract(*_axis_runs(g, n, cells)[::-1])
                                    for n, cells in zip(frame, (fh, fw))])
            seen["edge block"] += y in (0, frame[0] - h) or x in (0, frame[1] - w)
            seen["clamped cell"] += bool((sizes > stride).any())
            seen["empty run"] += bool((sizes == 0).any())
            seen["half offset"] += g.offset != int(g.offset)
        assert min(seen.values()) >= 300, seen


class TestVote:
    def test_exactly_half_is_set_less_is_not(self):
        bits = np.zeros((2, 4), dtype=bool)
        bits[0, :2] = True  # left 2x2 rectangle: 2 of 4 entries set
        bits[1, 2] = True   # right 2x2 rectangle: 1 of 4 entries set
        rows = (np.array([0]), np.array([2]))
        cols = (np.array([0, 2]), np.array([2, 4]))
        assert vote(bits, rows, cols).tolist() == [[True, False]]

    def test_empty_rectangle_stays_unset(self):
        bits = np.ones((3, 3), dtype=bool)
        rows = (np.array([0, 2, 3]), np.array([2, 2, 3]))
        cols = (np.array([0, 1]), np.array([3, 1]))
        assert vote(bits, rows, cols).tolist() == [
            [True, False], [False, False], [False, False]
        ]

    def test_rectangles_beyond_the_set_extent(self):
        bits = np.zeros((6, 6), dtype=bool)
        bits[2:4, 2:4] = True
        rows = cols = (np.array([0, 2, 4]), np.array([2, 4, 6]))
        expected = np.zeros((3, 3), dtype=bool)
        expected[1, 1] = True
        assert np.array_equal(vote(bits, rows, cols), expected)


class TestApplyMask:
    def test_full_mask_is_identity(self, rng):
        f = random_map(rng, 3, 5, 5)
        m = BinaryMask(np.ones((5, 5), dtype=bool))
        assert np.array_equal(apply_mask(f, m).values, f.values)

    def test_zero_mask_zeroes_everything(self, rng):
        f = random_map(rng, 3, 5, 5)
        m = BinaryMask(np.zeros((5, 5), dtype=bool))
        assert not apply_mask(f, m).values.any()

    def test_single_cell_survives(self, rng):
        f = random_map(rng, 4, 6, 6)
        bits = np.zeros((6, 6), dtype=bool)
        bits[2, 3] = True
        out = apply_mask(f, BinaryMask(bits))
        assert np.array_equal(out.values[:, 2, 3], f.values[:, 2, 3])
        zeroed = out.values.copy()
        zeroed[:, 2, 3] = 0
        assert not zeroed.any()

    def test_idempotent(self, rng):
        f = random_map(rng, 2, 4, 4)
        m = BinaryMask(rng.random((4, 4)) < 0.5)
        once = apply_mask(f, m)
        twice = apply_mask(once, m)
        assert np.array_equal(once.values, twice.values)

    def test_input_unchanged(self, rng):
        f = random_map(rng, 2, 4, 4)
        before = f.values.copy()
        apply_mask(f, BinaryMask(np.zeros((4, 4), dtype=bool)))
        assert np.array_equal(f.values, before)

    def test_dim_mismatch_rejected(self, rng):
        f = random_map(rng, 2, 4, 4)
        with pytest.raises(ValidationError):
            apply_mask(f, BinaryMask(np.ones((4, 5), dtype=bool)))
