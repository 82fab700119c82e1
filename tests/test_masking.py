import numpy as np
import pytest

from cfmseg.core import BinaryMask, SegmentProposal, ValidationError
from cfmseg.masking import _axis_runs, project_mask, vote
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry, feature_extent
from cfmseg.pipeline import scale_proposal
from conftest import project_one, random_mask, random_map
from oracles import (
    apply_mask,
    brute_force_project,
    per_block_project_mask,
    reduceat_project_mask,
)


def identity_geometry():
    return NetGeometry(1, 1, 0.0)


class TestProjectMask:
    def test_all_ones_projects_to_all_ones(self):
        m = BinaryMask(np.ones((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        fm = project_one(g, m, 4, 4)
        assert fm.bits.all()

    def test_all_zeros_projects_to_all_zeros(self):
        m = BinaryMask(np.zeros((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        assert not project_one(g, m, 4, 4).bits.any()

    def test_identity_geometry_keeps_columns(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[:, :2] = True
        fm = project_one(identity_geometry(), BinaryMask(bits), 4, 4)
        assert np.array_equal(fm.bits, bits)

    def test_stride_two_halves_columns(self):
        # pixels {0,1}->u0, {2,3}->u1, {4,5}->u2, {6,7}->u3 with ties downward
        bits = np.zeros((1, 8), dtype=bool)
        bits[0, :4] = True
        fm = project_one(NetGeometry(2, 3, 0.0), BinaryMask(bits), 1, 4)
        assert fm.bits.tolist() == [[True, True, False, False]]

    def test_zero_dims_rejected(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            project_one(identity_geometry(), m, 0, 2)

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
            fm = project_one(g, BinaryMask(bits), fh, fw)
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
            fast = project_one(g, m, fh, fw)
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
            got = project_one(g, block, fh, fw, (y, x), frame)
            full = project_one(g, BinaryMask(padded), fh, fw)
            assert np.array_equal(got.bits, full.bits)
            own = project_one(g, block, fh, fw, (0, 0), (h, w))
            assert np.array_equal(own.bits, project_one(g, block, fh, fw).bits)

    def test_coverage_monotonicity(self, rng):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)])
        for _ in range(50):
            a = random_mask(rng, 12, 12, density=0.3)
            extra = random_mask(rng, 12, 12, density=0.2)
            b = BinaryMask(a.bits | extra.bits)
            fa = project_one(g, a, 6, 6)
            fb = project_one(g, b, 6, 6)
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
            got = project_one(g, block, fh, fw, (y, x), frame)
            want = reduceat_project_mask(g, block, fh, fw, (y, x), frame)
            assert np.array_equal(got.bits, want.bits)
            sizes = np.concatenate([np.subtract(*_axis_runs(g, n, cells)[::-1])
                                    for n, cells in zip(frame, (fh, fw))])
            seen["edge block"] += y in (0, frame[0] - h) or x in (0, frame[1] - w)
            seen["clamped cell"] += bool((sizes > stride).any())
            seen["empty run"] += bool((sizes == 0).any())
            seen["half offset"] += g.offset != int(g.offset)
        assert min(seen.values()) >= 300, seen


class TestBatchProjection:
    """project_mask over a batch of blocks against the per-block oracle, each
    whole-grid vote cropped to the block's window."""

    @staticmethod
    def window(rng, g, box, fh, fw, kind: str):
        """The block's feature_extent window, or a random one anywhere in the grid."""
        if kind == "extent":
            return tuple(feature_extent(g, np.array([box]), fh, fw)[0].tolist())
        (y0, y1), (x0, x1) = (np.sort(rng.integers(0, n, size=2)).tolist() for n in (fh, fw))
        return y0, x0, y1, x1

    def test_matches_per_block_oracle(self, rng):
        seen = dict.fromkeys(["edge block", "empty run", "half offset", "batch of one",
                              "mixed shapes", "cell outside runs"], 0)
        for case in range(1500):
            stride = (1, 2, 8)[case % 3]
            g = NetGeometry(stride, stride, int(rng.integers(-12, 25)) / 2)
            frame = tuple(int(v) for v in rng.integers(1, 70, size=2))
            fh, fw = (max(1, int(n / stride * rng.uniform(0.3, 1.6))) for n in frame)
            blocks, origins, windows = [], [], []
            for _ in range(int(rng.choice([1, rng.integers(2, 9)]))):
                h, w = (int(rng.integers(1, n + 1)) for n in frame)
                y, x = (int(rng.choice([0, n - k, rng.integers(0, n - k + 1)]))
                        for n, k in zip(frame, (h, w)))
                blocks.append(rng.random((h, w)) < rng.random())
                origins.append((y, x))
                box = (y, x, y + h - 1, x + w - 1)
                windows.append(self.window(rng, g, box, fh, fw,
                                           ("extent", "random")[case % 2]))
            got = project_mask(g, blocks, origins, frame, fh, fw, windows)
            want = per_block_project_mask(g, blocks, origins, frame, fh, fw, windows)
            assert len(got) == len(blocks)
            for a, b, (y0, x0, y1, x1) in zip(got, want, windows):
                assert a.dtype == bool and a.shape == (y1 - y0 + 1, x1 - x0 + 1)
                assert np.array_equal(a, b)
            runs = [_axis_runs(g, n, cells) for n, cells in zip(frame, (fh, fw))]
            for (y, x), bits, (y0, x0, y1, x1) in zip(origins, blocks, windows):
                # the cell of a pixel: the first run that ends after it
                first = [np.searchsorted(r[1], o, "right") for r, o in zip(runs, (y, x))]
                last = [np.searchsorted(r[1], o + n - 1, "right")
                        for r, o, n in zip(runs, (y, x), bits.shape)]
                seen["cell outside runs"] += (y0 < first[0] or x0 < first[1]
                                              or y1 > last[0] or x1 > last[1])
                seen["edge block"] += y in (0, frame[0] - bits.shape[0]) or x in (
                    0, frame[1] - bits.shape[1])
            seen["empty run"] += any(bool((r.sizes == 0).any()) for r in runs)
            seen["half offset"] += g.offset != int(g.offset)
            seen["batch of one"] += len(blocks) == 1
            seen["mixed shapes"] += len({b.shape for b in blocks}) > 1
        assert min(seen.values()) >= 300, seen

    def test_upscaled_blocks(self, rng):
        """Blocks that `scale_proposal` upscaled, as design calls project them."""
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)] * 3)  # stride 8
        for _ in range(40):
            src = tuple(int(v) for v in rng.integers(8, 40, size=2))
            dst = tuple(int(n * rng.uniform(1.5, 8)) for n in src)
            fh, fw = (-(-n // 8) for n in dst)
            proposals = []
            for i in range(int(rng.integers(1, 12))):
                h, w = (int(rng.integers(1, n + 1)) for n in src)
                y, x = (int(rng.integers(0, n - k + 1)) for n, k in zip(src, (h, w)))
                bits = rng.random((h, w)) < 0.6
                bits[0, 0] = True
                p = SegmentProposal(f"p{i}", BinaryMask(bits), origin=(y, x), frame=src)
                proposals.append(scale_proposal(p, *src, *dst))
            boxes = np.array([(p.box.y0, p.box.x0, p.box.y1, p.box.x1) for p in proposals])
            windows = feature_extent(g, boxes, fh, fw)
            blocks = [p.block.bits for p in proposals]
            got = project_mask(g, blocks, boxes[:, :2], dst, fh, fw, windows)
            want = per_block_project_mask(g, blocks, boxes[:, :2], dst, fh, fw, windows)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_empty_batch(self):
        assert project_mask(identity_geometry(), [], [], (4, 4), 4, 4, []) == []

    @pytest.mark.parametrize("origin, window, message", [
        ((0, 3), (0, 0, 3, 3), "frame"),  # a 2x2 block at column 3 of a 4x4 frame
        ((-1, 0), (0, 0, 3, 3), "frame"),
        ((0, 0), (0, 0, 4, 3), "grid"),  # row 4 of a 4x4 grid
        ((0, 0), (2, 0, 1, 3), "grid"),  # rows out of order
        ((0, 0), (0, -1, 3, 3), "grid"),
    ])
    def test_out_of_range_batch_rejected(self, origin, window, message):
        with pytest.raises(ValidationError, match=message):
            project_mask(identity_geometry(), [np.ones((2, 2), bool)], [origin], (4, 4),
                         4, 4, [window])


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
