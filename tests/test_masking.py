import numpy as np
import pytest

from cfmseg.core import BinaryMask, SegmentProposal, ValidationError, nearest_indices
from cfmseg.masking import project_mask, scaled_boxes, vote
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry, feature_extent
from cfmseg.pipeline import scale_proposal
from conftest import project_one, random_mask, random_map
from oracles import (
    apply_mask,
    axis_runs,
    brute_force_project,
    built_scaled_mask,
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
            sizes = np.concatenate([np.subtract(*axis_runs(g, n, cells)[::-1])
                                    for n, cells in zip(frame, (fh, fw))])
            seen["edge block"] += y in (0, frame[0] - h) or x in (0, frame[1] - w)
            seen["clamped cell"] += bool((sizes > stride).any())
            seen["empty run"] += bool((sizes == 0).any())
            seen["half offset"] += g.offset != int(g.offset)
        assert min(seen.values()) >= 300, seen


def keeps_any(bits, origin, frame, scaled) -> bool:
    """Whether the resize of the frame to the scaled one keeps a set pixel of the
    block at its origin."""
    sampled = []
    for o, n, src, dst in zip(origin, bits.shape, frame, scaled):
        ys = nearest_indices(src, dst)
        sampled.append(ys[(ys >= o) & (ys < o + n)] - o)
    return bool(bits[np.ix_(*sampled)].any())


def random_resize(rng, frame, kind: str):
    """The frame itself, or each axis grown up to 8x or shrunk to as little as 1/8."""
    if kind == "identity":
        return frame
    return tuple(max(1, int(n * rng.choice([rng.uniform(1 / 8, 1), rng.uniform(1, 8)])))
                 for n in frame)


class TestBatchProjection:
    """project_mask over a batch of source blocks against the per-block oracle,
    which builds each block's resize and projects it in the scaled frame, each
    whole-grid vote cropped to the block's window."""

    @staticmethod
    def window(rng, g, extent, fh, fw, kind: str):
        """feature_extent of the block's scaled extent, or a random window anywhere
        in the grid (also when the resize drops every row or column of the block)."""
        if kind == "extent" and extent is not None:
            return tuple(feature_extent(g, np.array([extent]), fh, fw)[0].tolist())
        (y0, y1), (x0, x1) = (np.sort(rng.integers(0, n, size=2)).tolist() for n in (fh, fw))
        return y0, x0, y1, x1

    @staticmethod
    def extent(origin, shape, frame, scaled):
        """Inclusive corners of the scaled pixels that sample the block, or None."""
        spans = []
        for o, n, src, dst in zip(origin, shape, frame, scaled):
            first, end = np.searchsorted(nearest_indices(src, dst), [o, o + n]).tolist()
            if first == end:
                return None
            spans.append((first, end - 1))
        (y0, y1), (x0, x1) = spans
        return y0, x0, y1, x1

    def test_matches_per_block_oracle(self, rng):
        seen = dict.fromkeys(["edge block", "empty run", "half offset", "batch of one",
                              "stacked", "identity", "up", "down", "vanished",
                              "cell outside runs"], 0)
        for case in range(1500):
            stride = (1, 2, 8)[case % 3]
            g = NetGeometry(stride, stride, int(rng.integers(-12, 25)) / 2)
            frame = tuple(int(v) for v in rng.integers(1, 40, size=2))
            scaled = random_resize(rng, frame, ("identity", "resize")[case % 4 > 0])
            fh, fw = (max(1, int(n / stride * rng.uniform(0.3, 1.6))) for n in scaled)
            one_shape = rng.random() < 0.5  # stacked blocks of one shape
            shape = [int(rng.integers(1, n + 1)) for n in frame]
            blocks, origins, windows = [], [], []
            for _ in range(int(rng.choice([1, rng.integers(2, 9)]))):
                h, w = shape if one_shape else (int(rng.integers(1, n + 1)) for n in frame)
                y, x = (int(rng.choice([0, n - k, rng.integers(0, n - k + 1)]))
                        for n, k in zip(frame, (h, w)))
                bits = rng.random((h, w)) < rng.random()
                if rng.random() < 0.2:  # a thin segment: one pixel, row or column
                    bits = np.zeros((h, w), bool)
                    bits[int(rng.integers(0, h)), int(rng.integers(0, w)):] = True
                blocks.append(bits)
                origins.append((y, x))
                extent = self.extent((y, x), (h, w), frame, scaled)
                windows.append(self.window(rng, g, extent, fh, fw,
                                           ("extent", "random")[case % 2]))
            got = project_mask(g, blocks, origins, frame, scaled, fh, fw, windows,
                               scaled_boxes(blocks, origins, frame, scaled))
            want = per_block_project_mask(g, blocks, origins, frame, scaled, fh, fw, windows)
            assert len(got) == len(blocks)
            for a, b, (y0, x0, y1, x1) in zip(got, want, windows):
                assert a.dtype == bool and a.shape == (y1 - y0 + 1, x1 - x0 + 1)
                assert np.array_equal(a, b)
            runs = [axis_runs(g, n, cells) for n, cells in zip(scaled, (fh, fw))]
            for (y, x), bits, (y0, x0, y1, x1) in zip(origins, blocks, windows):
                extent = self.extent((y, x), bits.shape, frame, scaled)
                if extent is not None:  # the cell of a pixel: the first run ending after it
                    first = [np.searchsorted(r[1], o, "right") for r, o in zip(runs, extent)]
                    last = [np.searchsorted(r[1], o, "right") for r, o in zip(runs, extent[2:])]
                    seen["cell outside runs"] += (y0 < first[0] or x0 < first[1]
                                                  or y1 > last[0] or x1 > last[1])
                seen["edge block"] += y in (0, frame[0] - bits.shape[0]) or x in (
                    0, frame[1] - bits.shape[1])
                seen["vanished"] += bool(bits.any()) and not keeps_any(bits, (y, x), frame,
                                                                       scaled)
            seen["empty run"] += any(bool((r[1] == r[0]).any()) for r in runs)
            seen["half offset"] += g.offset != int(g.offset)
            seen["batch of one"] += len(blocks) == 1
            keys = [(b.shape, w[2] - w[0], w[3] - w[1]) for b, w in zip(blocks, windows)]
            seen["stacked"] += len(set(keys)) < len(keys)
            seen["identity"] += scaled == frame
            seen["up"] += scaled[0] > frame[0] and scaled[1] > frame[1]
            seen["down"] += scaled[0] < frame[0] and scaled[1] < frame[1]
        assert min(seen.values()) >= 100, seen

    def test_stacks_larger_than_one_product(self, rng):
        """300 blocks of one shape and window shape (120,000 source pixels) take
        more than one stacked product of at most 2**16 pixels, and a 300 x 250
        block is multiplied in bands of rows."""
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)] * 3)  # stride 8
        frame, scaled, fh, fw = (300, 300), (600, 450), 75, 57
        blocks = [rng.random((20, 20)) < 0.5 for _ in range(300)]
        origins = [(8 * int(rng.integers(0, 5)), 8 * int(rng.integers(0, 5))) for _ in blocks]
        windows = [(y // 4, x // 4, y // 4 + 10, x // 4 + 10) for y, x in origins]
        blocks.append(rng.random((300, 250)) < 0.5)
        origins.append((0, 50))
        windows.append((0, 0, fh - 1, fw - 1))
        got = project_mask(g, blocks, origins, frame, scaled, fh, fw, windows,
                           scaled_boxes(blocks, origins, frame, scaled))
        want = per_block_project_mask(g, blocks, origins, frame, scaled, fh, fw, windows)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert got[-1].any() and not got[-1].all()

    def test_upscaled_blocks(self, rng):
        """Source blocks upscaled, with `scale_proposal`'s boxes' windows, as design
        calls project them."""
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)] * 3)  # stride 8
        for _ in range(40):
            src = tuple(int(v) for v in rng.integers(8, 40, size=2))
            dst = tuple(int(n * rng.uniform(1.5, 8)) for n in src)
            fh, fw = (-(-n // 8) for n in dst)
            proposals = []
            for i in range(int(rng.integers(1, 12))):
                h, w = (int(v) for v in rng.integers(1, np.array(src) + 1))
                y, x = (int(rng.integers(0, n - k + 1)) for n, k in zip(src, (h, w)))
                bits = rng.random((h, w)) < 0.6
                bits[0, 0] = True
                proposals.append(SegmentProposal(f"p{i}", BinaryMask(bits), origin=(y, x),
                                                 frame=src))
            boxes = scale_proposal(proposals, src, dst)
            windows = feature_extent(g, boxes, fh, fw)
            blocks, origins = [p.block.bits for p in proposals], [p.origin for p in proposals]
            got = project_mask(g, blocks, origins, src, dst, fh, fw, windows, boxes)
            want = per_block_project_mask(g, blocks, origins, src, dst, fh, fw, windows)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


    def test_empty_batch(self):
        assert project_mask(identity_geometry(), [], [], (4, 4), (4, 4), 4, 4, [], []) == []

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
                         (4, 4), 4, 4, [window], [(0, 0, 1, 1)])


class TestResizeOracle:
    """scale_proposal's windows and project_mask of the source blocks against
    brute_force_project of each built scaled whole-frame mask."""

    @staticmethod
    def source_bits(rng, kind: str, h: int, w: int) -> np.ndarray:
        bits = np.zeros((h, w), dtype=bool)
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        if kind == "pixel":
            bits[y, x] = True
        elif kind == "row":  # one-row and one-column segments: the thin ones that vanish
            bits[y, x : int(rng.integers(x, w)) + 1] = True
        elif kind == "column":
            bits[y : int(rng.integers(y, h)) + 1, x] = True
        else:
            y1, x1 = int(rng.integers(y, h)), int(rng.integers(x, w))
            bits[y : y1 + 1, x : x1 + 1] = rng.random((y1 - y + 1, x1 - x + 1)) < 0.6
            bits[y, x] = True
        return bits

    def test_matches_brute_force_on_built_mask(self, rng):
        kinds = ("pixel", "row", "column", "blob")
        seen = dict.fromkeys(["identity", "up", "down", "mixed", "vanished",
                              "one-pixel block", "one-row block"], 0)
        for case in range(240):
            stride = (1, 2, 4)[case % 3]
            g = NetGeometry(stride, stride + 2, int(rng.integers(-4, 9)) / 2)
            frame = tuple(int(v) for v in rng.integers(1, 17, size=2))
            kind = ("identity", "up", "down", "mixed", "any")[case % 5]
            if kind == "identity":
                scaled = frame
            elif kind == "up":
                scaled = tuple(int(n * rng.uniform(1, 3)) + 1 for n in frame)
            elif kind == "down":
                scaled = tuple(max(1, int(n * rng.uniform(0.1, 1))) for n in frame)
            elif kind == "mixed":  # one axis grown, the other shrunk
                up = int(rng.integers(0, 2))
                scaled = tuple(int(n * rng.uniform(1, 3)) + 1 if axis == up
                               else max(1, int(n * rng.uniform(0.1, 1)))
                               for axis, n in enumerate(frame))
            else:
                scaled = random_resize(rng, frame, "resize")
            fh, fw = (max(1, -(-n // stride)) + int(rng.integers(0, 2)) for n in scaled)
            proposals = [
                SegmentProposal(f"p{i}", BinaryMask(self.source_bits(rng, kinds[i % 4], *frame)))
                for i in range(int(rng.integers(1, 6)))
            ]
            boxes = scale_proposal(proposals, frame, scaled)
            windows = feature_extent(g, boxes, fh, fw)
            crops = project_mask(g, [p.block.bits for p in proposals],
                                 [p.origin for p in proposals], frame, scaled, fh, fw, windows,
                                 boxes)
            for p, box, (y0, x0, y1, x1), crop in zip(proposals, boxes.tolist(), windows.tolist(),
                                                       crops):
                built = built_scaled_mask(p, scaled)
                rows, cols = np.flatnonzero(built.any(1)), np.flatnonzero(built.any(0))
                assert box == [rows[0], cols[0], rows[-1], cols[-1]]
                want = brute_force_project(g, BinaryMask(built), fh, fw).bits
                assert np.array_equal(crop, want[y0 : y1 + 1, x0 : x1 + 1])
                seen["vanished"] += not keeps_any(p.block.bits, p.origin, frame, scaled)
                seen["one-pixel block"] += p.block.bits.size == 1
                seen["one-row block"] += p.block.bits.shape[0] == 1
            seen["identity"] += scaled == frame
            seen["up"] += scaled[0] > frame[0] and scaled[1] > frame[1]
            seen["down"] += scaled[0] < frame[0] and scaled[1] < frame[1]
            seen["mixed"] += (scaled[0] - frame[0]) * (scaled[1] - frame[1]) < 0
        assert min(seen.values()) >= 20, seen


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
