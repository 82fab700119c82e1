import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    PixelBox,
    ValidationError,
    proposal_from_mask,
)
from cfmseg.formats import load_vector
from cfmseg.netgeom import compose_geometry, LayerSpec
from cfmseg.pooling import (
    PooledFeature,
    PyramidSpec,
    _pyramid_plan,
    design_a_features,
    design_b_features,
    downsample_mask_to_grid,
    save_pooled_feature,
    spp_pool,
    spp_pool_windows,
)
from conftest import extent_one, own_scale, project_one, random_map, random_mask, rect_mask
from oracles import per_window_pool


def formula_bins(w: int, n: int) -> list[tuple[int, int]]:
    """The n pyramid bins over a window of length w: bin j spans
    [floor(j*w/n), ceil((j+1)*w/n)), written out."""
    return [(j * w // n, -(-(j + 1) * w // n)) for j in range(n)]


def plan_bins(w: int, n: int) -> list[tuple[int, int]]:
    """The [start, end) ranges that the pooling plan gives an n-bin level over w rows."""
    (starts, ends), _ = _pyramid_plan(w, 1, (n,))[0]
    return list(zip(starts.tolist(), ends.tolist()))


class TestBinBoundaries:
    def test_unit_bins(self):
        assert plan_bins(6, 6) == formula_bins(6, 6) == [(i, i + 1) for i in range(6)]

    def test_degenerate_window(self):
        assert plan_bins(1, 3) == formula_bins(1, 3) == [(0, 1), (0, 1), (0, 1)]

    def test_overlapping_bins(self):
        assert plan_bins(5, 3) == formula_bins(5, 3) == [(0, 2), (1, 4), (3, 5)]

    def test_bins_cover_and_are_non_empty(self, rng):
        for _ in range(200):
            w = int(rng.integers(1, 40))
            n = int(rng.integers(1, 12))
            bins = plan_bins(w, n)
            assert bins == formula_bins(w, n)
            assert all(e > s for s, e in bins)
            covered = set()
            for s, e in bins:
                covered.update(range(s, e))
            assert covered == set(range(w))


class TestPyramidSpec:
    @pytest.mark.parametrize("levels", [(1, 6), (6, 2, 3, 1), (3, 3, 1), (2, 2)])
    def test_levels_must_descend_strictly(self, levels):
        # design B blanks levels[0] as the finest grid; (1, 6) used to blank the
        # 1x1 bin from a 1x1 vote
        with pytest.raises(ValidationError, match="descend"):
            PyramidSpec(levels)


class TestSppPool:
    def test_constant_map(self):
        f = FeatureMap(np.full((3, 7, 9), 2.5, dtype=np.float32))
        pooled = spp_pool(f, PixelBox(1, 1, 6, 5), PyramidSpec())
        assert np.all(pooled.values == 2.5)

    def test_single_cell_window(self, rng):
        f = random_map(rng, 4, 6, 6)
        pooled = spp_pool(f, PixelBox(2, 3, 2, 3), PyramidSpec((2, 1)))
        expected = f.values[:, 3, 2]
        assert np.array_equal(pooled.values.reshape(-1, 4), np.tile(expected, (5, 1)))

    def test_default_pyramid_length(self, rng):
        f = random_map(rng, 5, 10, 12)
        pooled = spp_pool(f, PixelBox(0, 0, 11, 9), PyramidSpec())
        assert pooled.values.size == 50 * 5

    def test_window_outside_rejected(self, rng):
        f = random_map(rng, 1, 4, 4)
        with pytest.raises(ValidationError):
            spp_pool(f, PixelBox(0, 0, 4, 3), PyramidSpec((1,)))

    def test_translation_consistency(self, rng):
        f = random_map(rng, 3, 9, 9)
        window = PixelBox(2, 3, 7, 8)
        cropped = FeatureMap(f.values[:, 3:9, 2:8])
        a = spp_pool(f, window, PyramidSpec((3, 2)))
        b = spp_pool(cropped, PixelBox(0, 0, 5, 5), PyramidSpec((3, 2)))
        assert np.array_equal(a.values, b.values)

    def test_max_pool_monotone(self, rng):
        f = random_map(rng, 2, 6, 6)
        bumped = f.values.copy()
        bumped[1, 2, 2] += 1.0
        a = spp_pool(f, PixelBox(0, 0, 5, 5), PyramidSpec())
        b = spp_pool(FeatureMap(bumped), PixelBox(0, 0, 5, 5), PyramidSpec())
        assert np.all(b.values >= a.values)


def per_bin_loop_pool(f: FeatureMap, window: PixelBox, pyr: PyramidSpec) -> PooledFeature:
    """Reference: one np.max per bin, the loop that spp_pool replaced."""
    region = f.values[:, window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    blocks = []
    for n in pyr.levels:
        row_bins = formula_bins(window.height, n)
        col_bins = formula_bins(window.width, n)
        level = np.empty((n * n, f.channels), dtype=np.float32)
        for j, (ys, ye) in enumerate(row_bins):
            for i, (xs, xe) in enumerate(col_bins):
                level[j * n + i] = region[:, ys:ye, xs:xe].max(axis=(1, 2))
        blocks.append(level.reshape(-1))
    return PooledFeature(np.concatenate(blocks), pyr, f.channels)


class TestSppPoolOracle:
    @staticmethod
    def random_window(rng, h, w, kind):
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        y1, x1 = int(rng.integers(y0, h)), int(rng.integers(x0, w))
        if kind == "edges":  # pin a random non-empty subset of the four sides
            sides = rng.permutation(4)[: int(rng.integers(1, 5))]
            x0 = 0 if 0 in sides else x0
            y0 = 0 if 1 in sides else y0
            x1 = w - 1 if 2 in sides else x1
            y1 = h - 1 if 3 in sides else y1
        elif kind == "thin":  # one cell wide or one cell tall
            if rng.random() < 0.5:
                x1 = x0
            else:
                y1 = y0
        elif kind == "short":  # shorter than the finest level along an axis
            y1 = min(y1, y0 + int(rng.integers(0, 4)))
            x1 = min(x1, x0 + int(rng.integers(0, 4)))
        return PixelBox(x0, y0, x1, y1)

    def test_matches_per_bin_loop(self, rng):
        kinds = ("any", "edges", "thin", "short")
        seen = {"overlapping bins": 0, "whole map": 0, "one cell wide": 0}
        for case in range(3200):
            c = int(rng.integers(1, 41))
            h, w = (int(v) for v in rng.integers(1, 71, size=2))
            values = rng.standard_normal((c, h, w)).astype(np.float32)
            if case % 3 == 0:
                values = np.maximum(values, 0.0)  # rectified: ties at +0.0
            f = FeatureMap(values)
            window = self.random_window(rng, h, w, kinds[case % 4])
            n_levels = int(rng.integers(1, 5))
            levels = sorted(rng.choice(np.arange(1, 10), n_levels, replace=False))
            pyr = PyramidSpec(tuple(int(n) for n in reversed(levels)))
            got = spp_pool(f, window, pyr).values
            assert got.tobytes() == per_bin_loop_pool(f, window, pyr).values.tobytes()
            seen["overlapping bins"] += min(window.height, window.width) < pyr.levels[0]
            seen["whole map"] += (window.width, window.height) == (w, h)
            seen["one cell wide"] += min(window.height, window.width) == 1
        assert min(seen.values()) >= 50, seen

    def test_plan_is_read_only_and_shared(self):
        plan = _pyramid_plan(7, 5, (6, 3, 2, 1))
        (row_bins, row_reads), (col_bins, col_reads), bins = plan
        arrays = [a for part in (row_bins, row_reads, col_bins, col_reads, bins)
                  for a in part if isinstance(a, np.ndarray)]
        assert len(arrays) == 12 and not any(a.flags.writeable for a in arrays)
        assert _pyramid_plan(7, 5, (6, 3, 2, 1)) is plan
        # a one-level plan's ranges are that level's bins, as the grid reads them
        (starts, ends), _ = _pyramid_plan(7, 5, (3,))[0]
        assert list(zip(starts.tolist(), ends.tolist())) == formula_bins(7, 3)


class TestSppPoolWindows:
    """The batched pool against one spp_pool call per window, byte for byte."""

    @staticmethod
    def tied_map(rng, c, h, w) -> FeatureMap:
        """Few distinct values, so maxima tie, with +0.0 and -0.0 among them."""
        values = rng.choice(np.array([-1.5, -0.5, -0.0, 0.0, 0.5, 2.0], np.float32),
                            size=(c, h, w))
        return FeatureMap(values)

    def test_matches_per_window_pool(self, rng):
        kinds = ("any", "edges", "thin", "short")
        seen = {"one cell": 0, "overlapping bins": 0, "whole map": 0, "-0.0 read": 0}
        for case in range(400):
            c = int(rng.integers(1, 9))
            h, w = (int(v) for v in rng.integers(1, 48, size=2))
            make = (random_map, self.tied_map)[case % 2]
            f = make(rng, c, h, w)
            levels = sorted(rng.choice(np.arange(1, 10), int(rng.integers(1, 5)),
                                       replace=False))
            pyr = PyramidSpec(tuple(int(n) for n in reversed(levels)))
            boxes = [TestSppPoolOracle.random_window(rng, h, w, kinds[i % 4])
                     for i in range(int(rng.integers(1, 40)))]
            boxes += [PixelBox(0, 0, w - 1, h - 1)] * int(rng.integers(0, 2))
            x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
            boxes.append(PixelBox(x, y, x, y))
            windows = [(b.y0, b.x0, b.y1, b.x1) for b in boxes]
            got = spp_pool_windows(f, windows, pyr)
            assert got.dtype == np.float32
            assert got.tobytes() == per_window_pool(f, windows, pyr).tobytes()
            seen["one cell"] += sum(b.area == 1 for b in boxes)
            seen["overlapping bins"] += sum(min(b.height, b.width) < pyr.levels[0]
                                            for b in boxes)
            seen["whole map"] += (PixelBox(0, 0, w - 1, h - 1) in boxes)
            seen["-0.0 read"] += bool(np.signbit(f.values[f.values == 0]).any())
        assert min(seen.values()) >= 100, seen

    def test_windows_outside_the_map_rejected(self, rng):
        f = random_map(rng, 2, 5, 6)
        for window in [(0, 0, 5, 5), (0, 0, 4, 6), (-1, 0, 2, 2), (3, 0, 2, 2)]:
            with pytest.raises(ValidationError, match="windows"):
                spp_pool_windows(f, [(0, 0, 4, 5), window], PyramidSpec((2, 1)))

    def test_no_windows(self, rng):
        out = spp_pool_windows(random_map(rng, 3, 4, 4), [], PyramidSpec((2, 1)))
        assert out.shape == (0, 15) and out.dtype == np.float32

    def test_level_by_level_memory(self, rng):
        """Full-map windows of a 150 x 150 x 32 map (the 1200 scale on a 64^2 scene),
        among windows of every size: their (ky, kx) table would hold 8 x 8 maps."""
        f = random_map(rng, 32, 150, 150)
        boxes = [TestSppPoolOracle.random_window(rng, 150, 150, "any") for _ in range(300)]
        windows = [(0, 0, 149, 149)] * 8 + [(b.y0, b.x0, b.y1, b.x1) for b in boxes]
        pyr = PyramidSpec()
        tracemalloc.start()
        try:
            out = spp_pool_windows(f, windows, pyr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = 8 * 8 * f.values.nbytes
        assert peak < 4 * f.values.nbytes + 2 * out.nbytes + (1 << 20) < table / 8
        assert out.tobytes() == per_window_pool(f, windows, pyr).tobytes()


def window_crop(m: BinaryMask, window: PixelBox) -> np.ndarray:
    return m.bits[window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]


class TestMaskDownsampling:
    def test_full_and_empty(self):
        full = np.ones((12, 12), dtype=bool)
        assert downsample_mask_to_grid([full], 6).all()
        assert not downsample_mask_to_grid([~full], 6).any()

    def test_half_window(self):
        bits = np.zeros((12, 12), dtype=bool)
        bits[:, :6] = True
        grid = downsample_mask_to_grid([bits], 6)
        assert np.array_equal(grid[0], np.tile([True] * 3 + [False] * 3, (6, 1)))

    @staticmethod
    def per_bin_loop(m: BinaryMask, window: PixelBox, n: int) -> np.ndarray:
        """Reference: one thresholded count per bin, as the grid was first written."""
        region = m.bits[window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
        grid = np.zeros((n, n), dtype=bool)
        for j, (ys, ye) in enumerate(formula_bins(window.height, n)):
            for i, (xs, xe) in enumerate(formula_bins(window.width, n)):
                cells = region[ys:ye, xs:xe]
                grid[j, i] = 2 * int(cells.sum()) >= cells.size
        return grid

    def test_matches_per_bin_loop(self, rng):
        for _ in range(50):  # ~300 windows
            # one batch of windows of different sizes, some of one shape
            masks, windows = [], []
            for k in range(int(rng.integers(1, 12))):
                if not k or rng.random() < 0.5:  # else the last window on a new mask
                    h, w = (int(v) for v in rng.integers(1, 24, size=2))
                    y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
                    window = PixelBox(x0, y0, int(rng.integers(x0, w)),
                                      int(rng.integers(y0, h)))
                masks.append(random_mask(rng, h, w, density=float(rng.random())))
                windows.append(window)
            # n may exceed a window, so that bins overlap
            n = int(rng.integers(1, max(max(w.height, w.width) for w in windows) + 4))
            got = downsample_mask_to_grid(list(map(window_crop, masks, windows)), n)
            for grid, m, window in zip(got, masks, windows):
                assert np.array_equal(grid, self.per_bin_loop(m, window, n))


def default_setup(rng, h=32, w=32):
    g = compose_geometry([LayerSpec("conv", 3, 2, 1), LayerSpec("conv", 3, 2, 1)])
    fh, fw = h // g.stride, w // g.stride
    conv = FeatureMap(np.abs(random_map(rng, 4, fh, fw).values))  # rectified
    return g, conv


class TestDesigns:
    def test_design_a_full_image_mask_matches_box(self, rng):
        g, conv = default_setup(rng)
        mask = rect_mask(32, 32, 0, 31, 0, 31)
        p = proposal_from_mask("p", mask)
        box_f, seg_f = np.split(design_a_features(conv, *own_scale([p]), g, PyramidSpec())[0], 2)
        assert np.array_equal(box_f, seg_f)

    def test_design_a_pathways_differ_on_tight_interior_boxes(self, rng):
        # the window expands one cell past the box; those edge cells fall
        # under the 0.5 projection mean and are zeroed in the segment
        # pathway only, so the pathways agree exactly just for masks whose
        # projection covers the whole window (e.g. the full-image mask)
        g, conv = default_setup(rng)
        mask = rect_mask(32, 32, 4, 27, 6, 25)
        p = proposal_from_mask("p", mask)
        box_f, seg_f = np.split(design_a_features(conv, *own_scale([p]), g, PyramidSpec())[0], 2)
        assert not np.array_equal(box_f, seg_f)

    def test_design_a_sparse_mask_zeroes_segment_pathway(self, rng):
        g, conv = default_setup(rng)
        # one pixel per 4x4 projection bucket: every cell mean is 1/16 < 0.5,
        # so the projected mask is empty and the masked map pools to zero
        bits = np.zeros((32, 32), dtype=bool)
        bits[::4, ::4] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        box_f, seg_f = np.split(design_a_features(conv, *own_scale([p]), g, PyramidSpec((2, 1)))[0], 2)
        assert not seg_f.any()
        assert box_f.any()

    def test_design_lengths(self, rng):
        g, conv = default_setup(rng)
        p = proposal_from_mask("p", rect_mask(32, 32, 8, 23, 8, 23))
        box_f, seg_f = np.split(design_a_features(conv, *own_scale([p]), g, PyramidSpec())[0], 2)
        assert box_f.size == 50 * conv.channels
        assert seg_f.size == 50 * conv.channels
        b = design_b_features(conv, *own_scale([p]), g, PyramidSpec())[0]
        assert b.size == 50 * conv.channels

    def test_design_b_full_mask_is_plain_pool(self, rng):
        g, conv = default_setup(rng)
        mask = rect_mask(32, 32, 0, 31, 0, 31)
        p = proposal_from_mask("p", mask)
        window = extent_one(g, p.box, conv.height, conv.width)
        plain = spp_pool(conv, window, PyramidSpec())
        got = design_b_features(conv, *own_scale([p]), g, PyramidSpec())[0]
        assert np.array_equal(got, plain.values)

    def test_design_b_zeroes_only_unset_finest_bins(self, rng):
        g, conv = default_setup(rng)
        # left half of the image set: right-half finest bins must zero out
        bits = np.zeros((32, 32), dtype=bool)
        bits[:, :16] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        pyr = PyramidSpec()
        window = extent_one(g, p.box, conv.height, conv.width)
        plain = spp_pool(conv, window, pyr)
        got = design_b_features(conv, *own_scale([p]), g, pyr)[0]
        finest = pyr.levels[0]
        fmask = project_one(g, p.mask, conv.height, conv.width)
        grid = downsample_mask_to_grid([window_crop(fmask, window)], finest).reshape(-1)
        head_plain = plain.values[: finest * finest * conv.channels].reshape(-1, conv.channels)
        head_got = got[: finest * finest * conv.channels].reshape(-1, conv.channels)
        assert np.array_equal(head_got[grid], head_plain[grid])
        assert not head_got[~grid].any()
        tail = finest * finest * conv.channels
        assert np.array_equal(got[tail:], plain.values[tail:])


class TestPooledFeatureIO:
    def test_round_trip(self, tmp_path, rng):
        # the vector reads back as a plain vector; the sidecar is canonical JSON
        f = random_map(rng, 3, 8, 8)
        pooled = spp_pool(f, PixelBox(0, 0, 7, 7), PyramidSpec((3, 1)))
        path = tmp_path / "pooled.cfmt"
        save_pooled_feature(path, pooled)
        assert load_vector(path).tobytes() == pooled.values.tobytes()
        assert Path(str(path) + ".json").read_text() == (
            '{\n  "channels": 3,\n  "levels": [\n    3,\n    1\n  ]\n}\n')

    def test_length_invariant_enforced(self):
        with pytest.raises(ValidationError):
            PooledFeature(np.zeros(7, dtype=np.float32), PyramidSpec((2,)), 2)
