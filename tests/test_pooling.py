import numpy as np
import pytest

from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    PixelBox,
    ValidationError,
    proposal_from_mask,
)
from cfmseg.masking import project_mask
from cfmseg.netgeom import NetGeometry, compose_geometry, feature_extent, LayerSpec
from cfmseg.pooling import (
    PooledFeature,
    PyramidSpec,
    bin_boundaries,
    design_a_features,
    design_b_features,
    downsample_mask_to_grid,
    load_pooled_feature,
    save_pooled_feature,
    spp_pool,
)
from conftest import random_map, random_mask, rect_mask


class TestBinBoundaries:
    def test_unit_bins(self):
        assert bin_boundaries(6, 6) == [(i, i + 1) for i in range(6)]

    def test_degenerate_window(self):
        assert bin_boundaries(1, 3) == [(0, 1), (0, 1), (0, 1)]

    def test_overlapping_bins(self):
        assert bin_boundaries(5, 3) == [(0, 2), (1, 4), (3, 5)]

    def test_bins_cover_and_are_non_empty(self, rng):
        for _ in range(200):
            w = int(rng.integers(1, 40))
            n = int(rng.integers(1, 12))
            bins = bin_boundaries(w, n)
            assert all(e > s for s, e in bins)
            covered = set()
            for s, e in bins:
                covered.update(range(s, e))
            assert covered == set(range(w))


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


class TestMaskDownsampling:
    def test_full_and_empty(self):
        window = PixelBox(0, 0, 11, 11)
        full = BinaryMask(np.ones((12, 12), dtype=bool))
        empty = BinaryMask(np.zeros((12, 12), dtype=bool))
        assert downsample_mask_to_grid(full, window, 6).all()
        assert not downsample_mask_to_grid(empty, window, 6).any()

    def test_half_window(self):
        bits = np.zeros((12, 12), dtype=bool)
        bits[:, :6] = True
        grid = downsample_mask_to_grid(BinaryMask(bits), PixelBox(0, 0, 11, 11), 6)
        assert np.array_equal(grid, np.tile([True] * 3 + [False] * 3, (6, 1)))


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
        box_f, seg_f = design_a_features(conv, p, g, PyramidSpec())
        assert np.array_equal(box_f.values, seg_f.values)

    def test_design_a_pathways_differ_on_tight_interior_boxes(self, rng):
        # the window expands one cell past the box; those edge cells fall
        # under the 0.5 projection mean and are zeroed in the segment
        # pathway only, so the pathways agree exactly just for masks whose
        # projection covers the whole window (e.g. the full-image mask)
        g, conv = default_setup(rng)
        mask = rect_mask(32, 32, 4, 27, 6, 25)
        p = proposal_from_mask("p", mask)
        box_f, seg_f = design_a_features(conv, p, g, PyramidSpec())
        assert not np.array_equal(box_f.values, seg_f.values)

    def test_design_a_sparse_mask_zeroes_segment_pathway(self, rng):
        g, conv = default_setup(rng)
        # one pixel per 4x4 projection bucket: every cell mean is 1/16 < 0.5,
        # so the projected mask is empty and the masked map pools to zero
        bits = np.zeros((32, 32), dtype=bool)
        bits[::4, ::4] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        box_f, seg_f = design_a_features(conv, p, g, PyramidSpec((2, 1)))
        assert not seg_f.values.any()
        assert box_f.values.any()

    def test_design_lengths(self, rng):
        g, conv = default_setup(rng)
        p = proposal_from_mask("p", rect_mask(32, 32, 8, 23, 8, 23))
        box_f, seg_f = design_a_features(conv, p, g, PyramidSpec())
        assert box_f.values.size == 50 * conv.channels
        assert seg_f.values.size == 50 * conv.channels
        b = design_b_features(conv, p, g, PyramidSpec())
        assert b.values.size == 50 * conv.channels

    def test_design_b_full_mask_is_plain_pool(self, rng):
        g, conv = default_setup(rng)
        mask = rect_mask(32, 32, 0, 31, 0, 31)
        p = proposal_from_mask("p", mask)
        window = feature_extent(g, p.box, conv.height, conv.width)
        plain = spp_pool(conv, window, PyramidSpec())
        got = design_b_features(conv, p, g, PyramidSpec())
        assert np.array_equal(got.values, plain.values)

    def test_design_b_zeroes_only_unset_finest_bins(self, rng):
        g, conv = default_setup(rng)
        # left half of the image set: right-half finest bins must zero out
        bits = np.zeros((32, 32), dtype=bool)
        bits[:, :16] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        pyr = PyramidSpec()
        window = feature_extent(g, p.box, conv.height, conv.width)
        plain = spp_pool(conv, window, pyr)
        got = design_b_features(conv, p, g, pyr)
        finest = pyr.levels[0]
        fmask = project_mask(g, p.mask, conv.height, conv.width)
        grid = downsample_mask_to_grid(fmask, window, finest).reshape(-1)
        head_plain = plain.values[: finest * finest * conv.channels].reshape(-1, conv.channels)
        head_got = got.values[: finest * finest * conv.channels].reshape(-1, conv.channels)
        assert np.array_equal(head_got[grid], head_plain[grid])
        assert not head_got[~grid].any()
        tail = finest * finest * conv.channels
        assert np.array_equal(got.values[tail:], plain.values[tail:])


class TestPooledFeatureIO:
    def test_round_trip(self, tmp_path, rng):
        f = random_map(rng, 3, 8, 8)
        pooled = spp_pool(f, PixelBox(0, 0, 7, 7), PyramidSpec((3, 1)))
        path = tmp_path / "pooled.cfmt"
        save_pooled_feature(path, pooled)
        back = load_pooled_feature(path)
        assert np.array_equal(back.values, pooled.values)
        assert back.pyramid == pooled.pyramid
        assert back.channels == pooled.channels

    def test_length_invariant_enforced(self):
        with pytest.raises(ValidationError):
            PooledFeature(np.zeros(7, dtype=np.float32), PyramidSpec((2,)), 2)
