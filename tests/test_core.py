import numpy as np
import pytest

from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    LabelMap,
    PixelBox,
    SegmentProposal,
    ValidationError,
    bbox_of,
    mask_iou,
    proposal_from_mask,
    resize_nearest,
    suppress,
)
from conftest import random_mask, rect_mask


class TestMaskIou:
    def test_identity_is_one(self):
        m = rect_mask(4, 4, 1, 2, 1, 3)
        assert mask_iou(m, m) == 1.0

    def test_disjoint_is_zero(self):
        a = rect_mask(4, 4, 0, 1, 0, 1)
        b = rect_mask(4, 4, 2, 3, 2, 3)
        assert mask_iou(a, b) == 0.0

    def test_shifted_blocks(self):
        # 2x2 blocks offset by one column: intersection 2, union 6
        a = rect_mask(4, 4, 0, 1, 0, 1)
        b = rect_mask(4, 4, 0, 1, 1, 2)
        assert mask_iou(a, b) == pytest.approx(2 / 6)

    def test_empty_union_is_zero(self):
        a = BinaryMask(np.zeros((3, 3), dtype=bool))
        assert mask_iou(a, a) == 0.0

    def test_dimension_mismatch_rejected(self):
        a = rect_mask(4, 4, 0, 1, 0, 1)
        b = rect_mask(4, 5, 0, 1, 0, 1)
        with pytest.raises(ValidationError):
            mask_iou(a, b)

    def test_symmetry_and_monotonicity(self, rng):
        for _ in range(50):
            a = random_mask(rng, 8, 8)
            b = random_mask(rng, 8, 8)
            assert mask_iou(a, b) == mask_iou(b, a)
            # adding pixels shared by both masks never lowers the score
            extra = random_mask(rng, 8, 8, density=0.2)
            a2 = BinaryMask(a.bits | extra.bits)
            b2 = BinaryMask(b.bits | extra.bits)
            assert mask_iou(a2, b2) >= mask_iou(a, b) - 1e-12


class TestBboxOf:
    def test_full_mask(self):
        assert bbox_of(rect_mask(5, 5, 0, 4, 0, 4)) == PixelBox(0, 0, 4, 4)

    def test_single_pixel(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[2, 3] = True
        assert bbox_of(BinaryMask(bits)) == PixelBox(3, 2, 3, 2)

    def test_two_pixels(self):
        bits = np.zeros((5, 5), dtype=bool)
        bits[0, 0] = True
        bits[2, 4] = True
        assert bbox_of(BinaryMask(bits)) == PixelBox(0, 0, 4, 2)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValidationError):
            bbox_of(BinaryMask(np.zeros((3, 3), dtype=bool)))

    def test_box_covers_all_set_pixels(self, rng):
        for _ in range(50):
            m = random_mask(rng, 9, 7, density=0.3)
            if not m.bits.any():
                continue
            box = bbox_of(m)
            ys, xs = np.nonzero(m.bits)
            assert box.x0 == xs.min() and box.x1 == xs.max()
            assert box.y0 == ys.min() and box.y1 == ys.max()


class TestTypes:
    def test_pixel_box_rejects_disorder(self):
        with pytest.raises(ValidationError):
            PixelBox(3, 0, 2, 1)
        with pytest.raises(ValidationError):
            PixelBox(-1, 0, 2, 1)

    def test_box_derived_from_mask(self, rng):
        p = SegmentProposal("p", rect_mask(6, 6, 1, 3, 1, 3))
        assert p.box == PixelBox(1, 1, 3, 3)
        assert p.area == 9
        for _ in range(20):
            m = random_mask(rng, 9, 7, density=0.2)
            if m.bits.any():
                assert proposal_from_mask("q", m).box == bbox_of(m)
        with pytest.raises(TypeError):
            SegmentProposal("p", p.mask, PixelBox(0, 0, 5, 5))
        with pytest.raises(ValidationError):
            SegmentProposal("p", BinaryMask(np.zeros((3, 3), dtype=bool)))

    def test_feature_map_rejects_non_finite(self):
        bad = np.zeros((1, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            FeatureMap(bad)

    def test_values_are_immutable(self):
        fm = FeatureMap(np.zeros((1, 2, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fm.values[0, 0, 0] = 1.0
        m = rect_mask(2, 2, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            m.bits[0, 0] = False

    def test_label_map_checks_categories(self):
        lm = LabelMap(np.array([[0, 3]], dtype=np.uint16))
        lm.check_categories(4)
        with pytest.raises(ValidationError):
            lm.check_categories(3)


class TestSuppress:
    def test_default_picks_first_remaining(self):
        a = rect_mask(8, 8, 0, 3, 0, 3)
        b = rect_mask(8, 8, 0, 3, 0, 2)  # IoU 0.75 with a
        c = rect_mask(8, 8, 5, 7, 5, 7)  # disjoint from both
        d = rect_mask(8, 8, 5, 7, 5, 6)  # IoU 2/3 with c
        assert suppress([a, b, c, d], 0.5) == [0, 2]
        assert suppress([b, a, d, c], 0.5) == [0, 2]
        assert suppress([a, b, c, d], 0.8) == [0, 1, 2, 3]

    def test_custom_pick(self):
        a = rect_mask(8, 8, 0, 3, 0, 3)
        b = rect_mask(8, 8, 0, 3, 0, 2)
        c = rect_mask(8, 8, 5, 7, 5, 7)
        seen = []

        def last(remaining):
            seen.append(list(remaining))
            return remaining[-1]

        assert suppress([a, b, c], 0.5, last) == [2, 1]
        assert seen == [[0, 1, 2], [0, 1]]

    def test_iou_at_threshold_is_kept(self):
        a = rect_mask(4, 4, 0, 3, 0, 1)
        b = rect_mask(4, 4, 0, 3, 1, 2)  # 4 shared pixels of 12: IoU 1/3
        assert mask_iou(a, b) == 1 / 3
        assert suppress([a, b], 1 / 3) == [0, 1]
        assert suppress([a, b], 0.33) == [0]

    def test_identical_masks_suppressed(self, rng):
        m = random_mask(rng, 6, 6, density=0.5)
        copy = BinaryMask(m.bits.copy())
        assert suppress([m, copy, m], 0.99) == [0]

    def test_empty_input(self):
        assert suppress([], 0.5) == []


class TestResizeNearest:
    def test_identity(self, rng):
        arr = rng.random((3, 5, 7))
        assert np.array_equal(resize_nearest(arr, 5, 7), arr)

    def test_double_replicates(self):
        arr = np.array([[1.0, 2.0]])
        out = resize_nearest(arr, 1, 4)
        assert out.tolist() == [[1.0, 1.0, 2.0, 2.0]]

    def test_downscale_picks_centers(self):
        arr = np.arange(8.0).reshape(1, 8)
        out = resize_nearest(arr, 1, 2)
        assert out.tolist() == [[2.0, 6.0]]
