from functools import partial

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
from cfmseg.pursuit import _draw
from conftest import full_frame_iou, random_mask, rect_mask


class TestMaskIou:
    def test_identity_is_one(self):
        (p,) = proposals(rect_mask(4, 4, 1, 2, 1, 3))
        assert mask_iou(p, p) == 1.0

    def test_disjoint_is_zero(self):
        a, b = proposals(rect_mask(4, 4, 0, 1, 0, 1), rect_mask(4, 4, 2, 3, 2, 3))
        assert mask_iou(a, b) == 0.0

    def test_shifted_blocks(self):
        # 2x2 blocks offset by one column: intersection 2, union 6
        a, b = proposals(rect_mask(4, 4, 0, 1, 0, 1), rect_mask(4, 4, 0, 1, 1, 2))
        assert mask_iou(a, b) == pytest.approx(2 / 6)

    def test_dimension_mismatch_rejected(self):
        a, b = proposals(rect_mask(4, 4, 0, 1, 0, 1), rect_mask(4, 5, 0, 1, 0, 1))
        with pytest.raises(ValidationError):
            mask_iou(a, b)

    def test_symmetry_and_monotonicity(self, rng):
        for _ in range(50):
            a, b, extra = (random_mask(rng, 8, 8, density=d) for d in (0.5, 0.5, 0.2))
            if not (a.bits.any() and b.bits.any()):
                continue
            pa, pb, pa2, pb2 = proposals(a, b, BinaryMask(a.bits | extra.bits),
                                         BinaryMask(b.bits | extra.bits))
            assert mask_iou(pa, pb) == mask_iou(pb, pa) == full_frame_iou(a.bits, b.bits)
            # adding pixels shared by both masks never lowers the score
            assert mask_iou(pa2, pb2) >= mask_iou(pa, pb) - 1e-12


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

    def test_block_must_lie_in_its_frame(self):
        block = rect_mask(3, 3, 0, 2, 0, 2)
        assert SegmentProposal("p", block, origin=(2, 1), frame=(5, 4)).box == (
            PixelBox(1, 2, 3, 4)
        )
        for origin, frame in [((3, 0), (5, 5)), ((0, 3), (5, 5)), ((-1, 0), (5, 5))]:
            with pytest.raises(ValidationError):
                SegmentProposal("p", block, origin=origin, frame=frame)
        full = SegmentProposal("q", block, origin=(0, 0), frame=(3, 3))
        assert full.block is block and np.array_equal(full.mask.bits, block.bits)
        # .mask is the block padded into its frame, built on demand
        local = SegmentProposal("r", block, origin=(1, 1), frame=(5, 5))
        padded = np.zeros((5, 5), dtype=bool)
        padded[1:4, 1:4] = True
        assert np.array_equal(local.mask.bits, padded)
        assert local.mask is not local.mask  # never held
        # construction crops the block to its tight box and moves the origin
        loose = SegmentProposal("s", rect_mask(4, 4, 1, 2, 2, 2), origin=(1, 0), frame=(6, 5))
        assert (loose.block.bits.shape, loose.origin) == ((2, 1), (2, 2))
        assert (loose.box, loose.area) == (PixelBox(2, 2, 2, 3), 2)
        padded = np.zeros((6, 5), dtype=bool)
        padded[2:4, 2] = True
        assert np.array_equal(loose.mask.bits, padded)

    def test_feature_map_rejects_non_finite(self):
        bad = np.zeros((1, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            FeatureMap(bad)

    def test_adopted_map_is_checked_and_not_copied(self):
        arr = np.zeros((2, 3, 4), dtype=np.float32)
        fm = FeatureMap.adopt(arr)
        assert fm.values is arr and not arr.flags.writeable
        kept = np.zeros((1, 2, 2), dtype=np.float32)
        assert FeatureMap(kept).values is not kept and kept.flags.writeable  # a copy
        for bad in (np.zeros((2, 2), np.float32), np.zeros((1, 0, 2), np.float32),
                    np.zeros((1, 2, 2)), np.full((1, 1, 1), np.nan, np.float32)):
            with pytest.raises(ValidationError):
                FeatureMap.adopt(bad)

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


def proposals(*masks):
    return [proposal_from_mask(str(i), m) for i, m in enumerate(masks)]


def loop_suppress(items, threshold, pick=None):
    """Reference: the per-pair loop that `suppress` replaced."""
    remaining = list(range(len(items)))
    kept = []
    while remaining:
        top = remaining[0] if pick is None else pick(remaining)
        kept.append(top)
        remaining = [
            i
            for i in remaining
            if i != top and mask_iou(items[i], items[top]) <= threshold
        ]
    return kept


def largest(cands) -> int:
    """A pick rule: the largest-area candidate, ties by id, the first of twins."""
    return min(range(len(cands)), key=lambda i: (-cands[i].area, cands[i].id))


class TestSuppress:
    def test_default_picks_first_remaining(self):
        a = rect_mask(8, 8, 0, 3, 0, 3)
        b = rect_mask(8, 8, 0, 3, 0, 2)  # IoU 0.75 with a
        c = rect_mask(8, 8, 5, 7, 5, 7)  # disjoint from both
        d = rect_mask(8, 8, 5, 7, 5, 6)  # IoU 2/3 with c
        assert suppress(proposals(a, b, c, d), 0.5) == [0, 2]
        assert suppress(proposals(b, a, d, c), 0.5) == [0, 2]
        assert suppress(proposals(a, b, c, d), 0.8) == [0, 1, 2, 3]

    def test_custom_pick(self):
        a = rect_mask(8, 8, 0, 3, 0, 3)
        b = rect_mask(8, 8, 0, 3, 0, 2)
        c = rect_mask(8, 8, 5, 7, 5, 7)
        seen = []

        def last(remaining):
            seen.append(list(remaining))
            return remaining[-1]

        assert suppress(proposals(a, b, c), 0.5, last) == [2, 1]
        assert seen == [[0, 1, 2], [0, 1]]

    def test_iou_at_threshold_is_kept(self):
        a = rect_mask(4, 4, 0, 3, 0, 1)
        b = rect_mask(4, 4, 0, 3, 1, 2)  # 4 shared pixels of 12: IoU 1/3
        assert mask_iou(*proposals(a, b)) == 1 / 3
        assert suppress(proposals(a, b), 1 / 3) == [0, 1]
        assert suppress(proposals(a, b), 0.33) == [0]

    def test_identical_masks_suppressed(self, rng):
        m = random_mask(rng, 6, 6, density=0.5)
        copy = BinaryMask(m.bits.copy())
        assert suppress(proposals(m, copy, m), 0.99) == [0]

    def test_empty_input(self):
        assert suppress([], 0.5) == []

    def test_frames_must_match(self):
        a, b = rect_mask(8, 8, 0, 1, 0, 1), rect_mask(9, 8, 6, 7, 6, 7)
        with pytest.raises(ValidationError, match="frames"):
            suppress(proposals(a, b), 0.5)

    def test_matches_per_pair_loop(self, rng):
        # the pursuit pick rules, the default and a threshold sweep over random
        # rectangles and blobs: the same picks and the same lists handed to pick
        for trial in range(150):
            h, w = (int(v) for v in rng.integers(4, 40, size=2))
            masks = []
            for _ in range(int(rng.integers(1, 40))):
                y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
                y1, x1 = int(rng.integers(y0, h)), int(rng.integers(x0, w))
                bits = np.zeros((h, w), dtype=bool)
                bits[y0:y1 + 1, x0:x1 + 1] = rng.random((y1 - y0 + 1, x1 - x0 + 1)) < 0.7
                bits[y0, x0] = True  # never empty
                masks.append(BinaryMask(bits))
            items = proposals(*masks)
            threshold = float(rng.choice([-0.1, 0.0, 0.05, 0.2, 0.3, 0.5, 0.9]))
            rules = [None, largest, partial(_draw, np.random.default_rng(trial))]
            twins = [None, largest, partial(_draw, np.random.default_rng(trial))]
            for rule, twin in zip(rules, twins):
                seen = {"loop": [], "kernel": []}

                def pick_with(r, log):
                    def pick(remaining):
                        log.append(list(remaining))
                        return remaining[r([items[i] for i in remaining])]
                    return None if r is None else pick

                expect = loop_suppress(items, threshold, pick_with(rule, seen["loop"]))
                got = suppress(items, threshold, pick_with(twin, seen["kernel"]))
                assert got == expect and all(type(i) is int for i in got)
                assert seen["kernel"] == seen["loop"]


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

    def test_matches_two_dimensional_gather(self, rng):
        """The per-axis gather equals the 2-D broadcast form it replaced."""
        for i in range(300):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            out_h, out_w = (int(v) for v in rng.integers(1, 90, size=2))
            if i % 2:
                arr = rng.random((h, w)) < 0.5
            else:
                arr = rng.standard_normal((3, h, w)).astype(np.float32)
            ys = np.minimum((2 * np.arange(out_h) * h + h) // (2 * out_h), h - 1)
            xs = np.minimum((2 * np.arange(out_w) * w + w) // (2 * out_w), w - 1)
            expected = arr[..., ys[:, None], xs[None, :]]
            got = resize_nearest(arr, out_h, out_w)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
