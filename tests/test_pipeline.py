import numpy as np
import pytest

from cfmseg.classify import LinearModel
from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    LabelMap,
    PixelBox,
    ValidationError,
    proposal_from_mask,
)
from cfmseg.netgeom import compose_geometry
from cfmseg.pipeline import (
    FeatureCache,
    PipelineConfig,
    ScoredRegion,
    assign_scale,
    benchmark,
    mean_iou,
    paste,
    scale_image,
    scale_proposal,
    score_proposals,
)
from cfmseg.pooling import PyramidSpec, design_feature, feature_length
from cfmseg.toynet import default_spec, init_toynet
from conftest import random_map, rect_mask

DEFAULT_SCALES = (480, 576, 688, 864, 1200)


def small_cfg(**kw):
    kw.setdefault("scales", (32,))
    kw.setdefault("pyramid", PyramidSpec((3, 1)))
    return PipelineConfig(**kw)


def toy_setup(rng, side=32, seed=0):
    net = init_toynet(default_spec(3, seed=seed))
    g = compose_geometry(net.spec.geometry_layers())
    image = random_map(rng, 3, side, side)
    return net, g, image


class TestAssignScale:
    def test_identity_scale(self):
        assert assign_scale(PixelBox(0, 0, 49, 49), 200, (200,)) == 200

    def test_reference_example(self):
        # 100x100 box in a 400-shorter-edge image: 864 scales it nearest 224^2
        box = PixelBox(0, 0, 99, 99)
        assert assign_scale(box, 400, DEFAULT_SCALES) == 864

    def test_tiny_box_takes_largest_scale(self):
        assert assign_scale(PixelBox(0, 0, 0, 0), 400, DEFAULT_SCALES) == 1200

    def test_exact_hit_wins_over_larger_scale(self):
        # factor 1 lands the 224x224 box exactly on the reference area
        box = PixelBox(0, 0, 223, 223)
        assert assign_scale(box, 100, (100, 200)) == 100

    def test_equal_error_prefers_smaller_scale(self):
        # duplicate scale values make the errors literally equal; the
        # ascending sweep with strict improvement keeps the first one
        box = PixelBox(0, 0, 49, 49)
        assert assign_scale(box, 100, (300, 300)) == 300

    def test_empty_scales_rejected(self):
        with pytest.raises(ValidationError):
            assign_scale(PixelBox(0, 0, 5, 5), 10, ())


class TestScaling:
    def test_scale_image_shorter_edge(self, rng):
        image = random_map(rng, 3, 20, 30)
        out = scale_image(image, 40)
        assert (out.height, out.width) == (40, 60)

    def test_scale_proposal_identity(self, rng):
        p = proposal_from_mask("p", rect_mask(10, 10, 2, 5, 3, 6))
        assert scale_proposal(p, 10, 10, 10, 10) is p

    def test_scale_proposal_upscale_box(self):
        p = proposal_from_mask("p", rect_mask(10, 10, 2, 5, 3, 6))
        sp = scale_proposal(p, 10, 10, 20, 20)
        assert sp.box == PixelBox(6, 4, 13, 11)

    def test_vanishing_mask_falls_back_to_box(self):
        bits = np.zeros((20, 20), dtype=bool)
        bits[7, 7] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        sp = scale_proposal(p, 20, 20, 3, 3)
        assert sp.mask.bits.any()


class TestScoreProposals:
    def test_zero_models_score_zero(self, rng):
        net, g, image = toy_setup(rng)
        cfg = small_cfg()
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        models = [LinearModel(np.zeros(dim, dtype=np.float32), 0.0, c)
                  for c in (1, 2)]
        p = proposal_from_mask("p", rect_mask(32, 32, 4, 20, 6, 22))
        scored = score_proposals(models, [p], image, net, g, cfg)
        assert [r.score for r in scored] == [0.0, 0.0]
        assert [r.category for r in scored] == [1, 2]

    def test_duplicate_proposals_identical_scores(self, rng):
        net, g, image = toy_setup(rng)
        cfg = small_cfg()
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        model = LinearModel(
            rng.standard_normal(dim).astype(np.float32), 0.1, 1
        )
        p = proposal_from_mask("p", rect_mask(32, 32, 4, 20, 6, 22))
        q = proposal_from_mask("q", rect_mask(32, 32, 4, 20, 6, 22))
        scored = score_proposals([model], [p, q], image, net, g, cfg)
        assert scored[0].score == scored[1].score

    def test_single_scale_matches_multi_scale_on_shared_scale(self, rng):
        net, g, image = toy_setup(rng)
        p = proposal_from_mask("p", rect_mask(32, 32, 6, 25, 6, 25))
        multi = small_cfg(scales=(16, 32, 48))
        # the box picks the largest available scale (48) under the 224^2 rule
        chosen = assign_scale(p.box, 32, multi.scales)
        single = small_cfg(scales=(chosen,))
        dim = feature_length(net.spec.out_channels, multi.pyramid, multi.design)
        model = LinearModel(rng.standard_normal(dim).astype(np.float32), 0.0, 1)
        a = score_proposals([model], [p], image, net, g, multi)
        b = score_proposals([model], [p], image, net, g, single)
        assert a[0].score == b[0].score

    def test_feature_maps_computed_once_per_scale(self, rng):
        net, g, image = toy_setup(rng)
        cfg = small_cfg(scales=(16, 32))
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        model = LinearModel(np.zeros(dim, dtype=np.float32), 0.0, 1)
        proposals = [
            proposal_from_mask(f"p{i}", rect_mask(32, 32, 2, 5 + i, 2, 5 + i))
            for i in range(6)
        ]
        cache = FeatureCache(image, net)
        score_proposals(model and [model], proposals, image, net, g, cfg,
                        cache=cache)
        assert cache.forward_count == len(
            {assign_scale(p.box, 32, cfg.scales) for p in proposals}
        )

    def test_length_mismatch_rejected(self, rng):
        net, g, image = toy_setup(rng)
        cfg = small_cfg()
        model = LinearModel(np.zeros(7, dtype=np.float32), 0.0, 1)
        with pytest.raises(ValidationError):
            score_proposals([model], [], image, net, g, cfg)

    def test_threads_do_not_change_scores(self, rng):
        net, g, image = toy_setup(rng)
        cfg = small_cfg(scales=(16, 32), design="A")
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        model = LinearModel(rng.standard_normal(dim).astype(np.float32), 0.0, 1)
        proposals = [
            proposal_from_mask(f"p{i}", rect_mask(32, 32, 1, 6 + 2 * i, 3, 9 + i))
            for i in range(8)
        ]
        a = score_proposals([model], proposals, image, net, g, cfg, threads=1)
        b = score_proposals([model], proposals, image, net, g, cfg, threads=4)
        assert [r.score for r in a] == [r.score for r in b]


class TestDesignFeatureShapes:
    def test_lengths_per_design(self, rng):
        net, g, image = toy_setup(rng)
        conv = FeatureMap(np.abs(random_map(rng, 4, 8, 8).values))
        p = proposal_from_mask("p", rect_mask(32, 32, 4, 24, 4, 24))
        pyr = PyramidSpec()
        assert design_feature(conv, p, g, pyr, "A").size == 2 * 50 * 4
        assert design_feature(conv, p, g, pyr, "B").size == 50 * 4
        assert design_feature(conv, p, g, pyr, "none").size == 50 * 4

    def test_none_matches_design_b_with_full_mask(self, rng):
        net, g, image = toy_setup(rng)
        conv = FeatureMap(np.abs(random_map(rng, 4, 8, 8).values))
        p = proposal_from_mask("p", rect_mask(32, 32, 0, 31, 0, 31))
        pyr = PyramidSpec()
        assert np.array_equal(
            design_feature(conv, p, g, pyr, "none"),
            design_feature(conv, p, g, pyr, "B"),
        )


def region(pid, score, y0, y1, x0, x1, category=1, side=16):
    return ScoredRegion(
        proposal_from_mask(pid, rect_mask(side, side, y0, y1, x0, x1)),
        category,
        score,
    )


class TestPaste:
    def test_empty_input_all_background(self):
        out = paste([], 8, 8, small_cfg())
        assert not out.labels.any()

    def test_disjoint_regions_both_pasted(self):
        a = region("a", 0.9, 0, 3, 0, 3, category=1)
        b = region("b", 0.5, 8, 11, 8, 11, category=2)
        out = paste([a, b], 16, 16, small_cfg())
        assert (out.labels[0:4, 0:4] == 1).all()
        assert (out.labels[8:12, 8:12] == 2).all()

    def test_high_overlap_suppressed(self):
        a = region("a", 0.9, 0, 7, 0, 7, category=1)
        b = region("b", 0.5, 0, 7, 2, 9, category=2)  # IoU 0.6 > 0.3
        out = paste([a, b], 16, 16, small_cfg())
        assert (out.labels[0:8, 0:8] == 1).all()
        assert (out.labels == 2).sum() == 0

    def test_moderate_overlap_first_write_wins(self):
        a = region("a", 0.9, 0, 7, 0, 7, category=1)
        c = region("c", 0.8, 6, 13, 6, 13, category=2)  # IoU ~ 0.03
        out = paste([a, c], 16, 16, small_cfg())
        assert (out.labels[0:8, 0:8] == 1).all()
        assert out.labels[8, 8] == 2
        assert out.labels[7, 7] == 1  # already written, never overwritten

    def test_non_positive_scores_skipped(self):
        a = region("a", 0.0, 0, 3, 0, 3)
        b = region("b", -1.0, 4, 7, 4, 7)
        out = paste([a, b], 16, 16, small_cfg())
        assert not out.labels.any()

    def test_order_independent(self, rng):
        regions = []
        for i in range(12):
            y0 = int(rng.integers(0, 10))
            x0 = int(rng.integers(0, 10))
            regions.append(
                region(
                    f"r{i}", float(rng.uniform(0.1, 1.0)),
                    y0, y0 + int(rng.integers(1, 6)),
                    x0, x0 + int(rng.integers(1, 6)),
                    category=int(rng.integers(1, 4)),
                )
            )
        base = paste(regions, 16, 16, small_cfg())
        for seed in range(5):
            perm = list(np.random.default_rng(seed).permutation(len(regions)))
            shuffled = [regions[i] for i in perm]
            assert np.array_equal(paste(shuffled, 16, 16, small_cfg()).labels,
                                  base.labels)

    def test_dim_mismatch_rejected(self):
        a = region("a", 0.5, 0, 3, 0, 3, side=16)
        with pytest.raises(ValidationError):
            paste([a], 8, 8, small_cfg())

    @pytest.mark.parametrize("category", [-1, 65536, 70000])
    def test_category_outside_label_range_rejected(self, category):
        # used to die with OverflowError painting the uint16 label map
        with pytest.raises(ValidationError, match="category"):
            region("a", 0.5, 0, 3, 0, 3, category=category)

    def test_label_range_ends_paste(self):
        a = region("a", 0.9, 0, 3, 0, 3, category=65535)
        b = region("b", 0.5, 8, 11, 8, 11, category=0)
        out = paste([a, b], 16, 16, small_cfg())
        assert (out.labels[0:4, 0:4] == 65535).all()
        assert (out.labels != 0).sum() == 16


class TestMeanIou:
    def test_perfect_prediction(self):
        labels = np.array([[0, 1], [2, 2]], dtype=np.uint16)
        ious, mean = mean_iou([LabelMap(labels)], [LabelMap(labels)], 3)
        assert mean == 1.0
        assert ious[0] == 1.0 and ious[1] == 1.0 and ious[2] == 1.0

    def test_half_covered_example(self):
        # all-background prediction vs half category-1: bg 0.5, cat1 0, mean 0.25
        pred = LabelMap(np.zeros((2, 2), dtype=np.uint16))
        gt = LabelMap(np.array([[1, 1], [0, 0]], dtype=np.uint16))
        ious, mean = mean_iou([pred], [gt], 2)
        assert ious[0] == 0.5 and ious[1] == 0.0
        assert mean == 0.25

    def test_absent_categories_excluded(self):
        pred = LabelMap(np.zeros((2, 2), dtype=np.uint16))
        gt = LabelMap(np.zeros((2, 2), dtype=np.uint16))
        ious, mean = mean_iou([pred], [gt], 5)
        assert mean == 1.0
        assert np.isnan(ious[1:]).all()

    def test_image_order_irrelevant(self, rng):
        preds = [LabelMap(rng.integers(0, 4, size=(6, 6), dtype=np.uint16))
                 for _ in range(4)]
        gts = [LabelMap(rng.integers(0, 4, size=(6, 6), dtype=np.uint16))
               for _ in range(4)]
        _, a = mean_iou(preds, gts, 4)
        _, b = mean_iou(list(reversed(preds)), list(reversed(gts)), 4)
        assert a == b

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            mean_iou(
                [LabelMap(np.zeros((2, 2), dtype=np.uint16))],
                [LabelMap(np.zeros((2, 3), dtype=np.uint16))],
                2,
            )


class TestBenchmark:
    def test_report_structure_and_determinism(self, rng):
        net, g, image = toy_setup(rng, side=48)
        cfg = PipelineConfig(scales=(48,), pyramid=PyramidSpec((3, 1)),
                             warp_side=24)
        proposals = [
            proposal_from_mask(f"p{i}", rect_mask(48, 48, 2, 20 + i, 4, 30 + i))
            for i in range(5)
        ]
        report = benchmark(image, proposals, net, g, cfg)
        assert report.proposals == 5
        assert report.conv_once_ms > 0
        assert report.per_region_ms > 0
        assert report.ratio > 0
        assert report.threads == 1

    def test_needs_a_proposal(self, rng):
        net, g, image = toy_setup(rng)
        with pytest.raises(ValidationError):
            benchmark(image, [], net, g, small_cfg())
