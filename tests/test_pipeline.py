import sys

import numpy as np
import pytest

from cfmseg import pipeline, pursuit, synth
from cfmseg.classify import LinearModel
from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    InstanceSegment,
    LabelMap,
    MAX_LABEL,
    MAX_SIDE,
    PixelBox,
    SegmentProposal,
    ValidationError,
    bbox_of,
    proposal_from_mask,
    resize_nearest,
)
from cfmseg.formats import load_proposal_index, save_proposal_index
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry
from cfmseg.pipeline import (
    FeatureCache,
    PipelineConfig,
    ScoredRegion,
    TrainScene,
    assign_scale,
    benchmark,
    collect_training_pools,
    mean_iou,
    paste,
    scale_image,
    scale_proposal,
    score_proposals,
)
from cfmseg.pooling import PyramidSpec, design_feature, feature_length
from cfmseg.pursuit import (
    PursuitConfig,
    candidate_set,
    label_object_samples,
    overlap_label,
    pursue,
    purity,
    stuff_samples,
)
from cfmseg.toynet import default_spec, forward, init_toynet
from conftest import (
    full_frame_iou,
    full_frame_paste,
    own_scale,
    project_one,
    random_map,
    rect_mask,
)
from oracles import built_scaled_mask, loop_mean_iou, scaled_proposal

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


class TestConfigSideBound:
    def test_default_scales_and_bound_admitted(self):
        assert max(PipelineConfig().scales) == 1200 <= MAX_SIDE
        assert PipelineConfig(scales=(MAX_SIDE,), warp_side=MAX_SIDE).warp_side == MAX_SIDE

    def test_scale_above_bound_rejected(self):
        with pytest.raises(ValidationError, match=f"at most {MAX_SIDE}"):
            PipelineConfig(scales=(64, MAX_SIDE + 1))

    @pytest.mark.parametrize("side", [0, MAX_SIDE + 1])
    def test_warp_side_outside_bound_rejected(self, side):
        with pytest.raises(ValidationError, match=f"1..{MAX_SIDE}"):
            PipelineConfig(warp_side=side)


class TestAssignScale:
    def test_identity_scale(self):
        assert assign_scale(PixelBox(0, 0, 49, 49).area, 200, (200,)) == 200

    def test_reference_example(self):
        # 100x100 box in a 400-shorter-edge image: 864 scales it nearest 224^2
        box = PixelBox(0, 0, 99, 99)
        assert assign_scale(box.area, 400, DEFAULT_SCALES) == 864

    def test_tiny_box_takes_largest_scale(self):
        assert assign_scale(PixelBox(0, 0, 0, 0).area, 400, DEFAULT_SCALES) == 1200

    def test_exact_hit_wins_over_larger_scale(self):
        # factor 1 lands the 224x224 box exactly on the reference area
        box = PixelBox(0, 0, 223, 223)
        assert assign_scale(box.area, 100, (100, 200)) == 100

    def test_equal_error_prefers_smaller_scale(self):
        # duplicate scale values make the errors literally equal; the
        # argmin over ascending scales keeps the first one
        box = PixelBox(0, 0, 49, 49)
        assert assign_scale(box.area, 100, (300, 300)) == 300

    def test_array_of_areas_matches_per_box_sweep(self, rng):
        # the per-box loop assign_scale replaced: ascending, strict improvement
        def sweep(area, edge, scales):
            best, best_err = None, None
            for s in sorted(scales):
                f = s / edge
                err = abs(area * f * f - 224 * 224)
                if best_err is None or err < best_err:
                    best, best_err = s, err
            return best

        areas = np.concatenate([rng.integers(1, 400 * 400, 500), [1, 224 * 224]])
        for edge, scales in [(400, DEFAULT_SCALES), (97, (64, 64, 128, 1000)), (224, (224,))]:
            got = assign_scale(areas, edge, scales)
            assert got.tolist() == [sweep(int(a), edge, scales) for a in areas]

    def test_empty_scales_rejected(self):
        with pytest.raises(ValidationError):
            assign_scale(PixelBox(0, 0, 5, 5).area, 10, ())


class TestScaling:
    def test_scale_image_shorter_edge(self, rng):
        image = random_map(rng, 3, 20, 30)
        out = scale_image(image, 40)
        assert (out.height, out.width) == (40, 60)

    def test_scale_proposal_upscale_box(self):
        p = proposal_from_mask("p", rect_mask(10, 10, 2, 5, 3, 6))
        boxes = scale_proposal([p, p], (10, 10), (20, 20))
        assert boxes.dtype == np.int64 and boxes.tolist() == [[4, 6, 11, 13]] * 2
        assert scale_proposal([p], (10, 10), (10, 10)).tolist() == [[2, 3, 5, 6]]

    def test_vanishing_mask_falls_back_to_box(self):
        bits = np.zeros((20, 20), dtype=bool)
        bits[7, 7] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        assert scale_proposal([p], (20, 20), (3, 3)).tolist() == [[1, 1, 1, 1]]
        # the block projects as that box, all set, in the 3 x 3 frame
        got = project_one(NetGeometry(1, 1, 0.0), p.block, 3, 3, p.origin, p.frame, (3, 3))
        want = np.zeros((3, 3), dtype=bool)
        want[1, 1] = True
        assert np.array_equal(got.bits, want)


def upsample_then_project(p, dst_h, dst_w, g, fh, fw):
    """The full-frame path scale_proposal replaced, kept here as the oracle:
    upsample the whole mask, fall back to the scaled box if it vanishes, and
    project the full-frame mask. Returns the scaled box and the feature mask."""
    bits = built_scaled_mask(p, (dst_h, dst_w))
    return bbox_of(BinaryMask(bits)), project_one(g, BinaryMask(bits), fh, fw)


def random_source_mask(rng, kind: str, h: int, w: int) -> np.ndarray:
    """A non-empty h x w mask: a pixel, a thin line, a blob on an edge, or a blob."""
    bits = np.zeros((h, w), dtype=bool)
    if kind == "pixel":
        bits[rng.integers(0, h), rng.integers(0, w)] = True
    elif kind == "line":  # one row or one column: the shapes that vanish
        if rng.random() < 0.5:
            bits[rng.integers(0, h), rng.integers(0, w) :] = True
        else:
            bits[rng.integers(0, h) :, rng.integers(0, w)] = True
    else:
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        y1, x1 = int(rng.integers(y0, h)), int(rng.integers(x0, w))
        if kind == "border":  # stretch the block to a random image edge
            side = int(rng.integers(0, 4))
            y0, y1, x0, x1 = [(0, y1, x0, x1), (y0, h - 1, x0, x1),
                              (y0, y1, 0, x1), (y0, y1, x0, w - 1)][side]
        block = rng.random((y1 - y0 + 1, x1 - x0 + 1)) < rng.uniform(0.2, 1.0)
        bits[y0 : y1 + 1, x0 : x1 + 1] = block
        if not bits.any():
            bits[y0, x0] = True
    return bits


class TestBoxLocalScaling:
    def test_matches_upsample_then_project(self, rng):
        kinds = ("pixel", "line", "border", "blob")
        seen = {"up": 0, "down": 0, "non_integer": 0, "vanished": 0, "border": 0}
        for i in range(2400):
            kind = kinds[i % len(kinds)]
            layers = [
                LayerSpec(
                    "conv" if rng.random() < 0.5 else "pool",
                    int(rng.integers(1, 5)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(0, 3)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            g = compose_geometry(layers)
            src_h, src_w = (int(v) for v in rng.integers(1, 33, size=2))
            # even cases shrink (or keep) each axis, odd ones grow it up to 3x
            dst_h, dst_w = (
                int(rng.integers(1, n + 1) if i % 2 == 0 else rng.integers(n, 3 * n + 2))
                for n in (src_h, src_w)
            )
            fh = max(1, -(-dst_h // g.stride)) + int(rng.integers(0, 3))
            fw = max(1, -(-dst_w // g.stride)) + int(rng.integers(0, 3))
            bits = random_source_mask(rng, kind, src_h, src_w)
            p = proposal_from_mask(f"p{i}", BinaryMask(bits))

            (y0, x0, y1, x1), = scale_proposal([p], (src_h, src_w), (dst_h, dst_w)).tolist()
            box, fmask = upsample_then_project(p, dst_h, dst_w, g, fh, fw)
            assert PixelBox(x0, y0, x1, y1) == box
            got = project_one(g, p.block, fh, fw, p.origin, p.frame, (dst_h, dst_w))
            assert np.array_equal(got.bits, fmask.bits), (i, kind)

            seen["up"] += dst_h > src_h and dst_w > src_w
            seen["down"] += dst_h < src_h and dst_w < src_w
            seen["non_integer"] += dst_h % src_h != 0 and src_h % dst_h != 0
            seen["vanished"] += not resize_nearest(p.mask.bits, dst_h, dst_w).any()
            seen["border"] += box.x0 == 0 or box.y0 == 0 or box.x1 == dst_w - 1
        assert min(seen.values()) >= 50, seen

    def test_downscale_box_comes_from_the_sampled_grid(self):
        bits = np.zeros((8, 8), dtype=bool)
        for y, x in [(1, 0), (0, 7), (3, 3)]:
            bits[y, x] = True
        p = proposal_from_mask("p", BinaryMask(bits))
        assert scale_proposal([p], (8, 8), (4, 4)).tolist() == [[1, 1, 1, 1]]
        assert bits[1::2, 1::2].sum() == 1  # only (3, 3) lies on the sampled grid
        # each axis alone sees set rows {1, 3} and set columns {3, 7} sampled,
        # which spans a box the scaled mask does not fill
        ys = xs = np.array([1, 3, 5, 7])
        rows, cols = np.flatnonzero(bits.any(1)[ys]), np.flatnonzero(bits.any(0)[xs])
        per_axis = PixelBox(int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1]))
        assert per_axis == PixelBox(1, 0, 3, 1) != PixelBox(1, 1, 1, 1)

    @pytest.mark.parametrize("scale", [45, 20])
    def test_design_features_byte_equal_on_scaled_scene(self, rng, scale):
        net, g, image = toy_setup(rng, side=32)
        cache = FeatureCache(image, net)
        conv, (sh, sw) = cache.conv_map(scale)
        pyr = PyramidSpec((3, 2, 1))
        for i in range(40):
            kind = ("pixel", "line", "border", "blob")[i % 4]
            bits = random_source_mask(rng, kind, 32, 32)
            p = proposal_from_mask(f"p{i}", BinaryMask(bits))
            boxes = scale_proposal([p], (32, 32), (sh, sw))
            scaled = resize_nearest(bits, sh, sw)
            if not scaled.any():
                continue
            full = proposal_from_mask(p.id, BinaryMask(scaled))
            for design in ("A", "B"):
                new = design_feature(conv, [p], boxes, (sh, sw), g, pyr, design)[0]
                old = design_feature(conv, *own_scale([full]), g, pyr, design)[0]
                assert new.tobytes() == old.tobytes()

    def test_full_frame_consumers_accept_box_local(self, tmp_path):
        bits = np.zeros((10, 10), dtype=bool)
        bits[2:6, 3:7] = True
        bits[5, 7:9] = True  # an L, so the block is not all set
        sp = scaled_proposal(proposal_from_mask("p", BinaryMask(bits)), (20, 20))
        assert sp.frame != sp.block.bits.shape
        # .mask is the block padded into its frame: the full-frame proposal
        padded = np.zeros((20, 20), dtype=bool)
        padded[sp.origin[0]:sp.box.y1 + 1, sp.origin[1]:sp.box.x1 + 1] = sp.block.bits
        assert np.array_equal(sp.mask.bits, padded)
        assert np.array_equal(padded, resize_nearest(bits, 20, 20))
        q = proposal_from_mask("q", rect_mask(20, 20, 8, 15, 10, 17))
        local, full = [sp, q], [padded, q.mask.bits]
        cfg = PursuitConfig(inhibit_iou=0.1)

        scored = [ScoredRegion(sp, 1, 0.9), ScoredRegion(q, 2, 0.5)]
        labels = paste(scored, 20, 20, small_cfg()).labels
        assert np.array_equal(labels, full_frame_paste(scored, 20, 20, 0.3))
        assert (labels == 1).sum() == sp.area and (labels == 2).any()

        stuff = rect_mask(20, 20, 4, 19, 0, 19)
        cands = candidate_set(local, [purity(p, stuff) for p in local], cfg)
        assert [c.purity for c in cands] == [
            full_frame_iou(m, stuff.bits & box_bits(p.box)) for p, m in zip(local, full)
        ]
        picks = pursue(cands, cfg, "deterministic")
        big = max(range(2), key=lambda i: cands[i].area)
        keep_both = full_frame_iou(*full) <= cfg.inhibit_iou
        assert [c.proposal.id for c in picks] == (
            [cands[big].proposal.id, cands[1 - big].proposal.id][: 1 + keep_both]
        )
        assert [p.id for p in stuff_samples(local, stuff, cfg)[0]] == [
            c.proposal.id for c in picks
        ]

        inst = rect_mask(20, 20, 4, 11, 6, 15)
        gt = proposal_from_mask("gt", inst)
        got = [(s.proposal.id, s.label) for s in label_object_samples(local, [gt])]
        want = [
            (p.id, overlap_label(full_frame_iou(m, inst.bits)))
            for p, m in zip(local, full)
        ]
        assert got == [w for w in want if w[1] is not None]

        save_proposal_index(tmp_path / "proposals.json", local)
        loaded = load_proposal_index(tmp_path / "proposals.json")
        for p, m, back in zip(local, full, loaded):
            assert (back.id, back.box, back.origin) == (p.id, p.box, p.origin)
            assert np.array_equal(back.block.bits, p.block.bits)
            assert np.array_equal(back.mask.bits, m)


def box_bits(box: PixelBox) -> np.ndarray:
    bits = np.zeros((20, 20), dtype=bool)
    bits[box.y0:box.y1 + 1, box.x0:box.x1 + 1] = True
    return bits


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
        chosen = assign_scale(p.box.area, 32, multi.scales)
        single = small_cfg(scales=(chosen,))
        dim = feature_length(net.spec.out_channels, multi.pyramid, multi.design)
        model = LinearModel(rng.standard_normal(dim).astype(np.float32), 0.0, 1)
        a = score_proposals([model], [p], image, net, g, multi)
        b = score_proposals([model], [p], image, net, g, single)
        assert a[0].score == b[0].score

    def test_feature_maps_computed_once_per_scale(self, rng, monkeypatch):
        net, g, image = toy_setup(rng)
        cfg = small_cfg(scales=(16, 32))
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        model = LinearModel(np.zeros(dim, dtype=np.float32), 0.0, 1)
        proposals = [
            proposal_from_mask(f"p{i}", rect_mask(32, 32, 2, 5 + i, 2, 5 + i))
            for i in range(6)
        ]
        forwards = []
        monkeypatch.setattr(pipeline.toynet, "forward",
                            lambda *a: forwards.append(a) or forward(*a))
        score_proposals([model], proposals, image, net, g, cfg)
        assert len(forwards) == len(
            {assign_scale(p.box.area, 32, cfg.scales) for p in proposals}
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

    def test_non_finite_score_matrix_rejected(self, rng, monkeypatch):
        net, g, image = toy_setup(rng)
        cfg = small_cfg()
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        models = [LinearModel(np.zeros(dim, dtype=np.float32), 0.0, c) for c in (1, 2)]
        p = proposal_from_mask("p", rect_mask(32, 32, 4, 20, 6, 22))
        monkeypatch.setattr(pipeline, "score", lambda *a: np.array([[0.5, np.nan]]))
        with pytest.raises(ValidationError, match="region score must be finite"):
            score_proposals(models, [p], image, net, g, cfg)

    def test_bulk_regions_match_one_by_one(self, rng):
        """A 128 x 128 scene with grid proposals of 8, 16 and 32 pixels, as the
        dense benchmark draws them, against five models: each bulk region is the
        region the constructor builds from the same proposal, category and score."""
        scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(128, 128), 4))
        proposals = synth.toy_proposals(128, 128, scene.instances, grid_sizes=(8, 16, 32),
                                        jitter_seed=4)
        net, g, _ = toy_setup(rng)
        cfg = PipelineConfig(scales=(128,))
        dim = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
        models = [LinearModel(rng.standard_normal(dim).astype(np.float32), 0.25 * c, c)
                  for c in (5, 1, 3, 2, 4)]
        scored = score_proposals(models, proposals, scene.image, net, g, cfg)
        features = pipeline.proposal_features(proposals, FeatureCache(scene.image, net), g, cfg)
        one_by_one = [ScoredRegion(p, m.category, s)
                      for p, row in zip(proposals, pipeline.score(models, features).tolist())
                      for m, s in zip(models, row)]
        assert len(proposals) > 300 and len(scored) == 5 * len(proposals)
        for got, want in zip(scored, one_by_one, strict=True):
            assert type(got) is ScoredRegion and got.proposal is want.proposal
            assert type(got.category) is int and got.category == want.category
            assert type(got.score) is float
            assert np.float64(got.score).tobytes() == np.float64(want.score).tobytes()


class TestScoredRegion:
    def test_valid_region_is_an_immutable_tuple(self):
        p = proposal_from_mask("p", rect_mask(8, 8, 1, 4, 2, 5))
        r = ScoredRegion(p, 3, -0.5)
        assert (r.proposal, r.category, r.score) == tuple(r) == (p, 3, -0.5)
        with pytest.raises(AttributeError):
            r.score = 1.0

    @pytest.mark.parametrize("score", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, score):
        p = proposal_from_mask("p", rect_mask(8, 8, 1, 4, 2, 5))
        with pytest.raises(ValidationError, match="region score must be finite"):
            ScoredRegion(p, 1, score)

    @pytest.mark.parametrize("category", [-1, MAX_LABEL + 1])
    def test_category_out_of_range_rejected(self, category):
        p = proposal_from_mask("p", rect_mask(8, 8, 1, 4, 2, 5))
        with pytest.raises(ValidationError, match=f"region category {category} outside"):
            ScoredRegion(p, category, 0.5)


class TestDesignFeatureShapes:
    def test_lengths_per_design(self, rng):
        net, g, image = toy_setup(rng)
        conv = FeatureMap(np.abs(random_map(rng, 4, 8, 8).values))
        p = proposal_from_mask("p", rect_mask(32, 32, 4, 24, 4, 24))
        pyr = PyramidSpec()
        assert design_feature(conv, *own_scale([p]), g, pyr, "A").shape == (1, 2 * 50 * 4)
        assert design_feature(conv, *own_scale([p]), g, pyr, "B").shape == (1, 50 * 4)
        assert design_feature(conv, *own_scale([p]), g, pyr, "none").shape == (1, 50 * 4)

    def test_none_matches_design_b_with_full_mask(self, rng):
        net, g, image = toy_setup(rng)
        conv = FeatureMap(np.abs(random_map(rng, 4, 8, 8).values))
        p = proposal_from_mask("p", rect_mask(32, 32, 0, 31, 0, 31))
        pyr = PyramidSpec()
        assert np.array_equal(
            design_feature(conv, *own_scale([p]), g, pyr, "none"),
            design_feature(conv, *own_scale([p]), g, pyr, "B"),
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

    def test_counts_match_loop_oracle(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 9))
            shapes = [tuple(rng.integers(1, 12, size=2)) for _ in range(rng.integers(1, 4))]
            preds, gts = (
                [LabelMap(rng.integers(0, n, size=s, dtype=np.uint16)) for s in shapes]
                for _ in range(2)
            )
            ious, mean = mean_iou(preds, gts, n)
            want_ious, want_mean = loop_mean_iou(preds, gts, n)
            assert ious.tobytes() == want_ious.tobytes(), trial
            assert np.float64(mean).tobytes() == np.float64(want_mean).tobytes(), trial


class TestTrainingPools:
    def test_repeated_ids_keep_each_proposals_vector(self):
        corpus = synth.CorpusConfig()
        scene = synth.generate_scene(synth.random_scene_spec(corpus, 3))
        props = synth.scene_proposals(scene, 4)
        net = init_toynet(default_spec(3, seed=0))
        g = compose_geometry(net.spec.geometry_layers())

        def pools(ids):
            renamed = [SegmentProposal(pid, p.block, origin=p.origin, frame=p.frame)
                       for pid, p in zip(ids, props)]
            train = [TrainScene(scene.image, scene.labels, scene.instances, renamed)]
            return collect_training_pools(train, [1, 2, 3], [4, 5], net, g,
                                          small_cfg(scales=(64,)))

        # ids in list order, so pursuit breaks area ties the same way in both
        unique_x, unique = pools([f"p{i:04d}" for i in range(len(props))])
        shared_x, shared = pools(["dup"] * len(props))
        assert unique.keys() == shared.keys()
        for c in unique:
            for want, got in zip(unique[c], shared[c]):
                assert len(want) == len(got)
                assert np.array_equal(unique_x[want], shared_x[got]), c
        negatives = [v.tobytes() for _, neg in unique.values() for v in unique_x[neg]]
        assert len(set(negatives)) > 10
        assert all(len(unique[c][0]) for c in (4, 5))  # pursuit picked stuff positives

    def test_one_purity_per_proposal_per_stuff_category(self, monkeypatch):
        corpus = synth.CorpusConfig()
        scene = synth.generate_scene(synth.random_scene_spec(corpus, 3))
        props = synth.scene_proposals(scene, 4)
        net = init_toynet(default_spec(3, seed=0))
        g = compose_geometry(net.spec.geometry_layers())
        calls = []  # the stuff category each purity is taken against
        monkeypatch.setattr(pursuit, "purity", lambda p, stuff: (
            calls.append(int(scene.labels.labels[stuff.bits][0])) or purity(p, stuff)))
        train = [TrainScene(scene.image, scene.labels, scene.instances, props)]
        collect_training_pools(train, [1, 2, 3], [4, 5], net, g, small_cfg(scales=(64,)))
        assert sorted(calls) == [4] * len(props) + [5] * len(props)

    def test_other_category_instance_labels_nothing(self, rng):
        net, g, image = toy_setup(rng)
        labels = LabelMap(np.zeros((32, 32), dtype=np.uint16))
        instances = [
            InstanceSegment(1, rect_mask(32, 32, 20, 29, 20, 29)),
            InstanceSegment(2, rect_mask(32, 32, 5, 5, 0, 9)),
        ]
        # IoU 0.2 with the category-2 instance, 0 with the category-1 one
        fifth = proposal_from_mask("fifth", rect_mask(32, 32, 5, 5, 0, 1))
        train = [TrainScene(image, labels, instances, [fifth])]
        _, pools = collect_training_pools(train, [1, 2], [], net, g, small_cfg())
        assert [len(v) for v in pools[1]] == [1, 0]
        assert [len(v) for v in pools[2]] == [1, 1]

    def test_one_crop_per_object_instance(self, monkeypatch):
        corpus = synth.CorpusConfig()
        train = []
        for i in range(4):
            spec = synth.random_scene_spec(corpus, synth.derive_seed(5, i))
            scene = synth.generate_scene(spec)
            props = synth.scene_proposals(scene, synth.derive_seed(5, i, 1))
            train.append(TrainScene(scene.image, scene.labels, scene.instances, props))
        net = init_toynet(default_spec(3, seed=0))
        g = compose_geometry(net.spec.geometry_layers())
        crops = []

        def counted(pid, mask):
            crops.append(pid)
            return proposal_from_mask(pid, mask)

        for name, module in list(sys.modules.items()):  # every by-name import of it
            if name.startswith("cfmseg") and (
                getattr(module, "proposal_from_mask", None) is proposal_from_mask
            ):
                monkeypatch.setattr(module, "proposal_from_mask", counted)
        collect_training_pools(
            train, list(synth.OBJECT_CATEGORIES), list(synth.STUFF_CATEGORIES),
            net, g, small_cfg(scales=(64,)),
        )
        objects = [
            inst for scene in train for inst in scene.instances
            if inst.category in synth.OBJECT_CATEGORIES
        ]
        assert len(objects) >= 4
        assert len(crops) == len(objects)

    def test_empty_instance_in_last_scene_rejected_before_any_forward(self, rng,
                                                                     monkeypatch):
        # it used to raise only after every earlier scene's forwards had run
        net, g, image = toy_setup(rng)
        labels = LabelMap(np.zeros((32, 32), dtype=np.uint16))
        good = [InstanceSegment(1, rect_mask(32, 32, 4, 12, 4, 12))]
        empty = [InstanceSegment(1, BinaryMask(np.zeros((32, 32), dtype=bool)))]
        props = [proposal_from_mask("p", rect_mask(32, 32, 2, 20, 2, 20))]
        train = [TrainScene(image, labels, good, props),
                 TrainScene(image, labels, empty, props)]
        forwards = []
        monkeypatch.setattr(pipeline.toynet, "forward",
                            lambda *a: forwards.append(a) or forward(*a))
        with pytest.raises(ValidationError, match="empty"):
            collect_training_pools(train, [1], [], net, g, small_cfg())
        assert forwards == []


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
