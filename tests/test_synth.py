import numpy as np
import pytest

from cfmseg.core import MAX_SIDE, BinaryMask, ValidationError
from cfmseg.pursuit import PursuitConfig, candidate_set, pursue, purity
from cfmseg.synth import (
    BandSpec,
    STUFF_CATEGORIES,
    CorpusConfig,
    SceneSpec,
    ShapeSpec,
    derive_seed,
    generate_scene,
    scene_proposals,
    toy_proposals,
)
from conftest import full_frame_iou, make_corpus


def small_spec(shapes=(), bands=(), seed=0):
    return SceneSpec(48, 48, shapes, bands, seed=seed)


class TestGenerateScene:
    def test_empty_spec_is_all_background(self):
        scene = generate_scene(small_spec())
        assert not scene.labels.labels.any()
        assert scene.instances == []

    def test_single_rectangle_labels_its_pixels(self):
        shape = ShapeSpec("rect", 1, cx=20, cy=20, half_w=5, half_h=4)
        scene = generate_scene(small_spec(shapes=(shape,)))
        want = np.zeros((48, 48), dtype=bool)
        want[16:25, 15:26] = True
        assert np.array_equal(scene.labels.labels == 1, want)
        assert len(scene.instances) == 1
        assert np.array_equal(scene.instances[0].mask.bits, want)

    def test_same_seed_identical(self):
        spec = small_spec(
            shapes=(ShapeSpec("ellipse", 2, 24, 24, 6, 6),),
            bands=(BandSpec(4, 0, 11, (0.3, 0.5, 0.8), 0.2),),
            seed=77,
        )
        a, b = generate_scene(spec), generate_scene(spec)
        assert a.image.values.tobytes() == b.image.values.tobytes()
        assert np.array_equal(a.labels.labels, b.labels.labels)

    def test_side_above_bound_rejected(self):
        assert SceneSpec(MAX_SIDE, 1).width == MAX_SIDE
        for width, height in [(MAX_SIDE + 1, 8), (8, MAX_SIDE + 1)]:
            with pytest.raises(ValidationError, match=f"at most {MAX_SIDE}"):
                SceneSpec(width, height)

    def test_out_of_bounds_shape_rejected(self):
        shape = ShapeSpec("rect", 1, cx=2, cy=20, half_w=5, half_h=4)
        with pytest.raises(ValidationError):
            generate_scene(small_spec(shapes=(shape,)))

    @pytest.mark.parametrize("category", [0, 65536, 70000])
    def test_category_outside_label_range_rejected(self, category):
        # 70000 used to die with OverflowError painting the uint16 label map
        with pytest.raises(ValidationError, match="category"):
            ShapeSpec("rect", category, 20, 20, 5, 4)
        with pytest.raises(ValidationError, match="category"):
            BandSpec(category, 0, 9, (0.3, 0.5, 0.8), 0.2)

    def test_largest_category_paints(self):
        spec = small_spec(shapes=(ShapeSpec("rect", 65535, 20, 20, 5, 4),),
                          bands=(BandSpec(65535, 40, 47, (0.3, 0.5, 0.8), 0.2),))
        assert generate_scene(spec).labels.labels.max() == 65535

    def test_negative_seed_rejected(self):
        # numpy's generators used to raise ValueError in generate_scene
        with pytest.raises(ValidationError, match="seed"):
            small_spec(seed=-1)

    def test_labels_match_instances(self):
        spec = small_spec(
            shapes=(
                ShapeSpec("rect", 1, 12, 24, 5, 5),
                ShapeSpec("stripe", 3, 34, 24, 6, 6, thickness=2),
            ),
            bands=(BandSpec(4, 0, 9, (0.3, 0.5, 0.8), 0.2),),
        )
        scene = generate_scene(spec)
        for inst in scene.instances:
            assert (scene.labels.labels[inst.mask.bits] == inst.category).all()

    def test_band_rows_labeled_and_textured(self):
        spec = small_spec(bands=(BandSpec(5, 10, 19, (0.3, 0.6, 0.3), 0.2),))
        scene = generate_scene(spec)
        assert (scene.labels.labels[10:20] == 5).all()
        band_pixels = scene.image.values[:, 10:20, :]
        assert band_pixels.std() > 0.05  # textured, not flat

    @pytest.mark.parametrize("color, amp, names", [
        ((1e308, 0.3, 0.3), 0.2, ["base_color"]),  # finite as float64, not as float32
        ((0.3, 3e38, 0.3), 3e38, ["base_color", "noise_amp"]),  # only their sum overflows
        ((0.3, 0.3, -3e38), -3e38, ["base_color", "noise_amp"]),
    ], ids=["base-color", "sum", "negative-sum"])
    def test_band_beyond_float32_range_named(self, color, amp, names):
        # these used to overflow in the image's float32 cast and then be rejected
        # as "feature map contains non-finite values", naming no band field
        with pytest.raises(ValidationError, match="float32") as caught:
            BandSpec(4, 0, 9, color, amp)
        assert all(repr(name) in str(caught.value) for name in names)

    def test_band_at_float32_max_renders_finite(self):
        top = float(np.finfo(np.float32).max)
        spec = small_spec(bands=(BandSpec(4, 0, 9, (top / 2, -top / 2, 0.3), top / 2),))
        assert np.isfinite(generate_scene(spec).image.values).all()


class TestToyProposals:
    def test_exact_copy_has_iou_one(self):
        shape = ShapeSpec("ellipse", 2, 24, 24, 6, 6)
        scene = generate_scene(small_spec(shapes=(shape,)))
        props = toy_proposals(48, 48, scene.instances, jitter_seed=0)
        exact = [p for p in props if p.id.endswith("exact")]
        assert len(exact) == 1
        assert full_frame_iou(exact[0].mask.bits, scene.instances[0].mask.bits) == 1.0

    def test_grid_cells_give_low_iou_on_large_object(self):
        shape = ShapeSpec("rect", 1, 24, 24, 12, 12)
        scene = generate_scene(small_spec(shapes=(shape,)))
        props = toy_proposals(48, 48, scene.instances, grid_sizes=(16,),
                              jitter_seed=0)
        grid_ious = [
            full_frame_iou(p.mask.bits, scene.instances[0].mask.bits)
            for p in props
            if p.id.startswith("grid")
        ]
        assert sum(v < 0.3 for v in grid_ious) > len(grid_ious) // 2

    def test_deterministic_per_seed(self):
        shape = ShapeSpec("stripe", 3, 24, 24, 6, 6, thickness=2)
        scene = generate_scene(small_spec(shapes=(shape,)))
        a = toy_proposals(48, 48, scene.instances, jitter_seed=5)
        b = toy_proposals(48, 48, scene.instances, jitter_seed=5)
        assert [p.id for p in a] == [p.id for p in b]
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.mask.bits, pb.mask.bits)

    def test_covers_positive_and_negative_bands(self):
        # construction guarantee over a small corpus: every instance sees
        # at least one proposal in [0.5, 1] and one in [0.1, 0.3]
        cfg = CorpusConfig()
        for i, spec in enumerate(make_corpus(cfg, 10, master_seed=321)):
            scene = generate_scene(spec)
            props = scene_proposals(scene, seed=i)
            for inst in scene.instances:
                ious = [full_frame_iou(p.mask.bits, inst.mask.bits) for p in props]
                assert any(0.5 <= v <= 1.0 for v in ious)
                assert any(0.1 <= v <= 0.3 for v in ious)


class TestCorpus:
    def test_reproducible(self):
        cfg = CorpusConfig()
        assert make_corpus(cfg, 5, 9) == make_corpus(cfg, 5, 9)

    def test_scenes_vary(self):
        cfg = CorpusConfig()
        specs = make_corpus(cfg, 12, 10)
        assert len({s.seed for s in specs}) == 12

    def test_stuff_pursuit_finds_covers(self):
        cfg = CorpusConfig()
        pursuit_cfg = PursuitConfig()
        for i, spec in enumerate(make_corpus(cfg, 6, master_seed=77)):
            scene = generate_scene(spec)
            props = scene_proposals(scene, seed=i)
            for c in STUFF_CATEGORIES:
                stuff = BinaryMask(scene.labels.labels == c)
                cands = candidate_set(props, [purity(p, stuff) for p in props], pursuit_cfg)
                picks = pursue(cands, pursuit_cfg, "deterministic")
                assert picks, f"no pursuit picks for stuff {c} in scene {i}"


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
