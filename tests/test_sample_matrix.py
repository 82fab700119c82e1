"""Features travel as one (N, length) matrix from the feature pass to the SVM:
`train_svm`'s row-index contract, its byte identity with the whole-matrix
trainer, the memory that training holds, and the empty-input errors of
corpus training."""

import tracemalloc

import numpy as np
import pytest

from cfmseg import synth
from cfmseg.classify import GATHER_ROWS, LinearModel, train_svm
from cfmseg.core import InstanceSegment, LabelMap, ValidationError, proposal_from_mask
from cfmseg.netgeom import compose_geometry
from cfmseg.pipeline import (
    FeatureCache, PipelineConfig, TrainScene, collect_training_pools, proposal_features,
    train_category_models,
)
from cfmseg.pooling import PyramidSpec
from cfmseg.toynet import default_spec, init_toynet
from conftest import random_map, rect_mask
from oracles import hinge_objective, matrix_train_svm


def clusters(rng, n, dim):
    """A (2n + 3, dim) float32 matrix: n positive rows, then n + 3 negative ones."""
    pos = (rng.standard_normal((n, dim)) + 2.0).astype(np.float32)
    neg = (rng.standard_normal((n + 3, dim)) - 2.0).astype(np.float32)
    return np.concatenate([pos, neg]), np.arange(n), np.arange(n, 2 * n + 3)


def same_model(a: LinearModel, b: LinearModel) -> bool:
    return a.weights.tobytes() == b.weights.tobytes() and a.bias == b.bias


class TestTrainSvmMatrices:
    def test_matrix_pair_trains_like_its_rows(self, rng):
        features, pos, neg = clusters(rng, 20, 6)
        model = train_svm(pos, neg, features, reg=1e-3, epochs=5, seed=3)
        rows = train_svm(list(pos), list(neg), list(features), reg=1e-3, epochs=5, seed=3)
        assert model.weights.shape == (6,) and same_model(model, rows)
        samples = [(features[i], 1) for i in pos] + [(features[i], -1) for i in neg]
        zero = LinearModel(np.zeros(6, dtype=np.float32), 0.0, 0)
        assert hinge_objective(model, samples, 1e-3) < hinge_objective(zero, samples, 1e-3)

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_empty_class_matrix_rejected(self, rng, empty_side):
        features, *pair = clusters(rng, 5, 4)
        pair[empty_side] = np.empty(0, dtype=np.intp)
        with pytest.raises(ValidationError, match="non-empty"):
            train_svm(*pair, features, reg=1e-3, epochs=2, seed=0)

    def test_ragged_rows_rejected(self, rng):
        with pytest.raises(ValidationError, match="differ in length"):
            train_svm([0], [1], [np.ones(3), np.ones(4)], reg=1e-3, epochs=2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, rng, bad):
        features, pos, neg = clusters(rng, 5, 4)
        features[neg[2], 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            train_svm(pos, neg, features, reg=1e-3, epochs=2, seed=0)

    def test_unread_non_finite_row_is_not_checked(self, rng):
        features, pos, neg = clusters(rng, 5, 4)
        features[neg[-1], 0] = np.nan
        model = train_svm(pos, neg[:-1], features, reg=1e-3, epochs=2, seed=0)
        assert same_model(model, matrix_train_svm(
            features[pos], features[neg[:-1]], reg=1e-3, epochs=2, seed=0))

    def test_one_dimensional_class_rejected(self, rng):
        features, pos, _ = clusters(rng, 5, 4)
        with pytest.raises(ValidationError, match="integers"):  # a feature row, not rows
            train_svm(pos, np.ones(4, dtype=np.float32), features, reg=1e-3, epochs=2, seed=0)
        with pytest.raises(ValidationError, match="1-D"):
            train_svm(pos, [[5, 6]], features, reg=1e-3, epochs=2, seed=0)

    def test_one_dimensional_feature_matrix_rejected(self, rng):
        with pytest.raises(ValidationError, match=r"\(N, d\) matrix"):
            train_svm([0], [1], np.ones(4, dtype=np.float32), reg=1e-3, epochs=2, seed=0)


class TestRowIndices:
    @staticmethod
    def train(rng, negatives):
        features, pos, _ = clusters(rng, 5, 4)  # 13 rows
        return train_svm(pos, negatives, features, reg=1e-3, epochs=2, seed=0)

    def test_negative_row_rejected(self, rng):
        with pytest.raises(ValidationError, match=r"0\.\.12"):
            self.train(rng, [5, 6, -1])

    def test_row_past_the_end_rejected(self, rng):
        with pytest.raises(ValidationError, match=r"0\.\.12"):
            self.train(rng, np.array([5, 13]))

    @pytest.mark.parametrize("rows", [[5.0, 6.0], np.array([5.0, 6.0]), ["5", "6"]])
    def test_non_integer_row_rejected(self, rng, rows):
        with pytest.raises(ValidationError, match="integers"):
            self.train(rng, rows)

    @pytest.mark.parametrize("rows", [[True, 6], [True, False], np.ones(13, dtype=bool)])
    def test_boolean_row_rejected(self, rng, rows):
        with pytest.raises(ValidationError, match="integers"):
            self.train(rng, rows)

    def test_unsigned_and_listed_rows_train_alike(self, rng):
        features, pos, neg = clusters(rng, 5, 4)
        want = train_svm(pos, neg, features, reg=1e-3, epochs=2, seed=0)
        assert same_model(want, train_svm(pos.astype(np.uint16), neg.tolist(), features,
                                          reg=1e-3, epochs=2, seed=0))


class TestMatchesWholeMatrixTrainer:
    """Equal weight and bias bytes to `oracles.matrix_train_svm`, which copies both
    classes whole to one float64 matrix."""

    @staticmethod
    def check(features, pos, neg, epochs=3, seed=5):
        got = train_svm(pos, neg, features, reg=1e-3, epochs=epochs, seed=seed, category=2)
        want = matrix_train_svm(features[pos], features[neg], reg=1e-3, epochs=epochs,
                                seed=seed, category=2)
        assert same_model(got, want) and got.category == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_pos, n_neg", [
        (1, 1),  # one sample per class
        (1, GATHER_ROWS - 2),  # a pool one short of a block
        (GATHER_ROWS // 2, GATHER_ROWS // 2),  # exactly one block
        (GATHER_ROWS, 1),  # one past a block
        (GATHER_ROWS, GATHER_ROWS + 1),  # one past two blocks
    ])
    def test_pool_sizes_around_the_block(self, rng, dtype, n_pos, n_neg):
        n = n_pos + n_neg
        features = (rng.standard_normal((n + 7, 5)) + 0.5).astype(dtype)
        rows = rng.permutation(n + 7)[:n]  # rows out of order, some never read
        self.check(features, rows[:n_pos], rows[n_pos:])

    def test_lopsided_pool(self, rng):
        features = rng.standard_normal((21 + 6395, 3)).astype(np.float32)
        self.check(features, np.arange(21), np.arange(21, 21 + 6395), epochs=2)

    def test_duplicate_rows_and_a_row_in_both_classes(self, rng):
        features = rng.standard_normal((40, 6))
        pos = np.array([3, 3, 7, 12, 12, 12, 30])
        neg = np.array([0, 1, 2, 3, 7, 7, 39, 20, 20])
        self.check(features, pos, neg)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_listed_out_of_order(self, rng, dtype):
        features = rng.standard_normal((600, 4)).astype(dtype)
        order = rng.permutation(600)
        self.check(features, order[:250], order[250:])
        self.check(features, order[::-1][:70], order[::-1][70:])


def test_train_svm_holds_one_gather_buffer(rng):
    """A 3,000 x 1,600 float32 pool: training holds one GATHER_ROWS-row float64
    buffer (bias column included) and one block of gathered float32 rows, never a
    copy of the pool."""
    n, dim = 3000, 1600
    pool = rng.standard_normal((n, dim), dtype=np.float32)
    tracemalloc.start()
    try:
        train_svm(np.arange(1000), np.arange(1000, n), pool, reg=1e-4, epochs=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer, block = GATHER_ROWS * (dim + 1) * 8, GATHER_ROWS * dim * 4
    assert peak <= buffer + block + (1 << 20)


def test_training_holds_the_matrix_and_one_scene_pass(rng):
    """Dense-shaped input (~680 proposals per 64 x 64 scene, 1,600-long features):
    training peaks at the one feature matrix plus one scene's feature pass."""
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg = PipelineConfig(scales=(64,), pyramid=PyramidSpec((6, 3, 2, 1)))
    corpus = synth.CorpusConfig(width=64, height=64)
    scenes = []
    for seed in range(3):
        scene = synth.generate_scene(synth.random_scene_spec(corpus, seed))
        props = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(4, 8, 16),
                                    jitter_seed=seed)
        scenes.append(TrainScene(scene.image, scene.labels, scene.instances, props))
    objects, stuff = list(synth.OBJECT_CATEGORIES), list(synth.STUFF_CATEGORIES)
    scene_peak = 0
    for s in scenes:  # each scene's pass alone: its matrix and the design's work
        gts = [proposal_from_mask("gt", i.mask) for i in s.instances if i.category in objects]
        tracemalloc.start()
        try:
            proposal_features([*s.proposals, *gts], FeatureCache(s.image, net), g, cfg)
            scene_peak = max(scene_peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    features, pools = collect_training_pools(scenes, objects, stuff, net, g, cfg)
    assert len(features) > 2000 and all(map(all, pools.values()))
    tracemalloc.start()
    try:
        train_category_models(scenes, objects, stuff, net, g, cfg, epochs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= features.nbytes + scene_peak + (1 << 20)


class TestTrainingEmptyInputs:
    @staticmethod
    def scene(rng):
        image = random_map(rng, 3, 32, 32)
        labels = LabelMap(np.zeros((32, 32), dtype=np.uint16))
        instances = [InstanceSegment(1, rect_mask(32, 32, 4, 15, 4, 15))]
        proposals = [proposal_from_mask(f"p{i}", rect_mask(32, 32, 2 * i, 2 * i + 9,
                                                           3 * i, 3 * i + 9))
                     for i in range(6)]
        return TrainScene(image, labels, instances, proposals)

    @staticmethod
    def setup():
        net = init_toynet(default_spec(3, seed=0))
        cfg = PipelineConfig(scales=(32,), pyramid=PyramidSpec((3, 1)))
        return net, compose_geometry(net.spec.geometry_layers()), cfg

    def test_no_scenes_rejected(self):
        net, g, cfg = self.setup()
        with pytest.raises(ValidationError):
            train_category_models([], [1], [4], net, g, cfg)

    def test_stuff_category_absent_from_every_scene_rejected(self, rng):
        net, g, cfg = self.setup()
        scenes = [self.scene(rng), self.scene(rng)]  # label maps hold no category 4
        with pytest.raises(ValidationError):
            train_category_models(scenes, [], [4], net, g, cfg)
