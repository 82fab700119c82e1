"""Features travel as one (N, length) matrix from the feature pass to the SVM:
`train_svm`'s row-index contract, its agreement with the stepwise trainer,
the memory that training holds, and the empty-input errors of corpus
training."""

import tracemalloc

import numpy as np
import pytest

from cfmseg import synth
from cfmseg.classify import GATHER_ROWS, LinearModel, train_svm
from cfmseg.core import InstanceSegment, LabelMap, ValidationError, proposal_from_mask
from cfmseg.netgeom import compose_geometry
from cfmseg.pipeline import (
    PipelineConfig, TrainScene, collect_training_pools, train_category_models,
)
from cfmseg.pooling import PyramidSpec
from cfmseg.toynet import default_spec, init_toynet
from conftest import random_map, rect_mask
from oracles import exact_train_svm, hinge_objective, stepwise_train_svm


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
        assert same_model(model, train_svm(pos, neg[:-1], features[:-1], reg=1e-3,
                                           epochs=2, seed=0))

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


def closed_form(features, pos, neg, steps, *, reg, epochs, seed, category):
    """The model that violations at `steps` give in Pegasos's closed form: v sums
    y * x (bias column 1) over them in step order, in float64, and the model is
    v / (reg * T) after T steps."""
    rows = np.concatenate([pos, neg])
    rng = np.random.default_rng(seed)
    order = np.concatenate([rng.permutation(len(rows)) for _ in range(epochs)])
    x = np.ones(features.shape[1] + 1)
    v = np.zeros_like(x)
    for t in steps:
        k = order[t - 1]
        x[:-1] = features[rows[k]]
        v += (1.0 if k < len(pos) else -1.0) * x
    v /= reg * len(order)
    return LinearModel(v[:-1].astype(np.float32), v[-1], category)


class TestMatchesWholeMatrixTrainer:
    """`train_svm` against `oracles.stepwise_train_svm`, which reads the same
    matrix one step at a time. The violation sequence must be the same: the
    model equals, byte for byte, the closed form of the stepwise trainer's
    violations. Weights and bias must agree with the stepwise trainer's within
    RTOL of its largest weight (its float64 damping rounds once per step, and
    float32 rounds each weight to within 6e-8 of itself)."""

    RTOL = 1e-6

    @classmethod
    def check(cls, features, pos, neg, epochs=3, seed=5):
        kw = dict(reg=1e-3, epochs=epochs, seed=seed, category=2)
        got = train_svm(pos, neg, features, **kw)
        assert same_model(got, exact_train_svm(pos, neg, features, **kw))
        want, steps = stepwise_train_svm(pos, neg, features, **kw)
        assert same_model(got, closed_form(features, pos, neg, steps, **kw))
        scale = max(np.abs(want.weights).max(), abs(want.bias))
        assert np.abs(got.weights - want.weights).max() <= cls.RTOL * scale
        assert abs(got.bias - want.bias) <= cls.RTOL * scale and got.category == 2
        return steps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_pos, n_neg", [
        # pools sized from the block, named by their place around it, so that a
        # new GATHER_ROWS moves their sizes but not their names
        pytest.param(1, GATHER_ROWS - 2, id="one-short-of-a-block"),
        pytest.param(GATHER_ROWS // 2, GATHER_ROWS // 2, id="one-block"),
        pytest.param(GATHER_ROWS, 1, id="one-past-a-block"),
        pytest.param(GATHER_ROWS, GATHER_ROWS + 1, id="one-past-two-blocks"),
        # fixed sizes, named by their values
        (1, 1),  # one sample per class
        # 31, 32, 33 and 65 samples: around half a block of 64, and one past a block
        (1, 30), (16, 16), (32, 1), (32, 33),
        # 63, 64, 65 and 129 samples: around one block of 64, and one past two
        (1, 62), (32, 32), (64, 1), (64, 65),
        # 255, 256, 257 and 513 samples: one short of, at and one past four blocks
        # of 64, and one past eight
        (1, 254), (128, 128), (256, 1), (256, 257),
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_epoch(self, rng, dtype):
        features = (rng.standard_normal((3 * GATHER_ROWS + 5, 8)) + 0.3).astype(dtype)
        steps = self.check(features, np.arange(40), np.arange(40, len(features)), epochs=1)
        assert steps[0] == 1 and len(steps) > 1  # step 1 always violates, and not alone


def seed_for(order) -> int:
    """A seed whose first epoch visits the samples in `order`."""
    return next(s for s in range(10_000)
                if np.random.default_rng(s).permutation(len(order)).tolist() == list(order))


class TestScreenedTrainer:
    """`train_svm` screens each step with a float32 margin and rechecks only
    the close calls in float64; `oracles.exact_train_svm` takes every margin
    in float64. On pools built so that the screen alone would decide a step
    wrongly, the models must still be the same bytes."""

    @staticmethod
    def check(pos, neg, features, **kw):
        kw = {"reg": 1e-3, "epochs": 3, "seed": 4, "category": 1, **kw}
        got = train_svm(pos, neg, features, **kw)
        assert same_model(got, exact_train_svm(pos, neg, features, **kw))
        return got

    def test_margins_on_opposite_sides_of_the_floor(self):
        # every product of a = 1 + 2**-12 with itself is 1 + 2**-11 + 2**-24, which
        # float32 rounds to 1 + 2**-11 (a tie, to even), and 8 of them sum exactly
        # in any order. Step 1 takes row 0 (v = [a.., 1]); step 2 is row 1, -a..,
        # with y = -1: y * m is 7 + 2**-8 + 2**-21 in float64 and 7 + 2**-8 from
        # float32, and the floor reg * 1 lies between them
        a = np.float32(1 + 2**-12)
        features = np.array([[a] * 8, [-a] * 8], np.float32)
        reg = 7 + 2**-8 + 2**-22
        screen = -(float(np.einsum("j,j->", features[1], features[0])) + 1)
        assert screen < reg <= -(float(features[1].astype(float) @ features[0]) + 1)
        model = self.check([0], [1], features, reg=reg, epochs=1, seed=seed_for([0, 1]))
        assert model.bias == 1 / (2 * reg)  # step 2 did not violate

    def test_float32_overflow_is_rechecked(self):
        # row 1 against v = [row 0, 1]: the products are +-1e60, beyond float32,
        # so the screen's margin is NaN; in float64 they cancel, m = 1 < reg * 1
        features = np.array([[1e30, 1e30], [1e30, -1e30]], np.float32)
        model = self.check([0, 1], [0], features, reg=2.0, epochs=1, seed=seed_for([0, 1, 2]))
        assert model.bias == 1 / (3 * 2.0)  # v[d] = 1 + 1 - 1: step 2 violated

    def test_float32_underflow_is_rechecked(self):
        # after rows 0 (y = 1) and 2 (y = -1) violate, v = [row 0 - row 2, 0]; row
        # 1's products, 2e-60, are 0 in float32, so the screen's margin is 0,
        # below the floor 2 * reg, while the float64 margin 16 * 2e-60 is above it
        features = np.full((3, 16), 1e-30, np.float32)
        features[2] = -1e-30
        m = float(features[1].astype(float) @ (features[0].astype(float) - features[2]))
        model = self.check([0, 1], [2], features, reg=m / 4, epochs=1,
                           seed=seed_for([0, 2, 1]))
        assert model.bias == 0.0  # step 3 did not violate

    @pytest.mark.parametrize("reg", [1.0, 0.5, 1e-3])
    def test_all_zero_rows(self, reg):
        # each margin is the bias alone, and ties with the floor occur
        self.check(np.arange(5), np.arange(5, 8), np.zeros((8, 6), np.float32), reg=reg,
                   epochs=4)

    def test_tiny_reg(self, rng):
        features = rng.standard_normal((50, 30)).astype(np.float32)
        self.check(np.arange(20), np.arange(20, 50), features, reg=1e-12, epochs=3)

    def test_blas_order_tie(self):
        # test_score_bytes's tie: a sum in another order can lose the -2 against
        # 2**60 before the two 2**60 cancel, and flip step 2
        pool = np.ones((2, 1600), np.float32)
        pool[1] = 0.0
        pool[1, [1036, 840, 1072]] = 2.0**60, -2.0**60, -2.0
        self.check([0], [1], pool, reg=1.0, epochs=1, seed=0)

    @pytest.mark.parametrize("n", [1, 7, GATHER_ROWS, GATHER_ROWS + 3])
    def test_one_row_einsum_equals_its_row_of_many(self, rng, n):
        # the recheck takes one row's margin from a (1, d + 1) buffer; the exact
        # trainer took it as one row of a block's einsum
        dim = 1601
        block = np.ones((n, dim))
        block[:, :-1] = rng.standard_normal((n, dim - 1)).astype(np.float32)
        v = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4, dim)
        one = np.ones((1, dim))
        for at in range(n):
            many = np.einsum("ij,j->i", block[at:], v)
            for k in range(at, n):
                one[0] = block[k]
                assert np.einsum("ij,j->i", one, v)[0].tobytes() == many[k - at].tobytes()


def test_train_svm_holds_one_gather_buffer(rng):
    """A 6,400 x 1,600 float32 pool, dense's stuff-pool size: training holds one
    GATHER_ROWS-row float64 buffer (bias column included) and one block of
    gathered float32 rows, never a copy of the pool, and peaks below 2 MiB."""
    n, dim = 6400, 1600
    pool = rng.standard_normal((n, dim), dtype=np.float32)
    tracemalloc.start()
    try:
        train_svm(np.arange(30), np.arange(30, n), pool, reg=1e-4, epochs=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffer, block = GATHER_ROWS * (dim + 1) * 8, GATHER_ROWS * dim * 4
    assert peak <= buffer + block + (1 << 20)
    assert peak < 2 << 20


def test_training_holds_the_matrix_and_one_scene_pass(rng):
    """Dense-shaped input (~680 proposals per 64 x 64 scene, 1,600-long features):
    each scene's feature pass writes its rows into its slice of the one feature
    matrix, so training peaks below that matrix plus one design batch's rows (a
    scene's, at one scale and one thread) plus 1 MiB."""
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
    features, pools = collect_training_pools(scenes, objects, stuff, net, g, cfg)
    assert len(features) > 2000 and all(map(all, pools.values()))
    batch = max(len(s.proposals) + sum(i.category in objects for i in s.instances)
                for s in scenes) * features.itemsize * features.shape[1]
    tracemalloc.start()
    try:
        train_category_models(scenes, objects, stuff, net, g, cfg, epochs=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= features.nbytes + batch + (1 << 20), (peak, features.nbytes, batch)


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
