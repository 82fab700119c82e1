"""Features travel as one (N, length) matrix from the feature pass to the SVM:
`train_svm`'s matrix contract, its one float64 copy of the samples, and the
empty-input errors of corpus training."""

import tracemalloc

import numpy as np
import pytest

from cfmseg.classify import train_svm
from cfmseg.core import InstanceSegment, LabelMap, ValidationError, proposal_from_mask
from cfmseg.netgeom import compose_geometry
from cfmseg.pipeline import PipelineConfig, TrainScene, train_category_models
from cfmseg.pooling import PyramidSpec
from cfmseg.toynet import default_spec, init_toynet
from conftest import random_map, rect_mask


def clusters(rng, n, dim):
    pos = (rng.standard_normal((n, dim)) + 2.0).astype(np.float32)
    neg = (rng.standard_normal((n + 3, dim)) - 2.0).astype(np.float32)
    return pos, neg


class TestTrainSvmMatrices:
    def test_matrix_pair_trains_like_its_rows(self, rng):
        pos, neg = clusters(rng, 20, 6)
        model, trace = train_svm(pos, neg, reg=1e-3, epochs=5, seed=3)
        rows, rows_trace = train_svm(list(pos), list(neg), reg=1e-3, epochs=5, seed=3)
        assert model.weights.shape == (6,) and trace[-1] < trace[0]
        assert model.weights.tobytes() == rows.weights.tobytes()
        assert model.bias == rows.bias and trace == rows_trace

    @pytest.mark.parametrize("empty_side", [0, 1])
    def test_empty_class_matrix_rejected(self, rng, empty_side):
        pair = list(clusters(rng, 5, 4))
        pair[empty_side] = np.empty((0, 4), dtype=np.float32)
        with pytest.raises(ValidationError):
            train_svm(*pair, reg=1e-3, epochs=2, seed=0)

    def test_width_mismatch_rejected(self, rng):
        pos, _ = clusters(rng, 5, 4)
        _, neg = clusters(rng, 5, 5)
        with pytest.raises(ValidationError, match="mismatch"):
            train_svm(pos, neg, reg=1e-3, epochs=2, seed=0)

    def test_ragged_rows_rejected(self, rng):
        _, neg = clusters(rng, 5, 3)
        with pytest.raises(ValidationError):
            train_svm([np.ones(3), np.ones(4)], neg, reg=1e-3, epochs=2, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, rng, bad):
        pos, neg = clusters(rng, 5, 4)
        neg[2, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            train_svm(pos, neg, reg=1e-3, epochs=2, seed=0)

    def test_one_dimensional_class_rejected(self, rng):
        pos, _ = clusters(rng, 5, 4)
        with pytest.raises(ValidationError):
            train_svm(pos, np.ones(4, dtype=np.float32), reg=1e-3, epochs=2, seed=0)


def test_train_svm_holds_one_float64_copy(rng):
    """A 3,000 x 1,600 float32 pool: the samples are copied to float64 once,
    with the bias column, and the unaugmented matrix is a view of that copy."""
    n, dim = 3000, 1600
    pool = rng.standard_normal((n, dim), dtype=np.float32)
    pos, neg = pool[:1000], pool[1000:]
    tracemalloc.start()
    try:
        train_svm(pos, neg, reg=1e-4, epochs=1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * (dim + 1) * 8 + (1 << 20)


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
