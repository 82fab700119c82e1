import json

import numpy as np
import pytest

from cfmseg.classify import (
    LinearModel,
    load_model,
    save_model,
    score,
    train_svm,
)
from cfmseg.core import ValidationError
from cfmseg.formats import FormatError, save_vector
from oracles import hinge_objective


def separable_clusters(rng, n=40, dim=6, gap=4.0):
    pos = rng.standard_normal((n, dim)) + gap
    neg = rng.standard_normal((n, dim)) - gap
    return list(pos), list(neg)


def train_stacked(pos, neg, **kw):
    """train_svm on both classes' rows stacked into one feature matrix."""
    features = np.array([*pos, *neg])
    return train_svm(np.arange(len(pos)), np.arange(len(pos), len(features)), features, **kw)


def zero_model(dim: int) -> LinearModel:
    return LinearModel(np.zeros(dim, dtype=np.float32), 0.0, 0)


class TestTrainSvm:
    def test_separable_data_fits_perfectly(self, rng):
        pos, neg = separable_clusters(rng)
        model = train_stacked(pos, neg, reg=1e-3, epochs=30, seed=0)
        assert all(score(model, f) > 0 for f in pos)
        assert all(score(model, f) <= 0 for f in neg)
        samples = [(f, 1) for f in pos] + [(f, -1) for f in neg]
        assert hinge_objective(model, samples, 1e-3) < hinge_objective(
            zero_model(len(pos[0])), samples, 1e-3
        )

    def test_identical_classes_do_not_crash(self, rng):
        data = rng.standard_normal((10, 4))
        rows = np.arange(len(data))  # every row in both classes
        model = train_svm(rows, rows, data, reg=1e-2, epochs=5, seed=0)
        # each sample carries both labels, so one of its two is always wrong
        hits = sum(score(model, f) > 0 for f in data)
        hits += sum(score(model, f) <= 0 for f in data)
        assert hits / (2 * len(data)) <= 0.5 + 1e-9

    def test_zero_features_give_bias_only_model(self):
        zeros = [np.zeros(5) for _ in range(8)]
        model = train_stacked(zeros, zeros, reg=1e-2, epochs=5, seed=1)
        assert not model.weights.any()
        margins = {score(model, z) for z in zeros}
        assert len(margins) == 1

    def test_deterministic_given_seed(self, rng):
        pos, neg = separable_clusters(rng, n=15)
        a = train_stacked(pos, neg, reg=1e-3, epochs=10, seed=42)
        b = train_stacked(pos, neg, reg=1e-3, epochs=10, seed=42)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias == b.bias

    def test_objective_never_worse_than_zero_model(self, rng):
        for trial in range(5):
            pos, neg = separable_clusters(rng, n=20, gap=2.0)
            reg = 10.0 ** -rng.integers(2, 5)
            model = train_stacked(pos, neg, reg=reg, epochs=15, seed=trial)
            samples = [(f, 1) for f in pos] + [(f, -1) for f in neg]
            assert hinge_objective(model, samples, reg) <= hinge_objective(
                zero_model(len(pos[0])), samples, reg
            )

    def test_empty_class_rejected(self, rng):
        pos, _ = separable_clusters(rng, n=3)
        with pytest.raises(ValidationError, match="non-empty"):
            train_svm(np.arange(3), [], np.array(pos), reg=1e-3, epochs=2, seed=0)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError, match="differ in length"):
            train_svm([0], [1], [np.ones(3), np.ones(4)], reg=1e-3, epochs=2, seed=0)

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            train_stacked([np.array([np.nan, 1.0])], [np.ones(2)], reg=1e-3,
                          epochs=2, seed=0)

    def test_permutation_invariance_of_predictions(self, rng):
        pos, neg = separable_clusters(rng, n=12)
        perm = rng.permutation(len(pos[0]))
        model = train_stacked(pos, neg, reg=1e-3, epochs=10, seed=7)
        model_p = train_stacked(
            [p[perm] for p in pos], [n[perm] for n in neg],
            reg=1e-3, epochs=10, seed=7,
        )
        probe = rng.standard_normal(len(pos[0]))
        assert np.sign(score(model, probe)) == np.sign(score(model_p, probe[perm]))


class TestScore:
    def test_zero_model_scores_zero(self, rng):
        model = LinearModel(np.zeros(4, dtype=np.float32), 0.0, 0)
        assert score(model, rng.standard_normal(4)) == 0.0

    def test_unit_vector_picks_coordinate(self, rng):
        w = np.zeros(5, dtype=np.float32)
        w[2] = 1.0
        model = LinearModel(w, 0.25, 0)
        f = rng.standard_normal(5)
        assert score(model, f) == pytest.approx(f[2] + 0.25)

    def test_linearity(self, rng):
        w = rng.standard_normal(6).astype(np.float32)
        model = LinearModel(w, 1.5, 0)
        f, g = rng.standard_normal(6), rng.standard_normal(6)
        lhs = score(model, 2 * f + 3 * g) - model.bias
        rhs = 2 * (score(model, f) - model.bias) + 3 * (score(model, g) - model.bias)
        assert lhs == pytest.approx(rhs)

    def test_doubling_feature_doubles_margin(self, rng):
        w = rng.standard_normal(4).astype(np.float32)
        model = LinearModel(w, 0.7, 0)
        f = rng.standard_normal(4)
        assert score(model, 2 * f) - model.bias == pytest.approx(
            2 * (score(model, f) - model.bias)
        )

    def test_length_mismatch_rejected(self):
        model = LinearModel(np.zeros(4, dtype=np.float32), 0.0, 0)
        with pytest.raises(ValidationError):
            score(model, np.zeros(5))


class TestHingeObjective:
    def test_zero_model_data_term_is_one(self, rng):
        model = LinearModel(np.zeros(3, dtype=np.float32), 0.0, 0)
        samples = [(rng.standard_normal(3), 1), (rng.standard_normal(3), -1)]
        assert hinge_objective(model, samples, reg=0.1) == pytest.approx(1.0)

    def test_wide_margins_vanish(self):
        model = LinearModel(np.array([1.0], dtype=np.float32), 0.0, 0)
        samples = [(np.array([5.0]), 1), (np.array([-5.0]), -1)]
        assert hinge_objective(model, samples, reg=1e-9) == pytest.approx(
            0.0, abs=1e-6
        )


class TestModelIO:
    def test_round_trip(self, tmp_path, rng):
        model = LinearModel(rng.standard_normal(7).astype(np.float32), -0.5, 3)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert back.category == 3
        assert back.bias == model.bias
        assert np.array_equal(back.weights, model.weights)

    def test_scores_survive_round_trip(self, tmp_path, rng):
        model = LinearModel(rng.standard_normal(9).astype(np.float32), 0.25, 1)
        save_model(tmp_path / "m.json", model)
        back = load_model(tmp_path / "m.json")
        probe = rng.standard_normal(9).astype(np.float32)
        assert score(back, probe) == score(model, probe)

    @pytest.mark.parametrize("where", ["parent", "absolute"])
    def test_weights_outside_directory_rejected(self, tmp_path, where):
        # a valid weight file outside the model directory, so only containment
        # rejects it
        outside = tmp_path / "outside" / "w.cfmt"
        outside.parent.mkdir()
        save_vector(outside, np.ones(4, dtype=np.float32))
        rel = "../outside/w.cfmt" if where == "parent" else str(outside)
        path = tmp_path / "models" / "m.json"
        path.parent.mkdir()
        path.write_text(json.dumps({"category": 1, "bias": 0.0, "weights": rel}))
        with pytest.raises(FormatError, match="leaves its directory"):
            load_model(path)

    def test_missing_model_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "absent.json")

    @pytest.mark.parametrize("category", [1.5, "1", True, None])
    def test_category_must_be_json_integer(self, tmp_path, category):
        save_model(tmp_path / "m.json", LinearModel(np.ones(3), 0.0, 1))
        meta = json.loads((tmp_path / "m.json").read_text())
        meta["category"] = category
        (tmp_path / "m.json").write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match="'category'"):
            load_model(tmp_path / "m.json")
