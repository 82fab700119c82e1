"""Per-category linear max-margin classifiers.

Training is plain primal stochastic subgradient descent on the regularized
hinge loss with the 1/(reg*t) step schedule, starting from zero. Sample
order comes from a seeded generator, so a given (data, seed, hyperparameter)
triple always yields the same model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import ValidationError, _readonly
from .formats import (
    contained, dump_json, int_fields, load_json, load_vector, save_vector,
)


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    category: int
    weights64: np.ndarray = field(init=False, repr=False)  # scoring's float64 copy

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float32).reshape(-1)
        if not np.all(np.isfinite(arr)) or not np.isfinite(self.bias):
            raise ValidationError("model parameters must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "weights64", _readonly(arr.astype(np.float64)))
        object.__setattr__(self, "bias", float(self.bias))


def _vector(feature) -> np.ndarray:
    return np.asarray(feature, dtype=np.float64).reshape(-1)


def _matrix(features) -> np.ndarray:
    rows = [_vector(f) for f in features]
    for row in rows:
        if row.size != rows[0].size:
            raise ValidationError(
                f"feature length mismatch: {row.size} vs {rows[0].size}"
            )
    mat = np.stack(rows)
    if not np.all(np.isfinite(mat)):
        raise ValidationError("features contain non-finite values")
    return mat


def score(m: LinearModel, feature) -> float:
    """Signed margin: dot(weights, feature) + bias."""
    vec = _vector(feature)
    if vec.size != m.weights.size:
        raise ValidationError(
            f"feature length {vec.size} != model length {m.weights.size}"
        )
    return float(np.dot(m.weights64, vec) + m.bias)


def _objective(w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray,
               reg: float) -> float:
    margins = y * (x @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * reg * np.dot(w, w) + hinge)


def train_svm(
    positives,
    negatives,
    *,
    reg: float,
    epochs: int,
    seed: int = 0,
    category: int = 0,
) -> tuple[LinearModel, list[float]]:
    """Train one category's classifier; returns the model and an objective trace.

    The trace holds the objective at initialization followed by one value
    per epoch, all evaluated on the full training set. `reg` and `epochs`
    have no defaults here: `pipeline.train_category_models` holds them.
    """
    if not positives or not negatives:
        raise ValidationError("both classes need at least one sample")
    if reg <= 0 or epochs < 1:
        raise ValidationError(f"bad hyperparameters reg={reg} epochs={epochs}")
    x = _matrix(list(positives) + list(negatives))
    y = np.concatenate(
        [np.ones(len(positives)), -np.ones(len(negatives))]
    )
    n, dim = x.shape
    # the bias rides along as an always-1 feature so its step shares the
    # 1/(reg*t) damping; an unregularized bias diverges under this schedule
    xa = np.concatenate([x, np.ones((n, 1))], axis=1)
    w = np.zeros(dim + 1, dtype=np.float64)
    trace = [_objective(w[:dim], w[dim], x, y, reg)]
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            violates = y[i] * np.dot(w, xa[i]) < 1.0
            w *= 1.0 - eta * reg
            if violates:
                w += eta * y[i] * xa[i]
        trace.append(_objective(w[:dim], w[dim], x, y, reg))
    return LinearModel(w[:dim].astype(np.float32), w[dim], category), trace


def save_model(path: Path | str, m: LinearModel) -> None:
    """JSON descriptor plus a sibling tensor file holding the weight vector."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    weights_rel = path.stem + "_weights.cfmt"
    save_vector(path.parent / weights_rel, m.weights)
    dump_json({"category": m.category, "bias": m.bias, "weights": weights_rel}, path)


def load_model(path: Path | str) -> LinearModel:
    path = Path(path)
    return load_json(path, partial(_model_from_json, path.parent))


def _model_from_json(base: Path, meta) -> LinearModel:
    category = int_fields(meta, ("category",))["category"]
    weights = load_vector(contained(base, meta["weights"]))
    return LinearModel(weights, float(meta["bias"]), category)
