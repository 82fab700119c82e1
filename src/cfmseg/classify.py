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

from .core import MAX_LABEL, ValidationError, _readonly
from .formats import (
    contained, dump_json, finite_number, int_fields, load_json, load_vector, save_vector,
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
        if not 0 <= self.category <= MAX_LABEL:  # a label map holds its category
            raise ValidationError(f"model category {self.category} outside 0..{MAX_LABEL}")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        object.__setattr__(self, "weights64", _readonly(arr.astype(np.float64)))
        object.__setattr__(self, "bias", float(self.bias))


def _samples(rows) -> np.ndarray:
    try:
        mat = np.asarray(rows)  # a matrix is not copied
    except ValueError:  # rows of different lengths
        raise ValidationError("feature rows differ in length") from None
    if mat.ndim != 2 or len(mat) == 0 or not np.all(np.isfinite(mat)):
        raise ValidationError("each class needs a finite (n, d) sample matrix, n >= 1")
    return mat


def score(m: LinearModel, feature) -> float:
    """Signed margin: dot(weights, feature) + bias."""
    vec = np.asarray(feature, dtype=np.float64).reshape(-1)
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
    """One category's classifier and objective trace from two (n, d) sample matrices.

    The trace holds the objective at initialization followed by one value
    per epoch, all evaluated on the full training set. `reg` and `epochs`
    have no defaults here: `pipeline.train_category_models` holds them.
    """
    pos, neg = _samples(positives), _samples(negatives)
    if reg <= 0 or epochs < 1:
        raise ValidationError(f"bad hyperparameters reg={reg} epochs={epochs}")
    (n_pos, dim), n = pos.shape, len(pos) + len(neg)
    if neg.shape[1] != dim:
        raise ValidationError(f"feature length mismatch: {neg.shape[1]} vs {dim}")
    # the one float64 copy of the samples; the bias rides along as an always-1
    # feature so its step shares the 1/(reg*t) damping, which it needs to converge
    xa = np.ones((n, dim + 1))
    xa[:n_pos, :dim], xa[n_pos:, :dim] = pos, neg
    x = xa[:, :dim]  # a view: BLAS reads it with the row stride dim + 1
    y = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
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
    return LinearModel(weights, finite_number(meta["bias"], "bias"), category)
