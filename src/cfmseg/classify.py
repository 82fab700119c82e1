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

GATHER_ROWS = 256  # training samples gathered into the float64 buffer at a time


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


def _feature_matrix(features) -> np.ndarray:
    try:
        mat = np.asarray(features)  # a matrix is not copied
    except ValueError:  # rows of different lengths
        raise ValidationError("feature rows differ in length") from None
    if mat.ndim != 2 or mat.dtype.kind not in "biuf":
        raise ValidationError("features must be a real (N, d) matrix")
    return mat


def _row_indices(rows, n: int) -> np.ndarray:
    """One class's rows of an n-row matrix: a non-empty 1-D integer array."""
    idx = np.asarray(rows)
    if idx.ndim != 1 or len(idx) == 0:
        raise ValidationError("each class needs a non-empty 1-D array of row indices")
    # numpy reads a boolean array as a mask and folds a list's booleans into integers
    if idx.dtype.kind not in "iu" or (
        not isinstance(rows, np.ndarray) and any(isinstance(r, (bool, np.bool_)) for r in rows)
    ):
        raise ValidationError("row indices must be integers, not booleans or floats")
    if idx.min() < 0 or idx.max() >= n:  # numpy would wrap a negative index
        raise ValidationError(f"row indices must be in 0..{n - 1}")
    return idx


def score(m: LinearModel, feature) -> float:
    """Signed margin: dot(weights, feature) + bias."""
    vec = np.asarray(feature, dtype=np.float64).reshape(-1)
    if vec.size != m.weights.size:
        raise ValidationError(
            f"feature length {vec.size} != model length {m.weights.size}"
        )
    return float(np.dot(m.weights64, vec) + m.bias)


def train_svm(
    positives,
    negatives,
    features,
    *,
    reg: float,
    epochs: int,
    seed: int = 0,
    category: int = 0,
) -> LinearModel:
    """One category's classifier from two lists of row indices into one
    (N, d) feature matrix.

    Each epoch reads its permuted rows GATHER_ROWS at a time into one reused
    float64 buffer, so the samples are never copied whole. `reg` and
    `epochs` have no defaults here: `pipeline.train_category_models` holds
    them.
    """
    feats = _feature_matrix(features)
    n_rows, dim = feats.shape
    pos, neg = _row_indices(positives, n_rows), _row_indices(negatives, n_rows)
    if reg <= 0 or epochs < 1:
        raise ValidationError(f"bad hyperparameters reg={reg} epochs={epochs}")
    rows = np.concatenate([pos, neg])
    n = len(rows)
    y = np.where(np.arange(n) < len(pos), 1.0, -1.0)
    # the bias rides along as the buffer's always-1 last column so its step
    # shares the 1/(reg*t) damping, which it needs to converge
    buf = np.ones((min(n, GATHER_ROWS), dim + 1))
    step = np.empty(dim + 1)
    w = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)
    t = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, GATHER_ROWS):
            block = order[start:start + GATHER_ROWS]
            x = buf[:len(block)]
            x[:, :dim] = feats[rows[block]]
            if epoch == 0 and not np.isfinite(x).all():  # epoch 0 reads each row once
                raise ValidationError("feature rows must be finite")
            for xi, yi in zip(x, y[block].tolist()):
                t += 1
                eta = 1.0 / (reg * t)
                violates = yi * np.dot(w, xi) < 1.0
                w *= 1.0 - eta * reg
                if violates:
                    np.multiply(xi, eta * yi, out=step)
                    w += step
    return LinearModel(w[:dim].astype(np.float32), w[dim], category)


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
