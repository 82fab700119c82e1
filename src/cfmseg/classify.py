"""Per-category linear max-margin classifiers.

Training is primal stochastic subgradient descent on the regularized hinge
loss with the 1/(reg*t) step schedule, starting from zero (Pegasos,
Shalev-Shwartz, Singer, Srebro & Cotter, Math. Programming 2011). Under that
schedule the weights after step t are v_t / (reg*t), where v_t sums y*x over
the steps so far whose sample violated the margin, so training accumulates v
and divides once at the end. Sample order comes from a seeded generator, so
a given (data, seed, hyperparameter) triple always yields the same model.
Every dot product, in training and in scoring, is summed by numpy's einsum,
whose sum order is numpy's own: no model or score byte depends on the BLAS
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import MAX_LABEL, ValidationError
from .formats import (
    contained, dump_json, finite_number, int_fields, load_json, load_vector, save_vector,
)

GATHER_ROWS = 32  # training samples gathered into the float64 buffer at a time
SCORE_ROWS = 64  # feature rows cast into the float64 buffer at a time when scoring


@dataclass(frozen=True, eq=False)
class LinearModel:
    weights: np.ndarray
    bias: float
    category: int

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float32).reshape(-1)
        if not np.all(np.isfinite(arr)) or not np.isfinite(self.bias):
            raise ValidationError("model parameters must be finite")
        if not 0 <= self.category <= MAX_LABEL:  # a label map holds its category
            raise ValidationError(f"model category {self.category} outside 0..{MAX_LABEL}")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
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


def _float64_rows(mat: np.ndarray):
    """(start, rows) for each run of SCORE_ROWS rows of a matrix, cast into one
    reused float64 buffer, so the matrix is never copied whole."""
    buf = np.empty((min(len(mat), SCORE_ROWS), mat.shape[1]))
    for start in range(0, len(mat), SCORE_ROWS):
        rows = buf[:min(SCORE_ROWS, len(mat) - start)]
        rows[...] = mat[start:start + SCORE_ROWS]
        yield start, rows


def row_norms(features) -> np.ndarray:
    """Each row's float64 L2 norm, summed by numpy's einsum: its sum order is
    numpy's own, so the bytes do not depend on the BLAS kernel."""
    mat = _feature_matrix(features)
    out = np.empty(len(mat))
    for start, rows in _float64_rows(mat):
        np.einsum("ij,ij->i", rows, rows, out=out[start:start + len(rows)])
    return np.sqrt(out, out=out)


def score(models, features) -> np.ndarray:
    """(N, K) signed margins, dot(weights, row) + bias for each feature row and
    each of the K models, the dots summed by einsum as in `row_norms`."""
    mat = _feature_matrix(features)
    weights = np.empty((len(models), mat.shape[1]))
    for k, m in enumerate(models):
        if m.weights.size != mat.shape[1]:
            raise ValidationError(
                f"feature length {mat.shape[1]} != model length {m.weights.size}"
            )
        weights[k] = m.weights
    out = np.empty((len(mat), len(models)))
    for start, rows in _float64_rows(mat):
        np.einsum("ij,kj->ik", rows, weights, out=out[start:start + len(rows)])
    out += [m.bias for m in models]
    return out


def check_hyperparameters(reg: float, epochs: int) -> None:
    """Reject a `reg` that is not a positive finite number and fewer than one
    epoch: the weights are divided by reg * t."""
    if not (np.isfinite(reg) and reg > 0) or epochs < 1:
        raise ValidationError(f"bad hyperparameters reg={reg} epochs={epochs}")


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
    float64 buffer, so the samples are never copied whole. Step t violates
    when y * (v . x) < reg * (t - 1), and step 1 always does (w_0 = 0). A
    block's margins against v are one einsum; v changes only at a violation,
    and only then is the rest of the block read again. `reg` and `epochs`
    have no defaults here: `pipeline.train_category_models` holds them.
    """
    feats = _feature_matrix(features)
    n_rows, dim = feats.shape
    pos, neg = _row_indices(positives, n_rows), _row_indices(negatives, n_rows)
    check_hyperparameters(reg, epochs)
    rows = np.concatenate([pos, neg])
    n = len(rows)
    y = np.where(np.arange(n) < len(pos), 1.0, -1.0)
    # the bias rides along as the buffer's always-1 last column so its step
    # shares the 1/(reg*t) damping, which it needs to converge
    buf = np.ones((min(n, GATHER_ROWS), dim + 1))
    v = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)
    t = 0  # steps taken
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, GATHER_ROWS):
            block = order[start:start + GATHER_ROWS]
            x = buf[:len(block)]
            x[:, :dim] = feats[rows[block]]
            if epoch == 0 and not np.isfinite(x).all():  # epoch 0 reads each row once
                raise ValidationError("feature rows must be finite")
            signs = y[block]
            floor = reg * np.arange(t, t + len(block))  # reg * (t - 1) for each step
            at = 0
            if t == 0:  # step 1: v is 0, so its margin 0 is not below reg * 0
                v += signs[0] * x[0]
                at = 1
            while at < len(block):
                margins = np.einsum("ij,j->i", x[at:], v)
                margins *= signs[at:]
                hits = np.flatnonzero(margins < floor[at:])
                if not len(hits):
                    break
                at += int(hits[0])
                v += signs[at] * x[at]
                at += 1
            t += len(block)
    v /= reg * t
    return LinearModel(v[:dim].astype(np.float32), v[dim], category)


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
