"""Per-category linear max-margin classifiers.

Training is primal stochastic subgradient descent on the regularized hinge
loss with the 1/(reg*t) step schedule, starting from zero (Pegasos,
Shalev-Shwartz, Singer, Srebro & Cotter, Math. Programming 2011). Under that
schedule the weights after step t are v_t / (reg*t), where v_t sums y*x over
the steps so far whose sample violated the margin, so training accumulates v
and divides once at the end. Sample order comes from a seeded generator, so
a given (data, seed, hyperparameter) triple always yields the same model.
Each step's margin is first screened in float32 against a proven error
bound, and only a step too close to its floor to be settled that way (or
whose float32 margin overflowed) is rechecked in float64, so every decision
is the float64 margin's. A pre-pass over the samples takes each row's norm
for the bound and rejects a non-finite row. Every dot product, in training
and in scoring, is summed by numpy's einsum, whose sum order is numpy's own:
no model or score byte depends on the BLAS kernel.
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

GATHER_ROWS = 64  # training samples gathered and screened at a time
SCORE_ROWS = 64  # feature rows cast into the float64 buffer at a time when scoring
U32 = 2.0**-24  # the unit roundoff of float32
TINY32 = 2.0**-149  # the least float32 subnormal, twice any float32 underflow error


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


def _gamma(k: int, u: float) -> float:
    """gamma_k(u) = k*u / (1 - k*u), the relative error bound of k roundings
    of unit roundoff u; infinite once k*u reaches 1."""
    return k * u / (1 - k * u) if k * u < 1 else np.inf


def _sample_norms(feats: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """||[x, 1]|| of each sample row, the rows cast GATHER_ROWS at a time into
    one reused float64 buffer whose last column is 1. Rejects a non-finite row."""
    buf = np.ones((min(len(rows), GATHER_ROWS), feats.shape[1] + 1))
    out = np.empty(len(rows))
    for start in range(0, len(rows), GATHER_ROWS):
        x = buf[:len(rows[start:start + GATHER_ROWS])]
        x[:, :-1] = feats[rows[start:start + GATHER_ROWS]]
        if not np.isfinite(x).all():
            raise ValidationError("feature rows must be finite")
        np.einsum("ij,ij->i", x, x, out=out[start:start + len(x)])
    return np.sqrt(out, out=out)


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

    Step t violates when y * m < reg * (t - 1), where m is the float64 einsum
    of the row [x, 1] against v; step 1 always does (w_0 = 0; its floor is
    taken as +inf). v changes only at a violation, so the model depends only
    on which steps violate, and each step is settled by a float32 screen: one
    einsum of the gathered float32 rows of a block (GATHER_ROWS at a time)
    against float32(v[:d]), plus v[d] in float64, gives m~. With
    gap = y * m~ - reg * (t - 1) and the bound s of the row, the step violates
    if gap < -s and does not if gap >= s; otherwise, or if m~ is not finite,
    its row is cast into a (1, d + 1) float64 buffer and m is taken exactly as
    above. So the decisions, and v, are those of the
    float64 margins alone. v is summed in float64 from the float64 rows, and
    only after a violation is the rest of the block screened again.

    The bound. With u the unit roundoff (u32 = 2^-24, u64 = 2^-53) and
    gamma_k(u) = k*u / (1 - k*u), and P = sum |x_i v_i| + |v_d|, which is at
    most ||[x, 1]|| * ||v|| (Cauchy-Schwarz):
    - rounding v[:d], and x when the matrix is not float32, to float32 moves
      each product by at most (2*u32 + u32^2) |x_i v_i|;
    - the float32 dot, summed in any order, is off by gamma_d(u32) times the
      sum of its |products|, which are at most (1 + u32)^2 |x_i v_i|;
    - adding v[d] in float64 rounds once (u64 |m~|), and the exact m is off
      the true dot by gamma_{d+1}(u64) P;
    so |m~ - m| <= delta P with delta = (2*u32 + 2*gamma_{d+1}(u32)) (1 + 1e-6).
    The (1 + 1e-6) rounds up the float64 norms, the products forming s and the
    subtraction forming gap, each within gamma_{d+3}(u64), far below 1e-6 while
    d + 1 < 2^24 (beyond that gamma_{d+1}(u32) is infinite and every step is
    checked exactly). Underflow is absolute, not relative: an entry of v or x
    that goes subnormal or to zero in float32 moves a product by at most
    2^-150 times the other factor, and a subnormal product by at most 2^-150,
    so eps = 2^-149 (d + sqrt(d + 1) (||[x, 1]|| + ||v||)) covers them with
    room for the sums they pass through. s = delta ||[x, 1]|| ||v|| + eps.
    A float32 overflow makes m~ infinite or NaN, which is always rechecked; a
    NaN s (an infinite norm times 0) fails both tests and is rechecked too.

    ||[x, 1]|| comes from one pass over the samples, GATHER_ROWS at a time
    through one reused float64 buffer, which also rejects a non-finite row;
    ||v|| is refreshed with float32(v[:d]) at each violation. `reg` and
    `epochs` have no defaults here: `pipeline.train_category_models` holds them.
    """
    feats = _feature_matrix(features)
    n_rows = len(feats)
    pos, neg = _row_indices(positives, n_rows), _row_indices(negatives, n_rows)
    check_hyperparameters(reg, epochs)
    rows = np.concatenate([pos, neg])
    y = np.where(np.arange(len(rows)) < len(pos), 1.0, -1.0)
    v, t = _violation_sum(feats, rows, y, _sample_norms(feats, rows), reg, epochs, seed)
    v /= reg * t
    return LinearModel(v[:-1].astype(np.float32), v[-1], category)


@np.errstate(over="ignore", invalid="ignore")  # a float32 overflow is rechecked, not reported
def _violation_sum(feats, rows, y, norms, reg: float, epochs: int, seed: int):
    """v, the float64 sum of y * [x, 1] over the violating steps, and the
    number of steps, screened as `train_svm` describes."""
    n, dim = len(rows), feats.shape[1]
    # the float64 [x, 1] of a step being rechecked or taken: the bias rides
    # along as the always-1 last column so its step shares the 1/(reg*t)
    # damping, which it needs to converge
    row = np.ones((1, dim + 1))
    delta = (2 * U32 + 2 * _gamma(dim + 1, U32)) * (1 + 1e-6)
    tiny = TINY32 * np.sqrt(dim + 1)
    v = np.zeros(dim + 1)
    v32, a, b = np.zeros(dim, np.float32), tiny, TINY32 * dim  # s = a * ||[x, 1]|| + b
    rng = np.random.default_rng(seed)
    t = 0  # steps taken
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, GATHER_ROWS):
            block = order[start:start + GATHER_ROWS]
            x32 = np.asarray(feats[rows[block]], dtype=np.float32)
            signs, row_norm = y[block], norms[block]
            floor = reg * np.arange(t, t + len(block))  # reg * (t - 1) for each step
            if t == 0:  # step 1 violates (w_0 = 0), though v = 0 gives it margin 0
                floor[0] = np.inf
            at = 0
            while at < len(block):
                gap = np.add(np.einsum("ij,j->i", x32[at:], v32), v[dim], dtype=np.float64)
                gap *= signs[at:]
                gap -= floor[at:]
                bound = row_norm[at:] * a
                bound += b
                bound += 0 * gap  # NaN where m~ is not finite: recheck it
                for k in np.flatnonzero(~(gap >= bound)).tolist():  # in step order
                    row[0, :dim] = feats[rows[block[at + k]]]
                    if (gap[k] < -bound[k]
                            or signs[at + k] * np.einsum("ij,j->i", row, v)[0] < floor[at + k]):
                        break
                else:
                    break  # no step left in the block violates
                at += k
                v += signs[at] * row[0]
                v32 = v[:dim].astype(np.float32)
                norm = np.sqrt(np.einsum("i,i->", v, v))
                a, b = delta * norm + tiny, tiny * norm + TINY32 * dim
                at += 1
            t += len(block)
    return v, t


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
