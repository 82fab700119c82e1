"""Score, feature-norm and model bytes that depend on neither the BLAS kernel
nor how the rows are batched.

`classify.score`, `classify.row_norms` and `classify.train_svm` sum with
numpy's einsum, whose order numpy fixes, not with a BLAS `ddot`, whose order
the OpenBLAS kernel picks at run time. Child processes run the same computation under other
OpenBLAS kernels (`OPENBLAS_CORETYPE`) and with numpy's dispatched SIMD
switched off (`NPY_DISABLE_CPU_FEATURES`); every run must give the same bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from cfmseg import pipeline, synth, toynet
from cfmseg.classify import SCORE_ROWS, LinearModel, row_norms, score
from cfmseg.netgeom import compose_geometry

SRC = Path(__file__).resolve().parent.parent / "src"
# numpy 2.4 reads only dispatch-group names here; it warns about and ignores
# single-feature names such as AVX512F
NO_SIMD = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"

CHILD = """
import hashlib, json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
if sys.argv[1] == "no-simd":
    assert not __cpu_features__["X86_V4"], "NPY_DISABLE_CPU_FEATURES had no effect"
sys.path.insert(0, sys.argv[2])
from cfmseg import classify, pipeline, synth, toynet
from cfmseg.netgeom import compose_geometry

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

rng = np.random.default_rng(5)
features = rng.standard_normal((150, 1601)).astype(np.float32)
models = [classify.LinearModel(rng.standard_normal(1601).astype(np.float32),
                               float(rng.standard_normal()), c) for c in range(1, 6)]
scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 3))
props = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(8, 16))
net = toynet.init_toynet(toynet.default_spec(3, seed=0))
g = compose_geometry(net.spec.geometry_layers())
cfg = pipeline.PipelineConfig(scales=(64, 96))
length = cfg.pyramid.output_length(net.spec.out_channels)
scene_models = [classify.LinearModel(rng.standard_normal(length).astype(np.float32),
                                     0.0, c) for c in range(1, 4)]
scored = pipeline.score_proposals(scene_models, props, scene.image, net, g, cfg)
# a tie: after step 1 (row 0) the weights are all ones, so step 2 (y = -1)
# violates when the sum of row 1 is above -2. It is -2 exactly, but a sum in
# another order can lose the -2 against 2**60 before the two 2**60 cancel, and
# OpenBLAS's ddot kernels differ in that order, so a BLAS check flips this step
pool = np.ones((2, 1600), np.float32)
pool[1] = 0.0
pool[1, [1036, 840, 1072]] = 2.0**60, -2.0**60, -2.0
trained = classify.train_svm([0], [1], pool, reg=1.0, epochs=1, seed=0)
print(json.dumps({
    "train_svm": digest(np.append(trained.weights.astype(np.float64), trained.bias)),
    "score": digest(classify.score(models, features)),
    "row_norms": digest(classify.row_norms(features)),
    "score_proposals": digest(np.array([r.score for r in scored])),
    # the control: a BLAS ddot, which must differ between kernels
    "ddot": digest([np.dot(m.weights.astype(np.float64), f.astype(np.float64))
                    for f in features for m in models]),
}))
"""


def _child(mode: str, **env) -> dict:
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    done = subprocess.run([sys.executable, "-c", CHILD, mode, str(SRC)],
                          env={**base, **env}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bytes_do_not_depend_on_blas_kernel_or_simd():
    fast = "SkylakeX" if __cpu_features__.get("AVX512F") else "Haswell"
    runs = {
        fast: _child("blas", OPENBLAS_CORETYPE=fast),
        "Prescott": _child("blas", OPENBLAS_CORETYPE="Prescott"),
        "no-simd": _child("no-simd", NPY_DISABLE_CPU_FEATURES=NO_SIMD),
    }
    if runs[fast]["ddot"] == runs["Prescott"]["ddot"]:
        pytest.skip(f"OPENBLAS_CORETYPE {fast} and Prescott give the same ddot here")
    for key in ("score", "row_norms", "score_proposals", "train_svm"):
        assert len({run[key] for run in runs.values()}) == 1, (key, runs)


# ---------------------------------------------------------------------------
# the same bytes however the rows are batched
# ---------------------------------------------------------------------------

DIM = 97


@pytest.fixture
def matrix(rng):
    features = rng.standard_normal((2 * SCORE_ROWS + 5, DIM)).astype(np.float32)
    models = [LinearModel(rng.standard_normal(DIM).astype(np.float32),
                          float(rng.standard_normal()), c) for c in range(1, 6)]
    return features, models


def _misaligned(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of `a` whose data starts `offset` bytes past an aligned address."""
    raw = np.zeros(a.nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64 + offset
    view = raw[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    view[...] = a
    assert view.ctypes.data % 64 == offset
    return view


@pytest.mark.parametrize("row", [0, SCORE_ROWS - 1, SCORE_ROWS, 2 * SCORE_ROWS + 4])
def test_row_bytes_do_not_depend_on_its_batch(matrix, row):
    features, models = matrix
    scores, norms = score(models, features), row_norms(features)
    x = features[row:row + 1]
    others = np.delete(features, row, axis=0)
    batches = {"alone": (x, 0)}
    for n in (SCORE_ROWS - 1, SCORE_ROWS, SCORE_ROWS + 1):
        batches[f"first of {n}"] = (np.concatenate([x, others[:n - 1]]), 0)
        batches[f"last of {n}"] = (np.concatenate([others[:n - 1], x]), n - 1)
    for offset in (4, 8):
        batches[f"float32 at +{offset}"] = (_misaligned(features, offset), row)
    batches["float64 at +4"] = (_misaligned(features.astype(np.float64), 4), row)
    for name, (batch, at) in batches.items():
        assert score(models, batch)[at].tobytes() == scores[row].tobytes(), name
        assert row_norms(batch)[at].tobytes() == norms[row].tobytes(), name
    for k, m in enumerate(models):  # one model at a time
        assert score([m], features)[:, 0].tobytes() == scores[:, k].tobytes()


def test_scores_near_float64_dot(matrix):
    features, models = matrix
    x = features.astype(np.float64)
    w = np.array([m.weights for m in models], dtype=np.float64)
    b = np.array([m.bias for m in models])
    want = np.array([[np.dot(wk, xi) for wk in w] for xi in x]) + b
    bound = np.abs(x) @ np.abs(w).T + np.abs(b)  # what the summands can cancel
    assert (np.abs(score(models, features) - want) <= 1e-12 * bound).all()
    assert np.allclose(row_norms(features), np.sqrt((x * x).sum(axis=1)), rtol=1e-12)


def test_features_and_scores_do_not_depend_on_threads():
    scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4))
    props = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(16, 32))
    net = toynet.init_toynet(toynet.default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg = pipeline.PipelineConfig(scales=(256, 512))  # 51 proposals at 512, one at 256
    length = cfg.pyramid.output_length(net.spec.out_channels)
    rng = np.random.default_rng(1)
    models = [LinearModel(rng.standard_normal(length).astype(np.float32), 0.1, c)
              for c in (1, 2)]
    runs = {}
    for threads in (1, 3):
        cache = pipeline.FeatureCache(scene.image, net)
        feats = pipeline.proposal_features(props, cache, g, cfg, threads=threads)
        scored = pipeline.score_proposals(models, props, scene.image, net, g, cfg,
                                          threads=threads)
        runs[threads] = (hashlib.sha256(feats.tobytes()).hexdigest(),
                         [r.score for r in scored])
    assert runs[1] == runs[3]
