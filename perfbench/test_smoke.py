"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from cfmseg import core, pipeline  # noqa: E402
from cfmseg.core import LabelMap  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
W = workloads.WORKLOADS
TINY = {
    "corpus": replace(W["corpus"], train_scenes=3, test_scenes=2, scales=(64,),
                      epochs=2, batch=6),
    "dense": replace(W["dense"], side=128, stretch=2, grid_sizes=(16, 32),
                     test_scenes=1, scales=(128,), epochs=2, batch=6),
    "per_region": replace(W["per_region"], side=64, train_scenes=3, scales=(64,),
                          epochs=2, batch=6, batches_per_pass=2),
}


def _run(tmp_path, name, trace=False, seed=3, seconds=0.0):
    work = tmp_path / f"{name}-{int(trace)}"
    return workloads.run(TINY[name], seed, seconds, trace, SRC, work)


def _catalogue(key):
    return {m["name"]: m["unit"] for m in BENCH[key]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, name):
    result, report = _run(tmp_path, name)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _catalogue("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    assert report["machine"]["nproc"] >= 1
    assert report["inputs"]["train_scenes"] == TINY[name].train_scenes
    if name == "corpus":
        assert 0.0 < report["mean_iou"] <= 1.0


def test_training_scenes_cover_every_category():
    for seed in range(6):
        inputs = workloads.make_inputs(TINY["per_region"], seed)
        assert workloads._covers_categories(inputs.train)
        again = workloads.make_inputs(TINY["per_region"], seed)
        assert again.facts == inputs.facts


def test_passes_repeat_their_outputs(tmp_path):
    result, report = _run(tmp_path, "per_region", seconds=3.0)
    assert report["passes"] >= 2
    assert result["correct"], report["problems"]


@pytest.mark.parametrize("name", ["corpus", "dense"])
def test_traced_run_is_complete_and_repeatable(tmp_path, name):
    plain, plain_report = _run(tmp_path, name, seed=5)
    first, first_report = _run(tmp_path / "a", name, trace=True, seed=5)
    second, _ = _run(tmp_path / "b", name, trace=True, seed=5)
    assert first["correct"] and second["correct"], first_report["problems"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _catalogue("per_layer")
    assert first_report["fingerprint"] == plain_report["fingerprint"]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bytes")}

    assert counts(first) == counts(second)
    assert all(first["metrics"][f"{n}.calls"]["value"] > 0
               for n in TINY[name].exercised)
    # every wrapper came off again
    assert pipeline.mask_iou is core.mask_iou
    assert not hasattr(pipeline.paste, "__wrapped__")


def test_traced_run_fails_when_a_layer_is_never_called(tmp_path):
    spec = replace(TINY["per_region"], exercised=TINY["per_region"].exercised
                   + ("pipeline.paste",))
    result, report = workloads.run(spec, 3, 0.0, True, SRC, tmp_path)
    assert not result["correct"]
    assert any("pipeline.paste" in p for p in report["problems"])


def test_bad_label_map_counts_as_failed_infer(tmp_path, monkeypatch):
    def paste(scored, height, width, cfg):
        return LabelMap([[9] * width] * height)

    monkeypatch.setattr(pipeline, "paste", paste)
    result, report = _run(tmp_path, "corpus")
    assert not result["correct"]
    assert result["failed"] == TINY["corpus"].test_scenes
    assert result["metrics"]["infer_ms_p50"]["value"] is None


def test_changing_outputs_fail_the_run(tmp_path, monkeypatch):
    train = pipeline.train_category_models
    calls = []

    def drifting(*args, **kwargs):
        models = train(*args, **kwargs)
        calls.append(1)
        m = models[0]
        models[0] = type(m)(m.weights, m.bias + len(calls), m.category)
        return models

    monkeypatch.setattr(pipeline, "train_category_models", drifting)
    result, report = _run(tmp_path, "per_region", seconds=3.0)
    assert report["passes"] >= 2
    assert not result["correct"]
    assert any("differs from the first run" in p for p in report["problems"])


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
