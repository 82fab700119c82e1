"""Pinned outputs of a fixed CLI run: synth -> train -> infer -> eval.

Criterion 9 shows that a rerun equals a rerun; these hashes show that a
change to the code kept every output byte. Each design trains on a fixed
3-scene corpus and labels the same scenes; the digest covers every model
file and label map written. The values were generated with numpy 2.4 on
x86-64. A deliberate behaviour change regenerates them and says why in
CHANGES.md; a refactor must leave them alone.
"""

import hashlib
import json

import pytest

from cfmseg import formats
from cfmseg.cli import main
from cfmseg.core import BinaryMask
from cfmseg.toynet import default_spec, spec_to_json

SCENE_SEEDS = (11, 12, 13)
SCALES = "64,96,128"

# design -> (SHA-256 of the "<file> <sha256>" manifest, mean IoU over the scenes)
GOLDEN_RUNS = {
    "A": ("58e668189db89c18a6f0fbe302013fd5988078c5c7ce4e3be4bf184905d63ca4",
          0.020301037839375872),
    "B": ("27414cdf8540a9ea0bebecc1e36cc217bbbbae13bd6f04316c5c0926016f3ad6",
          0.33832119250225706),
    "none": ("ce8270fc33b81dea479f110167bff6e8970ed78be1d2d03fc0794dd2ef9b0cea",
             0.5135930209265084),
}

# pursuit mode -> SHA-256 of the `pursue` report on scene 0's sky band
GOLDEN_PURSUE = {
    "deterministic": "735ffbf4e5d783c36ec0bef7aca11cabc1463b4cf6fe176499a09d6077ee1df4",
    "stochastic": "99438977355041b0da4c7baab83361435a2034f19157d823faf4cf4c08e18693",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(capsys, argv: list) -> dict:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def _synth(capsys, root, seeds=SCENE_SEEDS) -> list:
    for i, seed in enumerate(seeds):
        _run(capsys, ["synth", "--seed", seed, "--out-dir", root / f"scene_{i}"])
    return sorted(root.iterdir())


@pytest.mark.parametrize("design", sorted(GOLDEN_RUNS))
def test_cli_run_matches_golden(design, tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(spec_to_json(default_spec(3, seed=0))))
    scenes = _synth(capsys, tmp_path / "corpus")
    models = tmp_path / "models"
    _run(capsys, ["train", "--corpus", tmp_path / "corpus", "--net", net,
                  "--object-cats", "1,2,3", "--stuff-cats", "4,5",
                  "--design", design, "--scales", SCALES, "--epochs", "10",
                  "--seed", "5", "--out-dir", models])
    outputs = sorted(models.iterdir())
    for scene in scenes:
        pred = tmp_path / f"{scene.name}.cfml"
        _run(capsys, ["infer", "--models", models, "--image", scene / "image.cfmt",
                      "--proposals", scene / "proposals.json", "--net", net,
                      "--design", design, "--scales", SCALES, "--out-labels", pred])
        outputs.append(pred)
    report = _run(capsys, ["eval", "--pred", *(tmp_path / f"{s.name}.cfml" for s in scenes),
                           "--gt", *(s / "labels.cfml" for s in scenes),
                           "--categories", "6"])
    manifest = "".join(f"{p.name} {_sha256(p.read_bytes())}\n" for p in outputs)
    got = (_sha256(manifest.encode()), report["mean_iou"])
    assert got == GOLDEN_RUNS[design], f"{got!r}\n{manifest}"


@pytest.mark.parametrize("mode", sorted(GOLDEN_PURSUE))
def test_pursue_matches_golden(mode, tmp_path, capsys):
    scene = _synth(capsys, tmp_path / "corpus", SCENE_SEEDS[:1])[0]
    sky = formats.load_label_map(scene / "labels.cfml").labels == 4
    formats.save_mask(tmp_path / "sky.pgm", BinaryMask(sky))
    main(["pursue", "--proposals", str(scene / "proposals.json"),
          "--stuff", str(tmp_path / "sky.pgm"), "--mode", mode, "--seed", "7",
          "--purity-pos", "0.5"])
    out = capsys.readouterr().out
    assert len(json.loads(out)["selected"]) > 1
    got = _sha256(out.encode())
    assert got == GOLDEN_PURSUE[mode], f"{got!r}\n{out}"
