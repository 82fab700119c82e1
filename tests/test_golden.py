"""Pinned outputs of a fixed CLI run: synth -> train -> infer -> eval, and
pinned bytes of the stages on one scene.

Criterion 9 shows that a rerun equals a rerun; these hashes show that a
change to the code kept every output byte. Each design trains on a fixed
3-scene corpus and labels the same scenes; the digest covers every model
file and label map written. The stage hashes name the stage, so a failure
says where the bytes first changed. The values were generated with numpy 2.4
on x86-64. A deliberate behaviour change regenerates them and says why in
CHANGES.md; a refactor must leave them alone.
"""

import hashlib
import json

import numpy as np
import pytest

from cfmseg import formats, pipeline, synth
from cfmseg.classify import LinearModel, row_norms, score
from cfmseg.cli import main
from cfmseg.core import BinaryMask, FeatureMap, PixelBox
from cfmseg.netgeom import compose_geometry
from cfmseg.toynet import (
    ConvLayerSpec,
    PoolLayerSpec,
    ToyNetSpec,
    default_spec,
    forward,
    forward_region,
    init_toynet,
    spec_to_json,
)

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


# design -> stage -> SHA-256 of the stage's array on scene seed 4's proposals:
# proposal_features' (N, L) float32 rows, their float64 `row_norms` (which
# pin the norm's sum order) and classify.score's (N, 5) margins under five
# seeded random models. The einsum sums do not depend on the BLAS kernel, so
# these hold under every OPENBLAS_CORETYPE.
GOLDEN_STAGES = {
    "A": {"features": "2e6c672cdfc3f1969609dcb35c255bfcff528339972f0e9fe490d3c120c58727",
          "norms": "142cf7d468221c0cc9ec1a73b5d9ced86e35f3d18b239fdb363c4e72cbdc0d07",
          "scores": "cac1aa2d17dc6d88915f40e3ea673966b3ca7e90d77b60563438083306df8dce"},
    "B": {"features": "680344111f3f4e6c29c55275ccd08ef9a8a2f7ed79a21c1b31a86e1a2df26d81",
          "norms": "d16c826fe91c83428c5c385bbf9077115f3daf5a4aef2e87fb01aca04520f367",
          "scores": "3029a3d91e0e3e3438711383474154f9d2ce9801a975ed85921cf420981e6f88"},
    "none": {"features": "4bc936a1889ad925e84238af18ad79e786d342dcb33fde106495b32b857c8479",
             "norms": "86bfca9b308d178dbe1d26a3e00efdd63bde36d0f8cb064712e4fb2ff18895a2",
             "scores": "bf3305942348b9c2c74346b8ddcb8a0922da0ac12fed184caeb5da3c12453037"},
}


# case -> SHA-256 of `toynet.forward`'s float32 output. Scene seed 4 through
# `scale_image` repeats whole rows and columns; the 224-pixel warps repeat each
# crop row 14, 28 and 6-10 times; the random image repeats nothing; the pooled
# net carries repeats through max-pool layers, one of them padded.
GOLDEN_FORWARD = {
    "scene_x4":
        "b845872df61186fdc6723e5ccf2af1546ab26540ef1951b011cdcf8d2df1c9b1",
    "scene_x6":
        "32a29ada594b650cade745a7c08cad36a7c5fae027c6694f0251bcfedd99cfcd",
    "scene_x8":
        "c6f23afbfce28cabf6883263222135d9101c622d3575076f1035dd63dd07622c",
    "region_16x16":
        "a5c3da9210460f02738ba72049a157fbb3e5b2c765b96fb0276c689fb9f59a7e",
    "region_8x8":
        "2fe60263d2aa6bbe50500f5ed1d131bc41e6bf151a93b916c0d270b632d8a923",
    "region_37x23":
        "7ce23dc1fb91ae6c894be9af98c2c2bab434f06e7b21d7967ff614fd05ec3802",
    "random":
        "fa474e160bc9d658f7b18153abc4c9fe4cb12ae8e4b9d83ecda8f787e3a18c51",
    "pooled_net_x3":
        "4e0b51cab97e016de8d41fcb6c2400bb6e2796913df26792c76dd42aa40fcfd2",
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


@pytest.mark.parametrize("design", sorted(GOLDEN_STAGES))
def test_stage_bytes_match_golden(design):
    scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4))
    proposals = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(16, 32))
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg = pipeline.PipelineConfig(scales=(256, 512), design=design)
    features = pipeline.proposal_features(
        proposals, pipeline.FeatureCache(scene.image, net), g, cfg
    )
    rng = np.random.default_rng(7)
    models = [LinearModel(rng.standard_normal(features.shape[1]).astype(np.float32),
                          float(rng.standard_normal()), c) for c in range(1, 6)]
    got = {"features": _sha256(features.tobytes()),
           "norms": _sha256(row_norms(features).tobytes()),
           "scores": _sha256(score(models, features).tobytes())}
    assert got == GOLDEN_STAGES[design]


def _forward_case(case: str) -> np.ndarray:
    image = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4)).image
    net = init_toynet(default_spec(3, seed=0))
    if case.startswith("scene_x"):
        out = forward(net, pipeline.scale_image(image, 64 * int(case[len("scene_x"):])))
    elif case.startswith("region_"):
        w, h = (int(v) for v in case[len("region_"):].split("x"))
        out = forward_region(net, image, PixelBox(5, 9, 5 + w - 1, 9 + h - 1), 224)
    elif case == "random":
        values = np.random.default_rng(3).standard_normal((3, 40, 52)).astype(np.float32)
        out = forward(net, FeatureMap(values))
    else:
        spec = ToyNetSpec((ConvLayerSpec(3, 1, 1, 3, 8), PoolLayerSpec(2, 2, 0),
                           ConvLayerSpec(3, 2, 1, 8, 16), PoolLayerSpec(3, 1, 1)), seed=2)
        out = forward(init_toynet(spec), pipeline.scale_image(image, 192))
    return out.values


@pytest.mark.parametrize("case", sorted(GOLDEN_FORWARD))
def test_forward_bytes_match_golden(case):
    got = _sha256(_forward_case(case).tobytes())
    assert got == GOLDEN_FORWARD[case], f"{case}: {got!r}"
