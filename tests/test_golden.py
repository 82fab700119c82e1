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
from cfmseg.core import BinaryMask, FeatureMap, PixelBox, resize_nearest
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
    "A": ("48b7db6cd400980564f3c581ea504ef4462f41a0db83196cf4bf2c1e6ddcc9de",
          0.020301037839375872),
    "B": ("28f52457b6c13b30da4733bb92bde50552d30c909c60ca02a98e02a2cc9d4623",
          0.33832119250225706),
    "none": ("8e79e9644c361bf8f8444a26195876de36788c172b68482d9d7de060248aa41d",
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

# scale -> design -> stage -> SHA-256, as GOLDEN_STAGES, at one scale: 64 is
# the 64x64 scene's identity resize, 8 a downscale under which 5 of its 52
# proposals vanish and take the box fallback. GOLDEN_STAGES' scales 256 and
# 512 only upscale.
GOLDEN_STAGES_ONE_SCALE = {
    64: {
        "A": {"features": "3d291cdf92cdd51007255dbde8ce388a9069a49f29e591713cec5d1713b222a9",
              "norms": "20da9ff153e9aa5a5a327aeaf2ca4daa1a17ef44ec557194c365d363cf6286f0",
              "scores": "0b06317f770c772f7b466e640c724b10b409e1693f8ba4ba209451db6f0d0537"},
        "B": {"features": "83b5554cc372b66fface02d2b4cdecb3fbcfc97bf028ed57f77f07c57ec4cfe5",
              "norms": "67dfd02a7c525f3f285444ef2717979dd8e452cef39fb0345e69114f02a3c1cd",
              "scores": "30a6d58e327e8564a581687f76f47ec329995bd46cbeb2d43451c21ef8b70d4a"},
        "none": {"features": "ed5850bdfdceeb88a547705a88e17a32a345912f46967c07a20218b8156a2ffc",
                 "norms": "397bc677fd31009770adc5f9dfd496ac78bedac3744f00449134b1d1d22f19b4",
                 "scores": "c16628c8dd9ca00a8df9c1fddfda7971b349f887c012d09c6c10d6792be24f9f"},
    },
    8: {
        "A": {"features": "8db97796dbb08702482dae341fc1b35e9b5fbbc28de2fcbf018efe71afa8ad74",
              "norms": "4a1f42f88ca69ecb2a5ed3f2a16b97df2c7ded85535a75f7b23f27de8cdb74f5",
              "scores": "19c23a38b47602afaf2b4f7f2b2f13878b2305dd937710e1fa62d89699cae58d"},
        "B": {"features": "13054eb0b7bffac6f13e2de7af36eb05a1a22cc0f57508510a69ad707ce7b84c",
              "norms": "5ac0016bcfda8075d8e6cc3f6e5a04cc2c416c933a1a9c5c91b7408219ea99e7",
              "scores": "41ea7c5aaa91c9c5c8d1067812faa7734c8ddfbf5a533f0b0526aee9c4b8cb7e"},
        "none": {"features": "5a2e415a02822237240e833d698d4d49f2d4f4a2463e93ff9061ca445889d8d7",
                 "norms": "8c9d30c03b8381c19f0291672787a8212626904c4622fdabc9f5e2ed6361b396",
                 "scores": "e4c9f4d3c7be949505c1efd19c5a9401fa159feabfd9508f74226cee91ff68ee"},
    },
}


# case -> SHA-256 of `toynet.forward`'s float32 output. Scene seed 4 through
# `scale_image` repeats whole rows and columns; the 224-pixel warps repeat each
# crop row 14, 28 and 6-10 times; the random image repeats nothing; the pooled
# net carries repeats through max-pool layers, one of them padded. The 64x64
# scene at scale 48, the 40x40 box warped to 16 and the 40x10 box warped to 24
# drop rows or columns: downscaled on both axes, or on one and upscaled on the
# other.
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
    "scene_to48":
        "5a9f73158cd484f173b1d773c1059dd0927886bf60fd2a1b4da0213dbc0772f8",
    "region_40x40_to16":
        "2cea39aab9876de3715f81b9d89794db82147859f69f085f7e989c29f1e3a21f",
    "region_40x10_to24":
        "bf8ec9a80f2b7e9c12d6d2b0334cba44915c530482f19a6073b389fa70ca70cb",
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


def _stage_hashes(scales: tuple, design: str) -> dict:
    scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4))
    proposals = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(16, 32))
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg = pipeline.PipelineConfig(scales=scales, design=design)
    features = pipeline.proposal_features(
        proposals, pipeline.FeatureCache(scene.image, net), g, cfg
    )
    rng = np.random.default_rng(7)
    models = [LinearModel(rng.standard_normal(features.shape[1]).astype(np.float32),
                          float(rng.standard_normal()), c) for c in range(1, 6)]
    return {"features": _sha256(features.tobytes()),
            "norms": _sha256(row_norms(features).tobytes()),
            "scores": _sha256(score(models, features).tobytes())}


@pytest.mark.parametrize("design", sorted(GOLDEN_STAGES))
def test_stage_bytes_match_golden(design):
    assert _stage_hashes((256, 512), design) == GOLDEN_STAGES[design]


@pytest.mark.parametrize("scale, design", [(scale, design) for scale in GOLDEN_STAGES_ONE_SCALE
                                           for design in sorted(GOLDEN_STAGES_ONE_SCALE[scale])])
def test_one_scale_stage_bytes_match_golden(scale, design):
    if scale == 8:  # the downscale reaches the box fallback
        scene = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4))
        proposals = synth.toy_proposals(64, 64, scene.instances, grid_sizes=(16, 32))
        assert any(not resize_nearest(p.mask.bits, 8, 8).any() for p in proposals)
    assert _stage_hashes((scale,), design) == GOLDEN_STAGES_ONE_SCALE[scale][design]


def _forward_case(case: str) -> np.ndarray:
    image = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 4)).image
    net = init_toynet(default_spec(3, seed=0))
    if case.startswith("scene_x"):
        out = forward(net, pipeline.scale_image(image, 64 * int(case[len("scene_x"):])))
    elif case.startswith("scene_to"):
        out = forward(net, pipeline.scale_image(image, int(case[len("scene_to"):])))
    elif case.startswith("region_"):
        size, _, warp = case[len("region_"):].partition("_to")
        w, h = (int(v) for v in size.split("x"))
        out = forward_region(net, image, PixelBox(5, 9, 5 + w - 1, 9 + h - 1),
                             int(warp or 224))
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
