"""Pinned bytes of every training and inference stage on a small dense-shaped
scene set, for each design.

The scenes are drawn at 64x64 and stretched twice, as the dense benchmark
stretches its own four times, and carry grid proposals of 8, 16 and 32
pixels, about 700 a scene; the one scale is the scenes' own size. Each hash
names its stage, in the order the stages run, so a failure says where the
bytes first changed: the stuff pursuit's picks, the per-category pool row
indices, the model bytes, the test scene's scores and its label map. The
values were generated with numpy 2.4 on x86-64; as in test_golden.py, a
deliberate behaviour change regenerates them and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from cfmseg import pipeline, synth
from cfmseg.core import BinaryMask
from cfmseg.netgeom import compose_geometry
from cfmseg.pursuit import PursuitConfig, stuff_samples
from cfmseg.toynet import default_spec, init_toynet

OBJECT_CATS, STUFF_CATS = [1, 2, 3], [4, 5]
TRAIN_SEEDS, TEST_SEED = (3, 5), 8  # the training pair holds every category
STRETCH = 2
GRID_SIZES = (8, 16, 32)
EPOCHS = 15

# stage -> SHA-256, for the stages that read no feature and so hold for every design
GOLDEN_DENSE_SHARED = {
    "picks": "6b83183404e5828b5aef44184e9a77c8ebc613350bae5b76c53cbc4c7613d47a",
    "pools": "2d1be082f5cc84ae27a63fedc8674399a762aaf0b8aad40bbf1151859359d6ad",
}

# design -> stage -> SHA-256 of the stages that read features
GOLDEN_DENSE = {
    "A": {"models": "1909412337d94b8b55d70e6a411f7deabc6e3f3276516f0086a42881177f4479",
          "scores": "91fb52158ea96ea80481bd96e3d7e70bb9935aa69e5f383d01ecccbfcc42e522",
          "labels": "79364ee34e18155ef73df1d057b2b8420a72b3d9087c7a64f55badebefb7d825"},
    "B": {"models": "d04ed5a229f5f4e3e8c4b0320f3c141e01c780e38831848dbda65b96c3403731",
          "scores": "8778f145b0bd5b5791b994f4885c59f797083a25a15336873e522a6b1d65b8fe",
          "labels": "28769d8c2adfa3cb9875fe67ed901c0a5fcfd03fe945812cc88a68428cad2089"},
    "none": {"models": "8830254ed407eb1981bd997e717afaa4cdaed3d8742157f61046bbb60ef6b515",
             "scores": "c6c48be33129607bb6251dae88561d94c5ff7c261d22961e48c73a7a154d4a28",
             "labels": "112ce661beabdb489e4ca4fb05b484115378ce6715c1c0db9b68bce6c0bd32bc"},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stretched_scene(seed: int) -> pipeline.TrainScene:
    """A 64x64 scene with every shape and band scaled by STRETCH, and its proposals."""
    spec = synth.random_scene_spec(synth.CorpusConfig(), seed)
    k = STRETCH
    shapes = tuple(synth.ShapeSpec(s.kind, s.category, s.cx * k, s.cy * k, s.half_w * k,
                                   s.half_h * k, s.thickness * k) for s in spec.shapes)
    bands = tuple(synth.BandSpec(b.category, b.row0 * k, b.row1 * k + k - 1, b.base_color,
                                 b.noise_amp) for b in spec.bands)
    scene = synth.generate_scene(
        synth.SceneSpec(spec.width * k, spec.height * k, shapes, bands, spec.seed))
    proposals = synth.toy_proposals(scene.spec.height, scene.spec.width, scene.instances,
                                    grid_sizes=GRID_SIZES, jitter_seed=seed)
    return pipeline.TrainScene(scene.image, scene.labels, scene.instances, proposals)


def _dense_hashes(design: str) -> dict:
    train = [_stretched_scene(seed) for seed in TRAIN_SEEDS]
    test = _stretched_scene(TEST_SEED)
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg = pipeline.PipelineConfig(scales=(64 * STRETCH,), design=design)
    picks = [[p.id for p in stuff_samples(scene.proposals, BinaryMask(scene.labels.labels == c),
                                          PursuitConfig())[0]]
             for scene in train for c in STUFF_CATS]
    _, pools = pipeline.collect_training_pools(train, OBJECT_CATS, STUFF_CATS, net, g, cfg)
    models = pipeline.train_category_models(train, OBJECT_CATS, STUFF_CATS, net, g, cfg,
                                            epochs=EPOCHS, seed=5)
    scored = pipeline.score_proposals(models, test.proposals, test.image, net, g, cfg)
    labels = pipeline.paste(scored, test.image.height, test.image.width, cfg)
    return {
        "picks": _sha256(json.dumps(picks).encode()),
        "pools": _sha256(json.dumps({c: pools[c] for c in sorted(pools)}).encode()),
        "models": _sha256(b"".join(m.weights.tobytes() + np.float64(m.bias).tobytes()
                                   for m in models)),
        "scores": _sha256(np.array([r.score for r in scored]).tobytes()),
        "labels": _sha256(labels.labels.tobytes()),
    }


@pytest.mark.parametrize("design", sorted(GOLDEN_DENSE))
def test_dense_stage_bytes_match_golden(design):
    got = _dense_hashes(design)
    assert got == {**GOLDEN_DENSE_SHARED, **GOLDEN_DENSE[design]}, f"{design}: {got!r}"
