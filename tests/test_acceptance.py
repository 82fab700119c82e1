"""Acceptance suite: one test per exit criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion plus the measured values.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cfmseg import formats, synth
from cfmseg.cli import main as cli_main, write_scene_dir
from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    LabelMap,
    PixelBox,
    proposal_from_mask,
)
from cfmseg.netgeom import LayerSpec, compose_geometry
from cfmseg.pipeline import (
    PipelineConfig,
    TrainScene,
    benchmark,
    mean_iou,
    predict_scene,
    train_category_models,
)
from cfmseg.pooling import PyramidSpec, design_a_features, spp_pool
from cfmseg.pursuit import (
    PursuitConfig,
    overlap_label,
    pursue,
)
from cfmseg.toynet import default_spec, init_toynet, spec_to_json
from conftest import full_frame_iou, make_corpus, own_scale, project_one
from oracles import brute_force_geometry, brute_force_project


def report(name: str, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({detail})")


def random_layers(rng, max_depth=5, max_kernel=7, max_stride=3, max_pad=3):
    depth = int(rng.integers(1, max_depth + 1))
    return [
        LayerSpec(
            "conv" if rng.random() < 0.5 else "pool",
            int(rng.integers(1, max_kernel + 1)),
            int(rng.integers(1, max_stride + 1)),
            int(rng.integers(0, max_pad + 1)),
        )
        for _ in range(depth)
    ]


def test_criterion_01_geometry_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        layers = random_layers(rng)
        assert compose_geometry(layers) == brute_force_geometry(layers)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 1", f"1000 random stacks exact, {elapsed:.2f}s")


def test_criterion_02_projection_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    cases = 0
    while cases < 500:
        g = compose_geometry(random_layers(rng, max_depth=3, max_kernel=5))
        if g.stride > 8:
            continue
        h, w = (int(v) for v in rng.integers(3, 19, size=2))
        fh = max(1, -(-h // g.stride))
        fw = max(1, -(-w // g.stride))
        kind = cases % 4
        bits = np.zeros((h, w), dtype=bool)
        if kind == 0:
            bits[:] = True
        elif kind == 1:
            pass  # all zeros
        elif kind == 2:
            bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
        else:
            bits = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        mask = BinaryMask(bits)
        fast = project_one(g, mask, fh, fw)
        slow = brute_force_project(g, mask, fh, fw)
        assert np.array_equal(fast.bits, slow.bits)
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 2", f"500 projection cases exact, {elapsed:.2f}s")


def test_criterion_03_spp_contract():
    rng = np.random.default_rng(303)
    pyr = PyramidSpec((6, 3, 2, 1))
    for _ in range(100):
        c = int(rng.integers(1, 7))
        fh, fw = (int(v) for v in rng.integers(1, 15, size=2))
        fmap = FeatureMap(rng.standard_normal((c, fh, fw)).astype(np.float32))
        x0 = int(rng.integers(0, fw))
        y0 = int(rng.integers(0, fh))
        window = PixelBox(
            x0, y0, int(rng.integers(x0, fw)), int(rng.integers(y0, fh))
        )
        pooled = spp_pool(fmap, window, pyr)
        assert pooled.values.size == 50 * c

    const = FeatureMap(np.full((4, 9, 9), 1.25, dtype=np.float32))
    pooled = spp_pool(const, PixelBox(2, 2, 7, 8), pyr)
    assert np.all(pooled.values == 1.25)

    g = compose_geometry([LayerSpec("conv", 3, 2, 1), LayerSpec("conv", 3, 2, 1)])
    for trial in range(10):
        conv = FeatureMap(
            np.abs(np.random.default_rng(trial).standard_normal((3, 8, 8)))
            .astype(np.float32)
        )
        full = proposal_from_mask("full", BinaryMask(np.ones((32, 32), dtype=bool)))
        box_f, seg_f = np.split(design_a_features(conv, *own_scale([full]), g, pyr)[0], 2)
        assert np.array_equal(box_f, seg_f)
    report("criterion 3", "lengths 50*C, constant pooling, full-mask identity")


def _random_candidates(rng, n, grid=24):
    """Random proposals and, by id, the purity drawn for each above the 0.6 bound."""
    cands, purities = [], {}
    for i in range(n):
        bits = rng.random((grid, grid)) < rng.uniform(0.05, 0.5)
        if not bits.any():
            continue
        cands.append(proposal_from_mask(f"c{i:02d}", BinaryMask(bits)))
        purities[cands[-1].id] = float(rng.uniform(0.601, 1.0))
    return cands, purities


def _reference_pursuit(cands, cfg):
    """Step-by-step re-evaluation of the written selection rules."""
    if not cands:
        return []
    threshold = sum(c.area for c in cands) / len(cands)
    pool = list(cands)
    chosen = []
    while True:
        eligible = [c for c in pool if c.area >= threshold]
        if not eligible:
            return chosen
        best = eligible[0]
        for c in eligible[1:]:
            if c.area > best.area or (
                c.area == best.area and c.id < best.id
            ):
                best = c
        chosen.append(best)
        pool = [
            c
            for c in pool
            if c is not best
            and full_frame_iou(c.mask.bits, best.mask.bits)
            <= cfg.inhibit_iou
        ]


def test_criterion_04_pursuit_invariants():
    rng = np.random.default_rng(404)
    cfg = PursuitConfig()
    stochastic_runs = 0
    small_sets = 0
    trial = 0
    while stochastic_runs < 1000:
        trial += 1
        cands, purities = _random_candidates(rng, int(rng.integers(1, 21)))
        if not cands:
            continue
        mean_area = sum(c.area for c in cands) / len(cands)

        det = pursue(cands, cfg, "deterministic")
        sto = pursue(cands, cfg, "stochastic", trial)
        stochastic_runs += 1
        for picks in (det, sto):
            for i, a in enumerate(picks):
                assert purities[a.id] > 0.6
                assert a.area >= mean_area
                for b in picks[i + 1 :]:
                    iou = full_frame_iou(a.mask.bits, b.mask.bits)
                    assert iou <= 0.2
        if len(cands) <= 6:
            small_sets += 1
            ref = _reference_pursuit(cands, cfg)
            assert [c.id for c in det] == [c.id for c in ref]
    assert small_sets >= 50
    report(
        "criterion 4",
        f"{stochastic_runs} stochastic + deterministic runs, "
        f"{small_sets} brute-force-checked small sets",
    )


def test_criterion_05_stochastic_proportionality():
    def rect(pid, y0, y1, x0, x1):
        bits = np.zeros((20, 20), dtype=bool)
        bits[y0 : y1 + 1, x0 : x1 + 1] = True
        return proposal_from_mask(pid, BinaryMask(bits))

    big = rect("big", 0, 9, 0, 9)        # area 100
    s1 = rect("s1", 12, 16, 0, 9)        # area 50
    s2 = rect("s2", 12, 16, 10, 19)      # area 50, disjoint from s1
    assert (big.area, s1.area, s2.area) == (100, 50, 50)
    cfg = PursuitConfig(min_area=0.0)  # every candidate eligible for the draw
    draws = 100_000
    hits = 0
    for seed in range(draws):
        first = pursue([big, s1, s2], cfg, "stochastic", seed)[0]
        if first is big:
            hits += 1
    freq = hits / draws
    assert abs(freq - 0.5) <= 0.01
    report("criterion 5", f"first-pick frequency {freq:.4f} over {draws} draws")


def test_criterion_06_sample_labeling_boundaries():
    mapping = {
        0.09: None,
        0.1: -1,
        0.3: -1,
        0.31: None,
        0.49: None,
        0.5: 1,
        1.0: 1,
    }
    for iou, want in mapping.items():
        assert overlap_label(iou) == want, f"IoU {iou}"
    report("criterion 6", "7 boundary IoU values labeled per the closed ranges")


SCALES = (256, 384, 512)
CATEGORIES = 6  # background + 3 object + 2 stuff


def _build_corpus(n, master):
    cfg_c = synth.CorpusConfig()
    scenes = []
    for i, spec in enumerate(make_corpus(cfg_c, n, master)):
        scene = synth.generate_scene(spec)
        props = synth.scene_proposals(scene, seed=master * 100003 + i)
        scenes.append(TrainScene(scene.image, scene.labels, scene.instances, props))
    return scenes


@pytest.mark.slow
def test_criterion_07_end_to_end_gap():
    start = time.perf_counter()
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    train = _build_corpus(200, master=1)
    test = _build_corpus(50, master=2)
    means = {}
    for design in ("B", "none"):
        cfg = PipelineConfig(scales=SCALES, design=design)
        models = train_category_models(
            train, [1, 2, 3], [4, 5], net, g, cfg, reg=1e-4, epochs=15, seed=5
        )
        preds = [
            predict_scene(models, ts.image, ts.proposals, net, g, cfg)
            for ts in test
        ]
        _, means[design] = mean_iou(preds, [ts.labels for ts in test], CATEGORIES)
    elapsed = time.perf_counter() - start
    gap = means["B"] - means["none"]
    assert means["B"] >= 0.5, f"masked-feature mean IoU {means['B']:.3f}"
    assert gap >= 0.05, f"gap over box-only ablation {gap:.3f}"
    assert elapsed < 600.0
    report(
        "criterion 7",
        f"masked {means['B']:.3f} vs box-only {means['none']:.3f} "
        f"(gap {gap:+.3f}), {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_design_a_end_to_end_quality():
    # criterion 7's corpus and training for design A, whose masked pathway pools
    # the projected crops through its own code: the same 0.5 floor as for B
    start = time.perf_counter()
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    train, test = _build_corpus(200, master=1), _build_corpus(50, master=2)
    cfg = PipelineConfig(scales=SCALES, design="A")
    models = train_category_models(train, [1, 2, 3], [4, 5], net, g, cfg, reg=1e-4,
                                   epochs=15, seed=5)
    preds = [predict_scene(models, ts.image, ts.proposals, net, g, cfg) for ts in test]
    _, mean = mean_iou(preds, [ts.labels for ts in test], CATEGORIES)
    assert mean >= 0.5, f"design A mean IoU {mean:.3f}"
    report("design A", f"mean IoU {mean:.3f}, {time.perf_counter() - start:.0f}s")


@pytest.mark.slow
def test_criterion_08_speed_ratio():
    net = init_toynet(default_spec(3, seed=0))
    g = compose_geometry(net.spec.geometry_layers())
    cfg_c = synth.CorpusConfig(width=256, height=256)
    scene = synth.generate_scene(synth.random_scene_spec(cfg_c, seed=9))
    proposals = synth.scene_proposals(scene, seed=90)
    assert len(proposals) >= 200
    cfg = PipelineConfig(scales=(256,), design="B", warp_side=224)
    ratios = []  # the median of several passes: one pass swings by up to ~20%
    for count in (1, 10, 50, 200):
        passes = [benchmark(scene.image, proposals[:count], net, g, cfg).ratio
                  for _ in range(5)]
        ratios.append(float(np.median(passes)))
    assert ratios[-1] >= 10.0, f"200-proposal speedup {ratios[-1]:.1f}x"
    for prev, nxt in zip(ratios, ratios[1:]):
        assert nxt >= 0.9 * prev, f"ratio trend broke: {ratios}"
    report(
        "criterion 8",
        "speedups " + ", ".join(f"{r:.1f}x" for r in ratios) + " for 1/10/50/200",
    )


@pytest.mark.slow
def test_criterion_09_cli_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cfg_c = synth.CorpusConfig()
    for i in range(3):
        spec = synth.random_scene_spec(cfg_c, seed=1000 + i)
        scene = synth.generate_scene(spec)
        props = synth.scene_proposals(scene, seed=2000 + i)
        write_scene_dir(corpus / f"scene_{i:03d}", scene, props)
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(spec_to_json(default_spec(3, seed=0))))
    layers_file = tmp_path / "layers.json"
    layers_file.write_text(
        json.dumps([{"kind": "conv", "kernel": 3, "stride": 2, "pad": 1}] * 3)
    )
    scene0 = corpus / "scene_000"

    def commands(run_dir: Path):
        run_dir.mkdir(parents=True, exist_ok=True)
        return {
            "geometry": ["geometry", "--layers", str(layers_file)],
            "forward": ["forward", "--net", str(net_file),
                        "--image", str(scene0 / "image.cfmt"),
                        "--out", str(run_dir / "conv.cfmt")],
            "mask-project": ["mask-project", "--geometry", str(layers_file),
                             "--mask", str(scene0 / "mask_00000.pgm"),
                             "--fh", "8", "--fw", "8",
                             "--out", str(run_dir / "fm.pgm")],
            "pool": ["pool", "--image", str(scene0 / "image.cfmt"),
                     "--window", "0,0,31,31", "--levels", "3,1",
                     "--out", str(run_dir / "pooled.cfmt")],
            "pursue": ["pursue", "--proposals", str(scene0 / "proposals.json"),
                       "--stuff", str(scene0 / "mask_00000.pgm"),
                       "--mode", "stochastic", "--seed", "7"],
            "synth": ["synth", "--seed", "11", "--out-dir",
                      str(run_dir / "scene")],
            "train": ["train", "--corpus", str(corpus), "--net", str(net_file),
                      "--object-cats", "1,2,3", "--stuff-cats", "4,5",
                      "--scales", "64", "--epochs", "2", "--seed", "3",
                      "--out-dir", str(run_dir / "models")],
            "infer": ["infer", "--models", str(run_dir / "models"),
                      "--image", str(scene0 / "image.cfmt"),
                      "--proposals", str(scene0 / "proposals.json"),
                      "--net", str(net_file), "--scales", "64",
                      "--gt", str(scene0 / "labels.cfml"),
                      "--out-labels", str(run_dir / "pred.cfml")],
            "paste": None,  # exercised through infer; scored JSON built below
            "eval": ["eval", "--pred", str(run_dir / "pred.cfml"),
                     "--gt", str(scene0 / "labels.cfml"), "--categories", "6"],
            "bench": ["bench", "--image", str(scene0 / "image.cfmt"),
                      "--proposals", str(scene0 / "proposals.json"),
                      "--net", str(net_file), "--counts", "1,5",
                      "--warp", "32", "--scales", "64"],
        }

    def run_all(tag: str, threads: str):
        run_dir = tmp_path / tag
        outputs = {}
        for name, argv in commands(run_dir).items():
            if argv is None:
                continue
            assert cli_main(["--threads", threads, *argv]) == 0
            # out paths necessarily differ between the compared run dirs;
            # normalize them so the rest of the report must match exactly
            stdout = capsys.readouterr().out.replace(str(run_dir), "<run>")
            outputs[name] = stdout
        # paste: replay two scored regions deterministically
        scored = [
            {"id": "a", "mask": "mask_00000.pgm", "category": 1, "score": 2.0},
            {"id": "b", "mask": "mask_00001.pgm", "category": 4, "score": 1.0},
        ]
        scored_file = scene0 / "scored.json"
        scored_file.write_text(json.dumps(scored))
        assert cli_main(
            ["--threads", threads, "paste", "--scored", str(scored_file),
             "--width", "64", "--height", "64",
             "--out", str(run_dir / "pasted.cfml")]
        ) == 0
        outputs["paste"] = capsys.readouterr().out.replace(str(run_dir), "<run>")
        files = {
            str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.is_file()
        }
        return outputs, files

    base_out, base_files = run_all("run_a", "1")
    for tag, threads in (("run_b", "1"), ("run_c", "4")):
        out, files = run_all(tag, threads)
        for name in base_out:
            if name == "bench":
                # timings vary run to run and a multi-threaded invocation
                # reports extra single-thread rows; compare the counts covered
                a = json.loads(base_out[name])
                b = json.loads(out[name])
                assert {r["proposals"] for r in a["runs"]} == {
                    r["proposals"] for r in b["runs"]
                }
                continue
            assert out[name] == base_out[name], f"{name} stdout differs ({tag})"
        assert files.keys() == base_files.keys()
        for rel in base_files:
            assert files[rel] == base_files[rel], f"{rel} differs ({tag})"
    report(
        "criterion 9",
        f"{len(base_out)} subcommands byte-identical over reruns and threads 1/4",
    )


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(1010)
    for i in range(25):
        c, h, w = (int(v) for v in rng.integers(1, 7, size=3))
        fm = FeatureMap(rng.standard_normal((c, h, w)).astype(np.float32))
        formats.save_feature_map(tmp_path / "t.cfmt", fm)
        assert formats.load_feature_map(tmp_path / "t.cfmt").values.tobytes() == \
            fm.values.tobytes()

        mask = BinaryMask(rng.random((h + 1, w + 1)) < 0.5)
        formats.save_mask(tmp_path / "m.pgm", mask)
        assert np.array_equal(formats.load_mask(tmp_path / "m.pgm").bits, mask.bits)

        lm = LabelMap(rng.integers(0, 9, size=(h, w), dtype=np.uint16))
        formats.save_label_map(tmp_path / "l.cfml", lm)
        assert np.array_equal(
            formats.load_label_map(tmp_path / "l.cfml").labels, lm.labels
        )

        proposals = []
        for j in range(int(rng.integers(1, 5))):
            bits = rng.random((10, 10)) < 0.4
            if bits.any():
                proposals.append(proposal_from_mask(f"p{i}_{j}", BinaryMask(bits)))
        formats.save_proposal_index(tmp_path / "idx" / "proposals.json", proposals)
        back = formats.load_proposal_index(tmp_path / "idx" / "proposals.json")
        assert [p.id for p in back] == [p.id for p in proposals]
        for a, b in zip(back, proposals):
            assert a.box == b.box and np.array_equal(a.mask.bits, b.mask.bits)
    report("criterion 10", "25 randomized round-trips per format, bit-exact")
