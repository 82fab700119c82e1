import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cfmseg import cli, formats, synth, toynet
from cfmseg.cli import main, write_scene_dir
from cfmseg.core import MAX_SIDE, BinaryMask, FeatureMap, LabelMap
from cfmseg.netgeom import compose_geometry, load_layers
from cfmseg.pooling import PyramidSpec, feature_length
from cfmseg.toynet import default_spec, spec_to_json


@pytest.fixture
def capjson(capsys):
    def run(argv, expect=0):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expect, captured.err
        return json.loads(captured.out) if captured.out else None

    return run


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(spec_to_json(default_spec(3, seed=0))))
    return str(path)


@pytest.fixture
def layers_file(tmp_path):
    path = tmp_path / "layers.json"
    path.write_text(
        json.dumps(
            [
                {"kind": "conv", "kernel": 3, "stride": 2, "pad": 1},
                {"kind": "conv", "kernel": 3, "stride": 2, "pad": 1},
            ]
        )
    )
    return str(path)


@pytest.fixture
def scene_dir(tmp_path):
    spec = synth.random_scene_spec(synth.CorpusConfig(), seed=3)
    scene = synth.generate_scene(spec)
    proposals = synth.scene_proposals(scene, synth.derive_seed(3, 2))
    out = tmp_path / "scene"
    write_scene_dir(out, scene, proposals)
    return out


class TestBasicCommands:
    def test_geometry(self, capjson, layers_file):
        report = capjson(["geometry", "--layers", layers_file])
        assert report == {"stride": 4, "rf_size": 7, "offset": 0.0}

    def test_one_parser_serves_every_call(self, capsys, tmp_path, layers_file):
        # the parser is built once per process, so the second main() call reuses
        # the first one's tree; each must print what a fresh process prints
        (tmp_path / "scored.json").write_text("[]")
        calls = [["geometry", "--layers", layers_file],
                 ["paste", "--scored", str(tmp_path / "scored.json"), "--width", "4",
                  "--height", "3", "--out", str(tmp_path / "labels.cfml")]]
        printed = []
        for argv in calls:
            assert main(argv) == 0
            printed.append(capsys.readouterr().out)
        assert cli.build_parser() is cli.build_parser()
        src = str(Path(cli.__file__).resolve().parents[1])
        for argv, out in zip(calls, printed):
            fresh = subprocess.run([sys.executable, "-m", "cfmseg.cli", *argv],
                                   env={**os.environ, "PYTHONPATH": src},
                                   capture_output=True, text=True, timeout=60)
            assert fresh.returncode == 0 and fresh.stdout == out, fresh.stderr

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_every_subcommand_has_help(self, capsys):
        from cfmseg.cli import build_parser

        sub_actions = [
            a for a in build_parser()._actions
            if hasattr(a, "choices") and a.choices and "geometry" in a.choices
        ]
        names = list(sub_actions[0].choices)
        assert set(names) >= {
            "geometry", "forward", "mask-project", "pool", "pursue",
            "synth", "train", "infer", "paste", "eval", "bench",
        }
        for name in names:
            with pytest.raises(SystemExit) as err:
                main([name, "--help"])
            assert err.value.code == 0
            text = capsys.readouterr().out
            assert "--" in text  # flags documented

    def test_missing_file_exits_1(self, capsys):
        assert main(["geometry", "--layers", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_forward_and_pool(self, capjson, net_file, tmp_path, rng):
        image = FeatureMap(rng.random((3, 32, 32)).astype(np.float32))
        formats.save_feature_map(tmp_path / "img.cfmt", image)
        out = tmp_path / "conv.cfmt"
        report = capjson(
            ["forward", "--net", net_file, "--image", str(tmp_path / "img.cfmt"),
             "--out", str(out)]
        )
        assert report["channels"] == 32
        pooled_out = tmp_path / "pooled.cfmt"
        report = capjson(
            ["pool", "--image", str(out), "--window", "0,0,3,3",
             "--levels", "2,1", "--out", str(pooled_out)]
        )
        assert report["length"] == 5 * 32
        assert pooled_out.exists()

    def test_pool_zero_bins_are_positive_zero(self, capjson, tmp_path):
        # a bin whose maximum is zero pools to +0.0, whichever zeros it holds
        values = np.array(
            [[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [-0.0, -1.0]]], dtype=np.float32
        )
        formats.save_feature_map(tmp_path / "fm.cfmt", FeatureMap(values))
        out = tmp_path / "pooled.cfmt"
        capjson(["pool", "--image", str(tmp_path / "fm.cfmt"), "--window", "0,0,1,1",
                 "--levels", "2,1", "--out", str(out)])
        # level 2: one cell per bin, channels contiguous within a bin; then level 1
        expected = np.array([0, 0, 0, 0, 0, 0, 0, -1, 0, 0], dtype=np.float32)
        assert formats.load_vector(out).tobytes() == expected.tobytes()
        assert Path(str(out) + ".json").read_text() == (
            '{\n  "channels": 2,\n  "levels": [\n    2,\n    1\n  ]\n}\n')

    def test_mask_project_deterministic(self, capjson, layers_file, tmp_path, rng):
        from conftest import random_mask

        formats.save_mask(tmp_path / "m.pgm", random_mask(rng, 16, 16))
        args = ["mask-project", "--geometry", layers_file,
                "--mask", str(tmp_path / "m.pgm"), "--fh", "4", "--fw", "4",
                "--out", str(tmp_path / "fm.pgm")]
        capjson(args)
        first = (tmp_path / "fm.pgm").read_bytes()
        capjson(args)
        assert (tmp_path / "fm.pgm").read_bytes() == first

    def test_mask_project_grid_as_large_as_mask(self, capjson, layers_file, tmp_path):
        formats.save_mask(tmp_path / "m.pgm", BinaryMask(np.ones((16, 12), dtype=bool)))
        report = capjson(["mask-project", "--geometry", layers_file,
                          "--mask", str(tmp_path / "m.pgm"), "--fh", "16", "--fw", "12",
                          "--out", str(tmp_path / "fm.pgm")])
        assert (report["fh"], report["fw"]) == (16, 12)

    @pytest.mark.parametrize("shape", [(1, 4096), (4096, 1)], ids=["wide", "tall"])
    def test_mask_project_fine_grid_memory(self, capjson, layers_file, tmp_path, shape):
        # a one-pixel line onto a grid as fine as the line: the kernel's buffers
        # grow with the line's pixels, not with its pixels times the grid's
        # cells (a dense 4096 x 4096 table of float64s is 128 MiB)
        from oracles import reduceat_project_mask

        bits = np.zeros(shape, dtype=bool)
        bits.flat[::3] = True
        formats.save_mask(tmp_path / "m.pgm", BinaryMask(bits))
        tracemalloc.start()
        try:
            capjson(["mask-project", "--geometry", layers_file, "--mask", str(tmp_path / "m.pgm"),
                     "--fh", str(shape[0]), "--fw", str(shape[1]),
                     "--out", str(tmp_path / "fm.pgm")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        g = compose_geometry(load_layers(layers_file))
        want = reduceat_project_mask(g, BinaryMask(bits), *shape)
        assert np.array_equal(formats.load_mask(tmp_path / "fm.pgm").bits, want.bits)

    def test_pursue(self, capjson, scene_dir):
        report = capjson(
            ["pursue", "--proposals", str(scene_dir / "proposals.json"),
             "--stuff", str(scene_dir / "instance_000.pgm")]
        )
        assert "selected" in report and "candidates" in report

    def test_pursue_purity_pos_below_negative_bound(self, capjson, scene_dir):
        # used to fail PursuitConfig's ordering check against --purity-neg's 0.3
        report = capjson(
            ["pursue", "--proposals", str(scene_dir / "proposals.json"),
             "--stuff", str(scene_dir / "instance_000.pgm"), "--purity-pos", "0.25"]
        )
        assert all(c["purity"] > 0.25 for c in report["candidates"])

    def test_pursue_has_no_purity_neg(self, scene_dir):
        with pytest.raises(SystemExit) as exc:
            main(["pursue", "--proposals", str(scene_dir / "proposals.json"),
                  "--stuff", str(scene_dir / "instance_000.pgm"), "--purity-neg", "0.1"])
        assert exc.value.code == 2

    def test_synth_writes_scene(self, capjson, tmp_path):
        out = tmp_path / "gen"
        report = capjson(["synth", "--seed", "5", "--out-dir", str(out)])
        assert (out / "image.cfmt").exists()
        assert (out / "labels.cfml").exists()
        assert (out / "proposals.json").exists()
        assert report["proposals"] > 0


class TestPasteEval:
    def test_paste_and_eval(self, capjson, tmp_path):
        from conftest import rect_mask

        masks_dir = tmp_path
        formats.save_mask(masks_dir / "a.pgm", rect_mask(8, 8, 0, 3, 0, 3))
        formats.save_mask(masks_dir / "b.pgm", rect_mask(8, 8, 4, 7, 4, 7))
        scored = [
            {"id": "a", "mask": "a.pgm", "category": 1, "score": 0.9},
            {"id": "b", "mask": "b.pgm", "category": 2, "score": 0.5},
        ]
        (tmp_path / "scored.json").write_text(json.dumps(scored))
        out = tmp_path / "labels.cfml"
        capjson(["paste", "--scored", str(tmp_path / "scored.json"),
                 "--width", "8", "--height", "8", "--out", str(out)])
        labeled = formats.load_label_map(out)
        assert labeled.labels[0, 0] == 1 and labeled.labels[7, 7] == 2
        report = capjson(["eval", "--pred", str(out), "--gt", str(out),
                          "--categories", "3"])
        assert report["mean_iou"] == 1.0


class TestEndToEndCli:
    def test_train_infer_bench(self, capjson, net_file, tmp_path):
        corpus = tmp_path / "corpus"
        cfg = synth.CorpusConfig()
        for i in range(4):
            spec = synth.random_scene_spec(cfg, seed=synth.derive_seed(50, i))
            scene = synth.generate_scene(spec)
            proposals = synth.scene_proposals(scene, synth.derive_seed(50, i, 1))
            write_scene_dir(corpus / f"scene_{i:03d}", scene, proposals)
        models_dir = tmp_path / "models"
        report = capjson(
            ["train", "--corpus", str(corpus), "--net", net_file,
             "--object-cats", "1,2,3", "--stuff-cats", "4,5",
             "--scales", "64", "--epochs", "2", "--seed", "0",
             "--out-dir", str(models_dir)]
        )
        assert report["models"] == 5
        scene0 = corpus / "scene_000"
        out_labels = tmp_path / "pred.cfml"
        report = capjson(
            ["infer", "--models", str(models_dir),
             "--image", str(scene0 / "image.cfmt"),
             "--proposals", str(scene0 / "proposals.json"),
             "--net", net_file, "--scales", "64",
             "--gt", str(scene0 / "labels.cfml"),
             "--out-labels", str(out_labels)]
        )
        assert out_labels.exists()
        assert "mean_iou" in report
        report = capjson(
            ["bench", "--image", str(scene0 / "image.cfmt"),
             "--proposals", str(scene0 / "proposals.json"),
             "--net", net_file, "--counts", "1,3", "--warp", "16",
             "--scales", "64"]
        )
        assert [run["proposals"] for run in report["runs"]] == [1, 3]

    def test_infer_overlay_maps_the_largest_label_to_255(self, capjson, monkeypatch,
                                                          tmp_path, scene_dir, net_file):
        # 25 * (255.0 / 25) is just below 255, so a truncated float level read 254
        labels = np.arange(28, dtype=np.uint16).reshape(4, 7) % 26
        monkeypatch.setattr(cli.pipeline, "predict_scene", lambda *a, **kw: LabelMap(labels))
        models = tmp_path / "models"
        models.mkdir()
        formats.save_vector(models / "w.cfmt", np.zeros(3, dtype=np.float32))
        (models / "category_025.json").write_text(json.dumps(
            {"category": 25, "bias": 0.0, "weights": "w.cfmt"}))
        overlay = tmp_path / "overlay.pgm"
        report = capjson(["infer", "--models", str(models),
                          "--image", str(scene_dir / "image.cfmt"),
                          "--proposals", str(scene_dir / "proposals.json"),
                          "--net", net_file, "--out-labels", str(tmp_path / "pred.cfml"),
                          "--overlay", str(overlay)])
        assert report["overlay"] == str(overlay)
        header = b"P5\n7 4\n255\n"  # width, height, maxval
        data = overlay.read_bytes()
        assert data[:len(header)] == header and len(data) == len(header) + labels.size
        gray = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(labels.shape)
        assert (gray[labels == 0] == 0).all() and (gray[labels == 25] == 255).all()
        assert np.array_equal(gray, labels.astype(np.int64) * 255 // 25)

    def test_outputs_identical_across_threads(self, capjson, net_file, tmp_path,
                                              scene_dir):
        outs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"fm_{threads}.pgm"
            layers = tmp_path / "geo.json"
            layers.write_text(json.dumps(
                [{"kind": "conv", "kernel": 3, "stride": 2, "pad": 1}]
            ))
            capjson(["--threads", threads, "mask-project",
                     "--geometry", str(layers),
                     "--mask", str(scene_dir / "instance_000.pgm"),
                     "--fh", "32", "--fw", "32", "--out", str(out)])
            outs[threads] = out.read_bytes()
        assert outs["1"] == outs["4"]


class TestErrorContract:
    """Malformed configs and flags exit 1 with a JSON error, never a traceback."""

    @staticmethod
    def error(capsys, argv) -> dict:
        assert main(argv) == 1
        return json.loads(capsys.readouterr().err)

    @staticmethod
    def scene_spec() -> dict:
        return {
            "width": 32, "height": 32,
            "shapes": [{"kind": "rect", "category": 1, "cx": 10, "cy": 10,
                        "half_w": 4, "half_h": 4}],
            "bands": [{"category": 4, "row0": 0, "row1": 5,
                       "base_color": [0.3, 0.6, 0.8], "noise_amp": 0.2}],
        }

    def test_layer_without_kernel(self, capsys, tmp_path):
        path = tmp_path / "layers.json"
        path.write_text(json.dumps([{"kind": "conv", "stride": 2, "pad": 1}]))
        err = self.error(capsys, ["geometry", "--layers", str(path)])
        assert err["error"] == "ValidationError" and "'kernel'" in err["message"]

    def test_truncated_layers_json(self, capsys, tmp_path):
        path = tmp_path / "layers.json"
        path.write_text('[{"kind": "conv", "kernel": 3, "str')
        err = self.error(capsys, ["geometry", "--layers", str(path)])
        assert err["error"] == "FormatError"

    def test_truncated_net_spec(self, capsys, tmp_path, net_file):
        Path(net_file).write_text(Path(net_file).read_text()[:40])
        formats.save_feature_map(tmp_path / "img.cfmt",
                                 FeatureMap(np.zeros((3, 8, 8), dtype=np.float32)))
        err = self.error(capsys, ["forward", "--net", net_file, "--image",
                                  str(tmp_path / "img.cfmt"), "--out",
                                  str(tmp_path / "out.cfmt")])
        assert err["error"] == "FormatError"

    @pytest.mark.parametrize("categories", ["0", "65537"])
    def test_eval_category_count_bounded(self, capsys, tmp_path, categories):
        labels = tmp_path / "labels.cfml"
        formats.save_label_map(labels, LabelMap(np.zeros((4, 4), dtype=np.uint16)))
        err = self.error(capsys, ["eval", "--pred", str(labels), "--gt", str(labels),
                                  "--categories", categories])
        assert err["error"] == "ValidationError" and "1..65536" in err["message"]

    @pytest.mark.parametrize("window", ["1,2", "1,2,3,x"])
    def test_bad_pool_window(self, capsys, tmp_path, window):
        formats.save_feature_map(tmp_path / "fm.cfmt",
                                 FeatureMap(np.ones((2, 4, 4), dtype=np.float32)))
        err = self.error(capsys, ["pool", "--image", str(tmp_path / "fm.cfmt"),
                                  "--window", window, "--out", str(tmp_path / "p.cfmt")])
        assert err["error"] == "ValidationError"

    def test_scene_spec_missing_key(self, capsys, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"height": 32}))
        err = self.error(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                  "--out-dir", str(tmp_path / "out")])
        assert err["error"] == "FormatError" and "width" in err["message"]

    @pytest.mark.parametrize("where, value", [
        ("shape", 10.7), ("shape", "3"), ("shape", True), ("band", 2.5), ("scene", 32.0),
    ])
    def test_scene_spec_non_integer_rejected(self, capsys, tmp_path, where, value):
        spec = self.scene_spec()
        field = {"shape": "cx", "band": "row1", "scene": "width"}[where]
        target = {"shape": spec["shapes"][0], "band": spec["bands"][0],
                  "scene": spec}[where]
        target[field] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        err = self.error(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                  "--out-dir", str(tmp_path / "out")])
        assert err["error"] == "ValidationError" and repr(field) in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("base_color", [0.1, 0.2]),  # used to die with IndexError
        ("base_color", ["a", "b", "c"]),  # used to die with numpy's _UFuncNoLoopError
        ("base_color", [0.1, 0.2, 0.3, 0.4]),
        ("base_color", [True, False, True]),
        ("base_color", [0.1, float("nan"), 0.3]),
        ("base_color", "0.1"),
        ("noise_amp", "0.2"),
        ("noise_amp", True),
        ("noise_amp", float("inf")),
        ("noise_amp", [0.2]),
    ])
    def test_scene_spec_band_numbers_rejected(self, capsys, tmp_path, field, value):
        spec = self.scene_spec()
        spec["bands"][0][field] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        err = self.error(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                  "--out-dir", str(tmp_path / "out")])
        assert err["error"] == "ValidationError" and field in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("objects, stuff",
                             [("1,1,2", "4"), ("1", "4,4"), ("1,4", "4")])
    def test_train_repeated_category_rejected(self, capsys, monkeypatch, tmp_path,
                                              scene_dir, net_file, objects, stuff):
        # a repeat used to exit 0 with that category's samples pooled twice
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, "--object-cats", objects,
                                  "--stuff-cats", stuff, "--scales", "64",
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "ValidationError" and "distinct" in err["message"]
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("flag, value", [("--reg", "nan"), ("--reg", "inf"),
                                             ("--reg", "0"), ("--epochs", "0")])
    def test_train_bad_hyperparameter_rejected(self, capsys, monkeypatch, tmp_path,
                                               scene_dir, net_file, flag, value):
        # nan and inf used to train every epoch before failing, and 0 to run every
        # training forward first
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, "--object-cats", "1",
                                  "--stuff-cats", "4", "--scales", "64", flag, value,
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "ValidationError" and "hyperparameters" in err["message"]
        assert not (tmp_path / "models").exists()

    @pytest.mark.parametrize("purity_pos", ["0", "1.5"])
    def test_pursue_purity_pos_outside_unit_interval(self, capsys, scene_dir, purity_pos):
        err = self.error(capsys, ["pursue",
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--stuff", str(scene_dir / "instance_000.pgm"),
                                  "--purity-pos", purity_pos])
        assert err["error"] == "ValidationError" and "purity_pos" in err["message"]

    def test_missing_proposal_index(self, capsys, tmp_path, net_file):
        formats.save_feature_map(tmp_path / "img.cfmt",
                                 FeatureMap(np.zeros((3, 8, 8), dtype=np.float32)))
        err = self.error(capsys, ["bench", "--image", str(tmp_path / "img.cfmt"),
                                  "--proposals", str(tmp_path / "absent.json"),
                                  "--net", net_file])
        assert err["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("counts", ["-5,3", "1,0", "1,100000"])
    def test_bench_counts_outside_the_index_rejected(self, capsys, monkeypatch, scene_dir,
                                                     net_file, counts):
        # "-5,3" used to time proposals[:-5] and exit 0
        timed = []
        monkeypatch.setattr(cli.pipeline, "benchmark", lambda *a, **k: timed.append(a))
        err = self.error(capsys, ["bench", "--image", str(scene_dir / "image.cfmt"),
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--net", net_file, f"--counts={counts}"])
        assert err["error"] == "ValidationError" and "--counts" in err["message"]
        assert timed == []  # every count is checked before any timing

    @pytest.mark.parametrize("counts", ["", ","])
    def test_bench_empty_counts_rejected(self, capsys, scene_dir, net_file, counts):
        # an empty list used to print {"runs": []} and exit 0
        err = self.error(capsys, ["bench", "--image", str(scene_dir / "image.cfmt"),
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--net", net_file, f"--counts={counts}"])
        assert err["error"] == "ValidationError" and "--counts" in err["message"]

    def test_instance_mask_outside_scene_rejected(self, capsys, tmp_path, scene_dir,
                                                  net_file):
        entries = json.loads((scene_dir / "instances.json").read_text())
        entries[0]["mask"] = str(scene_dir / entries[0]["mask"])  # absolute path
        (scene_dir / "instances.json").write_text(json.dumps(entries))
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, "--object-cats", "1",
                                  "--stuff-cats", "4", "--scales", "64",
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "FormatError" and "leaves its directory" in err["message"]

    @staticmethod
    def two_masks(tmp_path):
        """Two disjoint equal-area 8x8 masks, a.pgm and b.pgm."""
        from conftest import rect_mask

        formats.save_mask(tmp_path / "a.pgm", rect_mask(8, 8, 0, 3, 0, 3))
        formats.save_mask(tmp_path / "b.pgm", rect_mask(8, 8, 4, 7, 4, 7))

    def test_non_string_proposal_id_pursue(self, capsys, tmp_path):
        # equal areas make pursuit compare the ids: 1 against "x"
        self.two_masks(tmp_path)
        index = [{"id": 1, "mask": "a.pgm", "box": [0, 0, 3, 3]},
                 {"id": "x", "mask": "b.pgm", "box": [4, 4, 7, 7]}]
        (tmp_path / "p.json").write_text(json.dumps(index))
        formats.save_mask(tmp_path / "stuff.pgm", formats.load_mask(tmp_path / "a.pgm"))
        err = self.error(capsys, ["pursue", "--proposals", str(tmp_path / "p.json"),
                                  "--stuff", str(tmp_path / "stuff.pgm")])
        assert err["error"] == "FormatError" and "JSON string" in err["message"]

    def test_non_string_region_id_paste(self, capsys, tmp_path):
        # equal scores make the paste queue compare the ids: 1 against "x"
        self.two_masks(tmp_path)
        scored = [{"id": 1, "mask": "a.pgm", "category": 1, "score": 0.5},
                  {"id": "x", "mask": "b.pgm", "category": 2, "score": 0.5}]
        (tmp_path / "scored.json").write_text(json.dumps(scored))
        err = self.error(capsys, ["paste", "--scored", str(tmp_path / "scored.json"),
                                  "--width", "8", "--height", "8",
                                  "--out", str(tmp_path / "labels.cfml")])
        assert err["error"] == "FormatError" and "JSON string" in err["message"]

    def test_model_weights_outside_directory(self, capsys, tmp_path, scene_dir,
                                             net_file):
        outside = tmp_path / "outside"
        outside.mkdir()
        formats.save_vector(outside / "w.cfmt", np.zeros(3, dtype=np.float32))
        models = tmp_path / "models"
        models.mkdir()
        (models / "category_001.json").write_text(json.dumps(
            {"category": 1, "bias": 0.0, "weights": "../outside/w.cfmt"}
        ))
        err = self.error(capsys, ["infer", "--models", str(models),
                                  "--image", str(scene_dir / "image.cfmt"),
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--net", net_file,
                                  "--out-labels", str(tmp_path / "pred.cfml")])
        assert err["error"] == "FormatError" and "leaves its directory" in err["message"]

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "-1"],
        ["pursue", "--mode", "stochastic", "--seed", "-2"],
        ["train", "--seed", "-10"],
    ], ids=["synth", "pursue-stochastic", "train"])
    def test_negative_seed_rejected(self, capsys, tmp_path, scene_dir, net_file, argv):
        # numpy's generators used to raise a ValueError traceback
        inputs = {
            "synth": ["--out-dir", str(tmp_path / "out")],
            "pursue": ["--proposals", str(scene_dir / "proposals.json"),
                       "--stuff", str(scene_dir / "instance_000.pgm")],
            "train": ["--corpus", str(scene_dir.parent), "--net", net_file,
                      "--object-cats", "1", "--stuff-cats", "4", "--scales", "64",
                      "--out-dir", str(tmp_path / "out")],
        }[argv[0]]
        err = self.error(capsys, argv + inputs)
        assert err["error"] == "ValidationError" and "--seed" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width, height", [(-1, 8), (8, -2), (0, 8)])
    def test_paste_size_below_one_rejected(self, capsys, tmp_path, width, height):
        (tmp_path / "scored.json").write_text("[]")
        err = self.error(capsys, ["paste", "--scored", str(tmp_path / "scored.json"),
                                  "--width", str(width), "--height", str(height),
                                  "--out", str(tmp_path / "labels.cfml")])
        assert err["error"] == "ValidationError" and "paste size" in err["message"]

    @pytest.mark.parametrize("width, height", [(100_000, 100_000), (MAX_SIDE + 1, 8),
                                               (8, MAX_SIDE + 1)])
    def test_paste_size_above_max_side_rejected(self, capsys, tmp_path, width, height):
        # an empty region list passes the frame check, so a 10^5 x 10^5 paste used
        # to reach np.zeros and die in numpy's _ArrayMemoryError
        (tmp_path / "scored.json").write_text("[]")
        argv = ["paste", "--scored", str(tmp_path / "scored.json"),
                "--out", str(tmp_path / "labels.cfml")]
        tracemalloc.start()
        try:
            err = self.error(capsys, [*argv, "--width", str(width), "--height", str(height)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err["error"] == "ValidationError" and str(MAX_SIDE) in err["message"]
        assert peak < 8 << 20  # rejected before the label map is allocated
        assert not (tmp_path / "labels.cfml").exists()
        assert main([*argv, "--width", str(MAX_SIDE), "--height", "1"]) == 0  # the bound itself

    def test_non_integer_region_category_paste(self, capsys, tmp_path):
        # "category": 1.9 used to paint category 1
        self.two_masks(tmp_path)
        scored = [{"id": "a", "mask": "a.pgm", "category": 1.9, "score": 0.5}]
        (tmp_path / "scored.json").write_text(json.dumps(scored))
        err = self.error(capsys, ["paste", "--scored", str(tmp_path / "scored.json"),
                                  "--width", "8", "--height", "8",
                                  "--out", str(tmp_path / "labels.cfml")])
        assert err["error"] == "ValidationError" and "'category'" in err["message"]

    @pytest.mark.parametrize("score", ['"0.9"', "true", "null", "[0.5]", "1" + "0" * 400,
                                       "NaN"],
                             ids=["string", "bool", "null", "array", "huge-int", "nan"])
    def test_non_number_region_score_paste(self, capsys, tmp_path, score):
        # "score": "0.9" and "score": true used to paint the region
        self.two_masks(tmp_path)
        (tmp_path / "scored.json").write_text(
            '[{"id": "a", "mask": "a.pgm", "category": 1, "score": %s}]' % score)
        err = self.error(capsys, ["paste", "--scored", str(tmp_path / "scored.json"),
                                  "--width", "8", "--height", "8",
                                  "--out", str(tmp_path / "labels.cfml")])
        assert err["error"] == "ValidationError" and "'score'" in err["message"]
        assert not (tmp_path / "labels.cfml").exists()

    def test_integer_region_score_paste(self, capsys, tmp_path):
        self.two_masks(tmp_path)
        scored = [{"id": "a", "mask": "a.pgm", "category": 1, "score": 2}]
        (tmp_path / "scored.json").write_text(json.dumps(scored))
        assert main(["paste", "--scored", str(tmp_path / "scored.json"), "--width", "8",
                     "--height", "8", "--out", str(tmp_path / "labels.cfml")]) == 0
        assert formats.load_label_map(tmp_path / "labels.cfml").labels[0, 0] == 1

    def test_non_integer_instance_category_train(self, capsys, tmp_path, scene_dir,
                                                 net_file):
        entries = json.loads((scene_dir / "instances.json").read_text())
        entries[0]["category"] = float(entries[0]["category"]) + 0.9
        (scene_dir / "instances.json").write_text(json.dumps(entries))
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, "--object-cats", "1",
                                  "--stuff-cats", "4", "--scales", "64",
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "ValidationError" and "'category'" in err["message"]

    @pytest.mark.parametrize("category", [70000, -1])
    def test_region_category_outside_label_range_paste(self, capsys, tmp_path, category):
        # used to die with OverflowError painting the uint16 label map
        self.two_masks(tmp_path)
        scored = [{"id": "a", "mask": "a.pgm", "category": category, "score": 0.5}]
        (tmp_path / "scored.json").write_text(json.dumps(scored))
        err = self.error(capsys, ["paste", "--scored", str(tmp_path / "scored.json"),
                                  "--width", "8", "--height", "8",
                                  "--out", str(tmp_path / "labels.cfml")])
        assert err["error"] == "ValidationError" and "category" in err["message"]
        assert not (tmp_path / "labels.cfml").exists()

    @pytest.mark.parametrize("where, field, value", [
        ("shape", "category", 70000), ("band", "category", 70000), ("scene", "seed", -1),
    ])
    def test_scene_spec_out_of_range_rejected(self, capsys, tmp_path, where, field,
                                              value):
        # used to die in generate_scene: OverflowError painting the uint16 label
        # map, or numpy's ValueError for a negative seed
        spec = self.scene_spec()
        target = {"shape": spec["shapes"][0], "band": spec["bands"][0],
                  "scene": spec}[where]
        target[field] = value
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        err = self.error(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                  "--out-dir", str(tmp_path / "out")])
        assert err["error"] == "ValidationError" and field in err["message"]
        assert not (tmp_path / "out").exists()

    def test_negative_net_seed_rejected(self, capsys, tmp_path, net_file):
        # used to die with numpy's ValueError in init_toynet
        spec = json.loads(Path(net_file).read_text())
        spec["seed"] = -1
        Path(net_file).write_text(json.dumps(spec))
        formats.save_feature_map(tmp_path / "img.cfmt",
                                 FeatureMap(np.zeros((3, 8, 8), dtype=np.float32)))
        err = self.error(capsys, ["forward", "--net", net_file, "--image",
                                  str(tmp_path / "img.cfmt"), "--out",
                                  str(tmp_path / "out.cfmt")])
        assert err["error"] == "ValidationError" and "seed" in err["message"]
        assert not (tmp_path / "out.cfmt").exists()

    @pytest.mark.parametrize("fh, fw", [(17, 12), (16, 13), (10**12, 4), (4, 10**12)])
    def test_mask_project_grid_beyond_mask_rejected(self, capsys, monkeypatch, tmp_path,
                                                    layers_file, fh, fw):
        # each pixel row votes for one cell row, so rows beyond the mask's height
        # stay unset; a 10**12-row grid used to end in MemoryError or an OOM kill
        def allocate(*args):
            raise AssertionError("project_mask reached")

        monkeypatch.setattr(cli, "project_mask", allocate)
        formats.save_mask(tmp_path / "m.pgm", BinaryMask(np.ones((16, 12), dtype=bool)))
        err = self.error(capsys, ["mask-project", "--geometry", layers_file,
                                  "--mask", str(tmp_path / "m.pgm"), "--fh", str(fh),
                                  "--fw", str(fw), "--out", str(tmp_path / "fm.pgm")])
        assert err["error"] == "ValidationError" and "exceeds mask" in err["message"]
        assert not (tmp_path / "fm.pgm").exists()

    def test_pool_levels_must_descend(self, capsys, tmp_path):
        # design B blanks levels[0] as the finest grid; "1,6" used to be accepted
        formats.save_feature_map(tmp_path / "fm.cfmt",
                                 FeatureMap(np.ones((2, 8, 8), dtype=np.float32)))
        err = self.error(capsys, ["pool", "--image", str(tmp_path / "fm.cfmt"),
                                  "--window", "0,0,7,7", "--levels", "1,6",
                                  "--out", str(tmp_path / "p.cfmt")])
        assert err["error"] == "ValidationError" and "descend" in err["message"]

    def test_empty_scales_rejected(self, capsys, tmp_path, net_file):
        # an empty --scales used to fall back to the default scales 480..1200
        err = self.error(capsys, ["bench", "--image", str(tmp_path / "absent.cfmt"),
                                  "--proposals", str(tmp_path / "absent.json"),
                                  "--net", net_file, "--scales", ""])
        assert err["error"] == "ValidationError" and "scales" in err["message"]

    @pytest.mark.parametrize("flags", [["infer", "--scales", "1,100000000"],
                                       ["bench", "--counts", "1", "--warp", "100000000"]],
                             ids=["infer-scales", "bench-warp"])
    def test_forward_input_side_bounded(self, capsys, tmp_path, scene_dir, net_file, flags):
        # a 10^8 scale or warp side used to reach the resize before any check
        models = tmp_path / "models"
        models.mkdir()
        length = feature_length(32, PyramidSpec(), "B")  # the default net and design
        formats.save_vector(models / "w.cfmt", np.zeros(length, dtype=np.float32))
        (models / "category_001.json").write_text(
            '{"category": 1, "bias": 0.0, "weights": "w.cfmt"}')
        paths = {"infer": ["--models", str(models), "--out-labels", str(tmp_path / "p.cfml")],
                 "bench": []}[flags[0]]
        tracemalloc.start()
        try:
            err = self.error(capsys, [*flags, *paths, "--net", net_file,
                                      "--image", str(scene_dir / "image.cfmt"),
                                      "--proposals", str(scene_dir / "proposals.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err["error"] == "ValidationError" and str(MAX_SIDE) in err["message"]
        assert peak < 8 << 20  # rejected before anything the size sets is allocated

    def test_scene_spec_side_bounded(self, capsys, tmp_path):
        # a 10^7-row spec used to reach generate_scene's image, label and owner arrays
        spec = self.scene_spec()
        spec["height"] = 10_000_000
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        tracemalloc.start()
        try:
            err = self.error(capsys, ["synth", "--spec", str(tmp_path / "spec.json"),
                                      "--out-dir", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err["error"] == "ValidationError" and str(MAX_SIDE) in err["message"]
        assert peak < 8 << 20
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bias", ['"0.5"', "true", "null", "[0.5]", "1" + "0" * 400,
                                      "NaN"],
                             ids=["string", "bool", "null", "array", "huge-int", "nan"])
    def test_non_number_model_bias_infer(self, capsys, monkeypatch, tmp_path, scene_dir,
                                         net_file, bias):
        # "bias": "0.5" and "bias": true used to load; the huge int raised OverflowError
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        models = tmp_path / "models"
        models.mkdir()
        formats.save_vector(models / "w.cfmt", np.zeros(3, dtype=np.float32))
        (models / "category_001.json").write_text(
            '{"category": 1, "bias": %s, "weights": "w.cfmt"}' % bias)
        err = self.error(capsys, ["infer", "--models", str(models),
                                  "--image", str(scene_dir / "image.cfmt"),
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--net", net_file,
                                  "--out-labels", str(tmp_path / "pred.cfml")])
        assert err["error"] == "ValidationError" and "'bias'" in err["message"]
        assert not (tmp_path / "pred.cfml").exists()

    def test_model_category_outside_label_range_infer(self, capsys, monkeypatch, tmp_path,
                                                      scene_dir, net_file):
        # a model file of category 70000 used to load; pasting it overflows uint16
        monkeypatch.setattr(toynet, "forward", None)
        models = tmp_path / "models"
        models.mkdir()
        formats.save_vector(models / "w.cfmt", np.zeros(3, dtype=np.float32))
        (models / "category_70000.json").write_text(json.dumps(
            {"category": 70000, "bias": 0.0, "weights": "w.cfmt"}))
        err = self.error(capsys, ["infer", "--models", str(models),
                                  "--image", str(scene_dir / "image.cfmt"),
                                  "--proposals", str(scene_dir / "proposals.json"),
                                  "--net", net_file,
                                  "--out-labels", str(tmp_path / "pred.cfml")])
        assert err["error"] == "ValidationError" and "0..65535" in err["message"]

    @pytest.mark.parametrize("objects, stuff", [("70000,2,3", "4"), ("1", "4,65536"),
                                                ("1", "0"), ("-1", "4")])
    def test_train_category_outside_label_range_rejected(
            self, capsys, monkeypatch, tmp_path, scene_dir, net_file, objects, stuff):
        # --object-cats 70000,2,3 used to exit 0 and write a model no infer can load;
        # --stuff-cats 0 used to train a model of the background
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, f"--object-cats={objects}",
                                  f"--stuff-cats={stuff}", "--scales", "64",
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "ValidationError" and "1..65535" in err["message"]
        assert not (tmp_path / "models").exists()

    def test_instance_category_outside_label_range_train(self, capsys, monkeypatch,
                                                         tmp_path, scene_dir, net_file):
        monkeypatch.setattr(toynet, "forward", None)
        entries = json.loads((scene_dir / "instances.json").read_text())
        entries[0]["category"] = 70000
        (scene_dir / "instances.json").write_text(json.dumps(entries))
        err = self.error(capsys, ["train", "--corpus", str(scene_dir.parent),
                                  "--net", net_file, "--object-cats", "1",
                                  "--stuff-cats", "4", "--scales", "64",
                                  "--out-dir", str(tmp_path / "models")])
        assert err["error"] == "ValidationError" and "1..65535" in err["message"]
        assert not (tmp_path / "models").exists()
