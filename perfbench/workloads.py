"""The benchmark's workloads: seeded inputs, measured passes, output checks, metrics.

A pass is one train, one inference per test scene, and the workload's
comparison batches (shared conv map vs per-region forwards). A run repeats
the pass's operations until its time is used up; every repeat of an
operation must produce the same output bytes.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from cfmseg import cli, formats, netgeom, pipeline, pooling, synth, toynet
from cfmseg.core import PixelBox

from tracer import TARGETS, Tracer

OBJECT_CATS = (1, 2, 3)
STUFF_CATS = (4, 5)
NUM_CATEGORIES = 6
NET_SEED = 0
WARP_SIDE = 224
SETUP_RUNS = 9
# HostProbe.sample's time in the fast state of a 2-vCPU Intel Xeon at 2.1 GHz
# with Python 3.11.7 and numpy 2.4.6: the reference speed
PROBE_REFERENCE_S = 0.0095
PROBES_PER_OP = 2
RATIO_COUNTS = (1, 10, 50, 200)

LIBRARY_CALLS = (
    "toynet.forward", "toynet.forward_region",
    "pipeline.scale_image", "pipeline.scale_proposal", "pipeline.proposal_features",
    "pipeline.score_proposals", "pipeline.collect_training_pools", "pipeline.benchmark",
    "masking.project_mask",
    "pooling.spp_pool", "pooling.downsample_mask_to_grid", "pooling.design_b_features",
    "core.mask_iou", "core.proposal_from_mask", "core.resize_nearest",
    "pursuit.stuff_samples", "pursuit.purity", "pursuit.label_object_samples",
    "pursuit.candidate_set",
    "classify.train_svm", "classify.score",
    "netgeom.feature_extent",
)
CLI_CALLS = LIBRARY_CALLS + (
    "toynet.init_toynet", "pipeline.paste", "pipeline.mean_iou",
    "classify.load_model", "classify.save_model",
    "formats.load_proposal_index", "formats.load_mask", "formats.load_feature_map",
    "formats.load_label_map", "formats.save_label_map",
    "cli.main.train", "cli.main.infer",
)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    via_cli: bool  # train and infer through cli.main instead of the library
    side: int  # scene side in pixels
    stretch: int  # scenes are drawn at side/stretch, then every shape scaled up
    grid_sizes: tuple[int, ...]
    train_scenes: int
    test_scenes: int
    scales: tuple[int, ...]
    epochs: int
    batch: int  # proposals per comparison batch (a fixed count across seeds)
    batches_per_pass: int
    exercised: tuple[str, ...]  # traced functions that must record calls


WORKLOADS = {
    # the criterion-7 path at reduced size, through the CLI and the file formats
    "corpus": WorkloadSpec("corpus", True, 64, 1, (16, 32), 20, 40,
                           (256, 384, 512), 15, 32, 8, CLI_CALLS),
    # paper-scale proposal counts (~2,680 per scene) on the library path
    "dense": WorkloadSpec("dense", False, 256, 4, (8, 16, 32), 3, 3,
                          (256,), 15, 200, 2, LIBRARY_CALLS),
    # the criterion-8 scene, where per-region forwards dominate
    "per_region": WorkloadSpec("per_region", False, 256, 1, (16, 32), 2, 4,
                               (256,), 15, 200, 3, LIBRARY_CALLS),
}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("infer_ms_p50", "ms", "lower"),
    ("infer_props_per_s", "proposals/s", "higher"),
    ("shared_ms", "ms", "lower"),
    ("per_region_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Names, units and directions of the traced run's metrics."""
    out = []
    for module, fn, _, _ in TARGETS:
        bases = ([f"cli.main.{c}" for c in ("train", "infer")] if fn == "main"
                 else [f"{module}.{fn}"])
        for base in bases:
            out += [(f"{base}.calls", "count", "lower"), (f"{base}.ms", "ms", "lower"),
                    (f"{base}.self_ms", "ms", "lower")]
        if fn == "forward":
            out += [(f"toynet.forward.s{s}.ms", "ms", "lower") for s in (224, 256, 384, 512)]
    out += [
        ("pipeline.proposals_per_forward", "ratio", "higher"),
        ("pipeline.proposal_features.forwards", "count", "lower"),
        ("pipeline.paste.queue", "count", "lower"),
        *[(f"pipeline.benchmark.ratio_{n}", "ratio", "higher") for n in RATIO_COUNTS],
        ("core.mask_bytes", "bytes", "lower"),
        ("pursuit.candidates", "count", "lower"),
        ("pursuit.picks", "count", "lower"),
        ("pursuit.picks_per_candidate", "ratio", "lower"),
        ("classify.train_svm.samples", "count", "lower"),
        ("synth.inputs_s", "s", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
    return out


class CheckFailed(Exception):
    """A program output broke one of the benchmark's checks."""


def _sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _stretch(spec: synth.SceneSpec, k: int) -> synth.SceneSpec:
    """The same scene k times larger: every shape and band scaled by k."""
    shapes = tuple(
        synth.ShapeSpec(s.kind, s.category, s.cx * k, s.cy * k, s.half_w * k,
                        s.half_h * k, s.thickness * k)
        for s in spec.shapes
    )
    bands = tuple(
        synth.BandSpec(b.category, b.row0 * k, b.row1 * k + k - 1, b.base_color,
                       b.noise_amp)
        for b in spec.bands
    )
    return synth.SceneSpec(spec.width * k, spec.height * k, shapes, bands, spec.seed)


def _draw_scene(spec: WorkloadSpec, seed: int) -> synth.Scene:
    small = spec.side // spec.stretch
    scene_spec = synth.random_scene_spec(synth.CorpusConfig(width=small, height=small), seed)
    if spec.stretch > 1:
        scene_spec = _stretch(scene_spec, spec.stretch)
    return synth.generate_scene(scene_spec)


def _covers_categories(scenes) -> bool:
    objects = {inst.category for s in scenes for inst in s.instances}
    labels = set().union(*(np.unique(s.labels.labels).tolist() for s in scenes))
    return set(OBJECT_CATS) <= objects and set(STUFF_CATS) <= labels


def _with_proposals(spec: WorkloadSpec, scene: synth.Scene, seed: int) -> pipeline.TrainScene:
    props = synth.toy_proposals(scene.spec.height, scene.spec.width, scene.instances,
                                grid_sizes=spec.grid_sizes, jitter_seed=seed)
    return pipeline.TrainScene(scene.image, scene.labels, scene.instances, props)


@dataclass
class Inputs:
    train: list[pipeline.TrainScene]
    test: list[pipeline.TrainScene]
    facts: dict

    @property
    def comparison(self) -> pipeline.TrainScene:
        """The first test scene with enough proposals for a whole batch."""
        size = self.facts["batch"]
        return next(s for s in self.test if len(s.proposals) >= size)


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    """Training scenes are the first run of `train_scenes` consecutive draws, in
    seed order, that holds every object and stuff category (training raises on an
    empty class); a fixed count keeps the work per seed the same."""
    window: list[tuple[int, synth.Scene]] = []
    draw = 0
    while True:
        scene = _draw_scene(spec, _sub_seed(seed, 1, draw))
        window = (window + [(draw, scene)])[-spec.train_scenes:]
        draw += 1
        if len(window) == spec.train_scenes and _covers_categories([s for _, s in window]):
            break
        if draw > 1000:
            raise RuntimeError(f"seed {seed}: no category-complete training window")
    train = [_with_proposals(spec, s, _sub_seed(seed, 3, i)) for i, s in window]
    test = [
        _with_proposals(spec, _draw_scene(spec, _sub_seed(seed, 2, i)), _sub_seed(seed, 4, i))
        for i in range(spec.test_scenes)
    ]
    held = [p for s in train + test for p in s.proposals]
    facts = {
        "image_side": spec.side,
        "scales": list(spec.scales),
        "grid_sizes": list(spec.grid_sizes),
        "epochs": spec.epochs,
        "train_scenes": len(train),
        "test_scenes": len(test),
        "train_draws": [window[0][0], window[-1][0]],
        "train_proposals": [len(s.proposals) for s in train],
        "test_proposals": [len(s.proposals) for s in test],
        "batch": min(spec.batch, max(len(s.proposals) for s in test)),
        "batches_per_pass": spec.batches_per_pass,
        "mask_bytes": sum(p.mask.bits.nbytes for p in held),
    }
    return Inputs(train, test, facts)


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import cfmseg
from cfmseg import netgeom, toynet
net = toynet.init_toynet(toynet.default_spec(3, seed={net_seed}))
netgeom.compose_geometry(net.spec.geometry_layers())
elapsed = time.perf_counter() - t0
if not cfmseg.__file__.startswith({src!r}):
    sys.exit("cfmseg imported from " + cfmseg.__file__)
print(repr(elapsed))
"""


def measure_setup(src: Path, runs: int = SETUP_RUNS) -> list[float]:
    """Program set-up in fresh interpreters: import, net init, geometry."""
    code = _SETUP_SNIPPET.format(src=str(src), net_seed=NET_SEED)
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


class HostProbe:
    """Times a fixed miniature of the program's work between operations.

    On a shared 2-vCPU Xeon virtual machine the CPU switches between a fast
    state and one about 1.5x slower, for seconds to minutes at a time, so
    wall times drift with the neighbours' load. Dividing the program's times
    by the probe's median over the same run (`factor`) cancels that drift.
    The probe mimics cfmseg's hot loops (a 3x3 convolution over a 112x112
    map, a per-sample SVM step, full-image mask logic, a nearest upscale) so
    that it slows down with them, but shares no code with cfmseg: a change
    to cfmseg moves the program's times and leaves the probe's alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.standard_normal((8, 114, 114)).astype(np.float32)
        self.weights = rng.standard_normal((16, 8)).astype(np.float32)
        self.rows = rng.standard_normal((200, 64))
        self.bits = rng.random((256, 256)) < 0.5
        self.small = rng.random((64, 64)) < 0.5
        self.upscale = (np.arange(512) * 64) // 512
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        out = np.zeros((16, 112, 112), dtype=np.float32)
        for dy in range(3):
            for dx in range(3):
                out += np.einsum("oc,chw->ohw", self.weights,
                                 self.image[:, dy : dy + 112, dx : dx + 112])
        w = np.zeros(64)
        for row in self.rows:
            if np.dot(w, row) < 1.0:
                w += 0.01 * row
        for _ in range(6):
            np.count_nonzero(self.bits & self.bits[::-1])
            np.count_nonzero(self.bits | self.bits[:, ::-1])
        np.nonzero(self.small[self.upscale[:, None], self.upscale[None, :]])
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How many times slower than the reference speed the machine ran."""
        return statistics.median(self.samples) / PROBE_REFERENCE_S


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """What a run's operations measured, and how many of them failed."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: {k: [] for k in ("train", "infer", "shared", "region")})
    infer_props: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # op -> first output hash

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {detail}")

    @property
    def fingerprint(self) -> str:
        """SHA-256 over every operation's outputs, in pass order."""
        return hashlib.sha256("".join(self.digests.values()).encode()).hexdigest()


class Runner:
    """Holds one workload's inputs and program state and runs its operations.

    A pass is the list from `ops()`; each operation returns the bytes it
    produced, and a repeat of an operation must produce the same bytes.
    """

    def __init__(self, spec: WorkloadSpec, inputs: Inputs, work: Path, seed: int):
        self.spec, self.inputs, self.work, self.seed = spec, inputs, work, seed
        self.net = toynet.init_toynet(toynet.default_spec(3, seed=NET_SEED))
        self.geometry = netgeom.compose_geometry(self.net.spec.geometry_layers())
        self.cfg = pipeline.PipelineConfig(scales=spec.scales, design="B",
                                           warp_side=WARP_SIDE)
        self.tracer: Tracer | None = None
        self.models = None  # library path: the last trained models
        self.predicted: dict[int, object] = {}  # corpus: label map per test scene
        if spec.via_cli:
            self._write_corpus()

    def ops(self) -> list[tuple[str, object]]:
        """Train, then the inferences with the comparison batches spread evenly
        among them, so that each kind of sample spans the whole pass."""
        infer = self._infer_cli if self.spec.via_cli else self._infer
        n_infer, n_batch = len(self.inputs.test), self.spec.batches_per_pass
        rest = sorted(
            [((i + 0.5) / n_infer, f"infer {i}", partial(infer, i)) for i in range(n_infer)]
            + [((b + 0.5) / n_batch, f"batch {b}", self._batch) for b in range(n_batch)],
            key=lambda op: op[0],
        )
        train = self._train_cli if self.spec.via_cli else self._train
        return [("train", train)] + [(key, op) for _, key, op in rest]

    def do(self, rec: Record, key: str, op) -> None:
        rec.attempted += 1
        try:
            produced = op(rec)
        except Exception:
            if key.startswith("infer"):
                rec.samples["infer"].append(math.inf)
            rec.fail(key, traceback.format_exc(limit=3))
            return
        digest = hashlib.sha256(produced).hexdigest()
        first = rec.digests.setdefault(key, digest)
        if first != digest:
            rec.fail(key, "output differs from the first run of this operation")

    def _quiet(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    # -- the CLI path ---------------------------------------------------
    def _write_corpus(self) -> None:
        for i, scene in enumerate(self.inputs.train):
            cli.write_scene_dir(self.work / "corpus" / f"scene_{i:03d}", scene,
                                scene.proposals)
        for i, scene in enumerate(self.inputs.test):
            cli.write_scene_dir(self.work / "test" / f"scene_{i:03d}", scene,
                                scene.proposals)
        formats.dump_json(toynet.spec_to_json(self.net.spec), self.work / "net.json")
        (self.work / "pred").mkdir()

    def _cli(self, *argv: str) -> float:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["--threads", "1", *argv])
        elapsed = time.perf_counter() - start
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.getvalue().strip()}")
        return elapsed

    def _common_args(self) -> list[str]:
        return ["--net", str(self.work / "net.json"), "--design", "B",
                "--scales", ",".join(map(str, self.spec.scales))]

    def _train_cli(self, rec: Record) -> bytes:
        models = self.work / "models"
        shutil.rmtree(models, ignore_errors=True)
        elapsed = self._cli(
            "train", "--corpus", str(self.work / "corpus"), *self._common_args(),
            "--object-cats", ",".join(map(str, OBJECT_CATS)),
            "--stuff-cats", ",".join(map(str, STUFF_CATS)),
            "--epochs", str(self.spec.epochs), "--seed", str(self.seed),
            "--out-dir", str(models),
        )
        rec.samples["train"].append(elapsed)
        return b"".join(p.name.encode() + p.read_bytes() for p in sorted(models.iterdir()))

    def _infer_cli(self, i: int, rec: Record) -> bytes:
        scene = self.inputs.test[i]
        scene_dir = self.work / "test" / f"scene_{i:03d}"
        out = self.work / "pred" / f"scene_{i:03d}.cfml"
        out.unlink(missing_ok=True)
        elapsed = self._cli(
            "infer", "--models", str(self.work / "models"), *self._common_args(),
            "--image", str(scene_dir / "image.cfmt"),
            "--proposals", str(scene_dir / "proposals.json"),
            "--gt", str(scene_dir / "labels.cfml"), "--out-labels", str(out),
        )
        with self._quiet():
            self.predicted[i] = self._check_label_map(out, scene)
        rec.samples["infer"].append(elapsed)
        rec.infer_props += len(scene.proposals)
        return out.read_bytes()

    @staticmethod
    def _check_label_map(path: Path, scene: pipeline.TrainScene):
        try:
            labels = formats.load_label_map(path)
        except (OSError, formats.FormatError) as exc:
            raise CheckFailed(f"label map does not decode: {exc}") from exc
        if labels.labels.shape != scene.labels.labels.shape:
            raise CheckFailed(f"label map shape {labels.labels.shape}, "
                              f"scene {scene.labels.labels.shape}")
        top = int(labels.labels.max())
        if top >= NUM_CATEGORIES:
            raise CheckFailed(f"label {top} is not a category below {NUM_CATEGORIES}")
        return labels

    def mean_iou(self) -> float | None:
        """Dataset mean IoU of corpus's predicted label maps."""
        if not self.spec.via_cli or len(self.predicted) != len(self.inputs.test):
            return None
        preds = [self.predicted[i] for i in range(len(self.inputs.test))]
        truth = [s.labels for s in self.inputs.test]
        with self._quiet():
            return pipeline.mean_iou(preds, truth, NUM_CATEGORIES)[1]

    # -- the library path -----------------------------------------------
    def _train(self, rec: Record) -> bytes:
        self.models = None
        start = time.perf_counter()
        models = pipeline.train_category_models(
            self.inputs.train, list(OBJECT_CATS), list(STUFF_CATS), self.net,
            self.geometry, self.cfg, epochs=self.spec.epochs, seed=self.seed, threads=1,
        )
        rec.samples["train"].append(time.perf_counter() - start)
        self.models = models
        return b"".join(np.int64(m.category).tobytes() + np.float64(m.bias).tobytes()
                        + m.weights.tobytes() for m in models)

    def _infer(self, i: int, rec: Record) -> bytes:
        if self.models is None:
            raise CheckFailed("no trained models to score with")
        scene = self.inputs.test[i]
        start = time.perf_counter()
        scored = pipeline.score_proposals(self.models, scene.proposals, scene.image,
                                          self.net, self.geometry, self.cfg, threads=1)
        elapsed = time.perf_counter() - start
        expected = len(scene.proposals) * len(self.models)
        if len(scored) != expected:
            raise CheckFailed(f"{len(scored)} scored regions, expected {expected}")
        if {r.category for r in scored} != {m.category for m in self.models}:
            raise CheckFailed("scored categories differ from the trained ones")
        scores = np.array([r.score for r in scored], dtype=np.float64)
        if not np.all(np.isfinite(scores)):
            raise CheckFailed("non-finite region score")
        rec.samples["infer"].append(elapsed)
        rec.infer_props += len(scene.proposals)
        return scores.tobytes()

    # -- the conv-once vs per-region comparison ---------------------------
    def _batch(self, rec: Record) -> bytes:
        scene = self.inputs.comparison
        image, batch = scene.image, scene.proposals[: self.inputs.facts["batch"]]
        t0 = time.perf_counter()
        cache = pipeline.FeatureCache(image, self.net)
        shared = pipeline.proposal_features(batch, cache, self.geometry, self.cfg,
                                            threads=1)
        t1 = time.perf_counter()
        regions = []
        for p in batch:
            fm = toynet.forward_region(self.net, image, p.box, WARP_SIDE)
            window = PixelBox(0, 0, fm.width - 1, fm.height - 1)
            regions.append(pooling.spp_pool(fm, window, self.cfg.pyramid).values)
        t2 = time.perf_counter()
        length = pipeline.feature_length(self.net.spec.out_channels, self.cfg.pyramid,
                                         self.cfg.design)
        if len(shared) != len(batch) or any(v.size != length for v in shared):
            raise CheckFailed("shared-path feature count or length is wrong")
        out = np.concatenate([np.stack(shared).ravel(), np.stack(regions).ravel()])
        if not np.all(np.isfinite(out)):
            raise CheckFailed("non-finite feature value")
        rec.samples["shared"].append(t1 - t0)
        rec.samples["region"].append(t2 - t1)
        return out.tobytes()

    def benchmark_ratios(self, rec: Record) -> dict[str, float]:
        """pipeline.benchmark's own speed ratio at 1/10/50/200 proposals (0 when
        the comparison scene has fewer proposals than the count)."""
        scene = self.inputs.comparison
        ratios = {}
        for n in RATIO_COUNTS:
            ratios[f"pipeline.benchmark.ratio_{n}"] = 0.0
            if n > len(scene.proposals):
                continue
            rec.attempted += 1
            try:
                report = pipeline.benchmark(scene.image, scene.proposals[:n], self.net,
                                            self.geometry, self.cfg, threads=1)
            except Exception:
                rec.fail(f"benchmark {n}", traceback.format_exc(limit=3))
                continue
            ratios[f"pipeline.benchmark.ratio_{n}"] = report.ratio
        return ratios


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def _end_to_end(rec: Record, setup: list[float], host: float) -> dict[str, float]:
    """Medians of the run's samples; times are divided by the host factor (see
    HostProbe), set-up and memory are as measured."""
    s = rec.samples
    finite = [t for t in s["infer"] if math.isfinite(t)]
    return {
        "setup_s": _median(setup),
        "train_s": _median(s["train"]) / host,
        "infer_ms_p50": _median(s["infer"]) * 1000.0 / host,
        "infer_props_per_s": rec.infer_props / sum(finite) * host if finite else math.nan,
        "shared_ms": _median(s["shared"]) * 1000.0 / host,
        "per_region_ms": _median(s["region"]) * 1000.0 / host,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer: Tracer, inputs: Inputs, extra: dict[str, float]) -> dict[str, float]:
    values = {}
    for name, _, _ in per_layer_metrics():
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = tracer.calls.get(base, 0)
        elif kind == "ms":
            values[name] = tracer.total_ns.get(base, 0) / 1e6
        elif kind == "self_ms":
            values[name] = tracer.self_ns.get(base, 0) / 1e6
    items = tracer.items
    forwards = items.get("pipeline.proposal_features.forwards", 0)
    candidates = items.get("pursuit.candidates", 0)
    picks = items.get("pursuit.picks", 0)
    values.update({
        "pipeline.proposals_per_forward":
            items.get("pipeline.proposal_features.proposals", 0) / forwards if forwards else 0.0,
        "pipeline.proposal_features.forwards": forwards,
        "pipeline.paste.queue": items.get("pipeline.paste.queue", 0),
        "core.mask_bytes": inputs.facts["mask_bytes"],
        "pursuit.candidates": candidates,
        "pursuit.picks": picks,
        "pursuit.picks_per_candidate": picks / candidates if candidates else 0.0,
        "classify.train_svm.samples": items.get("classify.train_svm.samples", 0),
        **extra,
    })
    return values


def _run_pass(runner: Runner, rec: Record) -> float:
    start = time.perf_counter()
    for key, op in runner.ops():
        runner.do(rec, key, op)
    return time.perf_counter() - start


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, src: Path,
        work: Path, spans_out: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the longer report.

    Untraced, it runs one whole pass and then keeps starting operations, in
    pass order, while the next one (timed by its previous run) still ends
    within `seconds`, sampling the HostProbe before each operation. Traced,
    it runs one untraced pass, one traced pass, and pipeline.benchmark at
    1/10/50/200 proposals.
    """
    facts = machine_facts()
    setup = measure_setup(src)
    start = time.perf_counter()
    inputs = make_inputs(spec, seed)
    inputs_s = time.perf_counter() - start

    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(spec, inputs, work, seed)
    rec = Record()
    if not trace:
        probe = HostProbe()
        start = time.perf_counter()
        ops = runner.ops()
        last: dict[str, float] = {}  # each operation's latest wall time
        done = 0
        while done < len(ops) or (time.perf_counter() - start
                                  + last[ops[done % len(ops)][0]] <= seconds):
            key, op = ops[done % len(ops)]
            for _ in range(PROBES_PER_OP):
                probe.sample()
            began = time.perf_counter()
            runner.do(rec, key, op)
            last[key] = time.perf_counter() - began
            done += 1
        mean_iou = runner.mean_iou()
        host = probe.factor()
        probe_samples = probe.samples
        metrics_values = _end_to_end(rec, setup, host)
        raw = _end_to_end(rec, setup, 1.0)
        catalogue = END_TO_END
        passes = done / len(ops)
    else:
        plain_s = _run_pass(runner, rec)
        mean_iou = runner.mean_iou()
        tracer = runner.tracer = Tracer()
        tracer.install()
        try:
            traced_s = _run_pass(runner, rec)
            ratios = runner.benchmark_ratios(rec)
        finally:
            tracer.uninstall()
            runner.tracer = None
        missing = [n for n in spec.exercised if tracer.calls.get(n, 0) == 0]
        if missing:
            rec.problems.append(f"traced functions never called: {', '.join(missing)}")
        metrics_values = _per_layer(tracer, inputs, {
            **ratios,
            "synth.inputs_s": inputs_s,
            "bench.trace_overhead": traced_s / plain_s,
        })
        catalogue = per_layer_metrics()
        passes = 2
        host, raw, probe_samples = None, None, []
        if spans_out is not None:
            tracer.write(spans_out)

    infer = rec.samples["infer"]
    result = {
        "correct": rec.failed == 0 and not rec.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": _json_number(metrics_values[name]), "unit": unit}
            for name, unit, _ in catalogue
        },
    }
    report = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(trace),
        "passes": round(passes, 2),
        "fingerprint": rec.fingerprint,
        "machine": facts,
        "inputs": {**inputs.facts, "inputs_s": inputs_s},
        "infer_ms_p75": _json_number(statistics.quantiles(infer, n=4)[2] * 1000.0
                                     if len(infer) >= 2 else math.nan),
        "mean_iou": mean_iou,
        "host_factor": host,
        "unnormalized": None if raw is None else {k: _json_number(v) for k, v in raw.items()},
        "timings_s": {"setup": setup, "probe": probe_samples,
                      **{k: [_json_number(t) for t in v] for k, v in rec.samples.items()}},
        "problems": rec.problems,
    }
    return result, report


def _json_number(value: float):
    """Numbers as measured; a value that could not be measured becomes null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
