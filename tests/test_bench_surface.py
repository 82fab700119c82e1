"""Every function the benchmark's traced run wraps must exist and be reached.

perfbench/tracer.py lists the (module, function) pairs it wraps, and
perfbench/workloads.py lists the ones each library workload must call. A
renamed, deleted or bypassed function would otherwise show only in the slow
traced run, as "traced functions never called". Both files are read from
their text, so that no bytecode cache is written next to them.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

from cfmseg import netgeom, pipeline, synth, toynet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module():
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _library_calls() -> tuple:
    """The LIBRARY_CALLS tuple of perfbench/workloads.py, read without importing it."""
    path = PERFBENCH / "workloads.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LIBRARY_CALLS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LIBRARY_CALLS in {path}")


def test_every_traced_target_is_a_cfmseg_function():
    targets = _tracer_module().TARGETS
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, name, *_ in targets
        if not inspect.isfunction(
            getattr(importlib.import_module(f"cfmseg.{mod}"), name, None)
        )
    ]
    assert missing == []


def _tiny_scenes(n: int) -> list:
    cfg = synth.CorpusConfig()  # 64 x 64 scenes
    scenes = []
    for i in range(n):
        scene = synth.generate_scene(synth.random_scene_spec(cfg, synth.derive_seed(7, i)))
        proposals = synth.scene_proposals(scene, synth.derive_seed(7, i, 1))
        scenes.append(
            pipeline.TrainScene(scene.image, scene.labels, scene.instances, proposals)
        )
    return scenes


def test_tiny_library_pass_calls_every_library_target():
    calls = _library_calls()
    assert calls
    scenes = _tiny_scenes(2)
    net = toynet.init_toynet(toynet.default_spec(3, seed=0))
    g = netgeom.compose_geometry(net.spec.geometry_layers())
    # a second scale makes proposals resize; a small warp keeps the baseline cheap
    cfg = pipeline.PipelineConfig(scales=(64, 128), design="B", warp_side=32)
    _, pools = pipeline.collect_training_pools(scenes, [1, 2, 3], [4, 5], net, g, cfg)
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        models = pipeline.train_category_models(
            scenes, [1, 2, 3], [4, 5], net, g, cfg, epochs=1
        )
        test = scenes[0]
        pipeline.score_proposals(models, test.proposals, test.image, net, g, cfg)
        pipeline.benchmark(test.image, test.proposals[:2], net, g, cfg)
    finally:
        tracer.uninstall()
    assert [name for name in calls if tracer.calls.get(name, 0) == 0] == []
    # forward spans are tagged by the forwarded size, not the source's: the two
    # scales of the 64 x 64 scenes and the warp
    tagged = {name for name in tracer.calls if name.startswith("toynet.forward.s")}
    assert tagged == {"toynet.forward.s64", "toynet.forward.s128", "toynet.forward.s32"}
    # the tracer counts samples as len() of train_svm's first two arguments
    assert tracer.items["classify.train_svm.samples"] == sum(
        len(pos) + len(neg) for pos, neg in pools.values()
    )
