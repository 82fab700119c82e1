"""Argv fuzzing of the CLI: every draw exits 0, 1 or 2 and raises nothing else.

For each subcommand, Hypothesis optionally starts from a valid argument list
and appends fragments built from that subparser's own option strings
plus values: paths into a small synthesized scene, its trained models and
config files, missing paths, integers in -3..64, floats, comma lists and junk
text. Each draw runs `cli.main` in-process inside a fresh copy of the fixture
directory, so a draw that overwrites an input cannot affect the next one.
Integers stay at or below 64 and --threads at or below 4, so no draw starts
many threads or allocates a huge array.
"""

import argparse
import contextlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from cfmseg import synth
from cfmseg.cli import build_parser, main, write_scene_dir
from cfmseg.toynet import default_spec, spec_to_json

SCENE = "corpus/scene"
PATHS = (
    "corpus", SCENE, f"{SCENE}/image.cfmt", f"{SCENE}/labels.cfml",
    f"{SCENE}/proposals.json", f"{SCENE}/instances.json",
    f"{SCENE}/instance_000.pgm", f"{SCENE}/mask_00000.pgm", "net.json",
    "layers.json", "models", "models/category_001.json", "out", "out/x.cfmt",
    "out/x.pgm", "out/x.cfml", "empty.json", "scored.json", "absent.json",
    "absent/dir", "",
)

# a valid argument list per subcommand, kept small so a draw that keeps it runs fast
BASE = {
    "geometry": ["--layers", "layers.json"],
    "forward": ["--net", "net.json", "--image", f"{SCENE}/image.cfmt",
                "--out", "out/f.cfmt"],
    "mask-project": ["--geometry", "layers.json", "--mask",
                     f"{SCENE}/instance_000.pgm", "--fh", "8", "--fw", "8",
                     "--out", "out/m.pgm"],
    "pool": ["--image", f"{SCENE}/image.cfmt", "--window", "0,0,7,7",
             "--out", "out/p.cfmt"],
    "pursue": ["--proposals", f"{SCENE}/proposals.json",
               "--stuff", f"{SCENE}/instance_000.pgm"],
    "synth": ["--out-dir", "out/scene"],
    "train": ["--corpus", "corpus", "--net", "net.json", "--object-cats", "1",
              "--stuff-cats", "4", "--scales", "32", "--epochs", "1",
              "--out-dir", "out/models"],
    "infer": ["--models", "models", "--image", f"{SCENE}/image.cfmt",
              "--proposals", f"{SCENE}/proposals.json", "--net", "net.json",
              "--scales", "32", "--out-labels", "out/pred.cfml"],
    "paste": ["--scored", "scored.json", "--width", "64", "--height", "64",
              "--out", "out/paste.cfml"],
    "eval": ["--pred", f"{SCENE}/labels.cfml", "--gt", f"{SCENE}/labels.cfml",
             "--categories", "6"],
    "bench": ["--image", f"{SCENE}/image.cfmt", "--proposals",
              f"{SCENE}/proposals.json", "--net", "net.json", "--scales", "32",
              "--counts", "1,2", "--warp", "16"],
}
# subcommands whose default scales (480..1200) would make one draw take seconds
SCALED = ("train", "infer", "bench")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


SUBPARSERS = _subparsers()

INTS = st.one_of(st.sampled_from(range(-3, 4)), st.integers(-3, 64)).map(str)
FLOATS = st.floats(allow_nan=True, allow_infinity=True).map(repr)
LISTS = st.lists(st.integers(-3, 8), max_size=4).map(lambda xs: ",".join(map(str, xs)))
VALUES = st.one_of(st.sampled_from(PATHS), INTS, FLOATS, LISTS, st.text(max_size=6))


def _value_for(action: argparse.Action):
    """Three times in four a value of the option's own kind, else any value."""
    if action.choices:
        typed = st.sampled_from(sorted(action.choices))
    elif action.type in (int, float):
        typed = INTS if action.type is int else st.one_of(FLOATS, INTS)
    else:
        typed = st.one_of(st.sampled_from(PATHS), LISTS)
    return st.sampled_from([typed, typed, typed, VALUES]).flatmap(lambda v: v)


def _fragment(action: argparse.Action):
    """One option string, with a value unless the option takes none.

    Half the values are joined as "--opt=value", which argparse also takes
    when the value starts with "-" (a negative float or "-inf").
    """
    option = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return option.map(lambda o: [o])
    pair = st.tuples(option, _value_for(action))
    return st.one_of(pair.map(list), pair.map(lambda p: ["=".join(p)]))


FRAGMENTS = {
    name: st.one_of([_fragment(a) for a in sub._actions
                     if a.option_strings and not isinstance(a, argparse._HelpAction)])
    for name, sub in SUBPARSERS.items()
}


@st.composite
def argvs(draw, name: str) -> list[str]:
    argv = []
    if draw(st.booleans()):
        argv += ["--threads", draw(st.integers(-3, 4).map(str))]
    argv.append(name)
    if name in SCALED:
        argv += ["--scales", "32"]  # a drawn --scales later on overrides it
    if draw(st.integers(0, 3)) < 3:  # most draws reach past argparse
        argv += BASE[name]
    for part in draw(st.lists(FRAGMENTS[name], max_size=4)):
        argv += part
    if draw(st.integers(0, 9)) == 9:
        argv.append(draw(VALUES))  # a stray token
    return argv


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_cli")
    (root / "net.json").write_text(json.dumps(spec_to_json(default_spec(3, seed=0))))
    (root / "layers.json").write_text(json.dumps(
        [{"kind": "conv", "kernel": 3, "stride": 2, "pad": 1}]
    ))
    (root / "scored.json").write_text(json.dumps(
        [{"id": "a", "mask": f"{SCENE}/instance_000.pgm", "category": 1,
          "score": 0.5}]
    ))
    (root / "empty.json").write_text("[]")
    (root / "out").mkdir()
    # a few proposals keep the per-draw copy of the directory cheap
    cfg = synth.CorpusConfig()
    scene = synth.generate_scene(synth.random_scene_spec(cfg, seed=5))
    proposals = synth.scene_proposals(scene, cfg, synth.derive_seed(5, 2))
    write_scene_dir(root / SCENE, scene, proposals[:8])
    with contextlib.chdir(root):
        assert main(["train", *BASE["train"][:-1], "models"]) == 0
    return root


@pytest.mark.parametrize("name", sorted(SUBPARSERS))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_0_1_or_2(fixture_dir, name, data):
    argv = data.draw(argvs(name))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(fixture_dir, work)
        with contextlib.chdir(work):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
