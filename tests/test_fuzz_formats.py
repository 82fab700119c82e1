"""Mutated and truncated copies of valid files, fed to every loader.

A loader rejects what it cannot read with FormatError or ValidationError and
nothing else. FileNotFoundError is allowed only for a file that a proposal
index, a model, an instance list or a scored-region list names, since a
mutation can rename that file. Each test
writes one valid file set, then overwrites one of its files per example and
puts the original bytes back afterwards.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cfmseg import cli, classify, formats, netgeom, pooling, synth, toynet  # noqa: E402
from cfmseg.core import (  # noqa: E402
    FeatureMap,
    LabelMap,
    PixelBox,
    ValidationError,
    proposal_from_mask,
)
from conftest import rect_mask  # noqa: E402

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# bytes that keep a mutated JSON file or header close to parseable
NEAR_MISS = b'0123456789-+.eE"[]{},: \n\\/tfnx#\x00\xff'

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(1 << 40), 1 << 40)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _patched(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out)


def _json_paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, (*prefix, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_paths(value, (*prefix, i))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutations(draw, data: bytes):
    """A truncation, a few byte edits, or for JSON one value swapped out."""
    kinds = ["truncate", "edit"]
    if data[:1] in (b"[", b"{"):
        kinds.append("json")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "edit":
        byte = st.integers(0, 255) | st.sampled_from(NEAR_MISS)
        edits = draw(st.lists(st.tuples(st.integers(0, len(data) - 1), byte),
                              min_size=1, max_size=4))
        return _patched(data, edits)
    doc = json.loads(data)
    path = draw(st.sampled_from(list(_json_paths(doc))))
    return json.dumps(_replaced(doc, path, draw(JSON_VALUES))).encode()


def check_loader(load, main: Path, files: list[Path], data, names_files=False):
    """Overwrite one of `files` with a mutation of it, then run the loader."""
    target = data.draw(st.sampled_from(files))
    original = target.read_bytes()
    target.write_bytes(data.draw(mutations(original)))
    try:
        load(main)
    except (formats.FormatError, ValidationError):
        pass
    except FileNotFoundError as exc:
        # only a file that the loaded file names may be missing
        if not names_files or Path(exc.filename) == main:
            raise
    finally:
        target.write_bytes(original)


@FUZZ
@given(data=st.data())
def test_tensor(tmp_path, rng, data):
    path = tmp_path / "t.cfmt"
    formats.save_feature_map(
        path, FeatureMap(rng.standard_normal((2, 3, 4)).astype(np.float32))
    )
    check_loader(formats.load_feature_map, path, [path], data)


@FUZZ
@given(data=st.data())
def test_mask(tmp_path, data):
    path = tmp_path / "m.pgm"
    formats.save_mask(path, rect_mask(5, 7, 1, 3, 2, 5))
    check_loader(formats.load_mask, path, [path], data)


@FUZZ
@given(data=st.data())
def test_label_map(tmp_path, rng, data):
    path = tmp_path / "l.cfml"
    formats.save_label_map(path, LabelMap(rng.integers(0, 6, size=(4, 5))))
    check_loader(formats.load_label_map, path, [path], data)


@FUZZ
@given(data=st.data())
def test_net_spec(tmp_path, data):
    path = tmp_path / "net.json"
    formats.dump_json(toynet.spec_to_json(toynet.default_spec(3, seed=0)), path)
    check_loader(toynet.load_spec, path, [path], data)


@FUZZ
@given(data=st.data())
def test_layers(tmp_path, data):
    path = tmp_path / "layers.json"
    formats.dump_json(
        [{"kind": "conv", "kernel": 3, "stride": 2, "pad": 1},
         {"kind": "pool", "kernel": 2, "stride": 2, "pad": 0}],
        path,
    )
    check_loader(netgeom.load_layers, path, [path], data)


@FUZZ
@given(data=st.data())
def test_proposal_index(tmp_path, data):
    index = tmp_path / "proposals.json"
    formats.save_proposal_index(index, [
        proposal_from_mask("a", rect_mask(6, 6, 0, 2, 0, 2)),
        proposal_from_mask("b", rect_mask(6, 6, 3, 5, 1, 4)),
    ])
    files = [index, tmp_path / "mask_00000.pgm"]
    check_loader(formats.load_proposal_index, index, files, data, names_files=True)


@FUZZ
@given(data=st.data())
def test_model(tmp_path, rng, data):
    path = tmp_path / "category_001.json"
    classify.save_model(
        path, classify.LinearModel(rng.standard_normal(5), -0.25, 1)
    )
    files = [path, tmp_path / "category_001_weights.cfmt"]
    check_loader(classify.load_model, path, files, data, names_files=True)


@FUZZ
@given(data=st.data())
def test_pooled_feature(tmp_path, rng, data):
    path = tmp_path / "pooled.cfmt"
    fm = FeatureMap(rng.standard_normal((2, 4, 4)).astype(np.float32))
    pooled = pooling.spp_pool(fm, PixelBox(0, 0, 3, 3), pooling.PyramidSpec((2, 1)))
    pooling.save_pooled_feature(path, pooled)
    files = [path, Path(str(path) + ".json")]
    check_loader(pooling.load_pooled_feature, path, files, data)


@FUZZ
@given(data=st.data())
def test_scene_spec(tmp_path, data):
    path = tmp_path / "spec.json"
    formats.dump_json({
        "width": 32, "height": 32, "seed": 1,
        "shapes": [{"kind": "ellipse", "category": 1, "cx": 10, "cy": 12,
                    "half_w": 5, "half_h": 4}],
        "bands": [{"category": 4, "row0": 0, "row1": 5,
                   "base_color": [0.3, 0.6, 0.8], "noise_amp": 0.2}],
    }, path)

    def load(p):
        spec = formats.load_json(p, cli._scene_spec_from_json)
        if spec.width * spec.height <= 64 * 64:  # a mutated size may ask for gigabytes
            synth.generate_scene(spec)

    check_loader(load, path, [path], data)


@FUZZ
@given(data=st.data())
def test_instances(tmp_path, data):
    path = tmp_path / "instances.json"
    formats.save_mask(tmp_path / "a.pgm", rect_mask(6, 6, 0, 2, 0, 2))
    formats.dump_json([{"category": 1, "mask": "a.pgm"}], path)
    load = partial(formats.load_json, parse=partial(cli._instances, tmp_path))
    check_loader(load, path, [path, tmp_path / "a.pgm"], data, names_files=True)


@FUZZ
@given(data=st.data())
def test_scored_regions(tmp_path, data):
    path = tmp_path / "scored.json"
    formats.save_mask(tmp_path / "a.pgm", rect_mask(6, 6, 0, 2, 0, 2))
    formats.dump_json([{"id": "a", "mask": "a.pgm", "category": 2, "score": 0.5}], path)
    load = partial(formats.load_json, parse=partial(cli._scored_regions, tmp_path))
    check_loader(load, path, [path, tmp_path / "a.pgm"], data, names_files=True)
