"""Bit-exact file formats: CFMT tensors, P5 mask images, CFML label maps, JSON indexes.

All writers are deterministic byte-for-byte; every loader rejects malformed
input with FormatError and round-trips written files exactly.
"""

from __future__ import annotations

import json
import os
import struct
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    BinaryMask,
    FeatureMap,
    LabelMap,
    SegmentProposal,
    ValidationError,
    proposal_from_mask,
)

TENSOR_MAGIC = b"CFMT"
LABELS_MAGIC = b"CFML"
# guards against absurd headers before allocating
MAX_DIM = 1 << 24


class FormatError(ValueError):
    """The file does not conform to its format."""


def dump_json(obj, path: Path | str) -> None:
    """Canonical JSON writer: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(canonical_json(obj), encoding="ascii")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def load_json(path: Path | str, parse):
    """Decode a JSON config file and build its value with `parse`.

    Text that is not JSON, or a key or value type that `parse` trips over,
    raises FormatError; ValidationError from `parse` passes through.
    """
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except (FormatError, ValidationError):
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: invalid JSON config: {exc!r}") from exc


def int_fields(entry, names) -> dict[str, int]:
    """The named integer fields of a JSON object, keyed by name.

    A missing field, or one holding anything but a JSON integer (a float, a
    string, a bool), raises ValidationError naming it.
    """
    if not isinstance(entry, dict):
        raise ValidationError(f"expected a JSON object, got {entry!r}")
    values = {}
    for name in names:
        value = entry.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"field {name!r} must be an integer, got {value!r}")
        values[name] = value
    return values


def finite_number(value, name: str) -> float:
    """A JSON number field's value as a float.

    Anything but a finite number (a bool, a string, null, an array, NaN,
    infinity, an integer beyond float range) raises ValidationError naming it.
    """
    number = np.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            pass
    if not np.isfinite(number):
        raise ValidationError(f"field {name!r} must be a finite number, got {value!r}")
    return number


def _check_size(path, dims: dict[str, int], itemsize: int, payload: int) -> None:
    """Binary header dimensions each in 1..MAX_DIM, and a payload of `payload`
    bytes that holds exactly their product of `itemsize`-byte elements."""
    expected = itemsize
    for name, dim in dims.items():
        if dim < 1:
            raise FormatError(f"{path}: {'zero' if dim == 0 else 'negative'} {name} dimension")
        if dim > MAX_DIM:
            raise FormatError(f"{path}: {name} dimension {dim} overflows sanity cap")
        expected *= dim
    if payload != expected:
        raise FormatError(f"{path}: payload is {payload} bytes, expected {expected}")


# ---------------------------------------------------------------------------
# CFMT feature tensors
# ---------------------------------------------------------------------------

def save_feature_map(path: Path | str, fm: FeatureMap) -> None:
    payload = np.ascontiguousarray(fm.values, dtype="<f4").tobytes()
    header = TENSOR_MAGIC + struct.pack("<III", fm.channels, fm.height, fm.width)
    Path(path).write_bytes(header + payload)


def save_vector(path: Path | str, vec: np.ndarray) -> None:
    """Store a flat float vector as a 1 x 1 x N tensor."""
    arr = np.asarray(vec, dtype=np.float32)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-D vector, got shape {arr.shape}")
    save_feature_map(path, FeatureMap(arr.reshape(1, 1, -1)))


def load_feature_map(path: Path | str) -> FeatureMap:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad tensor magic")
    c, h, w = struct.unpack("<III", data[4:16])
    _check_size(path, {"channels": c, "height": h, "width": w}, 4, len(data) - 16)
    values = np.frombuffer(data, dtype="<f4", offset=16).reshape(c, h, w)
    try:
        return FeatureMap(values)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_vector(path: Path | str) -> np.ndarray:
    fm = load_feature_map(path)
    if fm.channels != 1 or fm.height != 1:
        raise FormatError(f"{path}: expected a 1x1xN vector tensor")
    return fm.values.reshape(-1)


# ---------------------------------------------------------------------------
# P5 binary masks (255 = set, 0 = unset)
# ---------------------------------------------------------------------------

def save_mask(path: Path | str, mask: BinaryMask) -> None:
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + (mask.bits.astype(np.uint8) * 255).tobytes())


def _pgm_tokens(data: bytes):
    """Yield header tokens, skipping whitespace and '#' comments."""
    pos = 0
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
            continue
        if ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        yield data[pos:end], end
        pos = end


def load_mask(path: Path | str) -> BinaryMask:
    data = Path(path).read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise FormatError(f"{path}: not a binary P5 image")
        (w_tok, _), (h_tok, _), (max_tok, header_end) = (
            next(tokens),
            next(tokens),
            next(tokens),
        )
        # decimal digits, a sign only to report a negative dimension: int() would
        # also take "+10" and "1_0"
        if not all(t.removeprefix(b"-").isdigit() for t in (w_tok, h_tok, max_tok)):
            raise ValueError("header numbers must be decimal digits")
        w, h, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError) as exc:
        raise FormatError(f"{path}: malformed P5 header") from exc
    if maxval != 255:
        raise FormatError(f"{path}: maxval must be 255, got {maxval}")
    payload = data[header_end + 1 :]  # single whitespace byte after maxval
    _check_size(path, {"width": w, "height": h}, 1, len(payload))
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
    bad = (raw != 0) & (raw != 255)
    if bad.any():
        value = int(raw[bad][0])
        raise FormatError(f"{path}: pixel value {value} is neither 0 nor 255")
    return BinaryMask(raw == 255)


def contained(base: Path, rel) -> Path:
    """The path a file names relative to its own directory `base`.

    A non-string, a path naming `base` itself, an absolute path, or one that
    climbs out through ".." raises FormatError; the check is lexical, so it
    follows no symlinks.
    """
    if not isinstance(rel, str) or os.path.normpath(rel) == os.curdir:
        raise FormatError(f"{base}: path {rel!r} names no file in its directory")
    if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == os.pardir:
        raise FormatError(f"{base}: path {rel!r} leaves its directory")
    return base / rel


def string_id(entry) -> str:
    """An index entry's "id"; anything but a JSON string is a TypeError.

    `load_json` and the proposal-index parser report that as FormatError.
    """
    value = entry["id"]
    if not isinstance(value, str):
        raise TypeError(f"id must be a JSON string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# CFML label maps
# ---------------------------------------------------------------------------

def save_label_map(path: Path | str, lm: LabelMap) -> None:
    header = LABELS_MAGIC + struct.pack("<II", lm.width, lm.height)
    payload = np.ascontiguousarray(lm.labels, dtype="<u2").tobytes()
    Path(path).write_bytes(header + payload)


def load_label_map(path: Path | str) -> LabelMap:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != LABELS_MAGIC:
        raise FormatError(f"{path}: bad label-map magic")
    w, h = struct.unpack("<II", data[4:12])
    _check_size(path, {"width": w, "height": h}, 2, len(data) - 12)
    labels = np.frombuffer(data, dtype="<u2", offset=12).reshape(h, w)
    return LabelMap(labels)


# ---------------------------------------------------------------------------
# Proposal indexes: JSON array + one mask file per proposal
# ---------------------------------------------------------------------------

def save_proposal_index(index_path: Path | str, proposals) -> None:
    index_path = Path(index_path)
    index_path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, p in enumerate(proposals):
        rel = f"mask_{i:05d}.pgm"
        save_mask(index_path.parent / rel, p.mask)
        entries.append(
            {"id": p.id, "mask": rel, "box": [p.box.x0, p.box.y0, p.box.x1, p.box.y1]}
        )
    dump_json(entries, index_path)


def load_proposal_index(index_path: Path | str) -> list[SegmentProposal]:
    index_path = Path(index_path)
    return load_json(index_path, partial(_proposal_entries, index_path))


def _proposal_entries(index_path: Path, entries) -> list[SegmentProposal]:
    """Each entry's proposal; its stored box must be the tight box of its mask."""
    if not isinstance(entries, list):
        raise FormatError(f"{index_path}: proposal index must be a JSON array")
    proposals = []
    for n, entry in enumerate(entries):
        try:
            p = proposal_from_mask(  # cropped to its box on read
                string_id(entry), load_mask(contained(index_path.parent, entry["mask"]))
            )
            box = entry["box"]
        except FormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{index_path}: entry {n} is invalid: {exc}") from exc
        if box != [p.box.x0, p.box.y0, p.box.x1, p.box.y1]:
            raise FormatError(
                f"{index_path}: entry {n} box {box} is not the tight "
                f"bounding box {p.box} of its mask"
            )
        proposals.append(p)
    return proposals
