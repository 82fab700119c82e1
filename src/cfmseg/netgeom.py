"""Receptive-field geometry of conv/pool stacks.

The geometry of a stack is summarized by three numbers: the cumulative
stride S, the receptive-field size RF, and a signed center offset O such
that feature index u sees an image window centered at u*S + O. Offsets are
always integer or half-integer, so 2*O is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import ValidationError
from .formats import int_fields, load_json

LAYER_KINDS = ("conv", "pool")


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: int
    stride: int
    pad: int

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.kernel < 1 or self.stride < 1 or self.pad < 0:
            raise ValidationError(
                f"bad layer geometry k={self.kernel} s={self.stride} p={self.pad}"
            )

    def out_len(self, in_len: int) -> int:
        """Output length along one axis; < 1 means the input is too small."""
        return (in_len + 2 * self.pad - self.kernel) // self.stride + 1


@dataclass(frozen=True)
class NetGeometry:
    stride: int
    rf_size: int
    offset: float

    def __post_init__(self):
        if self.stride < 1 or self.rf_size < 1:
            raise ValidationError(f"degenerate geometry {self}")
        if float(2 * self.offset) != int(2 * self.offset):
            raise ValidationError(f"offset {self.offset} is not a half-integer")

    @property
    def offset_x2(self) -> int:
        """2*offset as an exact integer, for integer-only center comparisons."""
        return int(2 * self.offset)


def compose_geometry(layers: list[LayerSpec]) -> NetGeometry:
    """Closed-form geometry of an ordered layer stack."""
    if not layers:
        raise ValidationError("layer stack must be non-empty")
    stride = 1
    rf = 1
    pad_sum = 0
    for layer in layers:
        rf += (layer.kernel - 1) * stride
        pad_sum += layer.pad * stride
        stride *= layer.stride
    offset = ((rf - 1) - 2 * pad_sum) / 2.0
    return NetGeometry(stride, rf, offset)


def feature_extent(g: NetGeometry, boxes, fh: int, fw: int):
    """Smallest feature-index rectangles whose centers span the pixel boxes.

    boxes is an (N, 4) integer array of inclusive pixel corners (y0, x0, y1, x1);
    the result, a new (N, 4) array, holds each box's cell corners in the same
    order. Index ranges are clamped to the valid grid, so none is empty.
    """
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    # floor((coord - O) / S) for the first corner and ceil for the second, in
    # exact integer arithmetic on doubled values
    doubled = 2 * boxes - g.offset_x2
    cells = doubled // (2 * g.stride)
    cells[:, 2:] = -(-doubled[:, 2:] // (2 * g.stride))
    return cells.clip(0, (fh - 1, fw - 1, fh - 1, fw - 1), out=cells)


def layer_from_json(entry) -> LayerSpec:
    """One {"kind", "kernel", "stride", "pad"} layer entry."""
    geometry = int_fields(entry, ("kernel", "stride", "pad"))
    return LayerSpec(entry.get("kind"), **geometry)


def layers_from_json(obj) -> list[LayerSpec]:
    if not isinstance(obj, list):
        raise ValidationError("geometry config must be a JSON array of layers")
    return [layer_from_json(entry) for entry in obj]


def load_layers(path: Path | str) -> list[LayerSpec]:
    return load_json(path, layers_from_json)
