"""Receptive-field geometry of conv/pool stacks.

The geometry of a stack is summarized by three numbers: the cumulative
stride S, the receptive-field size RF, and a signed center offset O such
that feature index u sees an image window centered at u*S + O. Offsets are
always integer or half-integer, so 2*O is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .core import PixelBox, ValidationError
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

    def center(self, u: int) -> float:
        """Image coordinate of the receptive-field center of feature index u."""
        return u * self.stride + self.offset

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


def brute_force_geometry(layers: list[LayerSpec]) -> NetGeometry:
    """Oracle: trace the input interval of top units layer by layer."""
    if not layers:
        raise ValidationError("layer stack must be non-empty")

    def image_interval(u: int) -> tuple[int, int]:
        lo = hi = u
        for layer in reversed(layers):
            lo = lo * layer.stride - layer.pad
            hi = hi * layer.stride - layer.pad + layer.kernel - 1
        return lo, hi

    lo0, hi0 = image_interval(0)
    lo1, _ = image_interval(1)
    return NetGeometry(lo1 - lo0, hi0 - lo0 + 1, (lo0 + hi0) / 2.0)


def feature_extent(g: NetGeometry, box: PixelBox, fh: int, fw: int) -> PixelBox:
    """Smallest feature-index rectangle whose centers span the pixel box.

    Index ranges are clamped to the valid grid, so the result is never empty.
    """
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")

    def lo_index(coord: int, n: int) -> int:
        # floor((coord - O) / S) in exact integer arithmetic on doubled values
        u = (2 * coord - g.offset_x2) // (2 * g.stride)
        return min(max(u, 0), n - 1)

    def hi_index(coord: int, n: int) -> int:
        u = -((-(2 * coord - g.offset_x2)) // (2 * g.stride))
        return min(max(u, 0), n - 1)

    return PixelBox(
        lo_index(box.x0, fw),
        lo_index(box.y0, fh),
        hi_index(box.x1, fw),
        hi_index(box.y1, fh),
    )


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
