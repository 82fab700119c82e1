"""Shared domain types and binary-mask arithmetic.

Every type is immutable after construction (backing arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class ValidationError(ValueError):
    """A domain invariant was violated (bad dimensions, empty mask, ...)."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Row-major boolean grid over image pixels or feature-map cells."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.array(self.bits, dtype=bool)
        if arr.ndim != 2:
            raise ValidationError(f"mask grid must be 2-D, got {arr.ndim}-D")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValidationError(f"mask dims must be >= 1, got {arr.shape}")
        object.__setattr__(self, "bits", _readonly(arr))

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def area(self) -> int:
        """Number of set pixels."""
        return int(self.bits.sum())

    def same_shape(self, other: "BinaryMask") -> bool:
        return self.bits.shape == other.bits.shape


@dataclass(frozen=True)
class PixelBox:
    """Inclusive pixel rectangle: (x0, y0) top-left to (x1, y1) bottom-right."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if min(self.x0, self.y0, self.x1, self.y1) < 0:
            raise ValidationError(f"box coordinates must be non-negative: {self}")
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValidationError(f"box corners out of order: {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        return self.width * self.height


def bbox_of(mask: BinaryMask) -> PixelBox:
    """Tight bounding box of the set pixels. Empty masks are rejected."""
    ys, xs = np.nonzero(mask.bits)
    if ys.size == 0:
        raise ValidationError("cannot take the bounding box of an empty mask")
    return PixelBox(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))


@dataclass(frozen=True, eq=False)
class SegmentProposal:
    """Binary segment mask with an opaque id; its tight box is derived once."""

    id: str
    mask: BinaryMask
    box: PixelBox = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "box", bbox_of(self.mask))  # rejects empty masks

    @property
    def area(self) -> int:
        return self.mask.area


def proposal_from_mask(pid: str, mask: BinaryMask) -> SegmentProposal:
    return SegmentProposal(pid, mask)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Dense activation tensor, channels x height x width, float32."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float32)
        if arr.ndim != 3:
            raise ValidationError(f"feature map must be 3-D (C,H,W), got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValidationError(f"feature map dims must be >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("feature map contains non-finite values")
        object.__setattr__(self, "values", _readonly(arr))

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-pixel category indices; 0 is background."""

    labels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.labels)
        if arr.ndim != 2:
            raise ValidationError(f"label map must be 2-D, got {arr.ndim}-D")
        if min(arr.shape) < 1:
            raise ValidationError(f"label map dims must be >= 1, got {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() > 0xFFFF):
            raise ValidationError("labels must fit in an unsigned 16-bit index")
        object.__setattr__(self, "labels", _readonly(arr.astype(np.uint16)))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def check_categories(self, num_categories: int) -> None:
        top = int(self.labels.max())
        if top >= num_categories:
            raise ValidationError(
                f"label {top} out of range for {num_categories} categories"
            )


@dataclass(frozen=True, eq=False)
class InstanceSegment:
    """Ground-truth instance: a category index plus its binary mask."""

    category: int
    mask: BinaryMask

    def __post_init__(self):
        if self.category < 1:
            raise ValidationError("instance category must be a positive index")


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection-over-union of two same-size masks; 0 when both are empty."""
    if not a.same_shape(b):
        raise ValidationError(
            f"mask dimension mismatch: {a.bits.shape} vs {b.bits.shape}"
        )
    inter = int(np.count_nonzero(a.bits & b.bits))
    union = int(np.count_nonzero(a.bits | b.bits))
    if union == 0:
        return 0.0
    return inter / union


def suppress(masks: list[BinaryMask], threshold: float, pick=None) -> list[int]:
    """Greedy overlap suppression: the indices of masks kept, in pick order.

    Each round takes `pick(remaining)` (default: the first remaining index)
    and drops every remaining mask whose IoU with it exceeds the threshold.
    """
    remaining = list(range(len(masks)))
    kept = []
    while remaining:
        top = remaining[0] if pick is None else pick(remaining)
        kept.append(top)
        remaining = [
            i
            for i in remaining
            if i != top and mask_iou(masks[i], masks[top]) <= threshold
        ]
    return kept


def resize_nearest(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of the trailing two axes of a 2-D or 3-D array."""
    if out_h < 1 or out_w < 1:
        raise ValidationError(f"resize target must be >= 1x1, got {out_h}x{out_w}")
    src_h, src_w = values.shape[-2], values.shape[-1]
    # source index = floor((dst + 0.5) * src / out), kept in integers
    ys = np.minimum((2 * np.arange(out_h) * src_h + src_h) // (2 * out_h), src_h - 1)
    xs = np.minimum((2 * np.arange(out_w) * src_w + src_w) // (2 * out_w), src_w - 1)
    return values[..., ys[:, None], xs[None, :]]
