"""Shared domain types and binary-mask arithmetic.

Every type is immutable after construction (backing arrays are marked
read-only), so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


MAX_LABEL = 0xFFFF  # the largest category a label map's uint16 holds
MAX_SIDE = 2048  # the largest scale (shorter edge), warp side or scene-spec side


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
    ys = np.flatnonzero(mask.bits.any(axis=1))  # per-axis, like masking.vote's crop
    xs = np.flatnonzero(mask.bits.any(axis=0))
    if ys.size == 0:
        raise ValidationError("cannot take the bounding box of an empty mask")
    return PixelBox(int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))


@dataclass(frozen=True, eq=False)
class SegmentProposal:
    """Binary segment mask with an opaque id, held only inside its tight box.

    Construction crops the `block` given at `origin` (row, col) of its `frame`
    (height, width; default: the block's shape) to the tight `box` (frame
    pixels), moves `origin` to the box's top-left and caches `area`.
    """

    id: str
    block: BinaryMask
    origin: tuple[int, int] = field(default=(0, 0), kw_only=True)
    frame: tuple[int, int] | None = field(default=None, kw_only=True)
    box: PixelBox = field(init=False)
    area: int = field(init=False)

    def __post_init__(self):
        (y, x), (h, w) = self.origin, self.block.bits.shape
        frame = (h, w) if self.frame is None else tuple(self.frame)
        if min(y, x) < 0 or y + h > frame[0] or x + w > frame[1]:
            raise ValidationError(f"{h}x{w} block at {self.origin} outside {frame}")
        b = bbox_of(self.block)  # rejects empty masks
        if (b.height, b.width) != (h, w):  # BinaryMask copies: no view of the frame
            tight = self.block.bits[b.y0:b.y1 + 1, b.x0:b.x1 + 1]
            object.__setattr__(self, "block", BinaryMask(tight))
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "origin", (b.y0 + y, b.x0 + x))
        object.__setattr__(self, "box", PixelBox(b.x0 + x, b.y0 + y, b.x1 + x, b.y1 + y))
        object.__setattr__(self, "area", int(np.count_nonzero(self.block.bits)))

    @property
    def mask(self) -> BinaryMask:
        """The whole-frame mask, built on each call (for writing files)."""
        bits = np.zeros(self.frame, dtype=bool)
        b = self.box
        bits[b.y0:b.y1 + 1, b.x0:b.x1 + 1] = self.block.bits
        return BinaryMask(bits)


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
class NearestResize:
    """A map's nearest resize to height x width, held as its source and never
    built. `source` is a `FeatureMap`'s values or a slice of them, so it is
    already checked to be finite."""

    source: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        if self.source.ndim != 3 or self.source.dtype != np.float32:
            raise ValidationError("resize source must be a (C,H,W) float32 array")
        if self.height < 1 or self.width < 1:
            raise ValidationError(f"resize target must be >= 1x1, got {self.height}x{self.width}")

    @property
    def channels(self) -> int:
        return self.source.shape[0]


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
        if arr.size and (arr.min() < 0 or arr.max() > MAX_LABEL):
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
        if not 1 <= self.category <= MAX_LABEL:
            raise ValidationError(f"instance category {self.category} outside 1..{MAX_LABEL}")


def box_array(proposals) -> np.ndarray:
    """The proposals' pixel boxes as an (N, 4) int64 array of (y0, x0, y1, x1)."""
    boxes = [(b.y0, b.x0, b.y1, b.x1) for b in (p.box for p in proposals)]
    return np.array(boxes, np.int64).reshape(-1, 4)


def mask_iou(a, b) -> float:
    """IoU of two same-size masks, or of two proposals in one frame; 0 when
    both are empty. Proposals with disjoint boxes read no bits; otherwise
    only the overlap of their boxes is counted."""
    masks = isinstance(a, BinaryMask)
    fa, fb = (a.bits.shape, b.bits.shape) if masks else (a.frame, b.frame)
    if fa != fb:
        raise ValidationError(f"mask dimension mismatch: {fa} vs {fb}")
    if masks:
        a_in, b_in = a.bits, b.bits
        areas = int(np.count_nonzero(a_in)) + int(np.count_nonzero(b_in))
    else:
        p, q = a.box, b.box
        if p.x1 < q.x0 or q.x1 < p.x0 or p.y1 < q.y0 or q.y1 < p.y0:
            return 0.0  # the fast path: most pairs in a dense scene are disjoint
        y0, y1 = max(p.y0, q.y0), min(p.y1, q.y1) + 1
        x0, x1 = max(p.x0, q.x0), min(p.x1, q.x1) + 1
        (ay, ax), (by, bx) = a.origin, b.origin
        a_in = a.block.bits[y0 - ay:y1 - ay, x0 - ax:x1 - ax]
        b_in = b.block.bits[y0 - by:y1 - by, x0 - bx:x1 - bx]
        areas = a.area + b.area
    inter = int(np.count_nonzero(a_in & b_in))
    union = areas - inter
    return inter / union if union else 0.0


def suppress(items: list, threshold: float, pick=None) -> list[int]:
    """Greedy overlap suppression over proposals of one frame: the indices
    kept, in pick order.

    Each round takes `pick(remaining)` (default: the first remaining index)
    and drops every remaining proposal whose IoU with it exceeds the
    threshold; one box test finds those that can overlap it at all.
    """
    if len({p.frame for p in items}) > 1:
        raise ValidationError("proposals to suppress lie in different frames")
    y0, x0, y1, x1 = box_array(items).T
    alive, kept = np.ones(len(items), dtype=bool), []
    while alive.any():
        remaining = np.flatnonzero(alive)
        top = int(remaining[0]) if pick is None else pick(remaining.tolist())
        kept.append(top)
        alive[top] = False
        overlap = (x0 <= x1[top]) & (y0 <= y1[top]) & (x0[top] <= x1) & (y0[top] <= y1)
        for i in np.flatnonzero(alive & (overlap | (threshold < 0))):  # disjoint: IoU 0
            alive[i] = mask_iou(items[i], items[top]) <= threshold
    return kept


def nearest_indices(src: int, out: int) -> np.ndarray:
    """Non-decreasing source index floor((dst + 0.5) * src / out) of each sample."""
    return np.minimum((2 * np.arange(out) * src + src) // (2 * out), src - 1)


@lru_cache(maxsize=64)
def index_map(src: int, dst: int) -> np.ndarray:
    """Read-only `nearest_indices`, cached per (source, target) length: every
    proposal of an image, and every forward of one size, reads the same maps."""
    return _readonly(nearest_indices(src, dst))


def resize_nearest(values: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of the trailing two axes of a 2-D or 3-D array."""
    if out_h < 1 or out_w < 1:
        raise ValidationError(f"resize target must be >= 1x1, got {out_h}x{out_w}")
    ys = nearest_indices(values.shape[-2], out_h)
    xs = nearest_indices(values.shape[-1], out_w)
    return values[..., ys, :][..., xs]  # per axis: far fewer index lookups than 2-D
