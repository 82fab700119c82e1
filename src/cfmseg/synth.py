"""Deterministic synthetic scenes and a toy grid/jitter proposal generator.

Objects are solid shapes (rectangle, ellipse, diagonal stripe - one shape
family per category); stuff is a pair of textured horizontal bands. Every
random choice flows from an explicit seed, so scenes, proposals and corpora
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryMask,
    FeatureMap,
    InstanceSegment,
    LabelMap,
    SegmentProposal,
    ValidationError,
)

SHAPE_KINDS = ("rect", "ellipse", "stripe")
# the toy corpus: one shape family per object category, one band per stuff one
OBJECT_CATEGORIES = (1, 2, 3)
STUFF_CATEGORIES = (4, 5)

# object colors by shape family; stuff bands carry (base color, noise amp)
OBJECT_COLORS = {
    "rect": (0.95, 0.25, 0.15),
    "ellipse": (0.20, 0.45, 0.95),
    "stripe": (0.90, 0.85, 0.20),
}
SKY_BAND = ((0.35, 0.60, 0.85), 0.22)
GRASS_BAND = ((0.25, 0.70, 0.25), 0.22)
BACKGROUND = (0.04, 0.04, 0.05)


@dataclass(frozen=True)
class ShapeSpec:
    kind: str
    category: int
    cx: int
    cy: int
    half_w: int
    half_h: int
    thickness: int = 3  # stripe half-width

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise ValidationError(f"unknown shape kind {self.kind!r}")
        if self.half_w < 1 or self.half_h < 1 or self.thickness < 1:
            raise ValidationError("shape extents must be >= 1")
        if not 1 <= self.category <= 0xFFFF:
            raise ValidationError("shape category must be in 1..65535")


@dataclass(frozen=True)
class BandSpec:
    category: int
    row0: int
    row1: int
    base_color: tuple[float, float, float]
    noise_amp: float

    def __post_init__(self):
        if self.row0 > self.row1 or self.row0 < 0:
            raise ValidationError(f"band rows out of order: {self.row0}..{self.row1}")
        if not 1 <= self.category <= 0xFFFF:
            raise ValidationError("band category must be in 1..65535")
        color = tuple(self.base_color) if isinstance(self.base_color, (tuple, list)) else ()
        try:  # a bool is no number; a string or an int beyond float range fails isfinite
            ok = all(not isinstance(v, bool) and math.isfinite(v)
                     for v in (*color, self.noise_amp))
        except (TypeError, OverflowError):
            ok = False
        if len(color) != 3 or not ok:
            raise ValidationError("band needs 3 finite base_color numbers and a finite "
                                  f"noise_amp, got {self.base_color!r}, {self.noise_amp!r}")
        object.__setattr__(self, "base_color", color)


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    shapes: tuple[ShapeSpec, ...] = ()
    bands: tuple[BandSpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError("scene dims must be >= 1")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"scene seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "shapes", tuple(self.shapes))
        object.__setattr__(self, "bands", tuple(self.bands))


@dataclass(frozen=True, eq=False)
class Scene:
    spec: SceneSpec
    image: FeatureMap
    labels: LabelMap
    instances: list[InstanceSegment]


def _shape_footprint(shape: ShapeSpec, h: int, w: int) -> np.ndarray:
    x0, x1 = shape.cx - shape.half_w, shape.cx + shape.half_w
    y0, y1 = shape.cy - shape.half_h, shape.cy + shape.half_h
    if x0 < 0 or y0 < 0 or x1 >= w or y1 >= h:
        raise ValidationError(
            f"shape at ({shape.cx},{shape.cy}) size {shape.half_w}x{shape.half_h} "
            f"leaves the {w}x{h} image"
        )
    ys, xs = np.mgrid[0:h, 0:w]
    if shape.kind == "rect":
        return (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    if shape.kind == "ellipse":
        nx = (xs - shape.cx) / shape.half_w
        ny = (ys - shape.cy) / shape.half_h
        return nx * nx + ny * ny <= 1.0
    # stripe: diagonal band inside the bounding box
    inside = (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    diag = np.abs((xs - x0) - (ys - y0)) <= shape.thickness
    return inside & diag


def generate_scene(spec: SceneSpec) -> Scene:
    """Render the spec into an image, a label map, and per-instance masks."""
    h, w = spec.height, spec.width
    rng = np.random.default_rng(spec.seed)
    image = np.empty((3, h, w), dtype=np.float32)
    for ch, v in enumerate(BACKGROUND):
        image[ch].fill(v)
    labels = np.zeros((h, w), dtype=np.uint16)

    for band in spec.bands:
        if band.row1 >= h:
            raise ValidationError(f"band rows {band.row0}..{band.row1} leave the image")
        rows = slice(band.row0, band.row1 + 1)
        noise = rng.uniform(-1.0, 1.0, size=(3, band.row1 - band.row0 + 1, w))
        for ch in range(3):
            image[ch, rows, :] = band.base_color[ch] + band.noise_amp * noise[ch]
        labels[rows, :] = band.category

    owner = np.full((h, w), -1, dtype=np.int64)
    for i, shape in enumerate(spec.shapes):
        footprint = _shape_footprint(shape, h, w)
        color = OBJECT_COLORS[shape.kind]
        jitter = rng.uniform(-0.04, 0.04, size=3)
        for ch in range(3):
            image[ch][footprint] = min(max(color[ch] + jitter[ch], 0.0), 1.0)
        labels[footprint] = shape.category
        owner[footprint] = i

    np.clip(image, 0.0, 1.0, out=image)
    instances = []
    for i, shape in enumerate(spec.shapes):
        visible = owner == i
        if visible.any():
            instances.append(InstanceSegment(shape.category, BinaryMask(visible)))
    return Scene(spec, FeatureMap(image), LabelMap(labels), instances)


# ---------------------------------------------------------------------------
# Toy proposals: grid blocks plus jittered ground-truth copies
# ---------------------------------------------------------------------------

def _shift_bits(bits: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift with zero fill (pixels pushed off the edge are lost)."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    ys0, ys1 = max(0, dy), min(h, h + dy)
    xs0, xs1 = max(0, dx), min(w, w + dx)
    out[ys0:ys1, xs0:xs1] = bits[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return out


def _dilate(bits: np.ndarray) -> np.ndarray:
    out = bits.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out |= _shift_bits(bits, dy, dx)
    return out


def _erode(bits: np.ndarray) -> np.ndarray:
    out = bits.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out &= _shift_bits(bits, dy, dx)
    return out


def toy_proposals(
    height: int,
    width: int,
    gt_segments: list[InstanceSegment],
    grid_sizes: tuple[int, ...] = (16, 32),
    jitter_seed: int = 0,
) -> list[SegmentProposal]:
    """Grid super-pixel blocks at several granularities plus jittered,
    grown, shrunk, and cropped copies of the ground-truth segments.

    The jittered family guarantees proposals above the 0.5-IoU positive band
    and inside the 0.1-0.3 negative band for every instance.
    """
    rng = np.random.default_rng(jitter_seed)
    proposals: list[SegmentProposal] = []
    occupied = np.zeros((height, width), dtype=bool)
    for inst in gt_segments:
        occupied |= inst.mask.bits

    def add(pid: str, bits: np.ndarray, origin: tuple[int, int] = (0, 0)) -> None:
        if bits.any():  # a block at origin (row, col) of the frame
            proposals.append(SegmentProposal(
                pid, BinaryMask(bits), origin=origin, frame=(height, width)
            ))

    for g in grid_sizes:
        rows = math.ceil(height / g)
        cols = math.ceil(width / g)
        for r in range(rows):
            for c in range(cols):
                y0, x0 = r * g, c * g
                taken = occupied[y0 : y0 + g, x0 : x0 + g]  # the cell, clipped
                # super-pixels follow strong boundaries: carve objects out
                add(f"grid{g}_{r}_{c}", ~taken, (y0, x0))
                if taken.any():
                    add(f"cell{g}_{r}_{c}", np.ones_like(taken), (y0, x0))
        # 2x2 merges stepping one cell, the coarser super-pixel groupings
        for r in range(rows - 1):
            for c in range(cols - 1):
                y0, x0 = r * g, c * g
                taken = occupied[y0 : y0 + 2 * g, x0 : x0 + 2 * g]
                add(f"blk{g}_{r}_{c}", ~taken, (y0, x0))

    for i, inst in enumerate(gt_segments):
        bits = inst.mask.bits
        ys, xs = np.nonzero(bits)
        bw = int(xs.max() - xs.min()) + 1
        bh = int(ys.max() - ys.min()) + 1
        add(f"inst{i}_exact", bits)
        small = max(1, round(0.18 * bw))
        big = max(2, round(0.65 * bw))
        sign = 1 if rng.integers(0, 2) else -1
        add(f"inst{i}_shift_small", _shift_bits(bits, 0, sign * small))
        add(f"inst{i}_shift_big", _shift_bits(bits, 0, sign * big))
        add(f"inst{i}_shift_down", _shift_bits(bits, max(1, round(0.18 * bh)), 0))
        add(f"inst{i}_dilate", _dilate(bits))
        add(f"inst{i}_erode", _erode(bits))
        # keep only the left-top quadrant of the instance's bounding box
        y0, x0 = int(ys.min()), int(xs.min())
        add(f"inst{i}_crop", bits[y0 : y0 + bh // 2, x0 : x0 + bw // 2], (y0, x0))
    return proposals


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, *keys: int) -> int:
    """Stable per-image / per-epoch seed stream from one master seed."""
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in keys]])
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class CorpusConfig:
    width: int = 64
    height: int = 64


def random_scene_spec(cfg: CorpusConfig, seed: int) -> SceneSpec:
    """One randomized scene: two stuff bands and up to three objects."""
    rng = np.random.default_rng(seed)
    w, h = cfg.width, cfg.height
    sky_h = int(rng.integers(12, 17))
    grass_h = int(rng.integers(12, 17))
    sky_cat, grass_cat = STUFF_CATEGORIES
    bands = (
        BandSpec(sky_cat, 0, sky_h - 1, *SKY_BAND),
        BandSpec(grass_cat, h - grass_h, h - 1, *GRASS_BAND),
    )

    kinds = dict(zip(OBJECT_CATEGORIES, SHAPE_KINDS))
    slot_centers = [w // 6, w // 2, 5 * w // 6]
    shapes = []
    for cx in slot_centers:
        if rng.random() > 0.85:
            continue
        category = int(rng.choice(OBJECT_CATEGORIES))
        half = int(rng.integers(5, 8))
        anchor = rng.random()
        if anchor < 0.35:  # resting on the sky boundary
            cy = sky_h
        elif anchor < 0.65:  # floating between the bands
            cy = int(rng.integers(sky_h + half + 1, h - grass_h - half - 1))
        else:  # dipping into the grass band
            cy = h - grass_h
        cy = min(max(cy, half), h - 1 - half)
        cx_jit = cx + int(rng.integers(-2, 3))
        cx_jit = min(max(cx_jit, half), w - 1 - half)
        shapes.append(
            ShapeSpec(kinds[category], category, cx_jit, cy, half, half, thickness=2)
        )
    return SceneSpec(w, h, tuple(shapes), bands, seed=derive_seed(seed, 1))


def make_corpus(cfg: CorpusConfig, n_scenes: int, master_seed: int) -> list[SceneSpec]:
    return [
        random_scene_spec(cfg, derive_seed(master_seed, i)) for i in range(n_scenes)
    ]


def scene_proposals(scene: Scene, seed: int) -> list[SegmentProposal]:
    return toy_proposals(
        scene.spec.height, scene.spec.width, scene.instances, jitter_seed=seed
    )
