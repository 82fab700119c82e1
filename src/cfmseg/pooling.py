"""Spatial pyramid max-pooling over feature windows and the feature designs.

The pooled vector layout is frozen: pyramid levels in listed order, bins in
row-major order within a level, and all channels contiguous within a bin.
With the default {6,3,2,1} pyramid the output length is 50 * channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import BinaryMask, FeatureMap, PixelBox, SegmentProposal, ValidationError
from .formats import FormatError, dump_json, load_vector, save_vector
from .masking import apply_mask, project_mask
from .netgeom import NetGeometry, feature_extent

DEFAULT_LEVELS = (6, 3, 2, 1)
DESIGNS = ("A", "B", "none")  # "none" is the unmasked (box-only) ablation


@dataclass(frozen=True)
class PyramidSpec:
    levels: tuple[int, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        levels = tuple(int(n) for n in self.levels)
        if not levels or min(levels) < 1:
            raise ValidationError(f"pyramid levels must be >= 1, got {self.levels}")
        object.__setattr__(self, "levels", levels)

    @property
    def bins_total(self) -> int:
        return sum(n * n for n in self.levels)

    def output_length(self, channels: int) -> int:
        return channels * self.bins_total


@dataclass(eq=False)
class PooledFeature:
    """Fixed-length vector from pyramid pooling, with its pyramid metadata."""

    values: np.ndarray
    pyramid: PyramidSpec
    channels: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32).reshape(-1)
        if arr.size != self.pyramid.output_length(self.channels):
            raise ValidationError(
                f"pooled vector length {arr.size} != "
                f"{self.channels} channels x {self.pyramid.bins_total} bins"
            )
        self.values = arr


def bin_boundaries(window_len: int, n: int) -> list[tuple[int, int]]:
    """[start, end) cell ranges of n pyramid bins over a window of given length.

    Bin j spans [floor(j*w/n), ceil((j+1)*w/n)); bins are never empty and
    may overlap when the window is shorter than the grid.
    """
    if window_len < 1 or n < 1:
        raise ValidationError(f"bad binning: window {window_len}, bins {n}")
    return [
        ((j * window_len) // n, -((-(j + 1) * window_len) // n)) for j in range(n)
    ]


def spp_pool(f: FeatureMap, window: PixelBox, pyr: PyramidSpec) -> PooledFeature:
    """Max-pool the window into one fixed-length vector per the pyramid."""
    if window.x1 >= f.width or window.y1 >= f.height:
        raise ValidationError(
            f"window {window} exceeds feature map {f.height}x{f.width}"
        )
    region = f.values[:, window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    blocks = []
    for n in pyr.levels:
        row_bins = bin_boundaries(window.height, n)
        col_bins = bin_boundaries(window.width, n)
        level = np.empty((n * n, f.channels), dtype=np.float32)
        for j, (ys, ye) in enumerate(row_bins):
            for i, (xs, xe) in enumerate(col_bins):
                level[j * n + i] = region[:, ys:ye, xs:xe].max(axis=(1, 2))
        blocks.append(level.reshape(-1))
    return PooledFeature(np.concatenate(blocks), pyr, f.channels)


def downsample_mask_to_grid(m: BinaryMask, window: PixelBox, n: int) -> np.ndarray:
    """Thresholded mean of the feature mask over each of the n x n window bins."""
    if window.x1 >= m.width or window.y1 >= m.height:
        raise ValidationError(f"window {window} exceeds mask {m.height}x{m.width}")
    region = m.bits[window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    grid = np.zeros((n, n), dtype=bool)
    for j, (ys, ye) in enumerate(bin_boundaries(window.height, n)):
        for i, (xs, xe) in enumerate(bin_boundaries(window.width, n)):
            cells = region[ys:ye, xs:xe]
            grid[j, i] = 2 * int(cells.sum()) >= cells.size
    return grid


def _conv_window(conv: FeatureMap, p: SegmentProposal, g: NetGeometry) -> PixelBox:
    if p.box.x1 >= p.mask.width or p.box.y1 >= p.mask.height:
        raise ValidationError(f"proposal box {p.box} exceeds its image")
    return feature_extent(g, p.box, conv.height, conv.width)


def design_a_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> tuple[PooledFeature, PooledFeature]:
    """Two pooling pathways over one window: plain box and masked segment."""
    window = _conv_window(conv, p, g)
    box_feature = spp_pool(conv, window, pyr)
    fmask = project_mask(g, p.mask, conv.height, conv.width)
    segment_feature = spp_pool(apply_mask(conv, fmask), window, pyr)
    return box_feature, segment_feature


def design_b_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> PooledFeature:
    """Single pathway: pool unmasked, then blank masked-out bins of the finest level."""
    window = _conv_window(conv, p, g)
    pooled = spp_pool(conv, window, pyr)
    fmask = project_mask(g, p.mask, conv.height, conv.width)
    finest = pyr.levels[0]
    grid = downsample_mask_to_grid(fmask, window, finest)
    values = pooled.values.copy()
    head = values[: finest * finest * conv.channels].reshape(-1, conv.channels)
    head[~grid.reshape(-1)] = 0.0
    return PooledFeature(values, pyr, conv.channels)


def design_feature(
    conv: FeatureMap,
    p: SegmentProposal,
    g: NetGeometry,
    pyr: PyramidSpec,
    design: str,
) -> np.ndarray:
    """One proposal's feature vector under the named design."""
    if design == "A":
        box_f, seg_f = design_a_features(conv, p, g, pyr)
        return np.concatenate([box_f.values, seg_f.values])
    if design == "B":
        return design_b_features(conv, p, g, pyr).values
    if design == "none":
        return spp_pool(conv, _conv_window(conv, p, g), pyr).values
    raise ValidationError(f"design must be one of {DESIGNS}")


def feature_length(channels: int, pyr: PyramidSpec, design: str) -> int:
    base = pyr.output_length(channels)
    return 2 * base if design == "A" else base


def save_pooled_feature(path: Path | str, pooled: PooledFeature) -> None:
    """Vector tensor plus a JSON sidecar recording pyramid and channel count."""
    save_vector(path, pooled.values)
    sidecar = {"channels": pooled.channels, "levels": list(pooled.pyramid.levels)}
    dump_json(sidecar, str(path) + ".json")


def load_pooled_feature(path: Path | str) -> PooledFeature:
    values = load_vector(path)
    try:
        meta = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
        pyr = PyramidSpec(tuple(meta["levels"]))
        channels = int(meta["channels"])
    except (OSError, KeyError, ValueError) as exc:
        raise FormatError(f"{path}: missing or invalid pooled-feature sidecar") from exc
    try:
        return PooledFeature(values, pyr, channels)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
