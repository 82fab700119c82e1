"""Spatial pyramid max-pooling over feature windows and the feature designs.

The pooled vector layout is frozen: pyramid levels in listed order, bins in
row-major order within a level, and all channels contiguous within a bin.
With the default {6,3,2,1} pyramid the output length is 50 * channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import BinaryMask, FeatureMap, PixelBox, SegmentProposal, ValidationError
from .formats import dump_json, int_fields, load_json, load_vector, save_vector
from .masking import apply_mask, project_mask, vote
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
        # strictly descending, so levels[0] is the finest grid, the one design B blanks
        if list(levels) != sorted(set(levels), reverse=True):
            raise ValidationError(f"pyramid levels must descend strictly, got {levels}")
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
    """At-least-half vote of the feature mask over each of the n x n window bins."""
    if window.x1 >= m.width or window.y1 >= m.height:
        raise ValidationError(f"window {window} exceeds mask {m.height}x{m.width}")
    region = m.bits[window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    rows = np.transpose(bin_boundaries(window.height, n))
    cols = np.transpose(bin_boundaries(window.width, n))
    return vote(region, rows, cols)


def design_a_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> np.ndarray:
    """Two pooling pathways over one window: plain box, then masked segment."""
    window = feature_extent(g, p.box, conv.height, conv.width)
    box_feature = spp_pool(conv, window, pyr)
    fmask = project_mask(g, p.block, conv.height, conv.width, p.origin, p.frame)
    segment_feature = spp_pool(apply_mask(conv, fmask), window, pyr)
    return np.concatenate([box_feature.values, segment_feature.values])


def design_b_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> np.ndarray:
    """Single pathway: pool unmasked, then blank masked-out bins of the finest level."""
    window = feature_extent(g, p.box, conv.height, conv.width)
    values = spp_pool(conv, window, pyr).values  # fresh, so zeroed in place below
    fmask = project_mask(g, p.block, conv.height, conv.width, p.origin, p.frame)
    finest = pyr.levels[0]
    grid = downsample_mask_to_grid(fmask, window, finest)
    head = values[: finest * finest * conv.channels].reshape(-1, conv.channels)
    head[~grid.reshape(-1)] = 0.0
    return values


def design_feature(
    conv: FeatureMap,
    p: SegmentProposal,
    g: NetGeometry,
    pyr: PyramidSpec,
    design: str,
) -> np.ndarray:
    """One proposal's feature vector under the named design."""
    # no lookup table: a wrapper swapped onto a module attribute must see each call
    if design == "A":
        return design_a_features(conv, p, g, pyr)
    if design == "B":
        return design_b_features(conv, p, g, pyr)
    if design == "none":
        window = feature_extent(g, p.box, conv.height, conv.width)
        return spp_pool(conv, window, pyr).values
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
    return load_json(str(path) + ".json", partial(_pooled_feature, values))


def _pooled_feature(values: np.ndarray, meta) -> PooledFeature:
    # a non-array levels value fails enumerate or yields non-integer items
    levels = {f"levels[{i}]": n for i, n in enumerate(meta["levels"])}
    pyramid = PyramidSpec(tuple(int_fields(levels, list(levels)).values()))
    return PooledFeature(values, pyramid, int_fields(meta, ["channels"])["channels"])
