"""Spatial pyramid max-pooling over feature windows and the feature designs.

The pooled vector layout is frozen: pyramid levels in listed order, bins in
row-major order within a level, and all channels contiguous within a bin.
With the default {6,3,2,1} pyramid the output length is 50 * channels.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import FeatureMap, PixelBox, SegmentProposal, ValidationError
from .core import _readonly
from .formats import dump_json, save_vector
from .masking import overlap, project_mask, vote
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


def _level_spans(length, levels: tuple[int, ...]):
    """(starts, ends, k) of every level's bins, levels concatenated in order, over
    windows of the given length, an int or an array of them in a column.

    Bin j of n spans [floor(j*w/n), ceil((j+1)*w/n)): never empty, overlapping
    when the window is shorter than the grid. k = floor(log2(end - start)) is
    the exponent of the two 2**k spans whose max is the bin's.
    """
    n = np.repeat(levels, levels)
    j = np.concatenate([np.arange(m) for m in levels])
    starts, ends = (j * length) // n, -((-(j + 1) * length) // n)
    return starts, ends, np.frexp(ends - starts)[1] - 1  # exact for integers


def _level_bins(levels: tuple[int, ...]):
    """Each output bin's (row range, column range) among the levels' concatenated
    ranges: levels in order, bins row-major within a level."""
    first = np.cumsum((0,) + levels)[:-1]  # each level's first range
    bins = [(o + b // n, o + b % n) for o, n in zip(first, levels) for b in range(n * n)]
    return tuple(map(_readonly, np.array(bins).T))


@lru_cache(maxsize=4096)
def _pyramid_plan(height: int, width: int, levels: tuple[int, ...]):
    """Read-only plan for a height x width window: per axis, every level's bin
    ranges as (starts, ends) and as `_range_max` reads; then each output bin's
    (row range, column range), levels in order, bins row-major within a level."""
    axes = []
    for length in (height, width):
        starts, ends, k = map(_readonly, _level_spans(length, levels))
        axes.append(((starts, ends), (int(k.max()), k, starts, _readonly(ends - (1 << k)))))
    return axes[0], axes[1], _level_bins(levels)


def _range_max(x: np.ndarray, depth: int, k, starts, second) -> np.ndarray:
    """Max over ranges of x's leading axis: the max of the two spans of length
    2**k (k = floor(log2(length))) at `starts` and at `second`, which ends where
    the range ends, read from a sparse table of 2**level-long maxima."""
    table = np.empty((depth + 1,) + x.shape, dtype=x.dtype)
    table[0] = x
    for level in range(1, depth + 1):
        half, valid = 1 << (level - 1), len(x) - (1 << level) + 1  # the rest is unread
        np.maximum(table[level - 1, :valid], table[level - 1, half : half + valid],
                   out=table[level, :valid])
    return np.maximum(table[k, starts], table[k, second])


def _pool(region: np.ndarray, levels: tuple[int, ...]) -> np.ndarray:
    """Max-pool a whole (C, h, w) float32 array into one (L,) vector per the
    pyramid: every row range's maxima, then every column range of those; zero
    pools to +0.0. Its tables span the array only."""
    (_, row_reads), (_, col_reads), (row_of, col_of) = _pyramid_plan(
        region.shape[1], region.shape[2], levels
    )
    # the ranged axis leads, so each table level is one contiguous block
    rows = _range_max(region.transpose(1, 0, 2), *row_reads)  # (row range, channel, col)
    pooled = _range_max(rows.transpose(2, 0, 1), *col_reads)[col_of, row_of]
    pooled += 0.0  # (bin, channel); -0.0 + 0.0 is +0.0, every other float is unchanged
    return pooled.reshape(-1)


def spp_pool(f: FeatureMap, window: PixelBox, pyr: PyramidSpec) -> PooledFeature:
    """Max-pool the window into one fixed-length vector per the pyramid.

    The single-window pool, for a map pooled once (the per-region baseline,
    `cfmseg pool`). Many windows of one map go through `spp_pool_windows`,
    whose per-map tables cost more than one window's pool but are shared by
    every window.
    """
    if window.x1 >= f.width or window.y1 >= f.height:
        raise ValidationError(
            f"window {window} exceeds feature map {f.height}x{f.width}"
        )
    region = f.values[:, window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    return PooledFeature(_pool(region, pyr.levels), pyr, f.channels)


GATHER_CHUNK = 4096  # bins read per gather: bounds its (bins, channels) buffers


def out_array(out, shape: tuple[int, int]) -> np.ndarray:
    """`out` if it is a C-contiguous float32 array of the given shape, a new
    one if it is None; any other `out` is rejected."""
    if out is None:
        return np.empty(shape, np.float32)
    if out.shape != shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous {shape} float32 array")
    return out


def spp_pool_windows(f: FeatureMap, windows, pyr: PyramidSpec, out=None) -> np.ndarray:
    """Pool every (y0, x0, y1, x1) window of one map, inclusive cell corners, to
    the bytes `spp_pool` gives each: an (N, length) float32 array, written into
    `out` when it is given. Any other `out` than a C-contiguous float32 array
    of that shape is rejected.

    A bin of at least 2**ky rows and 2**kx columns (k = floor(log2(length)))
    is the max of four overlapping 2**ky x 2**kx blocks at its corners. The
    map, cropped to the windows' union, is walked one (ky, kx) level of such
    block maxima at a time: each row level comes from the one before, each
    column level from the one before within its row level, so at most three
    map-sized buffers are live. Each level takes its bins by their (ky, kx)
    key and fills them GATHER_CHUNK bins at a time, reading only distinct
    corners: a bin one row (ky = 0) or one column (kx = 0) long has its two
    corners on that axis in one place, so level (0, 0) reads one block a bin,
    (0, kx) and (ky, 0) two, and every other level four.
    """
    win = np.array(windows, dtype=np.int64).reshape(-1, 4)
    row_of, col_of = _level_bins(pyr.levels)
    out = out_array(out, (len(win), pyr.output_length(f.channels)))
    if not len(win):
        return out
    y0, x0, y1, x1 = win.T
    if min(y0.min(), x0.min(), (y1 - y0).min(), (x1 - x0).min()) < 0 or (
        y1.max() >= f.height or x1.max() >= f.width
    ):
        raise ValidationError(f"windows must lie in the {f.height}x{f.width} map")
    top, left = int(y0.min()), int(x0.min())
    reads = []  # per axis: each (window, bin)'s level and both span starts in the crop
    for lo, hi, base, of in ((y0, y1, top, row_of), (x0, x1, left, col_of)):
        starts, ends, k = _level_spans((hi - lo + 1)[:, None], pyr.levels)
        shift = (lo - base)[:, None]  # window cells to crop cells
        # the second span ends where the range ends
        reads.append([a.astype(np.int32).take(of, axis=1).ravel()
                      for a in (k, starts + shift, ends - (1 << k) + shift)])
    (ky, ya, yb), (kx, xa, xb) = reads
    levels_x = int(kx.max()) + 1
    key = (ky * levels_x + kx).astype(np.int16)  # each bin's (ky, kx) level
    counts = np.bincount(key, minlength=levels_x * (int(ky.max()) + 1))
    del reads, ky, kx

    # whole channel vectors as single items: taking them is a row copy each
    item = np.dtype((np.void, 4 * f.channels))
    out_items = out.reshape(-1, f.channels).view(item).ravel()
    region = f.values[:, top : int(y1.max()) + 1, left : int(x1.max()) + 1]
    rows = np.ascontiguousarray(region.transpose(1, 2, 0))  # (row, col, channel)
    for level_y, row_counts in enumerate(counts.reshape(-1, levels_x)):
        if level_y:  # maxima of 2**level_y rows from two of half as many
            half = 1 << (level_y - 1)
            rows = np.maximum(rows[:-half], rows[half:])
        blocks = rows
        for level_x in range(len(np.trim_zeros(row_counts, "b"))):  # to the last with bins
            if level_x:
                half = 1 << (level_x - 1)
                blocks = np.maximum(blocks[:, :-half], blocks[:, half:])
            if not row_counts[level_x]:
                continue  # no bins at this level, but the next ones read its blocks
            bins = np.flatnonzero(key == level_y * levels_x + level_x)
            cells, width = blocks.reshape(-1, f.channels).view(item).ravel(), blocks.shape[1]
            # at level 0 of an axis a bin's second span starts where its first does
            ys, xs = (ya, yb) if level_y else (ya,), (xa, xb) if level_x else (xa,)
            for at in range(0, len(bins), GATHER_CHUNK):
                span = bins[at : at + GATHER_CHUNK]
                cols = [x[span] for x in xs]
                first, *rest = [y[span] * width + c for y in ys for c in cols]
                pooled = cells.take(first).view(np.float32)
                for corner in rest:
                    np.maximum(pooled, cells.take(corner).view(np.float32), out=pooled)
                pooled += 0.0  # -0.0 + 0.0 is +0.0, as in spp_pool
                out_items[span] = pooled.view(item)
        del blocks  # before the next row level, so three buffers at most
    return out


def downsample_mask_to_grid(crops: list[np.ndarray], n: int) -> np.ndarray:
    """At-least-half vote of each window's feature-mask cells (crops[i]) over its
    n x n bins: one vote per crop shape, over the stack of that shape's crops,
    counted as a · crops · bᵀ in float64 (exact) from each axis's `overlap` of
    unit cells with bins."""
    by_shape = defaultdict(list)
    for i, crop in enumerate(crops):
        by_shape[crop.shape].append(i)
    grid = np.empty((len(crops), n, n), bool)
    for (h, w), members in by_shape.items():  # no padding: memory is the crops' own
        (rows, _), (cols, _), _ = _pyramid_plan(h, w, (n,))
        a, b = (overlap(np.arange(k, dtype=np.float64), np.arange(1.0, k + 1), *spans)
                for k, spans in ((h, rows), (w, cols)))
        counts = a @ np.array([crops[i] for i in members], np.float64) @ b.T
        grid[members] = vote(counts, np.outer(rows[1] - rows[0], cols[1] - cols[0]))
    return grid


def _projected(conv: FeatureMap, proposals: Sequence[SegmentProposal], boxes,
               scaled, g: NetGeometry):
    """Each proposal's window, an (N, 4) array of (y0, x0, y1, x1) cells of the map
    around its box in the scaled frame, and its projected mask cropped to that
    window. The proposals, all of one frame, are projected from their own blocks
    through the resize of that frame to `scaled`, the map's input size."""
    frame = proposals[0].frame
    if wrong := [p.id for p in proposals if p.frame != frame]:
        raise ValidationError(f"proposal {wrong[0]!r} frame is not {frame}")
    windows = feature_extent(g, boxes, conv.height, conv.width)
    crops = project_mask(g, [p.block.bits for p in proposals], [p.origin for p in proposals],
                         frame, scaled, conv.height, conv.width, windows, boxes)
    return windows, crops


def design_a_features(conv: FeatureMap, proposals: Sequence[SegmentProposal], boxes,
                      scaled, g: NetGeometry, pyr: PyramidSpec, out=None) -> np.ndarray:
    """Two pooling pathways per window, plain box then masked segment: (N, 2L).

    The boxes pool in one `spp_pool_windows` pass. The pyramid reads no cell
    outside the window, so only the window's crop of the map is masked, then
    pooled over its full extent by `spp_pool`'s kernel.
    """
    windows, crops = _projected(conv, proposals, boxes, scaled, g)
    segments = [
        _pool(conv.values[:, y0 : y1 + 1, x0 : x1 + 1] * crop, pyr.levels)
        for (y0, x0, y1, x1), crop in zip(windows.tolist(), crops)
    ]
    return np.concatenate([spp_pool_windows(conv, windows, pyr),
                           np.array(segments, np.float32)], axis=1, out=out)


def design_b_features(conv: FeatureMap, proposals: Sequence[SegmentProposal], boxes,
                      scaled, g: NetGeometry, pyr: PyramidSpec, out=None) -> np.ndarray:
    """Single pathway: pool unmasked, then blank masked-out bins of the finest level,
    voted over window crops of the masks, never whole maps: (N, L) for one map.
    One `spp_pool_windows` pass pools every window.
    """
    windows, crops = _projected(conv, proposals, boxes, scaled, g)
    values = spp_pool_windows(conv, windows, pyr, out)  # zeroed in place below
    grid = downsample_mask_to_grid(crops, pyr.levels[0]).reshape(len(crops), -1)
    head = values[:, : grid.shape[1] * conv.channels].reshape(grid.shape + (-1,))
    head[~grid] = 0.0
    return values


def design_feature(conv: FeatureMap, proposals: Sequence[SegmentProposal], boxes,
                   scaled, g: NetGeometry, pyr: PyramidSpec, design: str,
                   out=None) -> np.ndarray:
    """The (N, length) float32 feature vectors of the proposals (non-empty, of one
    frame) on one map, under the named design. The map was computed from the
    frame resized to `scaled` (height, width), where the proposals' boxes are
    `boxes`, an (N, 4) array of (y0, x0, y1, x1) (`pipeline.scale_proposal`).
    They are written into `out`, a C-contiguous (N, length) float32 array, when
    it is given."""
    # no lookup table: a wrapper swapped onto a module attribute must see each call
    if design == "A":
        return design_a_features(conv, proposals, boxes, scaled, g, pyr, out)
    if design == "B":
        return design_b_features(conv, proposals, boxes, scaled, g, pyr, out)
    if design == "none":
        windows = feature_extent(g, boxes, conv.height, conv.width)
        return spp_pool_windows(conv, windows, pyr, out)
    raise ValidationError(f"design must be one of {DESIGNS}")


def feature_length(channels: int, pyr: PyramidSpec, design: str) -> int:
    base = pyr.output_length(channels)
    return 2 * base if design == "A" else base


def save_pooled_feature(path: Path | str, pooled: PooledFeature) -> None:
    """Vector tensor plus a JSON sidecar recording pyramid and channel count."""
    save_vector(path, pooled.values)
    sidecar = {"channels": pooled.channels, "levels": list(pooled.pyramid.levels)}
    dump_json(sidecar, str(path) + ".json")
