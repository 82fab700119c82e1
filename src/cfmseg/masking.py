"""Project image-space segment masks into feature-map space.

Each image pixel votes for the feature cell whose receptive-field center is
nearest along each axis (ties go to the smaller index, out-of-range centers
clamp to the border cell). A cell is set when the mean of its collected
binary pixel votes reaches 0.5; cells that collect nothing stay unset.

The pixels that vote are those of the nearest resize (`core.nearest_indices`)
of a segment's source frame to the scaled frame the map was computed from; no
scaled mask is built.
"""

from __future__ import annotations

import numpy as np

from .core import ValidationError, nearest_indices
from .netgeom import NetGeometry

TILE = 128  # source pixels per side of one product: bounds its cells and its cost per pixel


def _cell(g: NetGeometry, x):
    """The cell of pixel x before clamping: the smallest u with x <= O + S*(u + 1/2),
    u = ceil((2(x-O) - S) / 2S) in integers on doubled coordinates. So each cell's
    run is S pixels long, and a clamped border cell's run is the union of the runs
    past it."""
    return -((g.offset_x2 + g.stride - 2 * x) // (2 * g.stride))


def _axis(g: NetGeometry, src: int, dst: int, cells: int):
    """One axis of the nearest resize of src pixels to dst. The scaled
    pixels that read source pixel r, and the cells (`_cell`, clamped) they vote
    for, are consecutive: `first[r]` is the first of those cells (for a pixel
    none reads, the next read one's, so `first` never falls), and the float64
    `band[r, k]` counts those that vote for cell first[r] + k. `runs[i]` is the
    size of cell i's run in the scaled frame."""
    votes = np.clip(_cell(g, np.arange(dst, dtype=np.int64)), 0, cells - 1)
    reads = nearest_indices(src, dst)
    first = votes[np.minimum(np.searchsorted(reads, np.arange(src)), dst - 1)]
    layer = votes - first[reads]
    width = int(layer.max()) + 1
    band = np.bincount(reads * width + layer, minlength=src * width).reshape(src, width)
    return first, band.astype(np.float64), np.bincount(votes, minlength=cells)


def _spans(axis, at, n: int, corner, cells: int) -> list[tuple[int, int, int, int]]:
    """A stack's tiles of at most TILE source pixels along one axis of an `_axis`,
    in order: each one's first pixel, its length and the [lo, hi) of the cells,
    counted from corner[j] and fewer than `cells`, that its pixels vote for."""
    first, band, _ = axis
    spans = []
    for r in range(0, n, TILE):
        k = min(TILE, n - r)
        lo = min(max(int((first[at + r] - corner).min()), 0), cells)
        hi = min(max(int((first[at + r + k - 1] - corner).max()) + band.shape[1], lo), cells)
        spans.append((r, k, lo, hi))
    return spans


def _table(axis, at, n: int, corner, cells: int) -> np.ndarray:
    """The table Aᵀ of a stack over `cells` cells, (m, cells, n) float64: entry
    [j, i, p] counts the scaled pixels that read source pixel at[j] + p of an
    `_axis` and vote for cell corner[j] + i."""
    first, band, _ = axis
    pixels = at[:, None] + np.arange(n)
    cell = (first[pixels] - corner[:, None])[:, None, :]  # each pixel's first
    table = np.zeros((len(at), cells, n))
    for k in range(band.shape[1]):
        np.copyto(table, band[pixels, k][:, None, :],
                  where=np.arange(-k, cells - k)[:, None] == cell)
    return table


def vote(bits: np.ndarray, rows, cols) -> np.ndarray:
    """Set each rectangle rows[j] x cols[i] in which at least half the bits are set.

    bits is (..., h, w), leading axes a batch that shares the ranges; rows and cols
    are (starts, ends) of [start, end) ranges. An empty rectangle stays unset.
    Exact counts: an integer summed-area table.
    """
    table = np.zeros(bits.shape[:-2] + (bits.shape[-2] + 1, bits.shape[-1] + 1), np.int32)
    table[..., 1:, 1:] = bits
    np.cumsum(table, axis=-2, out=table)  # in place: a fresh cumsum output is slower
    np.cumsum(table, axis=-1, out=table)
    strips = table[..., rows[1], :] - table[..., rows[0], :]  # column prefix sums
    counts = strips[..., cols[1]] - strips[..., cols[0]]  # of each row range
    sizes = np.outer(rows[1] - rows[0], cols[1] - cols[0])
    return (2 * counts >= sizes) & (sizes > 0)


def scaled_boxes(blocks, origins, frame, scaled) -> np.ndarray:
    """Each tight block's (y0, x0, y1, x1) box in the nearest resize of the frame
    to the scaled one, an (N, 4) int64 array. Without a downscale every pixel is
    read; under one, only the set pixels some scaled pixel reads count. A
    block left with none (a thin segment) falls back to its box's corners
    scaled by floor(c * scaled / frame), clamped into the scaled frame."""
    origins = np.array(origins, np.int64).reshape(-1, 2)
    lo, hi = origins.copy(), origins + [b.shape for b in blocks] - 1
    # per axis and source pixel: the [start, end) of the scaled pixels reading it
    (sy, ey), (sx, ex) = [[np.searchsorted(nearest_indices(n, m), np.arange(n), side)
                           for side in ("left", "right")] for n, m in zip(frame, scaled)]
    vanished = np.zeros(len(blocks), bool)
    if frame[0] > scaled[0] or frame[1] > scaled[1]:
        for j, (bits, (y, x)) in enumerate(zip(blocks, origins.tolist())):
            rows = np.flatnonzero(ey[y : y + bits.shape[0]] > sy[y : y + bits.shape[0]])
            cols = np.flatnonzero(ex[x : x + bits.shape[1]] > sx[x : x + bits.shape[1]])
            live = bits[np.ix_(rows, cols)]
            rows, cols = rows[live.any(axis=1)], cols[live.any(axis=0)]
            if rows.size:
                lo[j], hi[j] = (y + rows[0], x + cols[0]), (y + rows[-1], x + cols[-1])
            else:
                vanished[j] = bits.any()  # an unset block has nothing to lose
    boxes = np.stack([sy[lo[:, 0]], sx[lo[:, 1]], ey[hi[:, 0]] - 1, ex[hi[:, 1]] - 1], axis=1)
    corners = np.concatenate([lo, hi], axis=1)[vanished]
    ends = np.tile(scaled, 2)
    boxes[vanished] = np.minimum(corners * ends // np.tile(frame, 2), ends - 1)
    return boxes


def project_mask(g: NetGeometry, blocks, origins, frame, scaled, fh: int, fw: int,
                 windows, boxes) -> list[np.ndarray]:
    """Pool each binary block, at origins[i] (row, col) of the source frame
    (height, width) and unset elsewhere, resized nearest to the scaled frame,
    into fh x fw cells, and return each vote cropped to its window, windows[i] =
    (y0, x0, y1, x1) inclusive cell corners. Equal frames are the identity
    resize. boxes[i] is the block's box in the scaled frame (`scaled_boxes`).

    Per axis, `_axis` gives the banded table A (rows) and B (columns), A[r, i]
    the number of scaled pixels that read source pixel r and vote for cell i,
    and a window's counts are A[block rows, window rows]ᵀ · bits · B[block
    columns, window columns], summed in float64: every count is an integer of
    at most the scaled frame's pixels, so every sum is exact in any order. A
    cell is set when its count is above 0 and at least half its run. Blocks of
    one (block, window) shape are stacked, at most 2**16 source pixels and
    2**13 window cells at a time, and each stack is multiplied in tiles of
    TILE x TILE source pixels, each only with the cells it votes for
    (`_spans`): a block costs time linear in its pixels, and the float64
    buffers stay bounded. A block with set pixels none of which the resize
    reads projects its box, all set, in the scaled frame.
    """
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    if not len(blocks):
        return []
    shapes = np.array([b.shape for b in blocks], np.int64)
    origins = np.array(origins, np.int64).reshape(-1, 2)
    windows = np.array(windows, np.int64).reshape(-1, 4)
    boxes = np.array(boxes, np.int64).reshape(-1, 4)
    if not len(origins) == len(windows) == len(boxes) == len(blocks) or shapes.min() < 1 or (
        min(scaled) < 1 or origins.min() < 0 or (origins + shapes > frame).any()
    ):
        raise ValidationError(f"each block must lie at its origin in the {frame} frame")
    if windows.min() < 0 or (windows[:, 2:] < windows[:, :2]).any() or (
        windows[:, 2:] >= (fh, fw)
    ).any():
        raise ValidationError(f"each window must lie in the {fh}x{fw} grid")
    crops = [None] * len(blocks)
    axis_y, axis_x = _axis(g, frame[0], scaled[0], fh), _axis(g, frame[1], scaled[1], fw)
    vanished = np.zeros(len(blocks), bool)
    keys = np.concatenate([shapes, windows[:, 2:] - windows[:, :2] + 1], axis=1)
    order = np.lexsort(keys.T[::-1])
    edges = np.flatnonzero((np.diff(keys[order], axis=0) != 0).any(axis=1)) + 1
    for group in np.split(order, edges):
        h, w, wh, ww = keys[group[0]].tolist()
        step = max(1, min((1 << 16) // (h * w), (1 << 13) // (wh * ww)))  # blocks per stack
        for at in range(0, len(group), step):
            members = group[at : at + step]
            (y, x), (y0, x0) = origins[members].T, windows[members, :2].T
            bits = np.array([blocks[j] for j in members])
            rows, columns = _spans(axis_y, y, h, y0, wh), _spans(axis_x, x, w, x0, ww)
            (_, _, top, _), (_, _, left, _) = rows[0], columns[0]  # cells rise with tiles
            (*_, bottom), (*_, right) = rows[-1], columns[-1]
            counts = np.zeros((len(members), bottom - top, right - left))
            for r, n, t0, t1 in rows:
                a = _table(axis_y, y + r, n, y0 + t0, t1 - t0)
                for c, k, l0, l1 in columns:  # one table B at a time
                    b = _table(axis_x, x + c, k, x0 + l0, l1 - l0).transpose(0, 2, 1)
                    tile = bits[:, r : r + n, c : c + k].astype(np.float64)
                    counts[:, t0 - top : t1 - top, l0 - left : l1 - left] += a @ tile @ b
            sizes = (axis_y[2][y0[:, None] + np.arange(top, bottom)][:, :, None]
                     * axis_x[2][x0[:, None] + np.arange(left, right)][:, None, :])
            votes = np.zeros((len(members), wh, ww), bool)
            votes[:, top:bottom, left:right] = (counts > 0) & (2 * counts >= sizes)
            for j, crop in zip(members.tolist(), votes):
                crops[j] = crop
            if frame[0] > scaled[0] or frame[1] > scaled[1]:  # a block may keep no set pixel
                read = (axis_y[1][y[:, None] + np.arange(h)].any(axis=2)[:, :, None]
                        & axis_x[1][x[:, None] + np.arange(w)].any(axis=2)[:, None, :])
                vanished[members] = bits.any(axis=(1, 2)) & ~(bits & read).any(axis=(1, 2))
    fell = np.flatnonzero(vanished)
    if fell.size:
        filled = [np.ones(s, bool) for s in (boxes[fell, 2:] - boxes[fell, :2] + 1).tolist()]
        for j, crop in zip(fell.tolist(), project_mask(
                g, filled, boxes[fell, :2], scaled, scaled, fh, fw, windows[fell], boxes[fell])):
            crops[j] = crop
    return crops
