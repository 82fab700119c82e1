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


def _edges(index, n: int) -> np.ndarray:
    """The [edges[v], edges[v + 1]) run of each value v < n in a non-decreasing
    index array: (n + 1,) int64, one search."""
    return np.searchsorted(index, np.arange(n + 1))


def _axis(g: NetGeometry, src: int, dst: int, cells: int):
    """One axis of the nearest resize of src pixels to dst, as two float64 edge
    arrays in the scaled frame: `spans`, the scaled pixels that read each
    source pixel, and `bounds`, the run of scaled pixels that vote for each
    cell (`_cell`, clamped)."""
    votes = np.clip(_cell(g, np.arange(dst, dtype=np.int64)), 0, cells - 1)
    return _edges(nearest_indices(src, dst), src).astype(float), _edges(votes, cells).astype(float)


def overlap(starts, ends, lo, hi) -> np.ndarray:
    """The (..., ranges, spans) table of how long each [starts, ends) span
    overlaps each [lo, hi) range; leading axes broadcast."""
    table = np.minimum(ends[..., None, :], hi[..., :, None])
    table -= np.maximum(starts[..., None, :], lo[..., :, None])
    return np.maximum(table, 0, out=table)


def _spans(axis, at, n: int, corner, cells: int) -> list[tuple[int, int, int, int]]:
    """A stack's tiles of at most TILE source pixels along one axis of an `_axis`,
    in order: each one's offset in the block, its length and the [lo, hi) of the cells,
    counted from corner[j] and fewer than `cells`, that its pixels vote for."""
    spans, bounds = axis
    cuts = [*range(0, n, TILE), n]
    edges = spans[at[:, None] + cuts]  # tile t reads [edges[:, t], edges[:, t + 1])
    lo = (bounds.searchsorted(edges[:, :-1], "right") - corner[:, None]).min(axis=0) - 1
    hi = (bounds.searchsorted(edges[:, 1:]) - corner[:, None]).max(axis=0)
    return [(r, end - r, min(max(a, 0), cells), min(max(b, a, 0), cells))
            for r, end, a, b in zip(cuts, cuts[1:], lo.tolist(), hi.tolist())]


def _table(axis, at, n: int, corner, cells: int) -> np.ndarray:
    """The table Aᵀ of a stack over `cells` cells, (m, cells, n) float64: entry
    [j, i, p] counts the scaled pixels that read source pixel at[j] + p of an
    `_axis` and vote for cell corner[j] + i."""
    spans, bounds = axis
    edges = spans[at[:, None] + np.arange(n + 1)]
    runs = bounds[corner[:, None] + np.arange(cells + 1)]
    return overlap(edges[:, :-1], edges[:, 1:], runs[:, :-1], runs[:, 1:])


def vote(counts, sizes) -> np.ndarray:
    """Set each cell whose count is above 0 and at least half its size (the half rule)."""
    return (counts > 0) & (2 * counts >= sizes)


def scaled_boxes(blocks, origins, frame, scaled) -> np.ndarray:
    """Each tight block's (y0, x0, y1, x1) box in the nearest resize of the frame
    to the scaled one, an (N, 4) int64 array. Without a downscale every pixel is
    read; under one, only the set pixels some scaled pixel reads count. A
    block left with none (a thin segment) falls back to its box's corners
    scaled by floor(c * scaled / frame), clamped into the scaled frame."""
    origins = np.array(origins, np.int64).reshape(-1, 2)
    lo, hi = origins.copy(), origins + [b.shape for b in blocks] - 1
    # per axis and source pixel: the [start, end) of the scaled pixels reading it
    (sy, ey), (sx, ex) = [(e[:-1], e[1:]) for e in
                          (_edges(nearest_indices(n, m), n) for n, m in zip(frame, scaled))]
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

    Per axis, `_axis` gives the scaled pixels that read each source pixel and
    the run of each cell, and their `overlap` is the table A (rows) and B
    (columns), A[r, i] the number of scaled pixels that read source pixel r and
    vote for cell i. A window's counts are A[block rows, window rows]ᵀ · bits ·
    B[block columns, window columns], summed in float64: every count is an
    integer of at most the scaled frame's pixels, so every sum is exact in any
    order. A cell is set by `vote` over its run. Blocks of
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
    (read_y, runs_y), (read_x, runs_x) = [(np.diff(spans) > 0, np.diff(bounds))
                                          for spans, bounds in (axis_y, axis_x)]
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
            sizes = (runs_y[y0[:, None] + np.arange(top, bottom)][:, :, None]
                     * runs_x[x0[:, None] + np.arange(left, right)][:, None, :])
            votes = np.zeros((len(members), wh, ww), bool)
            votes[:, top:bottom, left:right] = vote(counts, sizes)
            for j, crop in zip(members.tolist(), votes):
                crops[j] = crop
            if frame[0] > scaled[0] or frame[1] > scaled[1]:  # a block may keep no set pixel
                read = (read_y[y[:, None] + np.arange(h)][:, :, None]
                        & read_x[x[:, None] + np.arange(w)][:, None, :])
                vanished[members] = bits.any(axis=(1, 2)) & ~(bits & read).any(axis=(1, 2))
    fell = np.flatnonzero(vanished)
    if fell.size:
        filled = [np.ones(s, bool) for s in (boxes[fell, 2:] - boxes[fell, :2] + 1).tolist()]
        for j, crop in zip(fell.tolist(), project_mask(
                g, filled, boxes[fell, :2], scaled, scaled, fh, fw, windows[fell], boxes[fell])):
            crops[j] = crop
    return crops
