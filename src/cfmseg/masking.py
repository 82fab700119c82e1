"""Project image-space segment masks into feature-map space and apply them.

Each image pixel votes for the feature cell whose receptive-field center is
nearest along each axis (ties go to the smaller index, out-of-range centers
clamp to the border cell). A cell is set when the mean of its collected
binary pixel votes reaches 0.5; cells that collect nothing stay unset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import BinaryMask, FeatureMap, ValidationError, _readonly
from .netgeom import NetGeometry


@lru_cache(maxsize=256)
def _axis_runs(g: NetGeometry, n_pixels: int, n_cells: int):
    """Read-only (starts, ends) of each cell's run of nearest-center pixels.

    Computed in integers on doubled coordinates: pixel x belongs to the smallest
    u with x <= O + S*(u + 1/2), i.e. u = ceil((2(x-O) - S) / 2S), monotone in x.
    """
    a = 2 * np.arange(n_pixels, dtype=np.int64) - g.offset_x2
    u = np.clip(-((-(a - g.stride)) // (2 * g.stride)), 0, n_cells - 1)
    cells = np.arange(n_cells)
    return tuple(_readonly(np.searchsorted(u, cells, side)) for side in ("left", "right"))


def vote(bits: np.ndarray, rows, cols) -> np.ndarray:
    """Set each rectangle rows[j] x cols[i] in which at least half the bits are set.

    rows and cols are (starts, ends) of [start, end) ranges; an empty rectangle
    stays unset. Exact counts: an integer summed-area table over the set extent.
    """
    sizes = np.outer(rows[1] - rows[0], cols[1] - cols[0])
    set_rows = np.flatnonzero(bits.any(axis=1))
    set_cols = np.flatnonzero(bits.any(axis=0))
    if set_rows.size == 0:
        return np.zeros(sizes.shape, dtype=bool)
    y0, y1, x0, x1 = set_rows[0], set_rows[-1] + 1, set_cols[0], set_cols[-1] + 1
    table = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=np.int64)
    table[1:, 1:] = bits[y0:y1, x0:x1]
    np.cumsum(table, axis=0, out=table)  # in place: a fresh cumsum output is slower
    np.cumsum(table, axis=1, out=table)
    ys, ye = (np.clip(r, y0, y1) - y0 for r in rows)
    xs, xe = (np.clip(c, x0, x1) - x0 for c in cols)
    strips = table[ye] - table[ys]  # column prefix sums of each row range
    counts = strips[:, xe] - strips[:, xs]
    return (2 * counts >= sizes) & (sizes > 0)


def project_mask(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int, origin=(0, 0), frame=None
) -> BinaryMask:
    """Pool the binary image mask, the block at `origin` (row, col) of a `frame`
    (height, width; default: its own shape) unset elsewhere, into fh x fw cells."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    frame_h, frame_w = frame or (image_mask.height, image_mask.width)
    rows = [t - origin[0] for t in _axis_runs(g, frame_h, fh)]  # tables cached per scale
    cols = [t - origin[1] for t in _axis_runs(g, frame_w, fw)]
    return BinaryMask(vote(image_mask.bits, rows, cols))  # vote crops to set pixels


def brute_force_project(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int
) -> BinaryMask:
    """Oracle: per-pixel scan over every cell, no bucketing shortcuts."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    s2, o2 = 2 * g.stride, g.offset_x2

    def nearest(coord: int, n_cells: int) -> int:
        best = 0
        best_dist = abs(2 * coord - o2)
        for u in range(1, n_cells):
            dist = abs(2 * coord - (u * s2 + o2))
            if dist < best_dist:
                best, best_dist = u, dist
        return best

    counts = [[0] * fw for _ in range(fh)]
    totals = [[0] * fw for _ in range(fh)]
    bits_in = image_mask.bits
    for y in range(image_mask.height):
        for x in range(image_mask.width):
            v = nearest(y, fh)
            u = nearest(x, fw)
            totals[v][u] += 1
            if bits_in[y, x]:
                counts[v][u] += 1
    out = np.zeros((fh, fw), dtype=bool)
    for v in range(fh):
        for u in range(fw):
            if totals[v][u] > 0 and 2 * counts[v][u] >= totals[v][u]:
                out[v, u] = True
    return BinaryMask(out)


def apply_mask(f: FeatureMap, m: BinaryMask) -> FeatureMap:
    """Zero every channel of f outside the feature mask."""
    if (f.height, f.width) != (m.height, m.width):
        raise ValidationError(
            f"feature map {f.height}x{f.width} vs mask {m.height}x{m.width}"
        )
    return FeatureMap(f.values * m.bits)
