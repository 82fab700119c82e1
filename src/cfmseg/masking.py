"""Project image-space segment masks into feature-map space.

Each image pixel votes for the feature cell whose receptive-field center is
nearest along each axis (ties go to the smaller index, out-of-range centers
clamp to the border cell). A cell is set when the mean of its collected
binary pixel votes reaches 0.5; cells that collect nothing stay unset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import ValidationError, _readonly
from .netgeom import NetGeometry


class _Runs(tuple):
    """(starts, ends) of each cell's run of nearest-center pixels, plus `sizes`,
    the length of each run."""


def _cell(g: NetGeometry, x):
    """The cell of pixel x before clamping: the smallest u with x <= O + S*(u + 1/2),
    u = ceil((2(x-O) - S) / 2S) in integers on doubled coordinates. So each cell's
    run is S pixels long, and a clamped border cell's run is the union of the runs
    past it."""
    return -((g.offset_x2 + g.stride - 2 * x) // (2 * g.stride))


@lru_cache(maxsize=256)
def _axis_runs(g: NetGeometry, n_pixels: int, n_cells: int) -> _Runs:
    """Read-only `_Runs` of one axis. A pixel's cell rises by at most one per
    pixel, so only runs at the ends can be empty."""
    u = np.clip(_cell(g, np.arange(n_pixels, dtype=np.int64)), 0, n_cells - 1)
    cells = np.arange(n_cells)
    runs = _Runs(_readonly(np.searchsorted(u, cells, side)) for side in ("left", "right"))
    runs.sizes = _readonly(runs[1] - runs[0])
    return runs


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


def _firsts(sizes: np.ndarray) -> np.ndarray:
    """Where each of consecutive groups of the given sizes starts."""
    return np.cumsum(sizes) - sizes


def _ragged(sizes: np.ndarray):
    """Members of consecutive groups of the given sizes (each >= 1): each one's
    group and its rank within the group."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    return group, np.arange(len(group)) - _firsts(sizes)[group]


def _unclamped(g: NetGeometry, origin, length):
    """Per block along one axis: the unclamped cell of its first pixel, the number
    of unclamped cells it meets and its offset into the first one's run."""
    first = _cell(g, origin)
    run_start = (2 * g.stride * (first - 1) + g.offset_x2 + g.stride) // 2 + 1
    return first, _cell(g, origin + length - 1) - first + 1, origin - run_start


def project_mask(g: NetGeometry, blocks, origins, frame, fh: int, fw: int,
                 windows) -> list[np.ndarray]:
    """Pool each binary block, at origins[i] (row, col) of the frame (height,
    width) and unset elsewhere, into fh x fw cells, and return each vote cropped
    to its window, windows[i] = (y0, x0, y1, x1) inclusive cell corners.

    Each block is zero-padded to whole S x S unclamped cells (`_cell`), and the
    blocks of one padded width are stacked on one canvas: its S-row bands are
    summed first, then each band's S-column cells, and each unclamped cell's
    count is added to its clamped cell. Each count is voted against its cell's
    whole run in the frame; window cells that none of the block's pixels vote
    for stay unset.
    """
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    if not len(blocks):
        return []
    shapes = np.array([b.shape for b in blocks], np.int64)
    origins = np.array(origins, np.int64).reshape(-1, 2)
    windows = np.array(windows, np.int64).reshape(-1, 4)
    if not len(origins) == len(windows) == len(blocks) or shapes.min() < 1 or (
        origins.min() < 0 or (origins + shapes > frame).any()
    ):
        raise ValidationError(f"each block must lie at its origin in the {frame} frame")
    if windows.min() < 0 or (windows[:, 2:] < windows[:, :2]).any() or (
        windows[:, 2:] >= (fh, fw)
    ).any():
        raise ValidationError(f"each window must lie in the {fh}x{fw} grid")
    s = g.stride
    (vy, my, dy), (vx, mx, dx) = (_unclamped(g, origins[:, a], shapes[:, a]) for a in (0, 1))
    order = np.argsort(mx, kind="stable")
    widths, first = np.unique(mx[order], return_index=True)
    sums = []
    for cols, a, b in zip(widths.tolist(), first.tolist(), [*first[1:].tolist(), len(order)]):
        members = order[a:b]
        canvas = np.zeros((int(my[members].sum()) * s, cols * s), bool)
        top = _firsts(my[members] * s) + dy[members]
        for j, y, x in zip(members.tolist(), top.tolist(), dx[members].tolist()):
            bits = blocks[j]
            canvas[y : y + bits.shape[0], x : x + bits.shape[1]] = bits
        bands = canvas.view(np.uint8).reshape(-1, s, cols * s).sum(axis=1, dtype=np.int32)
        sums.append(bands.reshape(-1, cols, s).sum(axis=2).ravel())
    # each unclamped cell (block in `order`, row, column) added to its clamped one
    ky0, kx0 = np.clip(vy, 0, fh - 1), np.clip(vx, 0, fw - 1)
    ny = np.clip(vy + my - 1, 0, fh - 1) - ky0 + 1
    nx = np.clip(vx + mx - 1, 0, fw - 1) - kx0 + 1
    cell_at = _firsts(ny * nx)
    unit, k = _ragged(my[order] * mx[order])
    block = order[unit]
    row = np.clip(vy[block] + k // mx[block], 0, fh - 1) - ky0[block]
    col = np.clip(vx[block] + k % mx[block], 0, fw - 1) - kx0[block]
    counts = np.bincount(cell_at[block] + row * nx[block] + col, np.concatenate(sums),
                         int(cell_at[-1] + ny[-1] * nx[-1]))  # float64, exact for counts

    # each clamped cell, voted, at its place in its block's window crop
    block, k = _ragged(ny * nx)
    ky, kx = ky0[block] + k // nx[block], kx0[block] + k % nx[block]
    wh, ww = (windows[:, 2:] - windows[:, :2] + 1).T
    y, x = ky - windows[block, 0], kx - windows[block, 1]
    sizes = _axis_runs(g, frame[0], fh).sizes[ky] * _axis_runs(g, frame[1], fw).sizes[kx]
    keep = (2 * counts >= sizes) & (y >= 0) & (y < wh[block]) & (x >= 0) & (x < ww[block])
    crop_at = _firsts(wh * ww)
    out = np.zeros(int(crop_at[-1] + wh[-1] * ww[-1]), bool)
    out[(crop_at[block] + y * ww[block] + x)[keep]] = True
    return [out[i : i + rows * cols].reshape(rows, cols)
            for i, rows, cols in zip(crop_at.tolist(), wh.tolist(), ww.tolist())]
