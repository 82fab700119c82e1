"""Project image-space segment masks into feature-map space.

Each image pixel votes for the feature cell whose receptive-field center is
nearest along each axis (ties go to the smaller index, out-of-range centers
clamp to the border cell). A cell is set when the mean of its collected
binary pixel votes reaches 0.5; cells that collect nothing stay unset.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import BinaryMask, ValidationError, _readonly
from .netgeom import NetGeometry


class _Runs(tuple):
    """(starts, ends) of each cell's run of nearest-center pixels, plus `cell`,
    the cell of each pixel, and `sizes`, the length of each run."""


@lru_cache(maxsize=256)
def _axis_runs(g: NetGeometry, n_pixels: int, n_cells: int) -> _Runs:
    """Read-only `_Runs` of one axis.

    Computed in integers on doubled coordinates: pixel x belongs to the smallest
    u with x <= O + S*(u + 1/2), i.e. u = ceil((2(x-O) - S) / 2S), monotone in x
    and rising by at most one per pixel, so only runs at the ends can be empty.
    """
    a = 2 * np.arange(n_pixels, dtype=np.int64) - g.offset_x2
    u = np.clip(-((-(a - g.stride)) // (2 * g.stride)), 0, n_cells - 1)
    cells = np.arange(n_cells)
    runs = _Runs(_readonly(np.searchsorted(u, cells, side)) for side in ("left", "right"))
    runs.cell, runs.sizes = _readonly(u), _readonly(runs[1] - runs[0])
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


def project_mask(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int, origin=(0, 0), frame=None
) -> BinaryMask:
    """Pool the binary image mask, the block at `origin` (row, col) of a `frame`
    (height, width; default: its own shape) unset elsewhere, into fh x fw cells.
    The cells' runs partition the frame, so reduceat sums the block run by run."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    bits = image_mask.bits
    counts, cells, sizes = bits, [], []
    for axis, n in enumerate((fh, fw)):
        o, length = origin[axis], bits.shape[axis]
        runs = _axis_runs(g, (frame or bits.shape)[axis], n)  # cached per scale
        # the runs of the block's first to last pixel, none of them empty
        k0, k1 = int(runs.cell[o]), int(runs.cell[o + length - 1]) + 1
        at = runs[0][k0:k1] - o
        at[0] = 0  # the first run may start before the block
        counts = np.add.reduceat(counts, at, axis, np.int32)
        cells.append(slice(k0, k1))
        sizes.append(runs.sizes[k0:k1])
    out = np.zeros((fh, fw), dtype=bool)
    out[tuple(cells)] = 2 * counts >= np.multiply.outer(*sizes)
    return BinaryMask(out)
