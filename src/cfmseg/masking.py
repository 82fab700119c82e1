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
    counts, sizes, cells = bits, 1, []
    for axis, n in enumerate((fh, fw)):
        o, length = origin[axis], bits.shape[axis]
        starts, ends = _axis_runs(g, (frame or bits.shape)[axis], n)  # cached per scale
        # runs [k0, k1) meet the block; at an empty run's start reduceat yields one
        # element, which the run's size 0 leaves unset
        k0, k1 = np.searchsorted(ends, o, "right"), np.searchsorted(starts, o + length)
        counts = np.add.reduceat(counts, np.maximum(starts[k0:k1] - o, 0), axis, np.int32)
        sizes = np.multiply.outer(sizes, ends[k0:k1] - starts[k0:k1])
        cells.append(slice(k0, k1))
    out = np.zeros((fh, fw), dtype=bool)
    out[tuple(cells)] = (2 * counts >= sizes) & (sizes > 0)
    return BinaryMask(out)
