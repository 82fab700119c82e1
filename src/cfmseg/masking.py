"""Project image-space segment masks into feature-map space and apply them.

Each image pixel votes for the feature cell whose receptive-field center is
nearest along each axis (ties go to the smaller index, out-of-range centers
clamp to the border cell). A cell is set when the mean of its collected
binary pixel votes reaches 0.5; cells that collect nothing stay unset.
"""

from __future__ import annotations

import numpy as np

from .core import BinaryMask, FeatureMap, ValidationError
from .netgeom import NetGeometry


def _axis_assignment(g: NetGeometry, n_pixels: int, n_cells: int) -> np.ndarray:
    """Nearest-center cell index for every pixel coordinate along one axis.

    Computed in integers on doubled coordinates: pixel x belongs to the
    smallest u with x <= O + S*(u + 1/2), i.e. u = ceil((2(x-O) - S) / 2S).
    """
    a = 2 * np.arange(n_pixels, dtype=np.int64) - g.offset_x2
    u = -((-(a - g.stride)) // (2 * g.stride))
    return np.clip(u, 0, n_cells - 1)


def project_mask(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int
) -> BinaryMask:
    """Pool the binary image mask into an fh x fw feature-space mask."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    rows = _axis_assignment(g, image_mask.height, fh)
    cols = _axis_assignment(g, image_mask.width, fw)
    cell = rows[:, None] * fw + cols[None, :]
    totals = np.bincount(cell.ravel(), minlength=fh * fw)
    counts = np.bincount(cell.ravel()[image_mask.bits.ravel()], minlength=fh * fw)
    bits = (2 * counts >= totals) & (totals > 0)
    return BinaryMask(bits.reshape(fh, fw))


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
