"""Reference implementations that the tests compare cfmseg against.

Each one computes its result the slow, literal way: the geometry by tracing
the input interval layer by layer, the projection by scanning every pixel
against every cell, the masking over the whole map, the training
objective from its definition, the convolution by explicit broadcast
steps in its documented order, and the IoU by one pass per category. None
of them is used by the package.
"""

import numpy as np

from cfmseg.classify import LinearModel
from cfmseg.core import BinaryMask, FeatureMap, LabelMap, ValidationError
from cfmseg.netgeom import LayerSpec, NetGeometry


def brute_force_geometry(layers: list[LayerSpec]) -> NetGeometry:
    """Oracle: trace the input interval of top units layer by layer."""
    if not layers:
        raise ValidationError("layer stack must be non-empty")

    def image_interval(u: int) -> tuple[int, int]:
        lo = hi = u
        for layer in reversed(layers):
            lo = lo * layer.stride - layer.pad
            hi = hi * layer.stride - layer.pad + layer.kernel - 1
        return lo, hi

    lo0, hi0 = image_interval(0)
    lo1, _ = image_interval(1)
    return NetGeometry(lo1 - lo0, hi0 - lo0 + 1, (lo0 + hi0) / 2.0)


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
    """Zero every channel of f outside the feature mask, over the whole map."""
    if (f.height, f.width) != (m.height, m.width):
        raise ValidationError(
            f"feature map {f.height}x{f.width} vs mask {m.height}x{m.width}"
        )
    return FeatureMap(f.values * m.bits)


def hinge_objective(m: LinearModel, samples, reg: float) -> float:
    """L2-regularized mean hinge loss of labeled (feature, +/-1) samples."""
    features, labels = zip(*samples)
    x = np.stack([np.asarray(f, dtype=np.float64).reshape(-1) for f in features])
    y = np.asarray(labels, dtype=np.float64)
    w = m.weights.astype(np.float64)
    hinge = np.maximum(0.0, 1.0 - y * (x @ w + m.bias)).mean()
    return float(0.5 * reg * np.dot(w, w) + hinge)


def loop_conv2d(x: np.ndarray, layer, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution by explicit broadcast steps in the documented order.

    Per tap, in row-major order: acc = w[:, 0] * x[0], then acc += w[:, c] * x[c]
    for each further channel c; the tap's acc is added to the output. Every
    step is a float32 array operation, so each product and sum is rounded.
    """
    c, h, w_in = x.shape
    p, s, k = layer.pad, layer.stride, layer.kernel
    out_h, out_w = layer.out_len(h), layer.out_len(w_in)
    xp = np.zeros((c, h + 2 * p, w_in + 2 * p), dtype=np.float32)
    xp[:, p : p + h, p : p + w_in] = x
    out = np.zeros((w.shape[0], out_h, out_w), dtype=np.float32)
    for dy in range(k):
        for dx in range(k):
            tap = xp[:, dy : dy + (out_h - 1) * s + 1 : s, dx : dx + (out_w - 1) * s + 1 : s]
            acc = w[:, 0, dy, dx, None, None] * tap[0]
            for ch in range(1, c):
                acc += w[:, ch, dy, dx, None, None] * tap[ch]
            out += acc
    return out + b[:, None, None]


def loop_mean_iou(
    preds: list[LabelMap], gts: list[LabelMap], num_categories: int
) -> tuple[np.ndarray, float]:
    """Oracle: per-category IoU counted one category at a time over whole images."""
    inter = np.zeros(num_categories, dtype=np.int64)
    union = np.zeros(num_categories, dtype=np.int64)
    for p, g in zip(preds, gts):
        for c in range(num_categories):
            pc = p.labels == c
            gc = g.labels == c
            inter[c] += np.count_nonzero(pc & gc)
            union[c] += np.count_nonzero(pc | gc)
    present = union > 0
    ious = np.full(num_categories, np.nan)
    ious[present] = inter[present] / union[present]
    return ious, float(np.mean(ious[present]))
