"""Reference implementations that the tests compare cfmseg against.

Each one computes its result the slow, literal way: the geometry by tracing
the input interval layer by layer, the projection by scanning every pixel
against every cell, the masking over the whole map, the training
objective from its definition, the scores by one einsum per row and model,
the convolution by explicit broadcast steps in its documented order, the
forward pass on full maps with a per-cell max-pool, and the IoU by one pass
per category. Four
keep an earlier form of a package kernel: the projection that finds each
block's runs (`axis_runs`) by binary search (`reduceat_project_mask`), the
resize that builds each scaled block before projecting it
(`scaled_proposal`, `per_block_project_mask`), pooling one window at a time
(`per_window_pool`) and training one step at a time with a BLAS `np.dot`
(`stepwise_train_svm`). None of them is used by the package.
"""

import numpy as np

from cfmseg.classify import LinearModel
from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    LabelMap,
    PixelBox,
    SegmentProposal,
    ValidationError,
    nearest_indices,
    resize_nearest,
)
from cfmseg.masking import _cell
from cfmseg.netgeom import LayerSpec, NetGeometry
from cfmseg.pooling import PyramidSpec, spp_pool


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


def axis_runs(g: NetGeometry, n_pixels: int, n_cells: int):
    """(starts, ends) of each cell's run of nearest-center pixels along one axis.
    A pixel's cell rises by at most one per pixel, so only runs at the ends can
    be empty."""
    u = np.clip(_cell(g, np.arange(n_pixels, dtype=np.int64)), 0, n_cells - 1)
    cells = np.arange(n_cells)
    return np.searchsorted(u, cells, "left"), np.searchsorted(u, cells, "right")


def reduceat_project_mask(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int, origin=(0, 0), frame=None
) -> BinaryMask:
    """Oracle: the block's runs found by four binary searches, then the block
    summed run by run, with the first run's start clamped to the block."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    bits = image_mask.bits
    counts, sizes, cells = bits, 1, []
    for axis, n in enumerate((fh, fw)):
        o, length = origin[axis], bits.shape[axis]
        starts, ends = axis_runs(g, (frame or bits.shape)[axis], n)
        k0, k1 = np.searchsorted(ends, o, "right"), np.searchsorted(starts, o + length)
        counts = np.add.reduceat(counts, np.maximum(starts[k0:k1] - o, 0), axis, np.int32)
        sizes = np.multiply.outer(sizes, ends[k0:k1] - starts[k0:k1])
        cells.append(slice(k0, k1))
    out = np.zeros((fh, fw), dtype=bool)
    out[tuple(cells)] = (2 * counts >= sizes) & (sizes > 0)
    return BinaryMask(out)


def scaled_block(bits: np.ndarray, origin, frame, scaled):
    """The block's nearest resize from the frame to the scaled one, built: the
    rows and columns that sample the block, gathered, and their origin. A set
    block whose resize is unset falls back to its box's corners scaled by
    floor(c * scaled / frame), all set. None for an unset block that vanishes."""
    ys, xs = nearest_indices(frame[0], scaled[0]), nearest_indices(frame[1], scaled[1])
    (y, x), (h, w) = origin, bits.shape
    y0, y1 = np.searchsorted(ys, [y, y + h]).tolist()  # rows sampling the block
    x0, x1 = np.searchsorted(xs, [x, x + w]).tolist()
    out = bits[:, xs[x0:x1] - x][ys[y0:y1] - y]
    if out.any() or not bits.any():
        return (out, (y0, x0)) if out.size else None
    # a thin segment can vanish under heavy downscale; fall back to its box
    y0, x0 = min(y * scaled[0] // frame[0], scaled[0] - 1), min(x * scaled[1] // frame[1],
                                                                   scaled[1] - 1)
    y1 = min((y + h - 1) * scaled[0] // frame[0], scaled[0] - 1) + 1
    x1 = min((x + w - 1) * scaled[1] // frame[1], scaled[1] - 1) + 1
    return np.ones((y1 - y0, x1 - x0), dtype=bool), (y0, x0)


def scaled_proposal(p: SegmentProposal, scaled) -> SegmentProposal:
    """The proposal resized to the scaled frame as a proposal of that frame, as
    `pipeline.scale_proposal` built it before it returned boxes."""
    bits, origin = scaled_block(p.block.bits, p.origin, p.frame, scaled)
    return SegmentProposal(p.id, BinaryMask(bits), origin=origin, frame=tuple(scaled))


def built_scaled_mask(p: SegmentProposal, scaled) -> np.ndarray:
    """The proposal's whole-frame mask resized nearest to the scaled frame or, when
    that comes out unset, its box's corners scaled by floor(c * scaled / frame),
    all set: the mask every box-local path must project the same as."""
    bits = resize_nearest(p.mask.bits, *scaled)
    if not bits.any():
        (h, w), (sh, sw), b = p.frame, scaled, p.box
        bits[min(b.y0 * sh // h, sh - 1) : min(b.y1 * sh // h, sh - 1) + 1,
             min(b.x0 * sw // w, sw - 1) : min(b.x1 * sw // w, sw - 1) + 1] = True
    return bits


def per_block_project_mask(g: NetGeometry, blocks, origins, frame, scaled, fh: int,
                           fw: int, windows, boxes=None) -> list[np.ndarray]:
    """Oracle in `project_mask`'s batch form: each block's resize built
    (`scaled_block`), then `reduceat_project_mask` of it in the scaled frame,
    one block at a time, each whole-grid vote cropped to its (y0, x0, y1, x1)
    window. The scaled boxes are not read: a block that vanishes falls back to
    a box built from its own."""
    crops = []
    for bits, origin, (y0, x0, y1, x1) in zip(blocks, origins, windows):
        grid = np.zeros((fh, fw), dtype=bool)
        if (built := scaled_block(bits, origin, frame, scaled)) is not None:
            block, at = built
            grid = reduceat_project_mask(g, BinaryMask(block), fh, fw, at, tuple(scaled)).bits
        crops.append(grid[y0 : y1 + 1, x0 : x1 + 1])
    return crops


def per_window_pool(f: FeatureMap, windows, pyr: PyramidSpec, out=None) -> np.ndarray:
    """Oracle: one `spp_pool` call per (y0, x0, y1, x1) window, stacked (N, length),
    copied into `out` when it is given."""
    rows = [spp_pool(f, PixelBox(x0, y0, x1, y1), pyr).values for y0, x0, y1, x1 in windows]
    pooled = np.array(rows, np.float32).reshape(len(rows), pyr.output_length(f.channels))
    if out is None:
        return pooled
    out[...] = pooled
    return out


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


def einsum_scores(models: list[LinearModel], features) -> list[float]:
    """Oracle: each (row, model) margin from its own one-dimensional float64
    einsum plus the bias, row-major, in model order."""
    rows = [np.asarray(f, dtype=np.float64) for f in features]
    weights = [m.weights.astype(np.float64) for m in models]
    return [float(np.einsum("j,j->", w, x) + m.bias)
            for x in rows for w, m in zip(weights, models)]


def stepwise_train_svm(positives, negatives, features, *, reg: float, epochs: int,
                       seed: int = 0, category: int = 0):
    """The SVM trained one step at a time, as `classify.train_svm` did before it
    took Pegasos's closed form: every step damps w by 1 - 1/t, and a step whose
    sample has y * (w . x) < 1 (an `np.dot`) also adds y * x / (reg * t). Rows
    are visited in the same seeded order. Returns the model and the steps t
    (1-based, over all epochs) that violated."""
    feats = np.asarray(features)
    rows = np.concatenate([np.asarray(positives), np.asarray(negatives)])
    n, dim = len(rows), feats.shape[1]
    y = np.where(np.arange(n) < len(positives), 1.0, -1.0)
    x = np.ones(dim + 1)  # the bias as the always-1 last column
    w = np.zeros(dim + 1)
    rng = np.random.default_rng(seed)
    steps, t = [], 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            x[:dim] = feats[rows[i]]
            violates = y[i] * np.dot(w, x) < 1.0
            w *= 1.0 - eta * reg
            if violates:
                w += x * (eta * y[i])
                steps.append(t)
    return LinearModel(w[:dim].astype(np.float32), w[dim], category), steps


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


def loop_maxpool(x: np.ndarray, layer) -> np.ndarray:
    """Max-pool by an explicit loop over output cells: np.maximum of the cell's
    in-bounds taps, in row-major order, starting from -inf."""
    c, h, w_in = x.shape
    p, s, k = layer.pad, layer.stride, layer.kernel
    out = np.empty((c, layer.out_len(h), layer.out_len(w_in)), dtype=np.float32)
    for i in range(out.shape[1]):
        for j in range(out.shape[2]):
            cell = np.full(c, -np.inf, dtype=np.float32)
            for y in range(i * s - p, i * s - p + k):
                for x_ in range(j * s - p, j * s - p + k):
                    if 0 <= y < h and 0 <= x_ < w_in:
                        cell = np.maximum(cell, x[:, y, x_])
            out[:, i, j] = cell
    return out


def loop_forward(net, values: np.ndarray) -> np.ndarray:
    """The forward pass on full maps, layer by layer: `loop_conv2d` then a
    rectifier for each conv layer, `loop_maxpool` for each pool layer."""
    x = np.asarray(values, dtype=np.float32)
    for layer, params in zip(net.spec.layers, net.weights):
        if layer.kind == "conv":
            x = np.maximum(loop_conv2d(x, layer, *params), np.float32(0.0))
        else:
            x = loop_maxpool(x, layer)
    return x


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
