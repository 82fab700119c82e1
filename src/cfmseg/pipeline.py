"""End-to-end inference and evaluation.

Scoring computes each scale's convolutional map once per image and reuses it
for every proposal assigned to that scale; the benchmark times exactly that
reuse against per-region crop-and-warp recomputation.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .classify import LinearModel, row_norms, score, train_svm
from .core import (
    BinaryMask,
    FeatureMap,
    InstanceSegment,
    LabelMap,
    MAX_LABEL,
    MAX_SIDE,
    NearestResize,
    PixelBox,
    SegmentProposal,
    ValidationError,
    box_array,
    mask_iou,  # not used here; kept importable as pipeline.mask_iou
    proposal_from_mask,
    suppress,
)
from .masking import scaled_boxes
from .netgeom import NetGeometry
from .pooling import DESIGNS, PyramidSpec, design_feature, feature_length, spp_pool
from .pursuit import PursuitConfig, label_object_samples, stuff_samples
from . import toynet

SCALE_TARGET_AREA = 224 * 224


@dataclass(frozen=True)
class PipelineConfig:
    scales: tuple[int, ...] = (480, 576, 688, 864, 1200)
    paste_inhibit_iou: float = 0.3
    design: str = "B"
    pyramid: PyramidSpec = field(default_factory=PyramidSpec)
    warp_side: int = 224  # crop-and-warp resolution of the benchmark baseline

    def __post_init__(self):
        scales = tuple(int(s) for s in self.scales)
        if not scales or list(scales) != sorted(scales) or scales[0] < 1:
            raise ValidationError(f"scales must be ascending positives: {self.scales}")
        if scales[-1] > MAX_SIDE:
            raise ValidationError(f"scales must be at most {MAX_SIDE}: {self.scales}")
        if not 0.0 < self.paste_inhibit_iou < 1.0:
            raise ValidationError(f"paste inhibition {self.paste_inhibit_iou}")
        if self.design not in DESIGNS:
            raise ValidationError(f"design must be one of {DESIGNS}")
        if not 1 <= self.warp_side <= MAX_SIDE:
            raise ValidationError(f"warp side must be in 1..{MAX_SIDE}, got {self.warp_side}")
        object.__setattr__(self, "scales", scales)


@dataclass(frozen=True, eq=False)
class ScoredRegion:
    proposal: SegmentProposal
    category: int
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValidationError("region score must be finite")
        if not 0 <= self.category <= MAX_LABEL:
            raise ValidationError(f"region category {self.category} outside 0..{MAX_LABEL}")


def assign_scale(areas, image_shorter_edge: int, scales):
    """Scale whose resized box area lands nearest the 224^2 reference area, for
    one box area or each of an array of them; a tie goes to the smaller scale."""
    if not scales:
        raise ValidationError("scale list must be non-empty")
    if image_shorter_edge < 1:
        raise ValidationError("image shorter edge must be >= 1")
    ordered = np.sort(np.asarray(scales, np.int64))
    f = ordered / image_shorter_edge  # area * f * f, in that order, in float64
    err = np.abs(np.multiply.outer(np.asarray(areas, np.float64), f) * f - SCALE_TARGET_AREA)
    return ordered[err.argmin(axis=-1)]  # the first of equal errors


def scale_image(image: FeatureMap, scale: int) -> FeatureMap | NearestResize:
    """Nearest-neighbor resize so the shorter edge equals the scale: the image
    itself at its own size, else the resize unbuilt, which `toynet.forward`
    reads from the image."""
    h, w = image.height, image.width
    if h <= w:
        out_h, out_w = scale, max(1, round(w * scale / h))
    else:
        out_h, out_w = max(1, round(h * scale / w)), scale
    if (out_h, out_w) == (h, w):
        return image
    return NearestResize(image.values, out_h, out_w)


def scale_proposal(proposals: list[SegmentProposal], frame, scaled) -> np.ndarray:
    """Each proposal's tight box in the nearest resize of its frame (height, width)
    to the scaled one, an (N, 4) int64 array of (y0, x0, y1, x1): the boxes of
    `masking.scaled_boxes`, thin segments that vanish given their fallback box.
    No scaled mask is built; `masking.project_mask` reads the blocks."""
    blocks, origins = [p.block.bits for p in proposals], [p.origin for p in proposals]
    return scaled_boxes(blocks, origins, frame, scaled)


class FeatureCache:
    """Per-image cache of scaled convolutional maps, computed at most once each."""

    def __init__(self, image: FeatureMap, net: toynet.ToyNet):
        self.image = image
        self.net = net
        self._maps: dict[int, tuple[FeatureMap, tuple[int, int]]] = {}

    def conv_map(self, scale: int) -> tuple[FeatureMap, tuple[int, int]]:
        if scale not in self._maps:
            scaled = scale_image(self.image, scale)
            conv = toynet.forward(self.net, scaled)
            self._maps[scale] = (conv, (scaled.height, scaled.width))
        return self._maps[scale]


def _map_ordered(fn, items, threads: int):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _chunks(items, threads: int) -> list:
    """At most `threads` contiguous, near-equal slices of a non-empty sequence."""
    n = max(1, min(threads, len(items)))
    return [items[len(items) * k // n : len(items) * (k + 1) // n] for k in range(n)]


def _check_frames(proposals, height: int, width: int) -> None:
    if wrong := [p.id for p in proposals if p.frame != (height, width)]:
        raise ValidationError(f"proposal {wrong[0]!r} frame is not {height}x{width}")


def proposal_features(
    proposals: list[SegmentProposal],
    cache: FeatureCache,
    g: NetGeometry,
    cfg: PipelineConfig,
    threads: int = 1,
) -> np.ndarray:
    """The proposals' (N, length) float32 features, one design call per scale or chunk.

    Rows, in input order, are L2-normalized, which keeps classifier margins
    comparable across categories and segment sizes.
    """
    frame = cache.image.height, cache.image.width
    _check_frames(proposals, *frame)
    y0, x0, y1, x1 = box_array(proposals).T
    scales = assign_scale((y1 - y0 + 1) * (x1 - x0 + 1), min(frame), cfg.scales)
    jobs = []
    for s in sorted(set(scales.tolist())):
        cache.conv_map(s)  # populate serially so threads only read
        jobs += [(s, chunk) for chunk in _chunks(np.flatnonzero(scales == s), threads)]

    def batch(job):
        s, members = job
        conv, scaled = cache.conv_map(s)
        chosen = [proposals[i] for i in members]
        boxes = scale_proposal(chosen, frame, scaled)
        vecs = design_feature(conv, chosen, boxes, scaled, g, cfg.pyramid, cfg.design)
        norms = row_norms(vecs)
        # in float32, by each norm rounded to float32; an all-zero row stays as it is
        np.divide(vecs, norms.astype(np.float32)[:, None], out=vecs,
                  where=(norms > 0.0)[:, None])
        return members, vecs

    done = _map_ordered(batch, jobs, threads)
    if len(done) == 1:  # one scale in one chunk: its rows are already in input order
        return done[0][1]
    length = feature_length(cache.net.spec.out_channels, cfg.pyramid, cfg.design)
    out = np.empty((len(proposals), length), np.float32)  # after the designs' peak
    for members, vecs in done:
        out[members] = vecs
    return out


def score_proposals(
    models: list[LinearModel],
    proposals: list[SegmentProposal],
    image: FeatureMap,
    net: toynet.ToyNet,
    g: NetGeometry,
    cfg: PipelineConfig,
    threads: int = 1,
) -> list[ScoredRegion]:
    """Score every proposal against every category model: one region per
    proposal and model, proposal-major, in model order."""
    expected = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
    for m in models:
        if m.weights.size != expected:
            raise ValidationError(
                f"model for category {m.category} has length {m.weights.size}, "
                f"design {cfg.design!r} produces {expected}"
            )
    cache = FeatureCache(image, net)
    features = proposal_features(proposals, cache, g, cfg, threads=threads)
    return [
        ScoredRegion(p, m.category, s)
        for p, row in zip(proposals, score(models, features).tolist())
        for m, s in zip(models, row)
    ]


def paste(
    scored: list[ScoredRegion], height: int, width: int, cfg: PipelineConfig
) -> LabelMap:
    """Greedy labeling: best score first, overlap inhibition, first write wins."""
    _check_frames((r.proposal for r in scored), height, width)
    queue = sorted(
        (r for r in scored if r.score > 0),
        key=lambda r: (-r.score, r.proposal.id, r.category),
    )
    labels = np.zeros((height, width), dtype=np.uint16)
    for i in suppress([r.proposal for r in queue], cfg.paste_inhibit_iou):
        top, b = queue[i], queue[i].proposal.box
        window = labels[b.y0:b.y1 + 1, b.x0:b.x1 + 1]  # a view: writes reach labels
        window[top.proposal.block.bits & (window == 0)] = top.category
    return LabelMap(labels)


def mean_iou(
    preds: list[LabelMap], gts: list[LabelMap], num_categories: int
) -> tuple[np.ndarray, float]:
    """Dataset-global per-category IoU and the mean over present categories."""
    if not 1 <= num_categories <= MAX_LABEL + 1:
        raise ValidationError(f"category count {num_categories} outside 1..{MAX_LABEL + 1}")
    if len(preds) != len(gts):
        raise ValidationError("prediction and ground-truth counts differ")
    inter = np.zeros(num_categories, dtype=np.int64)
    union = np.zeros(num_categories, dtype=np.int64)
    for p, g in zip(preds, gts):
        if (p.height, p.width) != (g.height, g.width):
            raise ValidationError(
                f"prediction {p.height}x{p.width} vs ground truth {g.height}x{g.width}"
            )
        p.check_categories(num_categories)
        g.check_categories(num_categories)
        hit = np.bincount(p.labels[p.labels == g.labels], minlength=num_categories)
        inter += hit
        union += np.bincount(p.labels.ravel(), minlength=num_categories)
        union += np.bincount(g.labels.ravel(), minlength=num_categories) - hit
    present = union > 0
    ious = np.full(num_categories, np.nan)
    ious[present] = inter[present] / union[present]
    return ious, float(np.mean(ious[present]))


# ---------------------------------------------------------------------------
# Training orchestration (per-category sample pools -> linear models)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrainScene:
    image: FeatureMap
    labels: LabelMap
    instances: list[InstanceSegment]
    proposals: list[SegmentProposal]


def collect_training_pools(
    scenes: list[TrainScene],
    object_categories: list[int],
    stuff_categories: list[int],
    net: toynet.ToyNet,
    g: NetGeometry,
    cfg: PipelineConfig,
    threads: int = 1,
) -> tuple[np.ndarray, dict[int, tuple[list[int], list[int]]]]:
    """All scenes' feature rows as one (N, length) float32 matrix, and per
    category the row indices of its positives and negatives.

    Object positives are the ground-truth segments themselves; object
    negatives are proposals overlapping an instance by [0.1, 0.3] IoU.
    Stuff positives come from deterministic pursuit; stuff negatives are
    proposals with purity below the negative threshold. Each scene's
    proposals and object instances share one feature pass, written into
    the scene's slice of the matrix.
    """
    categories = [*object_categories, *stuff_categories]
    if len(set(categories)) < len(categories):  # a repeat would pool its samples twice
        raise ValidationError(f"training categories must be distinct: {categories}")
    if not all(1 <= c <= MAX_LABEL for c in categories):  # 0 is background
        raise ValidationError(f"training categories must be in 1..{MAX_LABEL}: {categories}")
    scene_gts = []  # per scene, its object instances box-local once each
    for scene in scenes:  # every check before the first forward
        _check_frames(scene.proposals, scene.image.height, scene.image.width)
        scene_gts.append([  # an empty instance mask is rejected
            (inst.category, proposal_from_mask(f"gt_{inst.category}_{i}", inst.mask))
            for i, inst in enumerate(scene.instances)
            if inst.category in object_categories
        ])
    pools: dict[int, tuple[list, list]] = {c: ([], []) for c in categories}
    # each scene's proposals, then its object instances
    n_rows = sum(len(scene.proposals) + len(gts) for scene, gts in zip(scenes, scene_gts))
    length = feature_length(net.spec.out_channels, cfg.pyramid, cfg.design)
    features = np.empty((n_rows, length), np.float32)  # no scene's rows are copied twice
    start = 0
    for scene, gts in zip(scenes, scene_gts):
        props = [*scene.proposals, *(gt for _, gt in gts)]
        cache = FeatureCache(scene.image, net)
        # keyed by the proposal itself (identity), never by its id, which may repeat
        row = {p: i for i, p in enumerate(props, start=start)}
        features[start:start + len(props)] = proposal_features(
            props, cache, g, cfg, threads=threads
        )
        start += len(props)

        for c in object_categories:
            pos, neg = pools[c]
            instances = [gt for category, gt in gts if category == c]
            pos.extend(row[gt] for gt in instances)
            samples = label_object_samples(scene.proposals, instances)
            neg.extend(row[s.proposal] for s in samples if s.label < 0)

        for c in stuff_categories:
            pos, neg = pools[c]
            stuff_gt = BinaryMask(scene.labels.labels == c)
            if not stuff_gt.bits.any():
                continue
            picked, rejected = stuff_samples(scene.proposals, stuff_gt, PursuitConfig())
            pos.extend(row[p] for p in picked)
            neg.extend(row[p] for p in rejected)
    return features, pools


def train_category_models(
    scenes: list[TrainScene],
    object_categories: list[int],
    stuff_categories: list[int],
    net: toynet.ToyNet,
    g: NetGeometry,
    cfg: PipelineConfig,
    reg: float = 1e-4,
    epochs: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> list[LinearModel]:
    features, pools = collect_training_pools(
        scenes, object_categories, stuff_categories, net, g, cfg, threads=threads
    )
    return [
        train_svm(*pools[c], features, reg=reg, epochs=epochs, seed=seed + c, category=c)
        for c in sorted(pools)
    ]


def predict_scene(
    models: list[LinearModel],
    scene_image: FeatureMap,
    proposals: list[SegmentProposal],
    net: toynet.ToyNet,
    g: NetGeometry,
    cfg: PipelineConfig,
    threads: int = 1,
) -> LabelMap:
    scored = score_proposals(
        models, proposals, scene_image, net, g, cfg, threads=threads
    )
    return paste(scored, scene_image.height, scene_image.width, cfg)


# ---------------------------------------------------------------------------
# Conv-once vs per-region benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkReport:
    proposals: int
    conv_once_ms: float
    masking_ms: float
    per_region_ms: float
    ratio: float
    threads: int


def benchmark(
    image: FeatureMap,
    proposals: list[SegmentProposal],
    net: toynet.ToyNet,
    g: NetGeometry,
    cfg: PipelineConfig,
    threads: int = 1,
) -> BenchmarkReport:
    """Wall-clock comparison of shared-map masking vs per-region recomputation.

    Proposal generation and I/O stay outside the timed sections; the shared
    path's outputs are recomputed once and checked for exact repeatability.
    """
    if not proposals:
        raise ValidationError("benchmark needs at least one proposal")
    frame = image.height, image.width
    _check_frames(proposals, *frame)

    t0 = time.perf_counter()
    conv = toynet.forward(net, image)
    conv_once_ms = (time.perf_counter() - t0) * 1000.0

    def mask_chunk(chunk: list[SegmentProposal]) -> np.ndarray:
        boxes = scale_proposal(chunk, frame, frame)
        return design_feature(conv, chunk, boxes, frame, g, cfg.pyramid, cfg.design)

    t0 = time.perf_counter()
    shared = _map_ordered(mask_chunk, _chunks(proposals, threads), threads)
    masking_ms = (time.perf_counter() - t0) * 1000.0

    repeat = _map_ordered(mask_chunk, _chunks(proposals, threads), threads)
    for a, b in zip(shared, repeat):
        if not np.array_equal(a, b):
            raise RuntimeError("shared-map features changed across repeats")

    def region_one(p: SegmentProposal) -> np.ndarray:
        fm = toynet.forward_region(net, image, p.box, cfg.warp_side)
        window = PixelBox(0, 0, fm.width - 1, fm.height - 1)
        return spp_pool(fm, window, cfg.pyramid).values

    t0 = time.perf_counter()
    _map_ordered(region_one, proposals, threads)
    per_region_ms = (time.perf_counter() - t0) * 1000.0

    ratio = per_region_ms / (conv_once_ms + masking_ms)
    return BenchmarkReport(
        len(proposals), conv_once_ms, masking_ms, per_region_ms, ratio, threads
    )
