"""Compact segment combinations for stuff, plus training-sample labeling.

Selection repeatedly picks a large candidate (largest remaining, or drawn
with probability proportional to area), then drops every remaining candidate
whose mask IoU with the pick exceeds the inhibition threshold. Candidates
smaller than the mean area of the initial set are never picked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    BinaryMask,
    SegmentProposal,
    ValidationError,
    mask_iou,
    suppress,
)

PURSUIT_MODES = ("deterministic", "stochastic")
PURITY_NEG = 0.3  # stuff training negatives have purity strictly below this


@dataclass(frozen=True)
class PursuitConfig:
    purity_pos: float = 0.6
    inhibit_iou: float = 0.2
    # explicit minimum pick area; None derives it as the mean initial area
    min_area: float | None = None

    def __post_init__(self):
        if not 0.0 < self.purity_pos <= 1.0:
            raise ValidationError(f"purity_pos must be in (0,1]: {self.purity_pos}")
        if not 0.0 < self.inhibit_iou < 1.0:
            raise ValidationError(f"inhibit_iou must be in (0,1): {self.inhibit_iou}")


@dataclass(frozen=True, eq=False)
class Candidate:
    proposal: SegmentProposal
    area: int
    purity: float

    def __post_init__(self):
        if self.area < 1:
            raise ValidationError("candidate area must be >= 1")
        if not 0.0 <= self.purity <= 1.0:
            raise ValidationError(f"purity {self.purity} outside [0,1]")


def purity(seg: SegmentProposal, stuff: BinaryMask) -> float:
    """IoU between a segment and the stuff pixels clipped to the segment's box."""
    if seg.frame != stuff.bits.shape:
        raise ValidationError(f"segment {seg.frame} vs stuff {stuff.bits.shape}")
    b = seg.box  # the block spans exactly the box
    crop = stuff.bits[b.y0:b.y1 + 1, b.x0:b.x1 + 1]  # a view: counted in place
    inter = int(np.count_nonzero(seg.block.bits & crop))
    union = seg.area + int(np.count_nonzero(crop)) - inter
    return inter / union if union else 0.0


def candidate_set(
    proposals: list[SegmentProposal], purities: list[float], cfg: PursuitConfig
) -> list[Candidate]:
    """Proposals whose purity (purities[i]) strictly exceeds the positive threshold."""
    return [
        Candidate(p, p.area, score)
        for p, score in zip(proposals, purities, strict=True)
        if score > cfg.purity_pos
    ]


def pursue(
    cands: list[Candidate], cfg: PursuitConfig, mode: str, seed: int = 0
) -> list[Candidate]:
    """Suppression over the candidates at or above the area floor.

    Smaller candidates are never picked, so they never inhibit anything
    either. "deterministic" picks the largest remaining candidate (ties by
    id); "stochastic" draws one with probability proportional to area from
    a generator seeded with `seed`, so a seed always gives the same picks.
    """
    if mode not in PURSUIT_MODES:
        raise ValidationError(f"pursuit mode must be one of {PURSUIT_MODES}")
    if not cands:
        return []
    floor = cfg.min_area
    if floor is None:
        floor = sum(c.area for c in cands) / len(cands)
    eligible = [c for c in cands if c.area >= floor]
    pick = None  # suppress's own rule: the first remaining
    if mode == "deterministic":  # largest first, ties by id (a stable sort keeps twins' order)
        eligible.sort(key=lambda c: (-c.area, c.proposal.id))
    else:
        draw = partial(_draw, np.random.default_rng(seed))
        pick = lambda remaining: remaining[draw([eligible[i] for i in remaining])]
    kept = suppress([c.proposal for c in eligible], cfg.inhibit_iou, pick)
    return [eligible[i] for i in kept]


def _draw(rng: np.random.Generator, eligible: list[Candidate]) -> int:
    areas = np.array([c.area for c in eligible], dtype=np.float64)
    return int(rng.choice(len(eligible), p=areas / areas.sum()))


def overlap_label(iou: float) -> int | None:
    """Map a best-overlap IoU to +1 (positive), -1 (negative) or None (ignored).

    Closed intervals: [0.5, 1] is positive, [0.1, 0.3] is negative.
    """
    if 0.5 <= iou <= 1.0:
        return 1
    if 0.1 <= iou <= 0.3:
        return -1
    return None


@dataclass(frozen=True, eq=False)
class LabeledSample:
    proposal: SegmentProposal
    label: int  # +1 or -1


def label_object_samples(
    proposals: list[SegmentProposal], instances: list[SegmentProposal]
) -> list[LabeledSample]:
    """Label proposals by their best mask IoU against one category's instances.

    `instances` are that category's ground-truth instances, already made
    box-local proposals by the caller.
    """
    samples = []
    for p in proposals:
        best = max((mask_iou(p, gt) for gt in instances), default=0.0)
        label = overlap_label(best)
        if label is not None:
            samples.append(LabeledSample(p, label))
    return samples


def stuff_samples(
    proposals: list[SegmentProposal],
    stuff_gt: BinaryMask,
    cfg: PursuitConfig,
    mode: str = "deterministic",
    seed: int = 0,
) -> tuple[list[SegmentProposal], list[SegmentProposal]]:
    """Positive picks from pursuit and negatives with purity below PURITY_NEG.

    Proposals in the purity band [PURITY_NEG, purity_pos] and unselected
    candidates belong to neither set.
    """
    if cfg.purity_pos <= PURITY_NEG:
        raise ValidationError(f"purity_pos {cfg.purity_pos} must exceed {PURITY_NEG}")
    scores = [purity(p, stuff_gt) for p in proposals]
    picks = pursue(candidate_set(proposals, scores, cfg), cfg, mode, seed)
    negatives = [p for p, s in zip(proposals, scores) if s < PURITY_NEG]
    return [c.proposal for c in picks], negatives
