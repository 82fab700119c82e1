"""Compact segment combinations for stuff, plus training-sample labeling.

Selection repeatedly picks a large candidate (largest remaining, or drawn
with probability proportional to area), then drops every remaining candidate
whose mask IoU with the pick exceeds the inhibition threshold. Candidates
smaller than the mean area of the initial set are never picked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryMask,
    InstanceSegment,
    SegmentProposal,
    ValidationError,
    mask_iou,
)

PURSUIT_MODES = ("deterministic", "stochastic")


@dataclass(frozen=True)
class PursuitConfig:
    purity_pos: float = 0.6
    purity_neg: float = 0.3
    inhibit_iou: float = 0.2
    # explicit minimum pick area; None derives it as the mean initial area
    min_area: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.purity_neg < self.purity_pos <= 1.0:
            raise ValidationError(
                f"need 0 <= purity_neg < purity_pos <= 1, got "
                f"{self.purity_neg}/{self.purity_pos}"
            )
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
    if not seg.mask.same_shape(stuff):
        raise ValidationError(
            f"segment {seg.mask.bits.shape} vs stuff {stuff.bits.shape}"
        )
    clipped = np.zeros_like(stuff.bits)
    b = seg.box
    clipped[b.y0 : b.y1 + 1, b.x0 : b.x1 + 1] = stuff.bits[
        b.y0 : b.y1 + 1, b.x0 : b.x1 + 1
    ]
    return mask_iou(seg.mask, BinaryMask(clipped))


def candidate_set(
    proposals: list[SegmentProposal], stuff: BinaryMask, cfg: PursuitConfig
) -> list[Candidate]:
    """Proposals whose purity strictly exceeds the positive threshold."""
    return [
        Candidate(p, p.area, score)
        for p in proposals
        if (score := purity(p, stuff)) > cfg.purity_pos
    ]


def _area_floor(cands: list[Candidate], cfg: PursuitConfig) -> float:
    if cfg.min_area is not None:
        return cfg.min_area
    return sum(c.area for c in cands) / len(cands)


def _inhibit(remaining: list[Candidate], pick: Candidate, threshold: float):
    return [
        c
        for c in remaining
        if c is not pick and mask_iou(c.proposal.mask, pick.proposal.mask) <= threshold
    ]


def _pursue(cands: list[Candidate], cfg: PursuitConfig, pick) -> list[Candidate]:
    """The shared loop: pick from the eligible candidates, inhibit, repeat."""
    if not cands:
        return []
    floor = _area_floor(cands, cfg)
    remaining = list(cands)
    selected = []
    while True:
        eligible = [c for c in remaining if c.area >= floor]
        if not eligible:
            return selected
        chosen = pick(eligible)
        selected.append(chosen)
        remaining = _inhibit(remaining, chosen, cfg.inhibit_iou)


def _largest(eligible: list[Candidate]) -> Candidate:
    return min(eligible, key=lambda c: (-c.area, c.proposal.id))


def deterministic_pursuit(
    cands: list[Candidate], cfg: PursuitConfig
) -> list[Candidate]:
    return _pursue(cands, cfg, _largest)


def stochastic_pursuit(
    cands: list[Candidate], cfg: PursuitConfig, rng_seed: int
) -> list[Candidate]:
    """Same loop with area-proportional picks; reproducible from the seed."""
    rng = np.random.default_rng(rng_seed)

    def draw(eligible: list[Candidate]) -> Candidate:
        areas = np.array([c.area for c in eligible], dtype=np.float64)
        return eligible[int(rng.choice(len(eligible), p=areas / areas.sum()))]

    return _pursue(cands, cfg, draw)


def pursue(
    cands: list[Candidate], cfg: PursuitConfig, mode: str, seed: int = 0
) -> list[Candidate]:
    """Run the named pursuit mode; the seed only drives stochastic picks."""
    if mode == "deterministic":
        return deterministic_pursuit(cands, cfg)
    if mode == "stochastic":
        return stochastic_pursuit(cands, cfg, seed)
    raise ValidationError(f"pursuit mode must be one of {PURSUIT_MODES}")


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
    overlap: float


def label_object_samples(
    proposals: list[SegmentProposal],
    gt_segments: list[InstanceSegment],
    category: int,
) -> list[LabeledSample]:
    """Label proposals by their best mask IoU against same-category instances."""
    gt_masks = [g.mask for g in gt_segments if g.category == category]
    samples = []
    for p in proposals:
        best = max((mask_iou(p.mask, m) for m in gt_masks), default=0.0)
        label = overlap_label(best)
        if label is not None:
            samples.append(LabeledSample(p, label, best))
    return samples


def stuff_samples(
    proposals: list[SegmentProposal],
    stuff_gt: BinaryMask,
    cfg: PursuitConfig,
    mode: str = "deterministic",
    seed: int = 0,
) -> tuple[list[SegmentProposal], list[SegmentProposal]]:
    """Positive picks from pursuit and negatives with purity below the floor.

    Proposals in the purity band [purity_neg, purity_pos] and unselected
    candidates belong to neither set.
    """
    picks = pursue(candidate_set(proposals, stuff_gt, cfg), cfg, mode, seed)
    positives = [c.proposal for c in picks]
    negatives = [p for p in proposals if purity(p, stuff_gt) < cfg.purity_neg]
    return positives, negatives


def derive_seed(master_seed: int, *keys: int) -> int:
    """Stable per-image / per-epoch seed stream from one master seed."""
    seq = np.random.SeedSequence([int(master_seed), *[int(k) for k in keys]])
    return int(seq.generate_state(1)[0])
