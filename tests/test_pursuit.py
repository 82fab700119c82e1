import numpy as np
import pytest

from cfmseg.core import (
    BinaryMask,
    ValidationError,
    proposal_from_mask,
)
from cfmseg import pursuit
from cfmseg.pursuit import (
    PURSUIT_MODES,
    PursuitConfig,
    candidate_set,
    label_object_samples,
    overlap_label,
    pursue,
    purity,
    stuff_samples,
)
from conftest import full_frame_iou, random_mask, rect_mask

GRID = 40  # image side for synthetic candidates


def block(y0, y1, x0, x1, h=GRID, w=GRID):
    return rect_mask(h, w, y0, y1, x0, x1)


def candidates_of(proposals, stuff, cfg):
    """The proposals `candidate_set` keeps by their purities against the stuff mask."""
    return [proposals[i] for i in candidate_set([purity(p, stuff) for p in proposals], cfg)]


class TestPurity:
    def test_exact_match_is_one(self):
        seg = proposal_from_mask("s", block(0, 3, 0, 3))
        assert purity(seg, block(0, 3, 0, 3)) == 1.0

    def test_disjoint_stuff_is_zero(self):
        seg = proposal_from_mask("s", block(0, 3, 0, 3))
        assert purity(seg, block(10, 13, 10, 13)) == 0.0

    def test_column_clipped_by_box(self):
        # 2x2 segment at origin vs a full first column: clipped stuff has
        # 2 pixels, intersection 2, union 4
        seg = proposal_from_mask("s", rect_mask(4, 4, 0, 1, 0, 1))
        stuff = rect_mask(4, 4, 0, 3, 0, 0)
        assert purity(seg, stuff) == 0.5

    def test_matches_full_image_clipped_iou(self, rng):
        def clipped_iou(seg, stuff):
            # the full-image formula: IoU against the stuff inside the segment's box
            clipped = np.zeros_like(stuff.bits)
            b = seg.box
            clipped[b.y0 : b.y1 + 1, b.x0 : b.x1 + 1] = stuff.bits[
                b.y0 : b.y1 + 1, b.x0 : b.x1 + 1
            ]
            return full_frame_iou(seg.mask.bits, clipped)

        checked = 0
        for _ in range(400):
            h, w = (int(n) for n in rng.integers(1, 33, size=2))
            mask = random_mask(rng, h, w, density=float(rng.uniform(0.01, 0.6)))
            if not mask.bits.any():
                continue
            stuff = random_mask(rng, h, w, density=float(rng.uniform(0.0, 1.0)))
            seg = proposal_from_mask("s", mask)
            assert purity(seg, stuff) == clipped_iou(seg, stuff)
            checked += 1
        assert checked > 300

    def test_dim_mismatch_rejected(self):
        seg = proposal_from_mask("s", rect_mask(4, 4, 0, 1, 0, 1))
        with pytest.raises(ValidationError):
            purity(seg, rect_mask(5, 4, 0, 1, 0, 1))


class TestCandidateSet:
    def test_no_contact_empty(self):
        proposals = [proposal_from_mask("a", block(0, 3, 0, 3))]
        stuff = block(20, 30, 20, 30)
        assert candidates_of(proposals, stuff, PursuitConfig()) == []

    def test_perfect_proposals_retained(self):
        stuff = block(5, 14, 5, 14)
        proposals = [proposal_from_mask(f"p{i}", block(5, 14, 5, 14)) for i in range(3)]
        cands = candidates_of(proposals, stuff, PursuitConfig())
        assert cands == proposals
        assert all(purity(c, stuff) == 1.0 for c in cands)

    def test_threshold_is_strict(self):
        # purities 0.61 and 0.6 land on either side of the strict bound
        stuff = np.zeros((GRID, GRID), dtype=bool)
        stuff[0, :61] = True
        seg_61 = proposal_from_mask("hi", rect_mask(GRID, 100, 0, 0, 0, 99))
        stuff_61 = np.zeros((GRID, 100), dtype=bool)
        stuff_61[0, :61] = True
        assert purity(seg_61, BinaryMask(stuff_61)) == pytest.approx(0.61)
        stuff_60 = np.zeros((GRID, 100), dtype=bool)
        stuff_60[0, :60] = True
        seg_60 = proposal_from_mask("lo", rect_mask(GRID, 100, 0, 0, 0, 99))
        cands = candidates_of([seg_61, seg_60], BinaryMask(stuff_61), PursuitConfig())
        assert [c.id for c in cands] == ["hi", "lo"]
        cands = candidates_of([seg_60], BinaryMask(stuff_60), PursuitConfig())
        assert cands == []

    def test_ascending_positions_above_a_strict_bound(self):
        cfg = PursuitConfig(purity_pos=0.5)
        purities = [0.9, 0.5, 0.0, 1.0, 0.5000001, 0.49, 0.5]
        assert candidate_set(purities, cfg) == [0, 3, 4]
        assert candidate_set([], cfg) == []


class TestDeterministicPursuit:
    def test_single_candidate_selected(self):
        c = proposal_from_mask("a", block(0, 9, 0, 9))
        assert pursue([c], PursuitConfig(), "deterministic") == [c]

    def test_stops_below_mean_area(self):
        # areas 100, 90, 10; no overlap; mean 66.7 keeps the 10 out
        cands = [
            proposal_from_mask("a", block(0, 9, 0, 9)),       # 100
            proposal_from_mask("b", block(0, 9, 11, 19)),     # 90
            proposal_from_mask("c", block(20, 20, 0, 9)),     # 10
        ]
        picked = pursue(cands, PursuitConfig(), "deterministic")
        assert [c.id for c in picked] == ["a", "b"]

    def test_inhibition_removes_overlap(self):
        # areas 100, 90 overlapping (IoU 0.5 > 0.2), then 30 and 20 below mean 60
        a = proposal_from_mask("a", block(0, 9, 0, 9))        # 100
        b = proposal_from_mask("b", BinaryMask(
            block(0, 9, 0, 9).bits & ~block(0, 0, 0, 9).bits  # rows 1..9 = 90
        ))
        c = proposal_from_mask("c", block(20, 22, 0, 9))      # 30
        d = proposal_from_mask("d", block(30, 31, 0, 9))      # 20
        assert full_frame_iou(a.mask.bits, b.mask.bits) == pytest.approx(0.9)
        picked = pursue([a, b, c, d], PursuitConfig(), "deterministic")
        assert [x.id for x in picked] == ["a"]

    def test_tie_breaks_on_smaller_id(self):
        a = proposal_from_mask("z", block(0, 9, 0, 9))
        b = proposal_from_mask("a", block(0, 9, 20, 29))
        picked = pursue([a, b], PursuitConfig(), "deterministic")
        assert picked[0].id == "a"

    def test_empty_input(self):
        assert pursue([], PursuitConfig(), "deterministic") == []


def brute_force_pursuit(cands, cfg, seed=None):
    """Literal re-evaluation of the selection rules at every step.

    Every remaining candidate, below the area floor too, stays in the pool
    until a pick inhibits it. With a seed, each pick is an area-weighted
    draw over the eligible ones, as stochastic pursuit draws them.
    """
    if not cands:
        return []
    rng = None if seed is None else np.random.default_rng(seed)
    threshold = (
        cfg.min_area if cfg.min_area is not None
        else sum(c.area for c in cands) / len(cands)
    )
    pool = list(cands)
    chosen = []
    while True:
        big = [c for c in pool if c.area >= threshold]
        if not big:
            return chosen
        if rng is not None:
            areas = np.array([c.area for c in big], dtype=np.float64)
            best = big[int(rng.choice(len(big), p=areas / areas.sum()))]
        else:
            best = big[0]
            for c in big[1:]:
                if c.area > best.area or (
                    c.area == best.area and c.id < best.id
                ):
                    best = c
        chosen.append(best)
        pool = [
            c for c in pool
            if c is not best
            and full_frame_iou(c.mask.bits, best.mask.bits)
            <= cfg.inhibit_iou
        ]


def random_candidates(rng, n, grid=24):
    """Random proposals and, by id, the purity drawn for each above the 0.6 bound."""
    cands, purities = [], {}
    for i in range(n):
        m = random_mask(rng, grid, grid, density=float(rng.uniform(0.05, 0.5)))
        if not m.bits.any():
            continue
        cands.append(proposal_from_mask(f"c{i:02d}", m))
        purities[cands[-1].id] = float(rng.uniform(0.601, 1.0))
    return cands, purities


class TestPursuitInvariants:
    def test_matches_brute_force_on_small_sets(self, rng):
        cfg = PursuitConfig()
        for _ in range(200):
            cands, _ = random_candidates(rng, int(rng.integers(0, 7)))
            got = pursue(cands, cfg, "deterministic")
            want = brute_force_pursuit(cands, cfg)
            assert [c.id for c in got] == [c.id for c in want]

    def test_stochastic_matches_brute_force_draws(self, rng):
        for trial in range(200):
            cfg = PursuitConfig(min_area=None if trial % 2 else 0.0)
            cands, _ = random_candidates(rng, int(rng.integers(0, 9)))
            got = pursue(cands, cfg, "stochastic", trial)
            want = brute_force_pursuit(cands, cfg, seed=trial)
            assert [c.id for c in got] == [c.id for c in want]

    def test_selection_invariants_both_modes(self, rng):
        cfg = PursuitConfig()
        for trial in range(100):
            cands, purities = random_candidates(rng, int(rng.integers(1, 21)))
            if not cands:
                continue
            mean_area = sum(c.area for c in cands) / len(cands)
            for picks in (
                pursue(cands, cfg, "deterministic"),
                pursue(cands, cfg, "stochastic", trial),
            ):
                for i, a in enumerate(picks):
                    assert a.area >= mean_area
                    assert purities[a.id] > cfg.purity_pos
                    for b in picks[i + 1 :]:
                        assert (
                            full_frame_iou(a.mask.bits, b.mask.bits)
                            <= cfg.inhibit_iou
                        )

    def test_deterministic_is_reachable_stochastically(self, rng):
        cfg = PursuitConfig()
        cands, _ = random_candidates(rng, 8)
        want = [c.id for c in pursue(cands, cfg, "deterministic")]
        seen = False
        for seed in range(2000):
            got = [c.id for c in pursue(cands, cfg, "stochastic", seed)]
            if got == want:
                seen = True
                break
        assert seen


class TestStochasticPursuit:
    def test_single_candidate_always_selected(self):
        c = proposal_from_mask("only", block(0, 9, 0, 9))
        for seed in range(20):
            assert pursue([c], PursuitConfig(), "stochastic", seed) == [c]

    def test_reproducible_by_seed(self, rng):
        cands, _ = random_candidates(rng, 12)
        a = pursue(cands, PursuitConfig(), "stochastic", 123)
        b = pursue(cands, PursuitConfig(), "stochastic", 123)
        assert [c.id for c in a] == [c.id for c in b]

    def test_equal_area_pair_order_is_uniform(self):
        a = proposal_from_mask("a", block(0, 9, 0, 9))
        b = proposal_from_mask("b", block(0, 9, 20, 29))
        first_a = 0
        runs = 20000
        for seed in range(runs):
            picks = pursue([a, b], PursuitConfig(), "stochastic", seed)
            assert {c.id for c in picks} == {"a", "b"}
            if picks[0].id == "a":
                first_a += 1
        assert first_a / runs == pytest.approx(0.5, abs=0.01)

    def test_first_pick_proportional_to_area(self):
        # areas 100, 50, 50 with the floor overridden so all are eligible
        cands = [
            proposal_from_mask("big", block(0, 9, 0, 9)),
            proposal_from_mask("s1", block(20, 24, 0, 9)),
            proposal_from_mask("s2", block(30, 34, 0, 9)),
        ]
        cfg = PursuitConfig(min_area=0.0)
        hits = 0
        runs = 20000
        for seed in range(runs):
            picks = pursue(cands, cfg, "stochastic", seed)
            if picks[0].id == "big":
                hits += 1
        assert hits / runs == pytest.approx(0.5, abs=0.015)


class TestSampleLabeling:
    def test_overlap_label_ranges(self):
        cases = {
            0.09: None, 0.1: -1, 0.3: -1, 0.31: None,
            0.49: None, 0.5: 1, 1.0: 1,
        }
        for iou, want in cases.items():
            assert overlap_label(iou) == want

    def test_label_object_samples_exact_ious(self):
        # gt: one 10-pixel row instance
        gt = [proposal_from_mask("gt", block(5, 5, 0, 9))]
        exact = proposal_from_mask("pos", block(5, 5, 0, 9))          # IoU 1.0
        half = proposal_from_mask("half", block(5, 5, 0, 4))          # IoU 0.5
        fifth = proposal_from_mask("neg", block(5, 5, 0, 1))          # IoU 0.2
        graze = proposal_from_mask("skip", block(5, 5, 9, 29))        # IoU 1/30
        labels = label_object_samples([exact, half, fifth, graze], gt)
        assert labels == [1, 1, -1, None]  # one entry per proposal, in input order
        assert label_object_samples([exact], []) == [None]  # no instance: IoU 0
        assert label_object_samples([], gt) == []

    def test_label_object_samples_one_entry_per_proposal(self):
        # the best IoU over two instances; None entries keep their places
        gts = [proposal_from_mask("gl", block(5, 5, 0, 9)),
               proposal_from_mask("gr", block(5, 5, 30, 39))]
        far = proposal_from_mask("far", block(20, 20, 0, 9))   # IoU 0 with both
        right = proposal_from_mask("r", block(5, 5, 30, 31))   # IoU 0.2 with gr
        left = proposal_from_mask("l", block(5, 5, 0, 9))      # IoU 1 with gl
        assert label_object_samples([far, right, far, left], gts) == [None, -1, None, 1]


class TestStuffSamples:
    def test_zero_purity_all_negative(self):
        stuff = block(30, 39, 30, 39)
        proposals = [proposal_from_mask(f"p{i}", block(0, 4, i * 5, i * 5 + 4))
                     for i in range(4)]
        pos, neg = stuff_samples(proposals, stuff, PursuitConfig())
        assert pos == []
        assert len(neg) == 4

    def test_perfect_proposal_selected(self):
        stuff = block(10, 19, 10, 19)
        perfect = proposal_from_mask("hit", block(10, 19, 10, 19))
        misses = [proposal_from_mask(f"m{i}", block(0, 4, i * 6, i * 6 + 4))
                  for i in range(3)]
        pos, neg = stuff_samples([perfect, *misses], stuff, PursuitConfig())
        assert [p.id for p in pos] == ["hit"]
        assert sorted(p.id for p in neg) == ["m0", "m1", "m2"]

    def test_band_proposal_in_neither_set(self):
        # purity 0.45: above the negative bound, below the candidate bound
        stuff = np.zeros((GRID, GRID), dtype=bool)
        stuff[0, :45] = False
        stuff_bits = np.zeros((GRID, 100), dtype=bool)
        stuff_bits[0, :45] = True
        seg = proposal_from_mask("band", rect_mask(GRID, 100, 0, 0, 0, 99))
        assert purity(seg, BinaryMask(stuff_bits)) == pytest.approx(0.45)
        pos, neg = stuff_samples([seg], BinaryMask(stuff_bits), PursuitConfig())
        assert pos == [] and neg == []

    def test_stochastic_mode_seeded(self):
        stuff = block(0, 19, 0, 39)
        cells = [proposal_from_mask(f"c{i}", block(0, 19, i * 10, i * 10 + 9))
                 for i in range(4)]
        a, _ = stuff_samples(cells, stuff, PursuitConfig(), mode="stochastic", seed=9)
        b, _ = stuff_samples(cells, stuff, PursuitConfig(), mode="stochastic", seed=9)
        assert [p.id for p in a] == [p.id for p in b]

    @pytest.mark.parametrize("mode", PURSUIT_MODES)
    def test_purity_once_per_proposal(self, rng, monkeypatch, mode):
        bits = rng.random((GRID, GRID)) < 0.3
        bits[:20] = True
        stuff = BinaryMask(bits)
        proposals = []
        for i in range(60):
            y0, x0 = (int(v) for v in rng.integers(0, GRID - 4, size=2))
            y1, x1 = (int(v) for v in rng.integers((y0 + 3, x0 + 3), GRID, size=2))
            proposals.append(proposal_from_mask(f"p{i}", block(y0, y1, x0, x1)))
        cfg = PursuitConfig()
        cands = candidates_of(proposals, stuff, cfg)
        want_pos = [c.id for c in pursue(cands, cfg, mode, seed=3)]
        want_neg = [p.id for p in proposals if purity(p, stuff) < pursuit.PURITY_NEG]
        calls = []
        monkeypatch.setattr(pursuit, "purity", lambda *a: calls.append(1) or purity(*a))
        pos, neg = stuff_samples(proposals, stuff, cfg, mode=mode, seed=3)
        assert [p.id for p in pos] == want_pos and want_pos
        assert [p.id for p in neg] == want_neg and want_neg
        assert 0 < len(cands) < len(proposals)
        assert len(calls) == len(proposals)  # candidate_set reads the same purities

    def test_unknown_mode_rejected(self):
        stuff = block(0, 19, 0, 39)
        with pytest.raises(ValidationError, match="pursuit mode"):
            stuff_samples([proposal_from_mask("c", stuff)], stuff, PursuitConfig(),
                          mode="greedy")

    @pytest.mark.parametrize("purity_pos", [0.1, pursuit.PURITY_NEG])
    def test_purity_pos_must_exceed_negative_bound(self, purity_pos):
        # the config alone accepts it: candidate_set needs only purity_pos
        cfg = PursuitConfig(purity_pos=purity_pos)
        stuff = block(0, 19, 0, 39)
        with pytest.raises(ValidationError, match="must exceed"):
            stuff_samples([proposal_from_mask("c", stuff)], stuff, cfg)


class TestPursuitConfig:
    @pytest.mark.parametrize("purity_pos", [0.0, -0.1, 1.01, float("nan")])
    def test_purity_pos_outside_unit_interval_rejected(self, purity_pos):
        with pytest.raises(ValidationError, match="purity_pos"):
            PursuitConfig(purity_pos=purity_pos)

    @pytest.mark.parametrize("purity_pos", [1e-9, 0.25, 1.0])
    def test_purity_pos_in_unit_interval_accepted(self, purity_pos):
        assert PursuitConfig(purity_pos=purity_pos).purity_pos == purity_pos

    @pytest.mark.parametrize("min_area", [float("nan"), float("inf"), -1.0])
    def test_min_area_outside_finite_nonnegative_rejected(self, min_area):
        with pytest.raises(ValidationError, match="min_area"):
            PursuitConfig(min_area=min_area)

    def test_zero_min_area_accepted(self):
        assert PursuitConfig(min_area=0.0).min_area == 0.0
