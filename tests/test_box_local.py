"""Box-local proposals against their whole-frame oracles.

Every `SegmentProposal` holds its mask only inside its tight box. The
whole-frame formulas it replaced live here (and in conftest) as oracles:
IoU over two padded frames, and the greedy paste over padded masks.
"""

import numpy as np
import pytest

from cfmseg import synth
from cfmseg.core import (
    BinaryMask,
    InstanceSegment,
    SegmentProposal,
    ValidationError,
    mask_iou,
    nearest_indices,
    proposal_from_mask,
    resize_nearest,
)
from cfmseg.masking import _axis, _cell, _table
from cfmseg.netgeom import LayerSpec, compose_geometry
from cfmseg.pipeline import PipelineConfig, ScoredRegion, paste
from conftest import full_frame_iou, full_frame_paste, project_one
from oracles import brute_force_project

PAIR_CASES = ("random", "disjoint", "adjacent", "one_line", "nested", "identical", "pixel")


def random_box(rng, h, w):
    """Inclusive (y0, y1, x0, x1) inside an h x w canvas."""
    y0, y1 = sorted(int(v) for v in rng.integers(0, h, size=2))
    x0, x1 = sorted(int(v) for v in rng.integers(0, w, size=2))
    return y0, y1, x0, x1


def bits_in_box(rng, frame, box):
    """Random bits whose tight box is exactly `box`: one pixel set on each edge."""
    y0, y1, x0, x1 = box
    bits = np.zeros(frame, dtype=bool)
    bits[y0:y1 + 1, x0:x1 + 1] = rng.random((y1 - y0 + 1, x1 - x0 + 1)) < rng.random()
    bits[y0, rng.integers(x0, x1 + 1)] = bits[y1, rng.integers(x0, x1 + 1)] = True
    bits[rng.integers(y0, y1 + 1), x0] = bits[rng.integers(y0, y1 + 1), x1] = True
    return bits


def pair_boxes(rng, case):
    """Two boxes in one canvas laid out as `case`; the second lies right of
    the first for the side-by-side cases (callers transpose for below)."""
    a = random_box(rng, *(int(v) for v in rng.integers(1, 10, size=2)))
    ay0, ay1, ax0, ax1 = a
    if case == "random":
        return a, random_box(rng, ay1 + 1, ax1 + 1)
    if case == "nested":
        by0, by1 = sorted(int(v) for v in rng.integers(ay0, ay1 + 1, size=2))
        bx0, bx1 = sorted(int(v) for v in rng.integers(ax0, ax1 + 1, size=2))
        return a, (by0, by1, bx0, bx1)
    if case == "identical":
        return a, a
    if case == "pixel":
        y, x = int(rng.integers(0, ay1 + 2)), int(rng.integers(0, ax1 + 2))
        return (y, y, x, x), (a if rng.random() < 0.5 else (ay0, ay0, ax1, ax1))
    # side by side: b starts after a gap, right after a, or on a's last column
    start = ax1 + {"disjoint": int(rng.integers(2, 5)), "adjacent": 1, "one_line": 0}[case]
    by0 = int(rng.integers(0, ay1 + 1))
    return a, (by0, by0 + int(rng.integers(0, 6)), start, start + int(rng.integers(0, 6)))


def place_pair(rng, case):
    a, b = pair_boxes(rng, case)
    margin = [int(v) for v in rng.integers(0, 4, size=4)]
    shift = lambda box: (box[0] + margin[0], box[1] + margin[0],
                         box[2] + margin[1], box[3] + margin[1])
    a, b = shift(a), shift(b)
    frame = (max(a[1], b[1]) + 1 + margin[2], max(a[3], b[3]) + 1 + margin[3])
    bits_a = bits_in_box(rng, frame, a)
    bits_b = bits_a.copy() if case == "identical" else bits_in_box(rng, frame, b)
    if rng.random() < 0.5:  # the same layouts stacked vertically
        bits_a, bits_b = bits_a.T.copy(), bits_b.T.copy()
    return bits_a, bits_b


class TestMaskIouOracle:
    def test_box_local_matches_full_frame(self, rng):
        seen = dict.fromkeys(PAIR_CASES, 0)
        disjoint = 0
        for i in range(2800):
            case = PAIR_CASES[i % len(PAIR_CASES)]
            bits_a, bits_b = place_pair(rng, case)
            pa = proposal_from_mask("a", BinaryMask(bits_a))
            pb = proposal_from_mask("b", BinaryMask(bits_b))
            assert pa.block.bits.shape == (pa.box.height, pa.box.width)
            want = full_frame_iou(bits_a, bits_b)
            assert mask_iou(pa, pb) == want, (i, case)
            assert mask_iou(pb, pa) == want
            seen[case] += 1
            a, b = pa.box, pb.box
            disjoint += a.x1 < b.x0 or b.x1 < a.x0 or a.y1 < b.y0 or b.y1 < a.y0
        assert min(seen.values()) >= 400, seen
        assert disjoint >= 700

    def test_identical_and_pixel_values(self, rng):
        bits = bits_in_box(rng, (9, 7), (2, 6, 1, 4))
        p = proposal_from_mask("p", BinaryMask(bits))
        assert mask_iou(p, p) == 1.0
        assert mask_iou(p, proposal_from_mask("q", BinaryMask(bits.copy()))) == 1.0
        dot = np.zeros((9, 7), dtype=bool)
        dot[2, bits[2].argmax()] = True
        assert mask_iou(p, proposal_from_mask("d", BinaryMask(dot))) == 1 / p.area

    def test_frame_mismatch_raises(self):
        block = BinaryMask(np.ones((2, 2), dtype=bool))
        a = proposal_from_mask("a", block)
        for frame in [(5, 5), (2, 3), (3, 2)]:
            b = SegmentProposal("b", block, frame=frame)
            with pytest.raises(ValidationError, match="mismatch"):
                mask_iou(a, b)


class TestPasteOracle:
    def test_box_local_paste_matches_full_frame(self, rng):
        painted = 0
        for trial in range(200):
            h, w = (int(v) for v in rng.integers(4, 33, size=2))
            scored = []
            for i in rng.permutation(int(rng.integers(0, 25))):
                bits = bits_in_box(rng, (h, w), random_box(rng, h, w))
                scored.append(ScoredRegion(
                    proposal_from_mask(f"r{i:02d}", BinaryMask(bits)),
                    int(rng.integers(1, 5)),
                    round(float(rng.uniform(-0.5, 1.0)), 1),  # ties on score
                ))
            inhibit = float(rng.uniform(0.05, 0.95))
            cfg = PipelineConfig(scales=(32,), paste_inhibit_iou=inhibit)
            got = paste(scored, h, w, cfg).labels
            assert np.array_equal(got, full_frame_paste(scored, h, w, inhibit)), trial
            painted += bool(got.any())
        assert painted >= 150


class TestProposalMemory:
    def test_toy_proposals_hold_only_their_boxes(self, monkeypatch):
        built = []

        def recording(pid, mask, **placement):
            built.append((mask, SegmentProposal(pid, mask, **placement)))
            return built[-1][1]

        monkeypatch.setattr(synth, "SegmentProposal", recording)
        small = synth.generate_scene(synth.random_scene_spec(synth.CorpusConfig(), 1))
        instances = [  # the same scene stretched 4x, to 256 x 256
            InstanceSegment(i.category, BinaryMask(resize_nearest(i.mask.bits, 256, 256)))
            for i in small.instances
        ]
        props = synth.toy_proposals(256, 256, instances, grid_sizes=(8, 16, 32))
        assert len(built) == len(props) > 2000
        for mask, p in built:
            assert p.block.bits.shape == (p.box.height, p.box.width)
            assert p.block.bits.flags.owndata  # never a view of a larger array
            # a block handed in tight is kept as is; a cropped one is a copy
            assert p.block is mask or not np.shares_memory(p.block.bits, mask.bits)
        block_bytes = sum(p.block.bits.nbytes for p in props)
        frame_bytes = sum(p.frame[0] * p.frame[1] for p in props)  # one byte per bool
        assert block_bytes < 0.02 * frame_bytes


class TestAxisTables:
    """Each entry of an axis's table counts the scaled pixels that read a source
    pixel and vote for a cell, for stacks of source runs against cell runs."""

    RESIZES = (("same", "same"), ("up", "up"), ("down", "down"), ("up", "down"))

    def test_tables_match_resize_and_brute_force(self, rng):
        for trial in range(300):
            layers = [
                LayerSpec(
                    "conv" if rng.random() < 0.5 else "pool",
                    int(rng.integers(1, 5)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(0, 3)),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            g = compose_geometry(layers)
            frame = tuple(int(v) for v in rng.integers(2, 40, size=2))
            fh, fw = (int(v) for v in rng.integers(1, 15, size=2))
            kinds = self.RESIZES[trial % 4]
            if rng.random() < 0.5:  # a mixed resize either way round
                kinds = kinds[::-1]
            for n, cells, kind in zip(frame, (fh, fw), kinds):
                dst = {"same": n, "up": int(rng.integers(n + 1, 3 * n + 1)),
                       "down": int(rng.integers(1, n))}[kind]
                want = np.zeros((cells, n))
                votes = np.clip(_cell(g, np.arange(dst)), 0, cells - 1)
                np.add.at(want, (votes, nearest_indices(n, dst)), 1)
                # a stack of three: runs of k source pixels against runs of m cells
                k, m = int(rng.integers(1, n + 1)), int(rng.integers(1, cells + 1))
                at = rng.integers(0, n - k + 1, size=3)
                corner = rng.integers(0, cells - m + 1, size=3)
                got = _table(_axis(g, n, dst, cells), at, k, corner, m)
                for table, a, c in zip(got, at, corner):
                    assert np.array_equal(table, want[c : c + m, a : a + k])
            # a box-local block reads the tables shifted by its origin
            bits = bits_in_box(rng, frame, random_box(rng, *frame))
            p = proposal_from_mask("p", BinaryMask(bits))
            got = project_one(g, p.block, fh, fw, p.origin, p.frame)
            want = brute_force_project(g, BinaryMask(bits), fh, fw)
            assert np.array_equal(got.bits, want.bits)
