"""Batched feature designs against the per-proposal path they replaced.

The oracle section keeps the earlier per-proposal designs A, B and `none`, the
single-window mask grid and the summed-area `project_mask` and `vote` as they
were written, verbatim; the tests check that the batched designs,
`proposal_features` and the block-sum projection give the same bytes.
"""

import json
import tracemalloc

import numpy as np
import pytest

from cfmseg import cli, formats, pipeline, pooling, synth, toynet
from cfmseg.classify import LinearModel, score
from cfmseg.core import (
    BinaryMask,
    FeatureMap,
    PixelBox,
    SegmentProposal,
    ValidationError,
    proposal_from_mask,
    resize_nearest,
)
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry
from cfmseg.pipeline import FeatureCache, PipelineConfig, assign_scale
from cfmseg.pooling import DESIGNS, PyramidSpec, _pyramid_plan, spp_pool
from cfmseg.toynet import default_spec, init_toynet, spec_to_json
from conftest import extent_one, own_scale, project_one, random_map, rect_mask
from oracles import (
    apply_mask,
    axis_runs,
    einsum_scores,
    per_block_project_mask,
    per_window_pool,
    scaled_proposal,
)

# ---------------------------------------------------------------------------
# Oracle: the per-proposal path, verbatim
# ---------------------------------------------------------------------------


def vote(bits: np.ndarray, rows, cols) -> np.ndarray:
    """Set each rectangle rows[j] x cols[i] in which at least half the bits are set.

    rows and cols are (starts, ends) of [start, end) ranges; an empty rectangle
    stays unset. Exact counts: an integer summed-area table over the set extent.
    """
    sizes = np.outer(rows[1] - rows[0], cols[1] - cols[0])
    set_rows = np.flatnonzero(bits.any(axis=1))
    set_cols = np.flatnonzero(bits.any(axis=0))
    if set_rows.size == 0:
        return np.zeros(sizes.shape, dtype=bool)
    y0, y1, x0, x1 = set_rows[0], set_rows[-1] + 1, set_cols[0], set_cols[-1] + 1
    table = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=np.int64)
    table[1:, 1:] = bits[y0:y1, x0:x1]
    np.cumsum(table, axis=0, out=table)  # in place: a fresh cumsum output is slower
    np.cumsum(table, axis=1, out=table)
    ys, ye = (np.clip(r, y0, y1) - y0 for r in rows)
    xs, xe = (np.clip(c, x0, x1) - x0 for c in cols)
    strips = table[ye] - table[ys]  # column prefix sums of each row range
    counts = strips[:, xe] - strips[:, xs]
    return (2 * counts >= sizes) & (sizes > 0)


def project_mask(
    g: NetGeometry, image_mask: BinaryMask, fh: int, fw: int, origin=(0, 0), frame=None
) -> BinaryMask:
    """Pool the binary image mask, the block at `origin` (row, col) of a `frame`
    (height, width; default: its own shape) unset elsewhere, into fh x fw cells."""
    if fh < 1 or fw < 1:
        raise ValidationError(f"feature dims must be >= 1, got {fh}x{fw}")
    frame_h, frame_w = frame or (image_mask.height, image_mask.width)
    rows = [t - origin[0] for t in axis_runs(g, frame_h, fh)]  # tables cached per scale
    cols = [t - origin[1] for t in axis_runs(g, frame_w, fw)]
    return BinaryMask(vote(image_mask.bits, rows, cols))  # vote crops to set pixels


def downsample_mask_to_grid(m: BinaryMask, window: PixelBox, n: int) -> np.ndarray:
    """At-least-half vote of the feature mask over each of the n x n window bins."""
    if window.x1 >= m.width or window.y1 >= m.height:
        raise ValidationError(f"window {window} exceeds mask {m.height}x{m.width}")
    region = m.bits[window.y0 : window.y1 + 1, window.x0 : window.x1 + 1]
    (rows, _), (cols, _), _ = _pyramid_plan(window.height, window.width, (n,))
    return vote(region, rows, cols)


def design_a_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> np.ndarray:
    """Two pooling pathways over one window: plain box, then masked segment."""
    window = extent_one(g, p.box, conv.height, conv.width)
    box_feature = spp_pool(conv, window, pyr)
    fmask = project_mask(g, p.block, conv.height, conv.width, p.origin, p.frame)
    segment_feature = spp_pool(apply_mask(conv, fmask), window, pyr)
    return np.concatenate([box_feature.values, segment_feature.values])


def design_b_features(
    conv: FeatureMap, p: SegmentProposal, g: NetGeometry, pyr: PyramidSpec
) -> np.ndarray:
    """Single pathway: pool unmasked, then blank masked-out bins of the finest level."""
    window = extent_one(g, p.box, conv.height, conv.width)
    values = spp_pool(conv, window, pyr).values  # fresh, so zeroed in place below
    fmask = project_mask(g, p.block, conv.height, conv.width, p.origin, p.frame)
    finest = pyr.levels[0]
    grid = downsample_mask_to_grid(fmask, window, finest)
    head = values[: finest * finest * conv.channels].reshape(-1, conv.channels)
    head[~grid.reshape(-1)] = 0.0
    return values


def design_feature(
    conv: FeatureMap,
    p: SegmentProposal,
    g: NetGeometry,
    pyr: PyramidSpec,
    design: str,
) -> np.ndarray:
    """One proposal's feature vector under the named design."""
    # no lookup table: a wrapper swapped onto a module attribute must see each call
    if design == "A":
        return design_a_features(conv, p, g, pyr)
    if design == "B":
        return design_b_features(conv, p, g, pyr)
    if design == "none":
        window = extent_one(g, p.box, conv.height, conv.width)
        return spp_pool(conv, window, pyr).values
    raise ValidationError(f"design must be one of {DESIGNS}")


def oracle_proposal_features(proposals, cache, g, cfg):
    """The per-proposal body of proposal_features, one proposal at a time."""
    image = cache.image
    shorter = min(image.height, image.width)
    out = []
    for p in proposals:
        conv, (sh, sw) = cache.conv_map(assign_scale(p.box.area, shorter, cfg.scales))
        vec = design_feature(conv, scaled_proposal(p, (sh, sw)), g, cfg.pyramid, cfg.design)
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if norm > 0.0:
            vec = (vec / norm).astype(np.float32)
        out.append(vec)
    return out


# ---------------------------------------------------------------------------
# Random inputs
# ---------------------------------------------------------------------------


def random_geometry(rng) -> NetGeometry:
    layers = [
        LayerSpec("conv", int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                  int(rng.integers(0, 3)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    return compose_geometry(layers)


def random_block(rng, kind: str, h: int, w: int) -> np.ndarray:
    """A non-empty whole-frame mask of the named kind."""
    bits = np.zeros((h, w), dtype=bool)
    if kind == "pixel":
        bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
    elif kind == "line":  # one pixel thin, so a downscale can drop it
        if rng.random() < 0.5:
            bits[int(rng.integers(0, h)), int(rng.integers(0, w)):] = True
        else:
            bits[int(rng.integers(0, h)):, int(rng.integers(0, w))] = True
    elif kind == "border":  # touches two sides of the frame
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        bits[(slice(y, None) if rng.random() < 0.5 else slice(0, y + 1)),
             (slice(x, None) if rng.random() < 0.5 else slice(0, x + 1))] = True
    else:  # a noisy rectangle
        y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
        y1, x1 = int(rng.integers(y0, h)), int(rng.integers(x0, w))
        bits[y0:y1 + 1, x0:x1 + 1] = rng.random((y1 - y0 + 1, x1 - x0 + 1)) < rng.random()
        bits[y0, x0] = True
    return bits


KINDS = ("pixel", "line", "border", "blob")


def random_proposals(rng, n, h, w):
    return [
        proposal_from_mask(f"p{i}", BinaryMask(random_block(rng, KINDS[i % 4], h, w)))
        for i in range(n)
    ]


def rectified_map(rng, c, h, w) -> FeatureMap:
    values = np.maximum(rng.standard_normal((c, h, w)).astype(np.float32), 0.0)
    return FeatureMap(values)


def as_bytes(rows) -> list[bytes]:
    return [np.asarray(r, dtype=np.float32).tobytes() for r in rows]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestProjectionOracle:
    def test_block_sums_match_summed_area_table(self, rng):
        empty_runs = 0
        for _ in range(4000):
            g = random_geometry(rng)
            frame = tuple(int(v) for v in rng.integers(1, 60, size=2))
            fh, fw = (int(v) for v in rng.integers(1, 40, size=2))
            y0, x0 = (int(rng.integers(0, n)) for n in frame)
            h, w = int(rng.integers(1, frame[0] - y0 + 1)), int(rng.integers(1, frame[1] - x0 + 1))
            block = BinaryMask(rng.random((h, w)) < rng.random())
            got = project_one(g, block, fh, fw, (y0, x0), frame)
            want = project_mask(g, block, fh, fw, (y0, x0), frame)
            assert np.array_equal(got.bits, want.bits)
            runs = axis_runs(g, frame[0], fh) + axis_runs(g, frame[1], fw)
            empty_runs += bool((runs[0] == runs[1]).any() or (runs[2] == runs[3]).any())
        assert empty_runs > 1000  # cells that collect no pixel are well covered

    def test_whole_mask_default_frame(self, rng):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1), LayerSpec("conv", 3, 2, 1)])
        for _ in range(200):
            h, w = (int(v) for v in rng.integers(1, 40, size=2))
            m = BinaryMask(rng.random((h, w)) < rng.random())
            fh, fw = (int(v) for v in rng.integers(1, 16, size=2))
            assert np.array_equal(project_one(g, m, fh, fw).bits,
                                  project_mask(g, m, fh, fw).bits)


class TestGridVote:
    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_every_crop_shape_matches_summed_area_table(self, rng, n):
        """Every crop shape from 1 x 1 to 3n x 3n, those shorter than the grid
        with overlapping bins, each a stack of crops from empty to full."""
        for h in range(1, 3 * n + 1):
            for w in range(1, 3 * n + 1):
                crops = [rng.random((h, w)) < d for d in (0.0, 0.3, 0.5, 0.7, 1.0)]
                got = pooling.downsample_mask_to_grid(crops, n)
                window = PixelBox(0, 0, w - 1, h - 1)
                want = [downsample_mask_to_grid(BinaryMask(c), window, n) for c in crops]
                assert np.array_equal(got, want), (h, w)


# signed maps: design A's masked-out cells hold -0.0 products, and zeros outrank
# the negative cells a mask keeps
MAPS = {"": rectified_map, "-signed": random_map}


class TestDesignOracle:
    @pytest.mark.parametrize("design, make_map", [
        pytest.param(d, make, id=d + kind) for kind, make in MAPS.items() for d in DESIGNS
    ])
    def test_batch_matches_per_proposal_path(self, rng, design, make_map):
        narrow = empty = 0
        for _ in range(60):
            g = random_geometry(rng)
            frame = tuple(int(v) for v in rng.integers(1, 48, size=2))
            # cell counts independent of the frame, so some cells collect no pixel
            fh, fw = (int(v) for v in rng.integers(1, 24, size=2))
            conv = make_map(rng, int(rng.integers(1, 5)), fh, fw)
            levels = tuple(sorted(rng.choice(np.arange(1, 8), int(rng.integers(1, 4)),
                                             replace=False).tolist(), reverse=True))
            pyr = PyramidSpec(levels)
            batch = random_proposals(rng, int(rng.integers(1, 25)), *frame)
            got = pooling.design_feature(conv, *own_scale(batch), g, pyr, design)
            assert got.dtype == np.float32
            assert got.shape == (len(batch), pooling.feature_length(conv.channels, pyr,
                                                                     design))
            want = [design_feature(conv, p, g, pyr, design) for p in batch]
            assert as_bytes(got) == as_bytes(want)
            windows = [extent_one(g, p.box, fh, fw) for p in batch]
            narrow += sum(min(w.height, w.width) < levels[0] for w in windows)
            runs = axis_runs(g, frame[0], fh) + axis_runs(g, frame[1], fw)
            empty += bool((runs[0] == runs[1]).any() or (runs[2] == runs[3]).any())
        assert narrow > 50 and empty > 10

    @pytest.mark.parametrize("design", DESIGNS)
    def test_vector_alone_equals_vector_in_batch(self, rng, design):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1), LayerSpec("conv", 3, 2, 1)])
        conv = rectified_map(rng, 3, 10, 12)
        batch = random_proposals(rng, 30, 40, 48)
        pyr = PyramidSpec()
        together = pooling.design_feature(conv, *own_scale(batch), g, pyr, design)
        for p, row in zip(batch, together):
            alone = pooling.design_feature(conv, *own_scale([p]), g, pyr, design)
            assert alone.shape == (1, row.size) and alone[0].tobytes() == row.tobytes()
        reordered = pooling.design_feature(conv, *own_scale(batch[::-1]), g, pyr, design)
        assert reordered[::-1].tobytes() == together.tobytes()


def toy_net(seed=0):
    net = init_toynet(default_spec(3, seed=seed))
    return net, compose_geometry(net.spec.geometry_layers())


SCENARIOS = (
    # (image height, width, scales, some masks vanish on scales[0])
    # upscales that split the proposals over two or three scales
    (32, 40, (128, 256, 512), False),
    # one downscale: thin masks vanish and take scale_proposal's box fallback
    (48, 64, (20,), True),
    # a downscale for large boxes next to an upscale for small ones
    (40, 36, (18, 400), False),
)


class TestProposalFeaturesOracle:
    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("h, w, scales, vanishes", SCENARIOS)
    def test_matches_per_proposal_path(self, rng, design, h, w, scales, vanishes):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, h, w)).astype(np.float32))
        cfg = PipelineConfig(scales=scales, design=design, pyramid=PyramidSpec((4, 2, 1)))
        proposals = random_proposals(rng, 60, h, w)
        cache = FeatureCache(image, net)
        want = oracle_proposal_features(proposals, cache, g, cfg)
        for threads in (1, 4):
            got = pipeline.proposal_features(proposals, cache, g, cfg, threads=threads)
            assert as_bytes(got) == as_bytes(want)
        used = {assign_scale(p.box.area, min(h, w), scales) for p in proposals}
        assert len(used) >= min(2, len(scales))
        if vanishes:
            _, (sh, sw) = cache.conv_map(scales[0])
            assert any(not resize_nearest(p.mask.bits, sh, sw).any() for p in proposals
                       if assign_scale(p.box.area, min(h, w), scales) == scales[0])

    def test_chunks_are_contiguous_and_bounded(self):
        items = list(range(10))
        for threads in (1, 3, 4, 10, 25):
            chunks = pipeline._chunks(items, threads)
            assert len(chunks) == min(threads, 10)
            assert [i for c in chunks for i in c] == items
        assert pipeline._chunks(items, 0) == [items]

    def test_one_design_call_per_scale_and_chunk(self, rng, monkeypatch):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 32, 40)).astype(np.float32))
        cfg = PipelineConfig(scales=(128, 256, 512), pyramid=PyramidSpec((4, 2, 1)))
        proposals = random_proposals(rng, 40, 32, 40)
        scales = {assign_scale(p.box.area, 32, cfg.scales) for p in proposals}
        calls = []
        original = pipeline.design_feature

        def counting(conv, batch, *args):
            batch = list(batch)
            calls.append(len(batch))
            return original(conv, batch, *args)

        monkeypatch.setattr(pipeline, "design_feature", counting)
        cache = FeatureCache(image, net)
        pipeline.proposal_features(proposals, cache, g, cfg, threads=1)
        assert len(calls) == len(scales) and sum(calls) == len(proposals)
        calls.clear()
        pipeline.proposal_features(proposals, cache, g, cfg, threads=3)
        assert len(scales) < len(calls) <= 3 * len(scales) and sum(calls) == len(proposals)


    @pytest.mark.parametrize("scales", [(64,), (128, 256, 512)])
    def test_rows_written_into_a_given_matrix(self, rng, scales):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 32, 40)).astype(np.float32))
        cfg = PipelineConfig(scales=scales, pyramid=PyramidSpec((4, 2, 1)))
        proposals = random_proposals(rng, 40, 32, 40)
        cache = FeatureCache(image, net)
        want = pipeline.proposal_features(proposals, cache, g, cfg)
        for threads in (1, 3):
            matrix = np.full((len(proposals) + 2, want.shape[1]), np.nan, np.float32)
            got = pipeline.proposal_features(proposals, cache, g, cfg, threads=threads,
                                             out=matrix[1:-1])
            assert np.shares_memory(got, matrix) and as_bytes(got) == as_bytes(want)
            assert np.isnan(matrix[[0, -1]]).all()  # nothing outside the slice
        n, length = want.shape
        for bad in (np.empty((n, length)), np.empty((n + 1, length), np.float32),
                    np.empty((length, n), np.float32).T):
            with pytest.raises(ValidationError, match="out must be"):
                pipeline.proposal_features(proposals, cache, g, cfg, out=bad)


class TestProjectionPasses:
    """Designs A and B project each map's proposals in one pass: one feature_extent
    and one project_mask call per design call."""

    @staticmethod
    def counting(monkeypatch, calls):
        for module, name in ((pooling, "project_mask"), (pooling, "feature_extent"),
                             (pipeline, "design_feature")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("design", DESIGNS)
    def test_one_projection_per_design_call(self, rng, monkeypatch, design):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 32, 40)).astype(np.float32))
        cfg = PipelineConfig(scales=(32, 48, 64), design=design,
                             pyramid=PyramidSpec((4, 2, 1)))
        proposals = random_proposals(rng, 40, 32, 40)
        cache = FeatureCache(image, net)
        calls = dict.fromkeys(["project_mask", "feature_extent", "design_feature"], 0)
        self.counting(monkeypatch, calls)
        for threads in (1, 3):
            pipeline.proposal_features(proposals, cache, g, cfg, threads=threads)
        assert 3 < calls["design_feature"] < len(proposals)
        assert calls["feature_extent"] == calls["design_feature"]
        projections = 0 if design == "none" else calls["design_feature"]
        assert calls["project_mask"] == projections

    @pytest.mark.parametrize("design", DESIGNS)
    def test_threads_give_the_same_bytes(self, rng, design):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 40, 36)).astype(np.float32))
        cfg = PipelineConfig(scales=(18, 40, 160), design=design)
        proposals = random_proposals(rng, 80, 40, 36)
        cache = FeatureCache(image, net)
        one, two = (pipeline.proposal_features(proposals, cache, g, cfg, threads=t)
                    for t in (1, 2))
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("design", DESIGNS)
    def test_one_map_takes_one_frame(self, rng, design):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)])
        conv = rectified_map(rng, 2, 8, 8)
        batch = [*random_proposals(rng, 3, 16, 16), *random_proposals(rng, 1, 16, 15)]
        if design == "none":  # windows read boxes only
            pooling.design_feature(conv, *own_scale(batch), g, PyramidSpec(), design)
            return
        with pytest.raises(ValidationError, match="p0"):
            pooling.design_feature(conv, *own_scale(batch), g, PyramidSpec(), design)


class TestKernelsBeforeAfter:
    """proposal_features with the batched pool and the lookup projection against
    the same call with the kernels they replaced: per-window `spp_pool` and the
    projection that finds each block's runs by binary search."""

    @pytest.mark.parametrize("design", DESIGNS)
    @pytest.mark.parametrize("h, w, scales, vanishes", SCENARIOS)
    def test_same_bytes(self, rng, monkeypatch, design, h, w, scales, vanishes):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, h, w)).astype(np.float32))
        for levels in ((6, 3, 2, 1), (5, 1)):
            cfg = PipelineConfig(scales=scales, design=design, pyramid=PyramidSpec(levels))
            proposals = random_proposals(rng, 60, h, w)
            cache = FeatureCache(image, net)
            after = pipeline.proposal_features(proposals, cache, g, cfg)
            with monkeypatch.context() as m:
                m.setattr(pooling, "spp_pool_windows", per_window_pool)
                m.setattr(pooling, "project_mask", per_block_project_mask)
                before = pipeline.proposal_features(proposals, cache, g, cfg)
            assert as_bytes(after) == as_bytes(before)


class TestMemoryGuard:
    SIDE = 1200  # a 150^2 map at stride 8

    @staticmethod
    def boxes(rng, n, box, side):
        """n proposals of noisy box x box blocks, their corners set, on a side^2 frame."""
        proposals = []
        for i in range(n):
            y0, x0 = (int(v) for v in rng.integers(0, side - box + 1, size=2))
            block = rng.random((box, box)) < 0.6
            block[0, 0] = block[-1, -1] = True
            proposals.append(SegmentProposal(f"p{i}", BinaryMask(block), origin=(y0, x0),
                                             frame=(side, side)))
        return proposals

    def traced_design_b(self, rng, proposals):
        """The output, the traced peak of one design-B call and the window cells."""
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)] * 3)  # stride 8
        conv = rectified_map(rng, 4, self.SIDE // 8, self.SIDE // 8)
        pyr = PyramidSpec()
        pooling.design_b_features(conv, *own_scale(proposals[:2]), g, pyr)  # plans and run tables
        tracemalloc.start()
        try:
            out = pooling.design_b_features(conv, *own_scale(proposals), g, pyr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        windows = [extent_one(g, p.box, conv.height, conv.width) for p in proposals]
        return out, peak, [w.height * w.width for w in windows]

    def test_design_b_stack_is_window_sized(self, rng):
        """500 proposals of ~224^2 pixels on a 150^2 map: the mask stack holds
        window crops, not one whole map per proposal (500 x 151^2 x 4 bytes)."""
        out, peak, cells = self.traced_design_b(rng, self.boxes(rng, 500, 224, self.SIDE))
        assert max(cells) <= 31 * 31  # every window is ~224 / 8 cells on a side
        whole_maps = 500 * 151 * 151 * 4
        budget = 2 * out.nbytes + 16 * sum(cells) + (1 << 20)  # rows, then the array
        assert peak < budget < whole_maps / 4

    def test_one_whole_frame_window_pads_no_other(self, rng):
        """One whole-frame proposal among 500 of ~64^2 pixels: the small windows are
        not padded to the whole map's 150^2 cells (501 x 151^2 x 4 bytes of table)."""
        small, whole = self.boxes(rng, 500, 64, self.SIDE), self.boxes(rng, 1, self.SIDE,
                                                                     self.SIDE)
        _, alone, _ = self.traced_design_b(rng, whole)  # projecting and pooling it
        out, peak, cells = self.traced_design_b(rng, small + whole)
        assert max(cells) == 150 * 150 and max(cells[:-1]) <= 10 * 10
        padded = 501 * 151 * 151 * 4
        budget = 2 * out.nbytes + 16 * sum(cells) + alone + (1 << 20)
        assert peak < budget < padded / 4

    @staticmethod
    def squares(rng):
        """2,000 proposals of 13-17 pixel squares on a 64^2 frame (0.43 MiB of
        source blocks), a toy net and its map cache."""
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 64, 64)).astype(np.float32))
        proposals = []
        for i in range(2000):
            y0, x0 = (int(v) for v in rng.integers(0, 52, size=2))
            side = int(rng.integers(12, 17))
            proposals.append(proposal_from_mask(f"p{i}", rect_mask(64, 64, y0, y0 + side,
                                                                   x0, x0 + side)))
        assert 400_000 < sum(p.block.bits.nbytes for p in proposals) < 500_000
        return proposals, FeatureCache(image, net), g

    @pytest.mark.parametrize("scale", [256, 512])
    def test_projection_holds_no_scaled_block(self, rng, scale):
        """The squares upscaled 4x or 8x: design B's projection stage, the
        boxes and the projected crops, peaks below 1.8 MiB above its output
        (1.59 and 1.16 MiB here). Building the scaled blocks and their
        canvases peaked at 2.19 (scale 256) and 2.12 MiB (scale 512) above it."""
        proposals, cache, g = self.squares(rng)
        conv, scaled = cache.conv_map(scale)

        def stage(chosen):
            boxes = pipeline.scale_proposal(chosen, (64, 64), scaled)
            return pooling._projected(conv, chosen, boxes, scaled, g)

        stage(proposals[:2])  # first calls outside the trace
        tracemalloc.start()
        try:
            windows, crops = stage(proposals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = windows.nbytes + sum(c.nbytes for c in crops)
        assert peak - out < 1.8 * 2**20

    @pytest.mark.parametrize("scale", [256, 512])
    def test_proposal_features_peak(self, rng, scale):
        """The squares through proposal_features: projected from their source
        blocks, pooled by a pass that takes each pyramid level's bins by their
        level key, the call peaks below 6.5 MiB above its output (5.14 and
        5.89 MiB here; 7.55 and 8.49 MiB with the pool's arrays held
        together). Building the scaled blocks peaked at 7.39 MiB (scale 256)
        and 8.32 MiB (scale 512) above it."""
        proposals, cache, g = self.squares(rng)
        cfg = PipelineConfig(scales=(scale,))
        pipeline.proposal_features(proposals[:2], cache, g, cfg)  # the map and the plans
        tracemalloc.start()
        try:
            out = pipeline.proposal_features(proposals, cache, g, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 6.5 * 2**20


class TestFrames:
    @staticmethod
    def off_frame(side=96):
        return proposal_from_mask("far", rect_mask(side, side, 70, 90, 70, 90))

    def test_proposal_features_rejects_other_frame_before_forward(self, rng, monkeypatch):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 64, 64)).astype(np.float32))
        cache = FeatureCache(image, net)
        forwards = []
        monkeypatch.setattr(toynet, "forward", lambda *a: forwards.append(a))
        good = proposal_from_mask("ok", rect_mask(64, 64, 2, 9, 3, 12))
        with pytest.raises(ValidationError, match="far"):
            pipeline.proposal_features([good, self.off_frame()], cache, g,
                                       PipelineConfig(scales=(64,)))
        assert forwards == []

    def test_benchmark_rejects_other_frame_before_forward(self, rng, monkeypatch):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 64, 64)).astype(np.float32))
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        with pytest.raises(ValidationError, match="far"):
            pipeline.benchmark(image, [self.off_frame()], net, g,
                               PipelineConfig(scales=(64,)))

    @staticmethod
    def scene_with_big_masks(tmp_path):
        """A 64^2 synthetic scene whose proposal index holds 96^2 masks."""
        cfg = synth.CorpusConfig()
        scene = synth.generate_scene(synth.random_scene_spec(cfg, seed=3))
        assert (scene.image.height, scene.image.width) == (64, 64)
        proposals = synth.scene_proposals(scene, synth.derive_seed(3, 2))
        out = tmp_path / "corpus" / "scene"
        cli.write_scene_dir(out, scene, proposals)
        big = [proposal_from_mask(f"big{i}", rect_mask(96, 96, 4 * i, 80, 2, 90))
               for i in range(3)]
        formats.save_proposal_index(out / "proposals.json", big)
        net = tmp_path / "net.json"
        net.write_text(json.dumps(spec_to_json(default_spec(3, seed=0))))
        return out, str(net)

    @pytest.mark.parametrize("command", ["bench", "train", "infer"])
    def test_cli_exits_1_before_any_forward(self, tmp_path, capsys, monkeypatch,
                                            command):
        scene, net = self.scene_with_big_masks(tmp_path)
        if command == "infer":
            models = tmp_path / "models"
            from cfmseg.classify import save_model
            save_model(models / "category_001.json",
                       LinearModel(np.zeros(50 * 32, dtype=np.float32), 0.0, 1))
        monkeypatch.setattr(toynet, "forward", None)  # any forward would raise TypeError
        argv = {
            "bench": ["bench", "--image", str(scene / "image.cfmt"),
                      "--proposals", str(scene / "proposals.json"), "--counts", "1"],
            "train": ["train", "--corpus", str(scene.parent), "--object-cats", "1",
                      "--stuff-cats", "4", "--out-dir", str(tmp_path / "out")],
            "infer": ["infer", "--models", str(tmp_path / "models"),
                      "--image", str(scene / "image.cfmt"),
                      "--proposals", str(scene / "proposals.json"),
                      "--out-labels", str(tmp_path / "pred.cfml")],
        }[command]
        assert cli.main([*argv, "--net", net, "--scales", "64"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValidationError" and "64x64" in err["message"]


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_exits_1(self, tmp_path, capsys, monkeypatch, threads):
        def no_pool(*args, **kw):
            raise AssertionError("no thread pool may start")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        layers = tmp_path / "layers.json"
        layers.write_text(json.dumps([{"kind": "conv", "kernel": 3, "stride": 2,
                                       "pad": 1}]))
        assert cli.main(["--threads", threads, "geometry", "--layers", str(layers)]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValidationError" and "--threads" in err["message"]
        assert captured.out == ""


class TestScoring:
    def test_scores_equal_per_model_float32_dot(self, rng):
        net, g = toy_net()
        image = FeatureMap(rng.standard_normal((3, 32, 32)).astype(np.float32))
        cfg = PipelineConfig(scales=(32, 64), pyramid=PyramidSpec((3, 1)))
        models = [LinearModel(rng.standard_normal(10 * 32).astype(np.float32),
                              float(rng.standard_normal()), c) for c in range(1, 6)]
        proposals = random_proposals(rng, 12, 32, 32)
        scored = pipeline.score_proposals(models, proposals, image, net, g, cfg)
        vecs = pipeline.proposal_features(proposals, FeatureCache(image, net), g, cfg)
        want = einsum_scores(models, vecs)
        assert [r.score for r in scored] == want
        assert score(models, vecs).ravel().tolist() == want
