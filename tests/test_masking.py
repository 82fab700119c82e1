import numpy as np
import pytest

from cfmseg.core import BinaryMask, FeatureMap, ValidationError
from cfmseg.masking import (
    apply_mask,
    brute_force_project,
    project_mask,
)
from cfmseg.netgeom import LayerSpec, NetGeometry, compose_geometry
from conftest import random_mask, random_map


def identity_geometry():
    return NetGeometry(1, 1, 0.0)


class TestProjectMask:
    def test_all_ones_projects_to_all_ones(self):
        m = BinaryMask(np.ones((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        fm = project_mask(g, m, 4, 4)
        assert fm.bits.all()

    def test_all_zeros_projects_to_all_zeros(self):
        m = BinaryMask(np.zeros((8, 8), dtype=bool))
        g = NetGeometry(2, 3, 0.0)
        assert not project_mask(g, m, 4, 4).bits.any()

    def test_identity_geometry_keeps_columns(self):
        bits = np.zeros((4, 4), dtype=bool)
        bits[:, :2] = True
        fm = project_mask(identity_geometry(), BinaryMask(bits), 4, 4)
        assert np.array_equal(fm.bits, bits)

    def test_stride_two_halves_columns(self):
        # pixels {0,1}->u0, {2,3}->u1, {4,5}->u2, {6,7}->u3 with ties downward
        bits = np.zeros((1, 8), dtype=bool)
        bits[0, :4] = True
        fm = project_mask(NetGeometry(2, 3, 0.0), BinaryMask(bits), 1, 4)
        assert fm.bits.tolist() == [[True, True, False, False]]

    def test_zero_dims_rejected(self):
        m = BinaryMask(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            project_mask(identity_geometry(), m, 0, 2)

    def test_single_pixel_sets_at_most_one_cell(self, rng):
        for _ in range(50):
            h, w = (int(v) for v in rng.integers(4, 16, size=2))
            bits = np.zeros((h, w), dtype=bool)
            bits[int(rng.integers(0, h)), int(rng.integers(0, w))] = True
            g = compose_geometry(
                [LayerSpec("conv", int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                           int(rng.integers(0, 3)))]
            )
            fh = max(1, h // g.stride)
            fw = max(1, w // g.stride)
            fm = project_mask(g, BinaryMask(bits), fh, fw)
            assert fm.bits.sum() <= 1
            assert np.array_equal(
                fm.bits, brute_force_project(g, BinaryMask(bits), fh, fw).bits
            )

    def test_matches_oracle_on_random_cases(self, rng):
        for _ in range(100):
            depth = int(rng.integers(1, 4))
            layers = [
                LayerSpec(
                    "conv" if rng.random() < 0.5 else "pool",
                    int(rng.integers(1, 5)),
                    int(rng.integers(1, 4)),
                    int(rng.integers(0, 3)),
                )
                for _ in range(depth)
            ]
            g = compose_geometry(layers)
            h, w = (int(v) for v in rng.integers(3, 20, size=2))
            fh = max(1, int(np.ceil(h / g.stride)))
            fw = max(1, int(np.ceil(w / g.stride)))
            m = random_mask(rng, h, w, density=float(rng.random()))
            fast = project_mask(g, m, fh, fw)
            slow = brute_force_project(g, m, fh, fw)
            assert np.array_equal(fast.bits, slow.bits)

    def test_coverage_monotonicity(self, rng):
        g = compose_geometry([LayerSpec("conv", 3, 2, 1)])
        for _ in range(50):
            a = random_mask(rng, 12, 12, density=0.3)
            extra = random_mask(rng, 12, 12, density=0.2)
            b = BinaryMask(a.bits | extra.bits)
            fa = project_mask(g, a, 6, 6)
            fb = project_mask(g, b, 6, 6)
            # a subset-mask can only lose cells, never gain them over b
            assert not (fa.bits & ~fb.bits).any()


class TestApplyMask:
    def test_full_mask_is_identity(self, rng):
        f = random_map(rng, 3, 5, 5)
        m = BinaryMask(np.ones((5, 5), dtype=bool))
        assert np.array_equal(apply_mask(f, m).values, f.values)

    def test_zero_mask_zeroes_everything(self, rng):
        f = random_map(rng, 3, 5, 5)
        m = BinaryMask(np.zeros((5, 5), dtype=bool))
        assert not apply_mask(f, m).values.any()

    def test_single_cell_survives(self, rng):
        f = random_map(rng, 4, 6, 6)
        bits = np.zeros((6, 6), dtype=bool)
        bits[2, 3] = True
        out = apply_mask(f, BinaryMask(bits))
        assert np.array_equal(out.values[:, 2, 3], f.values[:, 2, 3])
        zeroed = out.values.copy()
        zeroed[:, 2, 3] = 0
        assert not zeroed.any()

    def test_idempotent(self, rng):
        f = random_map(rng, 2, 4, 4)
        m = BinaryMask(rng.random((4, 4)) < 0.5)
        once = apply_mask(f, m)
        twice = apply_mask(once, m)
        assert np.array_equal(once.values, twice.values)

    def test_input_unchanged(self, rng):
        f = random_map(rng, 2, 4, 4)
        before = f.values.copy()
        apply_mask(f, BinaryMask(np.zeros((4, 4), dtype=bool)))
        assert np.array_equal(f.values, before)

    def test_dim_mismatch_rejected(self, rng):
        f = random_map(rng, 2, 4, 4)
        with pytest.raises(ValidationError):
            apply_mask(f, BinaryMask(np.ones((4, 5), dtype=bool)))
