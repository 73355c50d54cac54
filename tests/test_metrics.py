"""Metrics against brute-force oracles and hand-computed cases."""

from __future__ import annotations

import numpy as np
import pytest

from evcseg.errors import DomainError
from evcseg.metrics import balanced_ahd, boundary, dice, jaccard


def brute_edt(mask: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Nearest-foreground distance by exhaustive search."""
    fg = np.argwhere(mask).astype(float) * np.asarray(spacing)
    grid = np.indices(mask.shape).reshape(3, -1).T.astype(float) * np.asarray(spacing)
    d2 = ((grid[:, None, :] - fg[None, :, :]) ** 2).sum(-1).min(1)
    return np.sqrt(d2).reshape(mask.shape)


def brute_boundary(mask: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mask, dtype=bool)
    n = mask.shape
    for i, j, k in np.argwhere(mask):
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            a, b, c = i + di, j + dj, k + dk
            if not (0 <= a < n[0] and 0 <= b < n[1] and 0 <= c < n[2]) or not mask[a, b, c]:
                out[i, j, k] = True
                break
    return out


def brute_bahd(truth: np.ndarray, pred: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> float:
    sp = np.asarray(spacing)
    g = np.argwhere(brute_boundary(truth)).astype(float) * sp
    p = np.argwhere(brute_boundary(pred)).astype(float) * sp
    d_gp = np.sqrt(((g[:, None, :] - p[None, :, :]) ** 2).sum(-1)).min(1).sum()
    d_pg = np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(-1)).min(1).sum()
    return (d_gp + d_pg) / (2.0 * len(g))


class TestOverlap:
    def test_hand_case(self):
        # |T| = 5, |P| = 5, |T and P| = 3
        t = np.zeros((3, 3, 3), dtype=np.uint8)
        p = np.zeros((3, 3, 3), dtype=np.uint8)
        t.ravel()[:5] = 1
        p.ravel()[2:7] = 1
        assert dice(t, p) == 0.6
        assert jaccard(t, p) == pytest.approx(3 / 7, abs=0)

    def test_both_empty_is_one(self):
        z = np.zeros((2, 2, 2), dtype=np.uint8)
        assert dice(z, z) == 1.0
        assert jaccard(z, z) == 1.0

    def test_one_empty_is_zero(self):
        z = np.zeros((2, 2, 2), dtype=np.uint8)
        o = np.ones((2, 2, 2), dtype=np.uint8)
        assert dice(z, o) == 0.0
        assert jaccard(o, z) == 0.0

    def test_jaccard_dice_identity(self):
        # J = D / (2 - D) whenever the two share a voxel count
        rng = np.random.default_rng(42)
        for _ in range(100):
            t = rng.random((5, 5, 5)) < 0.4
            p = rng.random((5, 5, 5)) < 0.4
            d = dice(t, p)
            j = jaccard(t, p)
            assert abs(j - d / (2.0 - d)) < 1e-12


class TestBoundary:
    def test_solid_cube_interior_excluded(self):
        m = np.zeros((5, 5, 5), dtype=bool)
        m[1:4, 1:4, 1:4] = True
        b = boundary(m)
        assert not b[2, 2, 2]
        assert b.sum() == 26

    def test_grid_border_counts_as_background(self):
        m = np.ones((3, 3, 3), dtype=bool)
        b = boundary(m)
        assert b.sum() == 26  # every voxel on the grid border
        assert not b[1, 1, 1]

    def test_matches_brute(self):
        rng = np.random.default_rng(7)
        masks = [rng.random((6, 6, 6)) < 0.3 for _ in range(10)]
        # a radius-2 ball has voxels whose six face neighbours are foreground
        # while an edge neighbour is not: interior by six, boundary by 26
        masks.append(((np.indices((7, 7, 7)) - 3) ** 2).sum(axis=0) <= 4)
        for m in masks:
            assert np.array_equal(boundary(m), brute_boundary(m))


class TestBalancedAhd:
    def test_identical_masks_zero(self):
        rng = np.random.default_rng(42)
        m = rng.random((6, 6, 6)) < 0.3
        m[3, 3, 3] = True
        assert balanced_ahd(m, m) == 0.0

    def test_two_voxel_hand_case(self):
        t = np.zeros((8, 8, 8), dtype=bool)
        p = np.zeros((8, 8, 8), dtype=bool)
        t[1, 1, 1] = True
        p[1, 1, 5] = True  # 4 voxels apart along one axis
        assert balanced_ahd(t, p) == 4.0

    def test_matches_brute(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = rng.random((6, 6, 6)) < 0.25
            p = rng.random((6, 6, 6)) < 0.25
            if not t.any():
                t[2, 2, 2] = True
            if not p.any():
                p[3, 3, 3] = True
            assert balanced_ahd(t, p) == pytest.approx(brute_bahd(t, p), abs=1e-9)

    def test_spacing(self):
        t = np.zeros((4, 4, 4), dtype=bool)
        p = np.zeros((4, 4, 4), dtype=bool)
        t[1, 1, 1] = True
        p[1, 1, 2] = True
        assert balanced_ahd(t, p, spacing=(1.0, 1.0, 2.5)) == 2.5

    def test_anisotropic_matches_brute_edt(self):
        # the distance-transform form: each boundary's brute-force EDT read
        # on the other boundary, at a spacing that differs per axis
        rng = np.random.default_rng(11)
        sp = (0.7, 1.5, 2.25)
        for _ in range(5):
            t = rng.random((7, 6, 5)) < 0.3
            p = rng.random((7, 6, 5)) < 0.3
            t[3, 3, 2] = p[1, 1, 1] = True
            bt, bp = brute_boundary(t), brute_boundary(p)
            total = brute_edt(bp, sp)[bt].sum() + brute_edt(bt, sp)[bp].sum()
            expect = total / (2.0 * bt.sum())
            assert balanced_ahd(t, p, spacing=sp) == pytest.approx(expect, rel=1e-12)

    def test_union_box_inside_the_grid(self):
        # two small blobs far apart in a 20^3 grid, the prediction's far one
        # touching the grid's last face on axis 0: the union's box is a strict
        # sub-box of the grid, and each mask has voxels outside the other's box
        rng = np.random.default_rng(5)
        sp = (0.7, 1.5, 2.25)
        for _ in range(4):
            t = np.zeros((20, 20, 20), dtype=bool)
            p = np.zeros((20, 20, 20), dtype=bool)
            t[3:7, 4:8, 5:9] = rng.random((4, 4, 4)) < 0.6
            p[3:6, 5:8, 5:8] = rng.random((3, 3, 3)) < 0.5
            p[16:20, 12:15, 11:14] = rng.random((4, 3, 3)) < 0.6
            t[4, 4, 6] = p[4, 6, 6] = p[19, 13, 12] = True
            assert balanced_ahd(t, p) == pytest.approx(brute_bahd(t, p), abs=1e-9)
            # the brute EDT form, as in test_anisotropic_matches_brute_edt
            bt, bp = brute_boundary(t), brute_boundary(p)
            total = brute_edt(bp, sp)[bt].sum() + brute_edt(bt, sp)[bp].sum()
            expect = total / (2.0 * bt.sum())
            assert balanced_ahd(t, p, spacing=sp) == pytest.approx(expect, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DomainError, match="shape"):
            balanced_ahd(np.ones((3, 3, 3), dtype=bool), np.ones((3, 3, 4), dtype=bool))

    def test_empty_truth_raises(self):
        z = np.zeros((3, 3, 3), dtype=bool)
        o = np.ones((3, 3, 3), dtype=bool)
        with pytest.raises(DomainError):
            balanced_ahd(z, o)

    @pytest.mark.filterwarnings("error")
    def test_empty_pred_is_inf(self):
        # whatever the truth, and without a warning
        z = np.zeros((3, 3, 3), dtype=bool)
        o = np.ones((3, 3, 3), dtype=bool)
        assert balanced_ahd(o, z) == float("inf")
        assert balanced_ahd(z, z) == float("inf")
