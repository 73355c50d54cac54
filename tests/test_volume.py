"""Grid geometry: types, reorientation, resampling, padding, round trips."""

from __future__ import annotations

import numpy as np
import pytest

from evcseg.errors import DataError, GeometryError
from evcseg.volume import (
    LabelMask,
    ProbMap,
    Volume,
    mask_to_native,
    pad_to,
    reorient_ras,
    resample_isotropic,
    resize_half,
)


def world_points(vol) -> np.ndarray:
    """World coordinate of every voxel center, shape (nvox, 3)."""
    idx = np.indices(vol.shape).reshape(3, -1)
    hom = np.vstack([idx, np.ones((1, idx.shape[1]))])
    return (vol.affine @ hom)[:3].T


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(bool)
    b = b.astype(bool)
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return 2.0 * np.logical_and(a, b).sum() / denom


class TestTypes:
    def test_volume_casts_to_float64(self):
        v = Volume(data=np.ones((2, 2, 2), dtype=np.int16))
        assert v.data.dtype == np.float64

    def test_volume_rejects_2d(self):
        with pytest.raises(GeometryError):
            Volume(data=np.ones((3, 3)))

    def test_singular_affine_rejected(self):
        aff = np.eye(4)
        aff[0, 0] = 0.0
        with pytest.raises(GeometryError):
            Volume(data=np.ones((2, 2, 2)), affine=aff)

    @pytest.mark.parametrize("entry", [(0, 0), (1, 3), (3, 3)])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_affine_rejected(self, entry):
        aff = np.eye(4)
        aff[entry] = np.nan
        with pytest.raises(GeometryError, match="finite"):
            Volume(data=np.ones((2, 2, 2)), affine=aff)

    def test_bad_last_row_rejected(self):
        aff = np.eye(4)
        aff[3, 0] = 2.0
        with pytest.raises(GeometryError):
            Volume(data=np.ones((2, 2, 2)), affine=aff)

    def test_mask_rejects_nonbinary(self):
        with pytest.raises(GeometryError):
            LabelMask(data=np.full((2, 2, 2), 3, dtype=np.uint8))

    def test_mask_accepts_bool(self):
        m = LabelMask(data=np.ones((2, 2, 2), dtype=bool))
        assert m.data.dtype == np.uint8

    def test_probmap_checks_per_voxel_sum(self):
        good = np.stack([np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.7)])
        ProbMap(data=good)
        bad = np.stack([np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.6)])
        with pytest.raises(GeometryError):
            ProbMap(data=bad)

    def test_probmap_rejects_negative(self):
        bad = np.stack([np.full((2, 2, 2), -0.1), np.full((2, 2, 2), 1.1)])
        with pytest.raises(GeometryError):
            ProbMap(data=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        data = np.ones((2, 2, 2))
        data[1, 0, 1] = bad
        with pytest.raises(DataError):
            Volume(data=data)
        probs = np.stack([np.full((2, 2, 2), 0.5), np.full((2, 2, 2), 0.5)])
        probs[0, 1, 0, 1] = bad
        with pytest.raises(DataError):
            ProbMap(data=probs)

    def test_spacing_from_columns(self):
        aff = np.diag([0.7, 1.0, 2.5, 1.0])
        v = Volume(data=np.ones((2, 2, 2)), affine=aff)
        np.testing.assert_allclose(v.spacing, [0.7, 1.0, 2.5])

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: Volume(np.ones((2, 2, 2)), a),
            lambda a: LabelMask(np.ones((2, 2, 2), dtype=np.uint8), a),
            lambda a: ProbMap(np.full((2, 2, 2, 2), 0.5), a),
        ],
        ids=["volume", "mask", "probmap"],
    )
    def test_affine_is_a_read_only_copy(self, make):
        # a validated object must not move when its builder's array does
        aff = np.diag([2.0, 2.0, 2.0, 1.0])
        obj = make(aff)
        aff[0, 3] = np.nan
        aff[1, 1] = 0.0
        np.testing.assert_array_equal(obj.affine, np.diag([2.0, 2.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="read-only"):
            obj.affine[:3, 3] = 5.0


def axis_swap_affine(perm, flips, shape, spacing=(1.0, 1.0, 1.0)):
    """Affine whose voxel axes run along permuted, possibly negated world axes."""
    aff = np.zeros((4, 4))
    aff[3, 3] = 1.0
    for vox in range(3):
        world = perm[vox]
        sign = -1.0 if flips[vox] else 1.0
        aff[world, vox] = sign * spacing[vox]
    aff[:3, 3] = [3.0, -7.0, 11.0]
    return aff


class TestReorient:
    def test_identity_is_unchanged(self):
        rng = np.random.default_rng(42)
        v = Volume(data=rng.random((4, 5, 6)))
        out = reorient_ras(v)
        assert np.array_equal(out.data, v.data)
        np.testing.assert_array_equal(out.affine, v.affine)

    def test_world_coordinates_preserved(self):
        rng = np.random.default_rng(7)
        for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0]):
            for flips in ([False] * 3, [True, False, True], [True] * 3):
                aff = axis_swap_affine(perm, flips, (3, 4, 5), spacing=(1.1, 0.9, 1.4))
                v = Volume(data=rng.random((3, 4, 5)), affine=aff)
                out = reorient_ras(v)
                # same multiset of (world point, value) pairs
                pv = {
                    (*np.round(w, 9), val)
                    for w, val in zip(world_points(v), v.data.ravel())
                }
                po = {
                    (*np.round(w, 9), val)
                    for w, val in zip(world_points(out), out.data.ravel())
                }
                assert pv == po

    def test_result_is_ras_aligned(self):
        aff = axis_swap_affine([2, 0, 1], [True, False, True], (3, 4, 5))
        v = Volume(data=np.zeros((3, 4, 5)), affine=aff)
        out = reorient_ras(v)
        d = out.affine[:3, :3]
        assert np.all(np.diag(d) > 0)
        assert np.allclose(d - np.diag(np.diag(d)), 0.0)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        aff = axis_swap_affine([1, 0, 2], [False, True, False], (4, 4, 4))
        v = Volume(data=rng.random((4, 4, 4)), affine=aff)
        once = reorient_ras(v)
        twice = reorient_ras(once)
        assert np.array_equal(once.data, twice.data)
        np.testing.assert_array_equal(once.affine, twice.affine)


class TestResample:
    def test_identity_spacing(self):
        rng = np.random.default_rng(42)
        v = Volume(data=rng.random((5, 6, 7)))
        out = resample_isotropic(v, 1.0)
        assert out.shape == v.shape
        np.testing.assert_allclose(out.data, v.data, atol=1e-6)

    def test_output_shape_is_ceil_extent_over_spacing(self):
        v = Volume(data=np.zeros((5, 4, 3)))
        assert resample_isotropic(v, 2.0).shape == (3, 2, 2)
        v2 = Volume(data=np.zeros((4, 4, 4)), affine=np.diag([2.0, 2.0, 2.0, 1.0]))
        assert resample_isotropic(v2, 1.0).shape == (8, 8, 8)

    def test_constants_preserved_exactly(self):
        v = Volume(
            data=np.full((6, 5, 4), 3.25), affine=np.diag([1.3, 0.8, 2.1, 1.0])
        )
        for spacing in (0.4, 1.0, 1.7, 3.0):
            out = resample_isotropic(v, spacing)
            assert np.all(out.data == 3.25), f"spacing {spacing}"

    def test_linear_ramp_reproduced_at_interior_samples(self):
        # f(world) = 2x + 3y - z + 5 sampled on a 4^3 grid at 2 mm
        aff = np.diag([2.0, 2.0, 2.0, 1.0])
        idx = np.indices((4, 4, 4)).astype(float)
        world = np.einsum("ab,bxyz->axyz", aff[:3, :3], idx) + aff[:3, 3][:, None, None, None]
        f = 2 * world[0] + 3 * world[1] - world[2] + 5
        v = Volume(data=f, affine=aff)

        out = resample_isotropic(v, 1.0)
        idx_o = np.indices(out.shape).astype(float)
        world_o = (
            np.einsum("ab,bxyz->axyz", out.affine[:3, :3], idx_o)
            + out.affine[:3, 3][:, None, None, None]
        )
        expect = 2 * world_o[0] + 3 * world_o[1] - world_o[2] + 5
        interior = (slice(1, -1),) * 3
        np.testing.assert_allclose(out.data[interior], expect[interior], atol=1e-5)

    def test_spacing_and_directions(self):
        aff = np.diag([0.7, 0.7, 0.7, 1.0])
        aff[:3, 3] = [1.0, 2.0, 3.0]
        v = Volume(data=np.zeros((10, 10, 10)), affine=aff)
        out = resample_isotropic(v, 1.0)
        np.testing.assert_allclose(out.spacing, [1.0, 1.0, 1.0])
        # shared low cell corner: corner = center0 - spacing/2 per axis
        corner_in = aff[:3, 3] - 0.35
        corner_out = out.affine[:3, 3] - 0.5
        np.testing.assert_allclose(corner_out, corner_in, atol=1e-12)

    def test_rejects_nonpositive_spacing(self):
        v = Volume(data=np.zeros((2, 2, 2)))
        with pytest.raises(GeometryError):
            resample_isotropic(v, 0.0)


class TestPad:
    def test_reference_offsets(self):
        v = Volume(data=np.ones((181, 217, 181)))
        padded, offsets = pad_to(v, (256, 256, 256))
        assert offsets == (37, 19, 37)
        assert padded.shape == (256, 256, 256)
        assert padded.data.sum() == v.data.sum()

    def test_world_coordinates_preserved(self):
        rng = np.random.default_rng(0)
        aff = np.diag([1.2, 1.0, 0.9, 1.0])
        aff[:3, 3] = [-4.0, 2.0, 0.5]
        v = Volume(data=rng.random((3, 4, 5)), affine=aff)
        padded, offsets = pad_to(v, (8, 8, 9))
        # voxel (offsets + i) of the padded grid sits where voxel i used to
        probe = np.array([1, 2, 3])
        w_old = v.affine @ np.append(probe, 1.0)
        w_new = padded.affine @ np.append(probe + offsets, 1.0)
        np.testing.assert_allclose(w_old, w_new, atol=1e-9)
        assert padded.data[tuple(probe + offsets)] == v.data[tuple(probe)]

    def test_rejects_smaller_target(self):
        v = Volume(data=np.ones((10, 10, 10)))
        with pytest.raises(GeometryError):
            pad_to(v, (8, 12, 12))


class TestResizeHalf:
    def test_block_mean_reference(self):
        v = Volume(data=np.arange(8, dtype=float).reshape(2, 2, 2))
        out = resize_half(v)
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 3.5

    def test_matches_block_means_on_random(self):
        rng = np.random.default_rng(42)
        x = rng.random((6, 4, 8))
        v = Volume(data=x)
        out = resize_half(v)
        expect = x.reshape(3, 2, 2, 2, 4, 2).mean(axis=(1, 3, 5))
        np.testing.assert_array_equal(out.data, expect)

    def test_spacing_doubles_and_centers_align(self):
        aff = np.diag([1.0, 1.0, 1.0, 1.0])
        v = Volume(data=np.zeros((4, 4, 4)), affine=aff)
        out = resize_half(v)
        np.testing.assert_allclose(out.spacing, [2.0, 2.0, 2.0])
        # coarse voxel 0 center = mean of fine centers 0 and 1 = 0.5
        np.testing.assert_allclose(out.affine[:3, 3], [0.5, 0.5, 0.5])

    def test_rejects_odd_dims(self):
        v = Volume(data=np.zeros((3, 4, 4)))
        with pytest.raises(GeometryError):
            resize_half(v)


def make_sphere(shape, center, radius, affine) -> LabelMask:
    idx = np.indices(shape).astype(float)
    world = (
        np.einsum("ab,bxyz->axyz", np.asarray(affine)[:3, :3], idx)
        + np.asarray(affine)[:3, 3][:, None, None, None]
    )
    d2 = ((world - np.asarray(center)[:, None, None, None]) ** 2).sum(axis=0)
    return LabelMask(data=(d2 <= radius**2).astype(np.uint8), affine=affine)


class TestMaskToNative:
    def test_sphere_round_trip_dice(self):
        # native grid: anisotropic, axes permuted, to exercise the whole chain
        native_aff = axis_swap_affine([1, 0, 2], [False, True, False], (44, 44, 44),
                                      spacing=(1.3, 1.1, 0.9))
        center = native_aff @ np.array([22.0, 22.0, 22.0, 1.0])
        sphere = make_sphere((44, 44, 44), center[:3], 17.0, native_aff)
        original = Volume(data=sphere.data.astype(float), affine=native_aff)

        v = reorient_ras(original)
        r = resample_isotropic(v, 1.0)
        padded, offsets = pad_to(r, (64, 64, 64))
        half = resize_half(padded)
        net_mask = LabelMask(data=(half.data > 0.5).astype(np.uint8), affine=half.affine)

        back = mask_to_native(net_mask, original, offsets, padded.shape)
        assert back.shape == original.shape
        assert dice(back.data, sphere.data) >= 0.95

    def test_no_resize_variant(self):
        aff = np.eye(4)
        sphere = make_sphere((32, 32, 32), (16, 16, 16), 10.0, aff)
        original = Volume(data=sphere.data.astype(float), affine=aff)
        padded, offsets = pad_to(Volume(data=sphere.data.astype(float), affine=aff), (40, 40, 40))
        net_mask = LabelMask(data=(padded.data > 0.5).astype(np.uint8), affine=padded.affine)
        back = mask_to_native(net_mask, original, offsets, padded.shape)
        assert dice(back.data, sphere.data) == 1.0

    def test_inconsistent_provenance_raises(self):
        m = LabelMask(data=np.zeros((8, 8, 8), dtype=np.uint8))
        original = Volume(data=np.zeros((20, 20, 20)))
        with pytest.raises(GeometryError):
            mask_to_native(m, original, (0, 0, 0), (17, 16, 16))
