"""Grid geometry: types, reorientation, resampling, padding, round trips."""

from __future__ import annotations

import numpy as np
import pytest

from evcseg import volume
from evcseg.errors import DataError, GeometryError
from evcseg.pipeline import GridConfig, preprocess_volume
from evcseg.synth import make_phantom
from evcseg.volume import (
    LabelMask,
    ProbMap,
    Volume,
    mask_to_native,
    mask_to_network,
    pad_to,
    reorient_ras,
    resample_isotropic,
    resample_nearest_to_grid,
    resize_half,
)
from instances import lerp_every_axis, slab_loop_nearest


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
        # checked before the uint8 cast, which would make 0.5 a 0 and 257 a 1
        for value in (np.uint8(3), 0.5, 257.0, -1, np.nan):
            with pytest.raises(DataError, match="0 or 1"):
                LabelMask(data=np.full((2, 2, 2), value))

    def test_mask_accepts_bool(self):
        m = LabelMask(data=np.ones((2, 2, 2), dtype=bool))
        assert m.data.dtype == np.uint8

    def test_probmap_checks_per_voxel_sum(self):
        good = np.stack([np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.7)])
        ProbMap(data=good)
        for bad in (np.stack([np.full((2, 2, 2), 0.3), np.full((2, 2, 2), 0.6)]),
                    np.full((2, 2, 2, 2), 0.45)):
            with pytest.raises(DataError, match="sum to 1"):
                ProbMap(data=bad)

    def test_probmap_rejects_negative(self):
        everywhere = np.stack([np.full((2, 2, 2), -0.1), np.full((2, 2, 2), 1.1)])
        one_voxel = np.full((2, 2, 2, 2), 0.5)
        one_voxel[:, 1, 0, 1] = (-0.5, 1.5)
        for bad in (everywhere, one_voxel):
            with pytest.raises(DataError, match="nonnegative"):
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
        out = Volume(*reorient_ras(v.data, v.affine))
        assert np.array_equal(out.data, v.data)
        np.testing.assert_array_equal(out.affine, v.affine)

    def test_world_coordinates_preserved(self):
        rng = np.random.default_rng(7)
        for perm in ([0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0]):
            for flips in ([False] * 3, [True, False, True], [True] * 3):
                aff = axis_swap_affine(perm, flips, (3, 4, 5), spacing=(1.1, 0.9, 1.4))
                v = Volume(data=rng.random((3, 4, 5)), affine=aff)
                out = Volume(*reorient_ras(v.data, v.affine))
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
        out = Volume(*reorient_ras(v.data, v.affine))
        d = out.affine[:3, :3]
        assert np.all(np.diag(d) > 0)
        assert np.allclose(d - np.diag(np.diag(d)), 0.0)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(3)
        aff = axis_swap_affine([1, 0, 2], [False, True, False], (4, 4, 4))
        v = Volume(data=rng.random((4, 4, 4)), affine=aff)
        once = Volume(*reorient_ras(v.data, v.affine))
        twice = Volume(*reorient_ras(once.data, once.affine))
        assert np.array_equal(once.data, twice.data)
        np.testing.assert_array_equal(once.affine, twice.affine)


class TestResample:
    def test_identity_spacing(self):
        rng = np.random.default_rng(42)
        v = Volume(data=rng.random((5, 6, 7)))
        out = Volume(*resample_isotropic(v.data, v.affine, 1.0))
        assert out.shape == v.shape
        np.testing.assert_allclose(out.data, v.data, atol=1e-6)

    def test_output_shape_is_ceil_extent_over_spacing(self):
        v = Volume(data=np.zeros((5, 4, 3)))
        assert resample_isotropic(v.data, v.affine, 2.0)[0].shape == (3, 2, 2)
        v2 = Volume(data=np.zeros((4, 4, 4)), affine=np.diag([2.0, 2.0, 2.0, 1.0]))
        assert resample_isotropic(v2.data, v2.affine, 1.0)[0].shape == (8, 8, 8)

    @pytest.mark.parametrize("slices,spacing", [(80, 0.8), (160, 1.2)])
    def test_float32_spacing_keeps_the_whole_grid(self, slices, spacing):
        # a float32 header stores 0.8 mm as 0.800000012 and 1.2 mm as
        # 1.20000005, an extent just above a whole number of mm
        sp = float(np.float32(spacing))
        assert slices * sp > round(slices * spacing)
        v = Volume(data=np.zeros((slices, 2, 2)), affine=np.diag([sp, 1.0, 1.0, 1.0]))
        assert resample_isotropic(v.data, v.affine, 1.0)[0].shape == (round(slices * spacing), 2, 2)
        # an extent past the float32 rounding still gains its voxel
        wider = Volume(data=v.data, affine=np.diag([spacing + 1e-5, 1.0, 1.0, 1.0]))
        assert resample_isotropic(wider.data, wider.affine, 1.0)[0].shape == (round(slices * spacing) + 1, 2, 2)

    def test_constants_preserved_exactly(self):
        v = Volume(
            data=np.full((6, 5, 4), 3.25), affine=np.diag([1.3, 0.8, 2.1, 1.0])
        )
        for spacing in (0.4, 1.0, 1.7, 3.0):
            out = Volume(*resample_isotropic(v.data, v.affine, spacing))
            assert np.all(out.data == 3.25), f"spacing {spacing}"

    def test_linear_ramp_reproduced_at_interior_samples(self):
        # f(world) = 2x + 3y - z + 5 sampled on a 4^3 grid at 2 mm
        aff = np.diag([2.0, 2.0, 2.0, 1.0])
        idx = np.indices((4, 4, 4)).astype(float)
        world = np.einsum("ab,bxyz->axyz", aff[:3, :3], idx) + aff[:3, 3][:, None, None, None]
        f = 2 * world[0] + 3 * world[1] - world[2] + 5
        v = Volume(data=f, affine=aff)

        out = Volume(*resample_isotropic(v.data, v.affine, 1.0))
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
        out = Volume(*resample_isotropic(v.data, v.affine, 1.0))
        np.testing.assert_allclose(out.spacing, [1.0, 1.0, 1.0])
        # shared low cell corner: corner = center0 - spacing/2 per axis
        corner_in = aff[:3, 3] - 0.35
        corner_out = out.affine[:3, 3] - 0.5
        np.testing.assert_allclose(corner_out, corner_in, atol=1e-12)

    def test_rejects_nonpositive_spacing(self):
        v = Volume(data=np.zeros((2, 2, 2)))
        with pytest.raises(GeometryError):
            resample_isotropic(v.data, v.affine, 0.0)


class TestAlignedAxes:
    @pytest.mark.parametrize(
        "diag", [(1.0, 1.0, 1.0), (1.0, 0.7, 1.0), (1.0, 0.9, 1.0), (2.0, 1.0, 1.0)],
        ids=["all", "x-z", "x-z-same-count", "y-z"],
    )
    def test_matches_interpolating_every_axis(self, diag):
        rng = np.random.default_rng(11)
        v = Volume(data=rng.normal(size=(6, 7, 5)), affine=np.diag([*diag, 1.0]))
        out = Volume(*resample_isotropic(v.data, v.affine, 1.0))
        assert np.array_equal(out.data, lerp_every_axis(v, 1.0))

    def test_all_aligned_shares_the_array(self):
        v = Volume(data=np.random.default_rng(12).normal(size=(4, 5, 6)))
        out = Volume(*resample_isotropic(v.data, v.affine, 1.0))
        assert np.array_equal(out.data, v.data)
        assert out.data is v.data


def oblique_affine(degrees):
    """1 mm grid rotated about world z."""
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    aff = np.eye(4)
    aff[:2, :2] = [[c, -s], [s, c]]
    aff[:3, 3] = [1.5, -2.0, 0.25]
    return aff


def float_affine_chain(net_mask, offsets, pre_resize_shape):
    """The (data, src affine) a float-affine inverse of the chain reads a
    native mask from: the network mask doubled when halved, the pad's low
    side cropped off, and the affine carried along."""
    data, affine = net_mask.data, net_mask.affine.copy()
    if tuple(pre_resize_shape) != net_mask.shape:
        for axis in range(3):
            data = np.repeat(data, 2, axis=axis)
        affine[:3, :3] = net_mask.affine[:3, :3] / 2.0
        affine[:3, 3] = net_mask.affine[:3, 3] - affine[:3, :3] @ np.full(3, 0.5)
    affine[:3, 3] += affine[:3, :3] @ np.array(offsets, dtype=float)
    return data[offsets[0]:, offsets[1]:, offsets[2]:], affine


class TestNearestGather:
    """resample_nearest_to_grid, mask_to_native and mask_to_network equal
    the slab loop byte for byte, through the per-axis gather."""

    @pytest.fixture
    def gathers(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return gather(*args)

        gather = volume._gather_axes
        monkeypatch.setattr(volume, "_gather_axes", spy)
        return calls

    @staticmethod
    def check(data, src, dst, dst_shape):
        out = resample_nearest_to_grid(data, src, dst, dst_shape)
        ref = slab_loop_nearest(data, src, dst, dst_shape)
        assert out.dtype == ref.dtype and out.flags.c_contiguous
        assert np.array_equal(out, ref)
        return out

    @staticmethod
    def labels(shape, seed=0):
        """Values 1..250, so a 0 in the output can only mean out of grid."""
        return np.random.default_rng(seed).integers(1, 251, size=shape).astype(np.uint8)

    def test_identity(self, gathers):
        data = self.labels((7, 8, 9))
        out = self.check(data, np.eye(4), np.eye(4), (7, 8, 9))
        assert np.array_equal(out, data) and len(gathers) == 1

    def test_harness_train_mask_ties(self, gathers):
        # a 64^3 phantom mask onto the default 32^3 network grid, as train does
        image, truth = make_phantom(64, np.random.default_rng(1011))
        net_vol, meta = preprocess_volume(image, GridConfig())
        mat = np.linalg.inv(truth.affine) @ net_vol.affine
        # every destination voxel sits on a tie 2i + 0.5 on every axis
        np.testing.assert_array_equal(mat[:3, :3], 2.0 * np.eye(3))
        np.testing.assert_array_equal(mat[:3, 3], [0.5, 0.5, 0.5])
        ref = self.check(truth.data, truth.affine, net_vol.affine, net_vol.shape)
        out = mask_to_network(truth.data, image.affine, meta["pad"]["offsets"], 2, net_vol.shape)
        assert np.array_equal(out, ref) and len(gathers) == 2

    def test_mask_to_native_doubled_grid(self, gathers):
        image, _ = make_phantom(64, np.random.default_rng(1012))
        net_vol, meta = preprocess_volume(image, GridConfig())
        net_mask = LabelMask(net_vol.data > 0.3, net_vol.affine)
        offsets, pre = tuple(meta["pad"]["offsets"]), tuple(meta["pre_resize_shape"])
        back = mask_to_native(net_mask, image, offsets, pre)
        data, src = float_affine_chain(net_mask, offsets, pre)
        assert back.data.any()
        assert np.array_equal(back.data, slab_loop_nearest(data, src, image.affine, image.shape))
        assert len(gathers) == 1

    @pytest.mark.parametrize("halve", [True, False])
    def test_rotated_anisotropic_scan(self, halve, gathers):
        # a 48^3 phantom stored on a grid rotated 17 degrees about world z,
        # with voxel sizes drawn from 0.7-1.3 mm
        rng = np.random.default_rng(1013)
        image, truth = make_phantom(48, rng)
        affine = oblique_affine(17.0) @ np.diag(np.append(rng.uniform(0.7, 1.3, 3), 1.0))
        image, truth = Volume(image.data, affine), LabelMask(truth.data, affine)
        grid = GridConfig(pad_shape=(64, 64, 64), resize_half=halve)
        net_vol, meta = preprocess_volume(image, grid)
        offsets, pre = tuple(meta["pad"]["offsets"]), tuple(meta["pre_resize_shape"])
        net_mask = LabelMask(net_vol.data > 0.3, net_vol.affine)
        back = mask_to_native(net_mask, image, offsets, pre)
        data, src = float_affine_chain(net_mask, offsets, pre)
        assert 0 < np.count_nonzero(back.data) < back.data.size
        assert np.array_equal(back.data, slab_loop_nearest(data, src, image.affine, image.shape))
        step = 2 if halve else 1
        out = mask_to_network(truth.data, image.affine, offsets, step, net_vol.shape)
        ref = slab_loop_nearest(truth.data, affine, net_vol.affine, net_vol.shape)
        assert out.any() and np.array_equal(out, ref)
        assert len(gathers) == 2

    @pytest.mark.parametrize("perm", [[1, 0, 2], [2, 0, 1], [0, 2, 1]])
    @pytest.mark.parametrize("flips", [[False, True, False], [True, True, True]])
    def test_permuted_flipped_anisotropic(self, perm, flips, gathers):
        src = axis_swap_affine(perm, flips, (9, 10, 11), spacing=(1.3, 0.8, 2.0))
        dst = axis_swap_affine([2, 1, 0], [True, False, False], (12, 7, 8),
                               spacing=(0.9, 1.7, 1.1))
        dst[:3, 3] = src[:3, 3] + [0.4, -0.3, 1.2]
        self.check(self.labels((9, 10, 11)), src, dst, (12, 7, 8))
        assert len(gathers) == 1

    def test_partial_overlap_is_zero_outside(self, gathers):
        dst = np.diag([0.75, 1.5, 1.0, 1.0])
        dst[:3, 3] = [-3.0, 4.2, 5.5]
        out = self.check(self.labels((10, 9, 8)), np.eye(4), dst, (16, 6, 9))
        assert 0 < np.count_nonzero(out) < out.size
        dst[:3, 3] += 40.0  # no overlap at all
        assert not self.check(self.labels((10, 9, 8)), np.eye(4), dst, (16, 6, 9)).any()
        assert len(gathers) == 2

    def test_negative_zero_entry(self):
        # inv(src) @ dst sums from +0, so the entry is built here directly
        mat = np.diag([-1.5, 0.5, 2.0, 1.0])[:, [1, 0, 2, 3]]
        mat[:3, 3] = [9.0, -0.5, 1.0]
        mat[0, 0] = mat[2, 1] = -0.0
        assert np.signbit(mat[0, 0]) and np.signbit(mat[2, 1])
        dst_axis = volume._aligned_axes(mat[:3, :3])
        assert list(dst_axis) == [1, 0, 2]
        data, dst_shape = self.labels((8, 8, 8)), (12, 6, 4)
        index = [np.rint(mat[a, d] * np.arange(dst_shape[d]) + mat[a, 3]).astype(np.intp)
                 for a, d in enumerate(dst_axis)]
        out = volume._gather_axes(data, index, dst_axis)
        assert np.array_equal(out, slab_loop_nearest(data, np.eye(4), mat, dst_shape))

    @pytest.mark.parametrize("kind", ["oblique-10deg", "diagonal-1e-17"])
    def test_oblique_maps_refused(self, kind, gathers):
        if kind == "oblique-10deg":
            dst = oblique_affine(10.0)
        else:
            dst = np.diag([2.0, 2.0, 2.0, 1.0])
            dst[:3, 3] = 0.5
            dst[0, 1] = dst[1, 2] = dst[2, 0] = 1e-17
        with pytest.raises(GeometryError, match="not a scaled signed permutation"):
            resample_nearest_to_grid(self.labels((12, 12, 10)), np.eye(4), dst, (8, 9, 7))
        assert gathers == []


class TestPad:
    def test_reference_offsets(self):
        v = Volume(data=np.ones((181, 217, 181)))
        data, affine, offsets = pad_to(v.data, v.affine, (256, 256, 256))
        padded = Volume(data, affine)
        assert offsets == (37, 19, 37)
        assert padded.shape == (256, 256, 256)
        assert padded.data.sum() == v.data.sum()

    def test_world_coordinates_preserved(self):
        rng = np.random.default_rng(0)
        aff = np.diag([1.2, 1.0, 0.9, 1.0])
        aff[:3, 3] = [-4.0, 2.0, 0.5]
        v = Volume(data=rng.random((3, 4, 5)), affine=aff)
        data, affine, offsets = pad_to(v.data, v.affine, (8, 8, 9))
        padded = Volume(data, affine)
        # voxel (offsets + i) of the padded grid sits where voxel i used to
        probe = np.array([1, 2, 3])
        w_old = v.affine @ np.append(probe, 1.0)
        w_new = padded.affine @ np.append(probe + offsets, 1.0)
        np.testing.assert_allclose(w_old, w_new, atol=1e-9)
        assert padded.data[tuple(probe + offsets)] == v.data[tuple(probe)]

    def test_rejects_smaller_target(self):
        v = Volume(data=np.ones((10, 10, 10)))
        with pytest.raises(GeometryError):
            pad_to(v.data, v.affine, (8, 12, 12))


class TestResizeHalf:
    def test_block_mean_reference(self):
        v = Volume(data=np.arange(8, dtype=float).reshape(2, 2, 2))
        out = Volume(*resize_half(v.data, v.affine))
        assert out.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == 3.5

    def test_matches_block_means_on_random(self):
        rng = np.random.default_rng(42)
        x = rng.random((6, 4, 8))
        v = Volume(data=x)
        out = Volume(*resize_half(v.data, v.affine))
        expect = x.reshape(3, 2, 2, 2, 4, 2).mean(axis=(1, 3, 5))
        np.testing.assert_array_equal(out.data, expect)

    def test_spacing_doubles_and_centers_align(self):
        aff = np.diag([1.0, 1.0, 1.0, 1.0])
        v = Volume(data=np.zeros((4, 4, 4)), affine=aff)
        out = Volume(*resize_half(v.data, v.affine))
        np.testing.assert_allclose(out.spacing, [2.0, 2.0, 2.0])
        # coarse voxel 0 center = mean of fine centers 0 and 1 = 0.5
        np.testing.assert_allclose(out.affine[:3, 3], [0.5, 0.5, 0.5])

    def test_rejects_odd_dims(self):
        v = Volume(data=np.zeros((3, 4, 4)))
        with pytest.raises(GeometryError):
            resize_half(v.data, v.affine)


class TestBlockMeans:
    """volume.block_means against numpy's strided reduction, bit for bit."""

    def test_3d_float64_over_six_decades(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            shape = tuple(2 * int(s) for s in rng.integers(1, 12, 3))
            x = rng.random(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            nx, ny, nz = (s // 2 for s in shape)
            expect = x.reshape(nx, 2, ny, 2, nz, 2).mean(axis=(1, 3, 5))
            out = volume.block_means(x)
            assert out.dtype == np.float64
            assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_5d_batch_two(self, dtype):
        rng = np.random.default_rng(92)
        for _ in range(5):
            shape = (2, 3, 8, 6, 4)
            x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)).astype(dtype)
            expect = x.reshape(2, 3, 4, 2, 3, 2, 2, 2).mean(axis=(3, 5, 7))
            out = volume.block_means(x)
            assert out.dtype == dtype and out.shape == expect.shape
            assert out.tobytes() == expect.tobytes()


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

        v = Volume(*reorient_ras(original.data, original.affine))
        r = Volume(*resample_isotropic(v.data, v.affine, 1.0))
        data, affine, offsets = pad_to(r.data, r.affine, (64, 64, 64))
        padded = Volume(data, affine)
        half = Volume(*resize_half(padded.data, padded.affine))
        net_mask = LabelMask(data=(half.data > 0.5).astype(np.uint8), affine=half.affine)

        back = mask_to_native(net_mask, original, offsets, padded.shape)
        assert back.shape == original.shape
        assert dice(back.data, sphere.data) >= 0.95

    def test_no_resize_variant(self):
        aff = np.eye(4)
        sphere = make_sphere((32, 32, 32), (16, 16, 16), 10.0, aff)
        original = Volume(data=sphere.data.astype(float), affine=aff)
        data, affine, offsets = pad_to(sphere.data.astype(float), aff, (40, 40, 40))
        padded = Volume(data, affine)
        net_mask = LabelMask(data=(padded.data > 0.5).astype(np.uint8), affine=padded.affine)
        back = mask_to_native(net_mask, original, offsets, padded.shape)
        assert dice(back.data, sphere.data) == 1.0

    def test_inconsistent_provenance_raises(self):
        m = LabelMask(data=np.zeros((8, 8, 8), dtype=np.uint8))
        original = Volume(data=np.zeros((20, 20, 20)))
        with pytest.raises(GeometryError):
            mask_to_native(m, original, (0, 0, 0), (17, 16, 16))
