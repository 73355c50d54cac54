"""Tests for intensity and rigid training augmentation."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from evcseg.augment import (
    MAX_ROT_DEG,
    MAX_TRANS_VOX,
    SCALE_RANGE,
    SHIFT_RANGE,
    _rotation_matrix,
    apply_rigid,
    intensity_augment,
    rigid_augment,
)
from evcseg.errors import ConfigError, GeometryError
from evcseg.metrics import dice
from evcseg.volume import LabelMask, Volume


def brute_rigid_mask(data, angles_deg, trans_vox):
    """Inverse-map nearest-neighbor resampling as an explicit voxel loop."""
    r = Rotation.from_euler("xyz", angles_deg, degrees=True).as_matrix()
    center = (np.asarray(data.shape, dtype=np.float64) - 1.0) / 2.0
    trans = np.asarray(trans_vox, dtype=np.float64)
    out = np.zeros_like(data)
    for out_idx in np.ndindex(data.shape):
        src = r.T @ (np.asarray(out_idx, dtype=np.float64) - center - trans) + center
        nn = np.floor(src + 0.5).astype(int)
        if np.all(nn >= 0) and np.all(nn < data.shape):
            out[out_idx] = data[tuple(nn)]
    return out


def brute_rigid_trilinear(data, angles_deg, trans_vox):
    """Inverse-map trilinear resampling as an explicit 8-corner loop."""
    r = Rotation.from_euler("xyz", angles_deg, degrees=True).as_matrix()
    center = (np.asarray(data.shape, dtype=np.float64) - 1.0) / 2.0
    trans = np.asarray(trans_vox, dtype=np.float64)
    out = np.zeros(data.shape, dtype=np.float64)
    for out_idx in np.ndindex(data.shape):
        src = r.T @ (np.asarray(out_idx, dtype=np.float64) - center - trans) + center
        lo = np.floor(src).astype(int)
        frac = src - lo
        acc = 0.0
        for corner in np.ndindex(2, 2, 2):
            idx = lo + np.asarray(corner)
            w = np.prod(np.where(np.asarray(corner) == 1, frac, 1.0 - frac))
            if np.all(idx >= 0) and np.all(idx < data.shape):
                acc += w * data[tuple(idx)]
        out[out_idx] = acc
    return out


def random_pair(rng, shape=(10, 10, 10)):
    v = Volume(rng.standard_normal(shape))
    blob = np.zeros(shape, dtype=np.uint8)
    blob[3:7, 2:8, 4:7] = 1
    return v, LabelMask(blob)


class TestIntensityAugment:
    def test_fixed_scale_and_shift(self):
        # replay the two draws, scale then shift, from an identically seeded
        # generator; the output must be exactly s * v + t
        v = Volume(np.full((3, 3, 3), 3.0))
        out = intensity_augment(v, np.random.default_rng(0))
        replay = np.random.default_rng(0)
        s = replay.uniform(*SCALE_RANGE)
        t = replay.uniform(*SHIFT_RANGE)
        assert SCALE_RANGE[0] <= s <= SCALE_RANGE[1]
        assert SHIFT_RANGE[0] <= t <= SHIFT_RANGE[1]
        assert np.all(out.data == s * 3.0 + t)

    def test_single_draw_per_volume(self):
        data = np.zeros((4, 4, 4))
        data[0, 0, 0] = 1.0
        data[0, 0, 1] = 2.0
        v = Volume(data)
        out = intensity_augment(v, np.random.default_rng(3)).data
        s = out[0, 0, 0] - out[1, 0, 0]
        t = out[1, 0, 0]
        assert np.allclose(out, s * data + t, rtol=0, atol=1e-12)

    def test_seeded_determinism(self):
        v = Volume(np.random.default_rng(1).standard_normal((6, 6, 6)))
        a = intensity_augment(v, np.random.default_rng(42)).data
        b = intensity_augment(v, np.random.default_rng(42)).data
        c = intensity_augment(v, np.random.default_rng(43)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_input_not_mutated(self):
        data = np.ones((3, 3, 3))
        v = Volume(data)
        intensity_augment(v, np.random.default_rng(0))
        assert np.all(v.data == 1.0)


class TestApplyRigid:
    def test_rotation_matrix_convention(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            angles = rng.uniform(-180.0, 180.0, size=3)
            expected = Rotation.from_euler("xyz", angles, degrees=True).as_matrix()
            assert np.allclose(_rotation_matrix(angles), expected, rtol=0, atol=1e-12)

    def test_zero_transform_is_exact_identity(self):
        v, m = random_pair(np.random.default_rng(0))
        out_v, out_m = apply_rigid(v, m, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert np.array_equal(out_v.data, v.data)
        assert np.array_equal(out_m.data, m.data)
        assert out_v.data is not v.data

    def test_unit_translation_moves_marker(self):
        img = np.zeros((9, 9, 9))
        msk = np.zeros((9, 9, 9), dtype=np.uint8)
        img[4, 4, 4] = 1.0
        msk[4, 4, 4] = 1
        out_v, out_m = apply_rigid(Volume(img), LabelMask(msk), (0, 0, 0), (0, 0, 1))
        expected = np.zeros((9, 9, 9))
        expected[4, 4, 5] = 1.0
        assert np.allclose(out_v.data, expected, rtol=0, atol=1e-12)
        assert np.array_equal(out_m.data, expected.astype(np.uint8))

    def test_out_of_bounds_fills_zero(self):
        v = Volume(np.ones((6, 6, 6)))
        m = LabelMask(np.ones((6, 6, 6), dtype=np.uint8))
        out_v, out_m = apply_rigid(v, m, (0, 0, 0), (0, 0, 3))
        assert np.all(out_v.data[:, :, :3] == 0.0)
        assert np.all(out_v.data[:, :, 3:] == 1.0)
        assert np.all(out_m.data[:, :, :3] == 0)
        assert np.all(out_m.data[:, :, 3:] == 1)

    def test_quarter_turn_bar(self):
        # On a 15^3 grid the center is (7,7,7) and a 90 degree z-rotation
        # maps lattice points to lattice points, so the expected mask is
        # constructed analytically: (x, 7, z) -> (7, x, z).
        shape = (15, 15, 15)
        bar = np.zeros(shape, dtype=np.uint8)
        bar[3:12, 7, 6:9] = 1
        expected = np.zeros(shape, dtype=np.uint8)
        expected[7, 3:12, 6:9] = 1
        v = Volume(0.8 * bar.astype(np.float64))
        out_v, out_m = apply_rigid(v, LabelMask(bar), (0.0, 0.0, 90.0), (0.0, 0.0, 0.0))
        assert dice(expected, out_m.data) >= 0.9
        assert np.array_equal(out_m.data, expected)
        assert np.allclose(out_v.data, 0.8 * expected, rtol=0, atol=1e-9)

    def test_matches_brute_resampling(self):
        rng = np.random.default_rng(11)
        v, m = random_pair(rng)
        angles = (7.3, -4.1, 12.9)
        trans = (0.6, -1.2, 0.4)
        out_v, out_m = apply_rigid(v, m, angles, trans)
        assert np.array_equal(out_m.data, brute_rigid_mask(m.data, angles, trans))
        assert np.allclose(
            out_v.data, brute_rigid_trilinear(v.data, angles, trans), rtol=0, atol=1e-12
        )

    def test_shape_mismatch_rejected(self):
        v = Volume(np.zeros((4, 4, 4)))
        m = LabelMask(np.zeros((4, 4, 5), dtype=np.uint8))
        with pytest.raises(GeometryError):
            apply_rigid(v, m, (0, 0, 0), (0, 0, 0))

    def test_bad_component_count_rejected(self):
        v, m = random_pair(np.random.default_rng(0))
        with pytest.raises(ConfigError):
            apply_rigid(v, m, (0, 0), (0, 0, 0))


class TestRigidAugment:
    def test_seeded_determinism(self):
        v, m = random_pair(np.random.default_rng(2))
        a_v, a_m = rigid_augment(v, m, np.random.default_rng(7))
        b_v, b_m = rigid_augment(v, m, np.random.default_rng(7))
        c_v, _ = rigid_augment(v, m, np.random.default_rng(8))
        assert np.array_equal(a_v.data, b_v.data)
        assert np.array_equal(a_m.data, b_m.data)
        assert not np.array_equal(a_v.data, c_v.data)

    def test_mask_stays_binary(self):
        v, m = random_pair(np.random.default_rng(4), shape=(12, 12, 12))
        for seed in range(5):
            _, out_m = rigid_augment(v, m, np.random.default_rng(seed))
            assert out_m.data.dtype == np.uint8
            assert set(np.unique(out_m.data)) <= {0, 1}

    def test_image_and_mask_share_one_transform(self):
        # Re-derive the draws with an identically seeded generator and apply
        # them explicitly; both outputs must match bitwise.
        v, m = random_pair(np.random.default_rng(6))
        out_v, out_m = rigid_augment(v, m, np.random.default_rng(21))
        rng = np.random.default_rng(21)
        angles = rng.uniform(-MAX_ROT_DEG, MAX_ROT_DEG, size=3)
        trans = rng.uniform(-MAX_TRANS_VOX, MAX_TRANS_VOX, size=3)
        exp_v, exp_m = apply_rigid(v, m, angles, trans)
        assert np.array_equal(out_v.data, exp_v.data)
        assert np.array_equal(out_m.data, exp_m.data)

    def test_marker_block_tracks_forward_map(self):
        # A solid marker block centered at the grid center lands, in both
        # outputs, at center + translation; mask and image centroids agree.
        shape = (17, 17, 17)
        img = np.zeros(shape)
        msk = np.zeros(shape, dtype=np.uint8)
        img[7:10, 7:10, 7:10] = 1.0
        msk[7:10, 7:10, 7:10] = 1
        for seed in range(5):
            rng = np.random.default_rng(seed)
            out_v, out_m = rigid_augment(Volume(img), LabelMask(msk), rng)
            replay = np.random.default_rng(seed)
            replay.uniform(-MAX_ROT_DEG, MAX_ROT_DEG, size=3)
            trans = replay.uniform(-MAX_TRANS_VOX, MAX_TRANS_VOX, size=3)
            expected_center = np.array([8.0, 8.0, 8.0]) + trans
            mask_centroid = np.argwhere(out_m.data == 1).mean(axis=0)
            coords = np.argwhere(out_v.data > 0)
            weights = out_v.data[out_v.data > 0]
            img_centroid = (coords * weights[:, None]).sum(axis=0) / weights.sum()
            assert np.linalg.norm(mask_centroid - expected_center) <= 0.6
            assert np.linalg.norm(img_centroid - mask_centroid) <= 0.5
