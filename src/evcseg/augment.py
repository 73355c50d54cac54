"""On-load training augmentation: intensity jitter and rigid moves.

Two independent perturbations, each drawn once per volume:

* an affine intensity map ``s * v + t`` with uniform ``s`` and ``t``,
* a rigid transform (per-axis Euler rotation about the volume center plus
  a per-axis voxel translation) applied identically to the image and its
  mask, trilinear for the image and nearest-neighbor for the mask.

These are training-time perturbations in voxel space: the grid shape and
its world anchor stay put, and anything mapped in from outside the grid
is filled with 0.

The magnitudes are fixed artifact choices, mild at typical head-scan
scales.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import ConfigError, GeometryError
from .volume import LabelMask, Volume

SCALE_RANGE = (0.9, 1.1)
SHIFT_RANGE = (-0.05, 0.05)
MAX_ROT_DEG = 10.0
MAX_TRANS_VOX = 5.0


def intensity_augment(v: Volume, rng: np.random.Generator) -> Volume:
    """Return ``s * v + t`` with one uniform draw of ``(s, t)`` per call.

    ``s`` is drawn from SCALE_RANGE, then ``t`` from SHIFT_RANGE; ``v`` is
    not modified.
    """
    s = rng.uniform(*SCALE_RANGE)
    t = rng.uniform(*SHIFT_RANGE)
    return Volume(s * v.data + t, v.affine)


def _rotation_matrix(angles_deg) -> np.ndarray:
    """Compose per-axis right-handed rotations as Rz @ Ry @ Rx."""
    ax, ay, az = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def apply_rigid(
    v: Volume,
    m: LabelMask,
    angles_deg,
    trans_vox,
) -> tuple[Volume, LabelMask]:
    """Apply one fixed rigid transform to an image and its mask.

    Content at voxel index ``p`` moves to ``R (p - c) + c + t`` where ``c``
    is the grid center ``(shape - 1) / 2``; the output grid is resampled by
    the inverse map, trilinear for the image and nearest-neighbor for the
    mask, with 0 outside the input grid.

    Args:
        angles_deg: per-axis Euler angles, composed as Rz @ Ry @ Rx.
        trans_vox: per-axis translation in voxels.
    """
    if v.shape != m.shape:
        raise GeometryError(f"image/mask shape mismatch: {v.shape} vs {m.shape}")
    angles = np.asarray(angles_deg, dtype=np.float64)
    trans = np.asarray(trans_vox, dtype=np.float64)
    if angles.shape != (3,) or trans.shape != (3,):
        raise ConfigError("angles_deg and trans_vox must each have 3 components")

    # Degenerate draw: skip interpolation so the identity is exact.
    if not angles.any() and not trans.any():
        return Volume(v.data.copy(), v.affine), LabelMask(m.data.copy(), m.affine)

    r = _rotation_matrix(angles)
    center = (np.asarray(v.shape, dtype=np.float64) - 1.0) / 2.0
    # Inverse map for affine_transform: in = R^T (out - c - t) + c.
    offset = center - r.T @ (center + trans)
    image = ndimage.affine_transform(
        v.data, matrix=r.T, offset=offset, order=1, mode="grid-constant", cval=0.0
    )
    mask = ndimage.affine_transform(
        m.data, matrix=r.T, offset=offset, order=0, mode="grid-constant", cval=0
    )
    return Volume(image, v.affine), LabelMask(mask, m.affine)


def rigid_augment(
    v: Volume, m: LabelMask, rng: np.random.Generator
) -> tuple[Volume, LabelMask]:
    """Randomly rotate and translate an image/mask pair together.

    Per axis, the angle is uniform in ``[-MAX_ROT_DEG, MAX_ROT_DEG]`` and
    the translation uniform in ``[-MAX_TRANS_VOX, MAX_TRANS_VOX]``; the
    three angles are drawn before the three translations.
    """
    angles = rng.uniform(-MAX_ROT_DEG, MAX_ROT_DEG, size=3)
    trans = rng.uniform(-MAX_TRANS_VOX, MAX_TRANS_VOX, size=3)
    return apply_rigid(v, m, angles, trans)
