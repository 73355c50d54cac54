"""Core volume types and grid geometry operations.

A volume couples a dense 3D array with a 4x4 affine mapping voxel indices
to world millimeters (index maps to the voxel center, the usual NIfTI
convention). All geometry ops return new objects; nothing mutates in place.

Sampling conventions used throughout:

* ``resample_isotropic`` lays its output grid over the input cell extent
  (``shape * spacing`` per axis, shared low corner) and clamps sample
  indices to ``[0, n - 1]``. The output grid never leaves the input extent
  by more than half an output cell, so clamping amounts to edge extension
  and constants survive resampling exactly at every spacing.
* Cross-grid sampling (``mask_to_native``) and anything that genuinely
  leaves the source grid fills with 0.

Both resamplers skip work whose result is already known. An axis whose
output samples fall exactly on its input voxels (``ci == arange(n)``, as
on a 1 mm scan resampled to 1 mm) is copied rather than interpolated;
the values are the interpolation's, except that a -0.0 keeps its sign.
``resample_nearest_to_grid`` gathers per axis when the source-index map
``inv(src) @ dst`` has exactly one entry != 0 in every row and column of
its 3x3 block (identity, scaling, permuted or flipped axes): one rounded
index array per axis, read as a slice where it steps through consecutive
voxels and by ``np.take`` elsewhere. Its float sums, so its indices, are
those of the general path. Any other map, down to a 1e-17 off-diagonal
term, takes that general path: source coordinates rounded one x-slab at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GeometryError

# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------


def _check_finite(data: np.ndarray, what: str) -> None:
    bad = data.size - np.count_nonzero(np.isfinite(data))
    if bad:
        raise DataError(f"{what} must be finite; {bad} values are NaN or infinite")


def _check_affine(affine: np.ndarray) -> np.ndarray:
    """A validated, read-only copy of affine."""
    affine = np.array(affine, dtype=np.float64)
    if affine.shape != (4, 4):
        raise GeometryError(f"affine must be 4x4, got {affine.shape}")
    if not np.isfinite(affine).all():
        raise GeometryError("affine has non-finite entries")
    if not np.allclose(affine[3], [0.0, 0.0, 0.0, 1.0]):
        raise GeometryError("affine last row must be [0, 0, 0, 1]")
    if abs(np.linalg.det(affine[:3, :3])) < 1e-12:
        raise GeometryError("affine upper-left 3x3 block is singular")
    affine.flags.writeable = False
    return affine


@dataclass(frozen=True)
class Volume:
    """A scalar 3D volume on a world-anchored voxel grid.

    Args:
        data: finite array of shape (nx, ny, nz); converted to float64.
        affine: 4x4 voxel-index-to-world-mm transform.
    """

    data: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise GeometryError(f"volume data must be 3D, got ndim={data.ndim}")
        _check_finite(data, "volume data")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", _check_affine(self.affine))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def spacing(self) -> np.ndarray:
        """Voxel size in mm per axis (column norms of the direction block)."""
        return np.linalg.norm(self.affine[:3, :3], axis=0)


@dataclass(frozen=True)
class LabelMask:
    """A binary mask on the same kind of grid as :class:`Volume`."""

    data: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise GeometryError(f"mask data must be 3D, got ndim={data.ndim}")
        if data.dtype != np.uint8:
            data = data.astype(np.uint8)
        if data.size and data.max() > 1:
            raise GeometryError("mask voxels must be 0 or 1")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", _check_affine(self.affine))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def spacing(self) -> np.ndarray:
        return np.linalg.norm(self.affine[:3, :3], axis=0)


@dataclass(frozen=True)
class ProbMap:
    """Per-voxel label probabilities, label axis first: (L, nx, ny, nz)."""

    data: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 4 or data.shape[0] < 2:
            raise GeometryError(
                f"probability map must be (L >= 2, nx, ny, nz), got {data.shape}"
            )
        _check_finite(data, "probabilities")
        if data.min() < 0.0:
            raise GeometryError("probabilities must be nonnegative")
        sums = data.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise GeometryError("per-voxel probabilities must sum to 1 within 1e-6")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", _check_affine(self.affine))

    @property
    def num_labels(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape[1:]


# --------------------------------------------------------------------------
# orientation
# --------------------------------------------------------------------------


def reorient_ras(v: Volume) -> Volume:
    """Permute and flip axes so they run along world +x, +y, +z.

    Each voxel axis is assigned the world axis of its largest direction
    cosine (ties go to the lower world axis), then flipped if the cosine is
    negative. World coordinates of every voxel are preserved exactly, so
    applying this twice is a no-op. A C-ordered volume already in RAS order
    comes back with its own data array, uncopied: no stage writes into a
    volume's data.
    """
    dirs = v.affine[:3, :3]
    cosines = dirs / np.linalg.norm(dirs, axis=0)

    src_axis = [-1, -1, -1]  # src_axis[world] = voxel axis feeding it
    taken: set[int] = set()
    for vox in range(3):
        scores = np.abs(cosines[:, vox]).copy()
        scores[list(taken)] = -1.0
        world = int(np.argmax(scores))  # argmax tie-breaks toward lower axis
        src_axis[world] = vox
        taken.add(world)

    flip = [cosines[world, src_axis[world]] < 0.0 for world in range(3)]

    data = np.transpose(v.data, axes=src_axis)
    for world in range(3):
        if flip[world]:
            data = np.flip(data, axis=world)

    # old_index = T3 @ new_index + t, folded into the affine
    trans = np.zeros((4, 4))
    trans[3, 3] = 1.0
    for world in range(3):
        vox = src_axis[world]
        if flip[world]:
            trans[vox, world] = -1.0
            trans[vox, 3] = v.shape[vox] - 1
        else:
            trans[vox, world] = 1.0
    return Volume(data=np.ascontiguousarray(data), affine=v.affine @ trans)


# --------------------------------------------------------------------------
# resampling
# --------------------------------------------------------------------------


def _lerp_axis(data: np.ndarray, ci: np.ndarray, axis: int) -> np.ndarray:
    """Linear interpolation of `data` at clamped continuous indices along one axis."""
    n = data.shape[axis]
    if n == 1:
        return np.take(data, np.zeros(len(ci), dtype=np.intp), axis=axis)
    ci = np.clip(ci, 0.0, n - 1.0)
    lo = np.clip(np.floor(ci).astype(np.intp), 0, n - 2)
    frac = ci - lo
    shape = [1, 1, 1]
    shape[axis] = len(ci)
    frac = frac.reshape(shape)
    return np.take(data, lo, axis=axis) * (1.0 - frac) + np.take(
        data, lo + 1, axis=axis
    ) * frac


def resample_isotropic(v: Volume, spacing_mm: float) -> Volume:
    """Resample onto an isotropic grid by trilinear interpolation.

    The output grid shares the input's direction cosines and cell extent;
    its shape is ``ceil(shape * spacing / spacing_mm)`` per axis, less a
    relative 1e-6 before the ceil: a spacing read from a float32 header
    sits a few float32 steps above its decimal (0.8 mm reads as
    0.800000012), and its extent must not gain a voxel for that. Axes
    already on the output grid are not interpolated, so a volume with every
    axis there comes back with its own data array, uncopied.

    Args:
        v: input volume.
        spacing_mm: target voxel size, identical on all axes.
    """
    if not spacing_mm > 0.0:
        raise GeometryError(f"spacing must be positive, got {spacing_mm}")
    sp = v.spacing
    dirs = v.affine[:3, :3] / sp
    extent = np.array(v.shape) * sp / spacing_mm
    out_shape = np.maximum(np.ceil(extent * (1 - 1e-6)), 1).astype(int)

    data = v.data
    for axis in range(3):
        # centers of output cells, measured in input voxel indices
        ci = (np.arange(out_shape[axis]) + 0.5) * spacing_mm / sp[axis] - 0.5
        if not np.array_equal(ci, np.arange(data.shape[axis])):
            data = _lerp_axis(data, ci, axis)

    affine = np.eye(4)
    affine[:3, :3] = dirs * spacing_mm
    affine[:3, 3] = v.affine[:3, 3] + dirs @ ((spacing_mm - sp) / 2.0)
    return Volume(data=data, affine=affine)


def pad_to(v: Volume, shape: tuple[int, int, int]) -> tuple[Volume, tuple[int, int, int]]:
    """Zero-pad to `shape`, centering the input.

    Returns the padded volume and the per-axis offsets of the original
    low corner, ``floor((target - shape) / 2)``.
    """
    target = tuple(int(s) for s in shape)
    if any(t < s for t, s in zip(target, v.shape)):
        raise GeometryError(f"cannot pad {v.shape} into smaller target {target}")
    offsets = tuple((t - s) // 2 for t, s in zip(target, v.shape))
    data = np.zeros(target, dtype=v.data.dtype)
    sl = tuple(slice(o, o + s) for o, s in zip(offsets, v.shape))
    data[sl] = v.data
    affine = v.affine.copy()
    affine[:3, 3] = v.affine[:3, 3] - v.affine[:3, :3] @ np.array(offsets, dtype=float)
    return Volume(data=data, affine=affine), offsets


def block_means(x: np.ndarray) -> np.ndarray:
    """Means of the 2x2x2 blocks of x's last three axes, which must be even.

    Bit for bit the block means numpy's ``reshape(..., 2, ..., 2, ..., 2)
    .mean`` returns, without its strided reduction: last-axis pairs are
    summed first, then the four (x, y) pair planes in row order, and the
    sum is divided by 8.
    """
    s = x[..., 0::2] + x[..., 1::2]
    p = [s[..., a::2, b::2, :] for a in (0, 1) for b in (0, 1)]
    return (((p[0] + p[1]) + p[2]) + p[3]) / 8


def resize_half(v: Volume) -> Volume:
    """Halve each axis by 2x2x2 block averaging (:func:`block_means`); voxel
    size doubles."""
    if any(s % 2 for s in v.shape):
        raise GeometryError(f"resize_half needs even dimensions, got {v.shape}")
    data = block_means(v.data)
    affine = v.affine.copy()
    affine[:3, :3] = v.affine[:3, :3] * 2.0
    affine[:3, 3] = v.affine[:3, 3] + v.affine[:3, :3] @ np.full(3, 0.5)
    return Volume(data=data, affine=affine)


def resample_nearest_to_grid(
    data: np.ndarray,
    src_affine: np.ndarray,
    dst_affine: np.ndarray,
    dst_shape: tuple[int, int, int],
) -> np.ndarray:
    """Nearest-neighbor resample of `data` onto an arbitrary destination grid.

    Destination voxels whose nearest source voxel falls outside the source
    grid come out 0. Axis-aligned grids take a per-axis gather, any other
    one x-slab at a time to bound memory (see the module docstring).
    """
    mat = np.linalg.inv(src_affine) @ np.asarray(dst_affine, dtype=np.float64)
    dst_axis = _aligned_axes(mat[:3, :3])
    if dst_axis is not None:
        return _gather_axes(data, mat, dst_axis, dst_shape)
    out = np.zeros(dst_shape, dtype=data.dtype)
    jj, kk = np.meshgrid(
        np.arange(dst_shape[1]), np.arange(dst_shape[2]), indexing="ij"
    )
    for i in range(dst_shape[0]):
        coords = (
            mat[:3, 0][:, None, None] * float(i)
            + mat[:3, 1][:, None, None] * jj
            + mat[:3, 2][:, None, None] * kk
            + mat[:3, 3][:, None, None]
        )
        idx = np.rint(coords).astype(np.intp)
        valid = np.ones(idx.shape[1:], dtype=bool)
        for a in range(3):
            valid &= (idx[a] >= 0) & (idx[a] < data.shape[a])
        idx_c = [np.where(valid, idx[a], 0) for a in range(3)]
        slab = data[idx_c[0], idx_c[1], idx_c[2]]
        slab[~valid] = 0
        out[i] = slab
    return out


def _aligned_axes(lin):
    """The destination axis each source axis is read along, when every row and
    column of the 3x3 index map lin has exactly one entry != 0 (-0.0 is 0);
    else None."""
    nonzero = lin != 0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return nonzero.argmax(axis=1)
    return None


def _gather_axes(data, mat, dst_axis, dst_shape):
    """resample_nearest_to_grid when source axis a is read along destination
    axis dst_axis[a] alone: mat[a, d] is its only nonzero index weight."""
    block, span = data, [None] * 3
    for a, d in enumerate(dst_axis):
        idx = np.rint(mat[a, d] * np.arange(dst_shape[d]) + mat[a, 3]).astype(np.intp)
        # idx is monotone in the destination index, so the in-grid part is one run
        inside = np.flatnonzero((idx >= 0) & (idx < data.shape[a]))
        if inside.size == 0:
            return np.zeros(dst_shape, dtype=data.dtype)
        span[d] = slice(inside[0], inside[-1] + 1)
        idx = idx[span[d]]
        if (np.diff(idx) == 1).all():  # consecutive source voxels: a view, no copy
            block = block[(slice(None),) * a + (slice(idx[0], idx[-1] + 1),)]
        else:
            block = np.take(block, idx, axis=a)
    out = np.zeros(dst_shape, dtype=data.dtype)
    out[tuple(span)] = block.transpose(np.argsort(dst_axis))
    return out


def mask_to_native(
    m: LabelMask,
    original: Volume,
    offsets: tuple[int, int, int],
    pre_resize_shape: tuple[int, int, int],
) -> LabelMask:
    """Undo the preprocessing chain, carrying a mask back to the native grid.

    The mask is nearest-neighbor upsampled to `pre_resize_shape` (a no-op
    when the chain skipped the half-resolution step), the centering pad is
    cropped off using `offsets`, and the result is nearest-neighbor
    resampled onto `original`'s grid.
    """
    pre = tuple(int(s) for s in pre_resize_shape)
    if pre == tuple(m.shape):
        data = m.data
        affine = m.affine.copy()
    elif pre == tuple(2 * s for s in m.shape):
        data = m.data
        for axis in range(3):
            data = np.repeat(data, 2, axis=axis)
        affine = m.affine.copy()
        affine[:3, :3] = m.affine[:3, :3] / 2.0
        affine[:3, 3] = m.affine[:3, 3] - affine[:3, :3] @ np.full(3, 0.5)
    else:
        raise GeometryError(
            f"pre_resize_shape {pre} matches neither the mask shape {m.shape} "
            "nor its doubling"
        )
    if any(o < 0 or o >= s for o, s in zip(offsets, data.shape)):
        raise GeometryError(f"pad offsets {offsets} fall outside grid {data.shape}")

    data = data[offsets[0]:, offsets[1]:, offsets[2]:]
    affine[:3, 3] = affine[:3, 3] + affine[:3, :3] @ np.array(offsets, dtype=float)

    native = resample_nearest_to_grid(data, affine, original.affine, original.shape)
    return LabelMask(data=native, affine=original.affine.copy())
