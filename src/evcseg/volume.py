"""Core volume types and grid geometry operations.

A volume couples a dense 3D array with a 4x4 affine mapping voxel indices
to world millimeters (index maps to the voxel center, the usual NIfTI
convention). The preprocessing transforms, ``reorient_ras``,
``resample_isotropic``, ``pad_to`` and ``resize_half``, take and return a
plain ``(data, affine)`` pair, the form the chain runs them in; the chain
checks only its network-grid result, as a :class:`Volume`. No op writes
into its input.

Sampling conventions used throughout:

* ``resample_isotropic`` lays its output grid over the input cell extent
  (``shape * spacing`` per axis, shared low corner) and clamps sample
  indices to ``[0, n - 1]``. The output grid never leaves the input extent
  by more than half an output cell, so clamping amounts to edge extension
  and constants survive resampling exactly at every spacing. An axis whose
  output samples fall exactly on its input voxels (``ci == arange(n)``, as
  on a 1 mm scan resampled to 1 mm) is copied rather than interpolated;
  the values are the interpolation's, except that a -0.0 keeps its sign.
* Nearest-neighbour sampling gathers one index array per axis and reads
  0 off the source grid. Between a scan and the network grid the index
  map is the chain's own (:func:`network_axes`), taken from the scan's
  affine, the pad offsets and the halving, so an oblique scan's round-off
  never enters it. ``resample_nearest_to_grid`` takes its map from two
  affines and accepts only a scaled signed permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, GeometryError

# voxel size, in mm on every axis, of the grid the chain resamples a scan to
SPACING_MM = 1.0

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


class _Grid:
    """What every array on a voxel grid shares: its spatial shape (the last
    three axes) and voxel size."""

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape[-3:]

    @property
    def spacing(self) -> np.ndarray:
        """Voxel size in mm per axis (column norms of the direction block)."""
        return np.linalg.norm(self.affine[:3, :3], axis=0)


@dataclass(frozen=True)
class Volume(_Grid):
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


@dataclass(frozen=True)
class LabelMask(_Grid):
    """A binary mask on the same kind of grid as :class:`Volume`."""

    data: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise GeometryError(f"mask data must be 3D, got ndim={data.ndim}")
        if data.dtype in (np.uint8, np.bool_):
            binary = data.size == 0 or data.max() <= 1
        else:
            binary = ((data == 0) | (data == 1)).all()
        if not binary:
            raise DataError("mask voxels must be 0 or 1")
        if data.dtype != np.uint8:
            data = data.astype(np.uint8)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", _check_affine(self.affine))


@dataclass(frozen=True)
class ProbMap(_Grid):
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
            raise DataError("probabilities must be nonnegative")
        sums = data.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise DataError("per-voxel probabilities must sum to 1 within 1e-6")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "affine", _check_affine(self.affine))


def check_same_grid(a: _Grid, b: _Grid, a_name: str, b_name: str) -> None:
    """Raise DataError unless a and b share their spatial shape and, within
    1e-5, their affine: one is read on the other's voxels."""
    if a.shape != b.shape:
        raise DataError(f"{a_name} shape {a.shape} != {b_name} shape {b.shape}")
    if not np.allclose(a.affine, b.affine, atol=1e-5):
        raise DataError(f"{a_name} and {b_name} grids disagree")


# --------------------------------------------------------------------------
# orientation
# --------------------------------------------------------------------------


def _ras_axes(affine: np.ndarray) -> tuple[list[int], list[bool]]:
    """Per world axis, the voxel axis feeding it and whether it runs backwards:
    voxel axes in turn take the free world axis of their largest |cosine|."""
    dirs = affine[:3, :3]
    cosines = dirs / np.linalg.norm(dirs, axis=0)
    src_axis = [-1, -1, -1]  # src_axis[world] = voxel axis feeding it
    taken: set[int] = set()
    for vox in range(3):
        scores = np.abs(cosines[:, vox])
        scores[list(taken)] = -1.0
        world = int(np.argmax(scores))  # argmax tie-breaks toward lower axis
        src_axis[world] = vox
        taken.add(world)
    return src_axis, [bool(cosines[world, src_axis[world]] < 0.0) for world in range(3)]


def reorient_ras(data: np.ndarray, affine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Permute and flip axes (:func:`_ras_axes`) so they run along world +x,
    +y, +z; returns the data and its affine.

    World coordinates of every voxel are preserved exactly, so applying
    this twice is a no-op. A C-ordered array already in RAS order comes
    back uncopied: no stage writes into a volume's data.
    """
    src_axis, flip = _ras_axes(affine)
    flipped = tuple(np.flatnonzero(flip))
    data = np.flip(np.transpose(data, axes=src_axis), axis=flipped)
    # old_index = T3 @ new_index + t, folded into the affine
    trans = np.eye(4)[:, src_axis + [3]]
    for world in flipped:
        trans[src_axis[world], [world, 3]] = -1.0, data.shape[world] - 1
    return np.ascontiguousarray(data), affine @ trans


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


def resample_isotropic(
    data: np.ndarray, affine: np.ndarray, spacing_mm: float
) -> tuple[np.ndarray, np.ndarray]:
    """Resample onto an isotropic grid by trilinear interpolation; returns
    the data and its affine.

    The output grid shares the input's direction cosines and cell extent;
    its shape is ``ceil(shape * spacing / spacing_mm)`` per axis, less a
    relative 1e-6 before the ceil: a spacing read from a float32 header
    sits a few float32 steps above its decimal (0.8 mm reads as
    0.800000012), and its extent must not gain a voxel for that. Axes
    already on the output grid are not interpolated, so an array with every
    axis there comes back uncopied.

    Args:
        data: the scan's voxels, 3D.
        affine: its 4x4 voxel-index-to-world-mm transform.
        spacing_mm: target voxel size, identical on all axes.
    """
    if not spacing_mm > 0.0:
        raise GeometryError(f"spacing must be positive, got {spacing_mm}")
    sp = np.linalg.norm(affine[:3, :3], axis=0)
    dirs = affine[:3, :3] / sp
    extent = np.array(data.shape) * sp / spacing_mm
    out_shape = np.maximum(np.ceil(extent * (1 - 1e-6)), 1).astype(int)

    for axis in range(3):
        # centers of output cells, measured in input voxel indices
        ci = (np.arange(out_shape[axis]) + 0.5) * spacing_mm / sp[axis] - 0.5
        if not np.array_equal(ci, np.arange(data.shape[axis])):
            data = _lerp_axis(data, ci, axis)

    out = np.eye(4)
    out[:3, :3] = dirs * spacing_mm
    out[:3, 3] = affine[:3, 3] + dirs @ ((spacing_mm - sp) / 2.0)
    return data, out


def pad_to(
    data: np.ndarray, affine: np.ndarray, shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
    """Zero-pad to `shape`, centering the input.

    Returns the padded data, its affine and the per-axis offsets of the
    original low corner, ``floor((target - shape) / 2)``. An array that
    already has the target shape comes back uncopied, with zero offsets.
    """
    target = tuple(int(s) for s in shape)
    if any(t < s for t, s in zip(target, data.shape)):
        raise GeometryError(f"cannot pad {data.shape} into smaller target {target}")
    if target == data.shape:
        return data, affine.copy(), (0, 0, 0)
    offsets = tuple((t - s) // 2 for t, s in zip(target, data.shape))
    out = np.zeros(target, dtype=data.dtype)
    out[tuple(slice(o, o + s) for o, s in zip(offsets, data.shape))] = data
    affine = affine.copy()
    affine[:3, 3] = affine[:3, 3] - affine[:3, :3] @ np.array(offsets, dtype=float)
    return out, affine, offsets


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


def resize_half(data: np.ndarray, affine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Halve each axis by 2x2x2 block averaging (:func:`block_means`); voxel
    size doubles. Returns the data and its affine."""
    if any(s % 2 for s in data.shape):
        raise GeometryError(f"resize_half needs even dimensions, got {data.shape}")
    out = affine.copy()
    out[:3, :3] = affine[:3, :3] * 2.0
    out[:3, 3] = affine[:3, 3] + affine[:3, :3] @ np.full(3, 0.5)
    return block_means(data), out


# --------------------------------------------------------------------------
# nearest-neighbour index maps
# --------------------------------------------------------------------------


def resample_nearest_to_grid(
    data: np.ndarray,
    src_affine: np.ndarray,
    dst_affine: np.ndarray,
    dst_shape: tuple[int, int, int],
) -> np.ndarray:
    """Nearest-neighbour resample of `data` onto a grid whose axes run along
    the source grid's: one gather per axis, and 0 off the source grid.

    Raises GeometryError unless the index map ``inv(src) @ dst`` is a scaled
    signed permutation, one entry != 0 in every row and column of its 3x3
    block; a 1e-17 off-diagonal term is refused too.
    """
    mat = np.linalg.inv(src_affine) @ np.asarray(dst_affine, dtype=np.float64)
    dst_axis = _aligned_axes(mat[:3, :3])
    if dst_axis is None:
        raise GeometryError(f"grid axes do not align: index map {mat[:3, :3].tolist()} "
                            "is not a scaled signed permutation")
    index = [np.rint(mat[a, d] * np.arange(dst_shape[d]) + mat[a, 3]).astype(np.intp)
             for a, d in enumerate(dst_axis)]
    return _gather_axes(data, index, dst_axis)


def _aligned_axes(lin):
    """The destination axis each source axis is read along, when every row and
    column of the 3x3 index map lin has exactly one entry != 0 (-0.0 is 0);
    else None."""
    nonzero = lin != 0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return nonzero.argmax(axis=1)
    return None


def _gather_axes(data, index, dst_axis):
    """Read data onto a grid whose axis dst_axis[a] reads source axis a
    alone, at the monotone source indices index[a]; indices off the source
    grid read 0."""
    dst_shape = tuple(len(index[a]) for a in np.argsort(dst_axis))
    block, span = data, [None] * 3
    for a, d in enumerate(dst_axis):
        # index[a] is monotone, so its in-grid part is one run
        inside = np.flatnonzero((index[a] >= 0) & (index[a] < data.shape[a]))
        if inside.size == 0:
            return np.zeros(dst_shape, dtype=data.dtype)
        span[d] = slice(inside[0], inside[-1] + 1)
        idx = index[a][span[d]]
        if (np.diff(idx) == 1).all():  # consecutive source voxels: a view, no copy
            block = block[(slice(None),) * a + (slice(idx[0], idx[-1] + 1),)]
        else:
            block = np.take(block, idx, axis=a)
    out = np.zeros(dst_shape, dtype=data.dtype)
    out[tuple(span)] = block.transpose(np.argsort(dst_axis))
    return out


def network_axes(affine: np.ndarray, offsets) -> list[tuple[int, int, float, int]]:
    """The chain's index map for a native grid `affine` padded at `offsets`:
    per network axis, the native axis feeding it (:func:`reorient_ras`'s
    choice), its sign (-1 when reversed), its scale (resampled voxels per
    native voxel) and its pad offset."""
    src_axis, flip = _ras_axes(affine)
    scale = np.linalg.norm(affine[:3, :3], axis=0) / SPACING_MM
    return [(a, -1 if f else 1, scale[a], int(o)) for a, f, o in zip(src_axis, flip, offsets)]


def mask_to_network(data, affine, offsets, step, shape) -> np.ndarray:
    """Carry native-grid `data` onto the network grid of `shape` through the
    chain's map (:func:`network_axes`), `step` 2 when the chain halved.

    Network voxel k lies ``(step * k + step / 2 - offset) / scale - 1/2``
    native voxels along its axis in RAS order, rounded half to even before
    a reversed axis is reversed. Off the native grid reads 0.
    """
    index, dst_axis = [None] * 3, [None] * 3
    for w, (a, sign, scale, off) in enumerate(network_axes(affine, offsets)):
        r = np.rint((step * np.arange(shape[w]) + step / 2 - off) / scale - 0.5).astype(np.intp)
        index[a], dst_axis[a] = (r if sign > 0 else data.shape[a] - 1 - r), w
    return _gather_axes(data, index, dst_axis)


def mask_to_native(
    m: LabelMask,
    original: Volume,
    offsets: tuple[int, int, int],
    pre_resize_shape: tuple[int, int, int],
) -> LabelMask:
    """Undo the preprocessing chain, carrying a network-grid mask back to
    `original`'s grid through the chain's map (:func:`network_axes`).

    Native voxel r (in RAS order) reads resampled voxel
    ``rint((r + 1/2) * scale - 1/2)``, ties to even, which lies `offsets`
    into the padded grid of `pre_resize_shape`: `m`'s shape, or twice it
    when the chain halved. Off the padded grid reads 0. `m`'s affine is not
    read. GeometryError when `pre_resize_shape` is neither `m`'s shape nor
    its doubling, or an offset falls outside it.
    """
    pre = tuple(int(s) for s in pre_resize_shape)
    steps = [s for s in (1, 2) if pre == tuple(s * n for n in m.shape)]
    if not steps:
        raise GeometryError(f"pre_resize_shape {pre} matches neither the mask shape "
                            f"{m.shape} nor its doubling")
    if any(o < 0 or o >= s for o, s in zip(offsets, pre)):
        raise GeometryError(f"pad offsets {offsets} fall outside grid {pre}")
    index, dst_axis = [None] * 3, [None] * 3
    for w, (a, sign, scale, off) in enumerate(network_axes(original.affine, offsets)):
        j = np.rint((np.arange(original.shape[a])[::sign] + 0.5) * scale - 0.5).astype(np.intp)
        index[w] = np.where((j >= 0) & (j < pre[w] - off), (j + off) // steps[0], -1)
        dst_axis[w] = a
    return LabelMask(_gather_axes(m.data, index, dst_axis), original.affine.copy())
