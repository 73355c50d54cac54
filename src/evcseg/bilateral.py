"""Gaussian filtering of fields on the voxel lattice.

`gaussian_blur` is the spatial Gaussian exp(-d^2 / 2 theta^2), d in mm:
a separable convolution truncated at TRUNCATE bandwidths and left
unnormalized, so it sums the kernel over voxel pairs.

`bilateral_filter` computes, for every voxel i and value channel c,

    out[c, i] ~= sum_j exp(-|p_i - p_j|^2 / 2 theta^2 - (I_i - I_j)^2 / 2) * values[c, j]

with intensities already scaled by their bandwidth. The sum includes
j = i; callers wanting the strict off-diagonal sum subtract the self
term. Positions sit on the lattice, so only intensity is gridded (the
bilateral grid of Chen, Paris & Durand 2007 with the spatial axes left at
voxel resolution): a linear splat into intensity cells CELL bandwidths
wide, a blur along intensity, `gaussian_blur` in space, and a linear
slice back. Splat and slice each convolve with a tent of variance
CELL^2/6, so the intensity blur carries the remaining variance, and its
kernel is rescaled to mass sqrt(2*pi)/CELL so amplitudes match the
unnormalized Gaussian. Third-of-bandwidth cells keep the discrete blur
well sampled and the quantization wobble near one percent.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import convolve1d

CELL = 1.0 / 3.0  # intensity cell size in bandwidth units
TRUNCATE = 3.0  # every Gaussian is cut off at this many bandwidths


def gaussian_blur(field, spacing, theta):
    """Blur the last len(spacing) axes of field; theta and spacing in mm."""
    out = np.asarray(field, dtype=np.float64)
    for axis, sp in enumerate(spacing):
        radius = int(np.ceil(TRUNCATE * theta / sp))
        t = np.arange(-radius, radius + 1) * sp
        kern = np.exp(-(t**2) / (2 * theta**2))
        out = convolve1d(out, kern, axis=axis - len(spacing), mode="constant")
    return out


def _blur_kernel():
    sigma_cells = np.sqrt(1.0 - CELL**2 / 3.0) / CELL
    radius = int(np.ceil(TRUNCATE * sigma_cells))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t**2) / (2.0 * sigma_cells**2))
    return k * (np.sqrt(2.0 * np.pi) / CELL / k.sum())


def bilateral_filter(values, inten, spacing, theta):
    """Filter values (C, *grid) against bandwidth-scaled intensities (*grid).

    spacing (per axis) and the spatial bandwidth theta are in mm. Returns a
    (C, *grid) array approximating the sum above.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[1:] != np.shape(inten):
        raise ValueError(f"values {values.shape} do not match intensities {np.shape(inten)}")
    flat = values.reshape(values.shape[0], -1)
    pos = np.reshape(inten, -1) / CELL  # intensity in cells
    cell = np.floor(pos)
    base = (cell - cell.min()).astype(np.int64)
    frac = pos - cell
    # each voxel has a column of cells to itself, so no two voxels collide;
    # blur mass past either end of the intensity range is never sliced back,
    # so the grid needs no padding
    voxel = np.arange(flat.shape[1])
    grid = np.zeros((flat.shape[0], base.max() + 2, flat.shape[1]))
    grid[:, base, voxel] = (1.0 - frac) * flat
    grid[:, base + 1, voxel] = frac * flat
    grid = convolve1d(grid, _blur_kernel(), axis=1, mode="constant")
    grid = gaussian_blur(grid.reshape(grid.shape[:2] + values.shape[1:]), spacing, theta)
    grid = grid.reshape(grid.shape[:2] + (-1,))
    out = (1.0 - frac) * grid[:, base, voxel] + frac * grid[:, base + 1, voxel]
    return out.reshape(values.shape)
