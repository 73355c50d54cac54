"""Gaussian filtering of fields on the voxel lattice.

`gaussian_blur` is the spatial Gaussian exp(-d^2 / 2 theta^2), d in mm,
truncated at TRUNCATE bandwidths and left unnormalized, so it sums the
kernel over voxel pairs. It is separable: each axis is one matrix
product with that axis's n x n banded Gaussian, whose edge is the zero
boundary.

`bilateral_filter` computes, for every voxel i and value channel c,

    out[c, i] ~= sum_j exp(-|p_i - p_j|^2 / 2 theta^2 - (I_i - I_j)^2 / 2) * values[c, j]

with intensities already scaled by their bandwidth. The sum includes
j = i; callers wanting the strict off-diagonal sum subtract the self
term. Positions sit on the lattice, so only intensity is gridded (the
bilateral grid of Chen, Paris & Durand 2007 with the spatial axes left at
voxel resolution), one intensity cell CELL bandwidths wide at a time:
the values splatted into the cell with tent weights are blurred in space
by `gaussian_blur` and added back to each voxel, weighted by the
intensity kernel linearly interpolated at the voxel's distance from the
cell. That is the grid's splat, intensity blur, spatial blur and linear
slice in another order (the two blurs commute, and slicing a blurred
cell column interpolates the kernel), with no grid held in memory.
Splat and slice each convolve with a tent of variance CELL^2/6, so the
intensity kernel carries the remaining variance, and it is rescaled to
mass sqrt(2*pi)/CELL so amplitudes match the unnormalized Gaussian.
Third-of-bandwidth cells keep the discrete kernel well sampled and the
quantization wobble near one percent.
"""

from __future__ import annotations

import numpy as np

CELL = 1.0 / 3.0  # intensity cell size in bandwidth units
TRUNCATE = 3.0  # every Gaussian is cut off at this many bandwidths


def _blur_matrix(n, sp, theta):
    """Gaussian weights between the n voxels, sp mm apart, of one axis."""
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    m = np.exp(-((lag * sp) ** 2) / (2 * theta**2))
    m[lag > np.ceil(TRUNCATE * theta / sp)] = 0.0
    return m


def gaussian_blur(field, spacing, theta):
    """Blur the last three axes of field; theta and spacing (per axis) in mm."""
    out = np.asarray(field, dtype=np.float64)
    mx, my, mz = (_blur_matrix(n, sp, theta) for n, sp in zip(out.shape[-3:], spacing))
    out = my @ (out @ mz)  # the matrices are symmetric
    return (mx @ out.reshape(out.shape[:-2] + (-1,))).reshape(out.shape)


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
    pos = np.asarray(inten, dtype=np.float64) / CELL  # intensity in cells
    pos = pos - np.floor(pos.min())
    kern = np.pad(_blur_kernel(), 1)  # interpolates to 0 past the last tap
    offsets = np.arange(kern.size) - kern.size // 2
    out = np.zeros(values.shape)
    for cell in range(int(pos.max()) + 2):
        splat = np.maximum(0.0, 1.0 - np.abs(pos - cell))
        if splat.any():  # an empty cell adds exactly zero
            blurred = gaussian_blur(splat * values, spacing, theta)
            out += np.interp(cell - pos, offsets, kern) * blurred
    return out
