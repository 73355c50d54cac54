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
and added back to each voxel, weighted by the intensity kernel linearly
interpolated at the voxel's distance from the cell. That is the grid's
splat, intensity blur, spatial blur and linear slice in another order
(the two blurs commute, and slicing a blurred cell column interpolates
the kernel), with no grid held in memory. Splat and slice each convolve
with a tent of variance CELL^2/6, so the intensity kernel carries the
remaining variance, and it is rescaled to mass sqrt(2*pi)/CELL so
amplitudes match the unnormalized Gaussian. Third-of-bandwidth cells
keep the discrete kernel well sampled and the quantization wobble near
one percent.

Each cell works inside two boxes, found for all cells at once from
per-axis counts of the voxels' floor cells. A voxel at position pos (in
cells) splats into cells floor(pos) and floor(pos) + 1 only, so a cell's
splatted field is zero outside the bounding box of those voxels, its
support box. The interpolated kernel is zero from `reach` cells out, past
its zero-padded ends, so the slice adds zero outside the bounding box of
the voxels whose floor cell lies in [cell - reach, cell + reach - 1], its
band box. The blur therefore takes each axis matrix's band rows and
support columns only: the parts skipped would multiply zeros or be
dropped, so the boxes change nothing but the length of BLAS sums. The
slice weight is gathered from tables of the kernel taps and their
differences, slope[j] * (x - j) + kern[j] with j = floor(x), which is the
formula np.interp evaluates between unit-spaced taps.

Everything but the splat and the blur depends on the intensities alone:
`cell_records` yields it one cell at a time (the boxes, the blur-matrix
slices and the slice weights over the band box), and `bilateral_filter`
applies the records. A one-shot call builds each record as the filter
reaches it; a caller filtering many fields against one volume (the CRF's
message passes) keeps them in a list and builds them once. Kept, the slice
weights take one float64 per voxel of each band box: at most one
field-sized array per populated cell. The per-axis counts that find the
boxes take cells x axis length entries, so an intensity span too wide for
the field (a tiny intensity bandwidth) is refused with a CapacityError
before they are drawn.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError

CELL = 1.0 / 3.0  # intensity cell size in bandwidth units
TRUNCATE = 3.0  # every Gaussian is cut off at this many bandwidths
# _cell_boxes' per-axis (cell, index) counts may take as many entries as
# the field has voxels, or this many on a smaller field
MIN_COUNT_ENTRIES = 1 << 16


def _blur_matrix(n, sp, theta):
    """Gaussian weights between the n voxels, sp mm apart, of one axis."""
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    dist = lag * sp
    # past 40 bandwidths the exponent is below -800 and exp gives exactly 0,
    # so those taps are left 0 rather than formed, which could overflow
    near = (lag <= np.ceil(TRUNCATE * theta / sp)) & (dist <= 40 * theta)
    m = np.zeros((n, n))
    m[near] = np.exp(-(dist[near] ** 2) / (2 * theta**2))
    return m


def _blur(field, mx, my, mz):
    """Weigh the last three axes of field: mx and my map (output, input)
    voxels, mz maps (input, output)."""
    out = my @ (field @ mz)
    lead, (ny, nz) = out.shape[:-3], out.shape[-2:]
    out = mx @ out.reshape(lead + (out.shape[-3], ny * nz))
    return out.reshape(lead + (mx.shape[0], ny, nz))


def gaussian_blur(field, spacing, theta):
    """Blur the last three axes of field; theta and spacing (per axis) in mm."""
    field = np.asarray(field, dtype=np.float64)
    # the matrices are symmetric, so each serves either way round
    return _blur(field, *(_blur_matrix(n, sp, theta) for n, sp in zip(field.shape[-3:], spacing)))


def _blur_kernel():
    sigma_cells = np.sqrt(1.0 - CELL**2 / 3.0) / CELL
    radius = int(np.ceil(TRUNCATE * sigma_cells))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t**2) / (2.0 * sigma_cells**2))
    return k * (np.sqrt(2.0 * np.pi) / CELL / k.sum())


def _slice_weights(x, kern, slope):
    """np.interp(x, offsets, kern) for taps at offsets -h..h, h = kern.size // 2,
    as a gather; slope holds the tap differences, and the zero taps at the
    ends of kern and slope make clipped indices give 0."""
    j = np.floor(x)
    at = j.astype(np.intp) + kern.size // 2
    return slope.take(at, mode="clip") * (x - j) + kern.take(at, mode="clip")


def _spans(counts):
    """(first, one past the last) nonzero column of each row, as (rows, 2)."""
    hit = counts > 0
    return np.stack([hit.argmax(axis=1), hit.shape[1] - hit[:, ::-1].argmax(axis=1)], axis=1)


def _cell_boxes(pos, reach):
    """(cell, support box, band box) for each cell a voxel splats into.

    pos >= 0 holds intensity positions in cells. A box is one slice per
    axis; the band covers the voxels whose floor cell lies in
    [cell - reach, cell + reach - 1].
    """
    low = pos.astype(np.intp)  # floor(pos)
    frac = (pos > low).ravel()  # these voxels also splat into low + 1
    cells = int(low.max()) + 2
    rows = np.arange(cells)
    support, band = [], []
    for axis, n in enumerate(pos.shape):
        index = np.arange(n).reshape((n,) + (1,) * (pos.ndim - 1 - axis))
        key = (low * n + index).ravel()  # (floor cell, index along this axis)
        floors = np.bincount(key, minlength=cells * n).reshape(cells, n)
        splats = floors + np.bincount(key + n, frac, minlength=cells * n).reshape(cells, n)
        below = np.zeros((cells + 1, n), np.intp)  # row c: floor cells under c
        np.cumsum(floors, axis=0, out=below[1:])
        near = below[np.minimum(rows + reach, cells)] - below[np.maximum(rows - reach, 0)]
        support.append(_spans(splats))
        band.append(_spans(near))
    support, band = np.stack(support, axis=1), np.stack(band, axis=1)
    return [
        (cell, *(tuple(slice(a, b) for a, b in box[cell].tolist()) for box in (support, band)))
        for cell in np.flatnonzero(splats.any(axis=1)).tolist()  # the same on every axis
    ]


def cell_records(inten, spacing, theta):
    """Yield, one cell at a time, what filtering against inten needs of
    each cell a voxel splats into.

    A record is (cell, support box, band box, intensity positions over the
    support box, the three blur-matrix slices, slice weights over the band
    box). Records depend on the intensities, spacing and theta alone, so a
    caller filtering many fields against one volume can keep them in a list.
    """
    pos = np.asarray(inten, dtype=np.float64) / CELL  # intensity in cells
    pos = pos - np.floor(pos.min())
    entries = (np.floor(pos.max()) + 2) * max(pos.shape)
    if not entries <= max(pos.size, MIN_COUNT_ENTRIES):
        raise CapacityError(
            f"intensities span {pos.max():.3g} cells of {CELL:.3g} bandwidths: the filter's "
            f"per-axis counts would hold {entries:.3g} entries for {pos.size} voxels; "
            "use a wider intensity bandwidth"
        )
    # one zero tap each side makes the kernel interpolate to 0 from reach
    # cells out, and a second one gives 0 at clipped gather indices
    kern = np.pad(_blur_kernel(), 2)
    reach = kern.size // 2 - 1
    slope = np.append(np.diff(kern), 0.0)
    mx, my, mz = (_blur_matrix(n, sp, theta) for n, sp in zip(pos.shape, spacing))
    for cell, support, band in _cell_boxes(pos, reach):
        (sx, sy, sz), (bx, by, bz) = support, band
        blur = (mx[bx, sx], my[by, sy], mz[sz, bz])
        yield cell, support, band, pos[support], blur, _slice_weights(cell - pos[band], kern, slope)


def bilateral_filter(values, inten, spacing, theta, cells=None):
    """Filter values (C, *grid) against bandwidth-scaled intensities (*grid).

    spacing (per axis) and the spatial bandwidth theta are in mm. cells are
    the records of cell_records(inten, spacing, theta), kept from an earlier
    call; None builds them as the filter goes. Returns a (C, *grid) array
    approximating the sum above.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[1:] != np.shape(inten):
        raise ValueError(f"values {values.shape} do not match intensities {np.shape(inten)}")
    if cells is None:
        cells = cell_records(inten, spacing, theta)
    out = np.zeros(values.shape)
    for cell, support, band, pos, blur, weights in cells:
        splat = np.maximum(0.0, 1.0 - np.abs(pos - cell))
        blurred = _blur(splat * values[(slice(None), *support)], *blur)
        out[(slice(None), *band)] += np.multiply(weights, blurred, out=blurred)
    return out
