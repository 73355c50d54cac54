"""Shared builders for refinement test instances, and the CRF and
resampling oracles that only the tests use."""

import numpy as np
from scipy.ndimage import convolve1d
from scipy.special import xlogy

from evcseg.bilateral import CELL, TRUNCATE, _blur_kernel, gaussian_blur
from evcseg.crf import PROB_CLAMP, CrfConfig
from evcseg.errors import GeometryError
from evcseg.synth import (
    BRAIN_INTENSITY,
    NOISE_SIGMA,
    SHELL_INNER,
    SHELL_OUTER,
    SKULL_INTENSITY,
    make_phantom,
)
from evcseg.volume import LabelMask, ProbMap, Volume, _lerp_axis


def pairwise_kernel(fi, fj, cfg: CrfConfig) -> float:
    """Kernel value for feature vectors (x_mm, y_mm, z_mm, intensity)."""
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    dp2 = float(((fi[:3] - fj[:3]) ** 2).sum())
    di2 = float((fi[3] - fj[3]) ** 2)
    app = np.exp(-dp2 / (2 * cfg.theta_alpha**2) - di2 / (2 * cfg.theta_beta**2))
    smooth = np.exp(-dp2 / (2 * cfg.theta_gamma**2))
    return float(cfg.w_appearance * app + cfg.w_smoothness * smooth)


def convolve_blur(field, spacing, theta):
    """Reference for gaussian_blur: one truncated Gaussian convolution per
    axis over the last len(spacing) axes, zero outside the grid."""
    out = np.asarray(field, dtype=np.float64)
    for axis, sp in enumerate(spacing):
        radius = int(np.ceil(TRUNCATE * theta / sp))
        t = np.arange(-radius, radius + 1) * sp
        kern = np.exp(-(t**2) / (2 * theta**2))
        out = convolve1d(out, kern, axis=axis - len(spacing), mode="constant")
    return out


def full_grid_bilateral(values, inten, spacing, theta):
    """Reference for bilateral_filter: every cell a voxel splats into is
    splatted, blurred and sliced over the whole grid, with np.interp slice
    weights."""
    values = np.asarray(values, dtype=np.float64)
    pos = np.asarray(inten, dtype=np.float64) / CELL
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


def softmax_keeping_subnormals(logits):
    """Reference for crf._softmax_labels: the plain per-voxel softmax,
    subnormal marginals left as they come."""
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def dense_kernel(vol: Volume, cfg: CrfConfig) -> np.ndarray:
    """The CRF's N x N pairwise kernel k_ij over a volume's voxels, in C
    order, with a zero diagonal.

    Positions are voxel index times spacing, in mm; intensities are min-max
    scaled to [0, 1]. k_ij = w_a exp(-|p_i - p_j|^2 / 2 theta_alpha^2
    - (I_i - I_j)^2 / 2 theta_beta^2) + w_s exp(-|p_i - p_j|^2 / 2 theta_gamma^2).
    """
    pos = np.indices(vol.data.shape).reshape(3, -1).T * vol.spacing
    data = vol.data.reshape(-1)
    lo, hi = data.min(), data.max()
    inten = (data - lo) / (hi - lo) if hi > lo else np.zeros_like(data)
    dp2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    di2 = (inten[:, None] - inten[None, :]) ** 2
    k = cfg.w_appearance * np.exp(
        -dp2 / (2 * cfg.theta_alpha**2) - di2 / (2 * cfg.theta_beta**2)
    ) + cfg.w_smoothness * np.exp(-dp2 / (2 * cfg.theta_gamma**2))
    np.fill_diagonal(k, 0.0)
    return k


def oracle_free_energy(qf, uf, k) -> float:
    """Mean-field free energy of marginals qf (L, N) under unaries uf and
    the dense kernel k: expected unary cost, plus the expected Potts cost
    sum_{i<j} k_ij (1 - q_i . q_j), minus the entropy.

    k is symmetric with a zero diagonal and each voxel's marginals sum to 1,
    so the Potts sum is 0.5 * sum_{l,i} (1 - q_l(i)) (q @ k)_l(i).
    """
    unary = (qf * uf).sum()
    potts = 0.5 * ((1.0 - qf) * (qf @ k)).sum()
    return float(unary + potts + xlogy(qf, qf).sum())


def oracle_refine(p: ProbMap, vol: Volume, cfg: CrfConfig, iterations):
    """Dense parallel mean field: (marginals shaped like p.data, trace).

    The unaries are -log of p clamped to [PROB_CLAMP, 1 - PROB_CLAMP]. The
    marginals start at the softmax of the negative unaries, and each of the
    iterations sweeps sets q <- softmax(-u + q @ k) at every voxel at once.
    The trace holds the free energy of the start and of every sweep.
    """
    uf = -np.log(np.clip(p.data, PROB_CLAMP, 1.0 - PROB_CLAMP)).reshape(p.data.shape[0], -1)
    k = dense_kernel(vol, cfg)
    qf = softmax_keeping_subnormals(-uf)
    trace = [oracle_free_energy(qf, uf, k)]
    for _ in range(iterations):
        qf = softmax_keeping_subnormals(-uf + qf @ k)
        trace.append(oracle_free_energy(qf, uf, k))
    return qf.reshape(p.data.shape), tuple(trace)


def gibbs_energy(x: LabelMask, u: np.ndarray, vol: Volume, cfg: CrfConfig) -> float:
    """Exact energy of a hard labeling: unary sum plus Potts pairwise sum."""
    labels = x.data.reshape(-1).astype(np.int64)
    uf = u.reshape(len(u), -1)
    if labels.size != uf.shape[1]:
        raise GeometryError("labeling and unary field sizes differ")
    e_unary = uf[labels, np.arange(labels.size)].sum()
    k = dense_kernel(vol, cfg)
    differ = labels[:, None] != labels[None, :]
    return float(e_unary + 0.5 * (k * differ).sum())


def sphere_mask(shape, center, radius):
    grids = np.indices(shape)
    d2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return (d2 <= radius**2).astype(np.uint8)


def noisy_sphere_instance(seed=7):
    """12-cube sphere whose unary has 5% of voxels flipped.

    Returns (probmap, volume, clean truth, crf config): intensity tracks
    the true sphere with mild noise, the unary is confident but wrong at
    the flipped voxels, and the config uses intensity-guided kernels
    moderate enough that refinement has real work to do.
    """
    rng = np.random.default_rng(seed)
    shape = (12, 12, 12)
    truth = sphere_mask(shape, (6, 6, 6), 4)
    intensity = truth + rng.normal(0.0, 0.05, size=shape)
    fg = np.where(truth > 0, 0.9, 0.1)
    flip = rng.uniform(size=shape) < 0.05
    fg = np.where(flip, 1.0 - fg, fg)
    probs = np.stack([1.0 - fg, fg])
    cfg = CrfConfig(
        w_appearance=3.0,
        w_smoothness=1.0,
        theta_alpha=3.0,
        theta_beta=0.15,
        theta_gamma=1.5,
        iterations=5,
    )
    return ProbMap(probs), Volume(intensity), truth, cfg


def random_crf_instance(seed, max_side=12):
    """Random smooth unary + intensity on a random grid of side <= max_side.

    Kernel weights stay moderate so the marginals remain informative and
    backend disagreements cannot hide behind saturation.
    """
    rng = np.random.default_rng(seed)
    shape = tuple(int(rng.integers(5, max_side + 1)) for _ in range(3))

    def smooth_field():
        f = rng.normal(size=shape)
        for axis in range(3):
            f = (f + np.roll(f, 1, axis) + np.roll(f, -1, axis)) / 3.0
        return f

    fg = 1.0 / (1.0 + np.exp(-3.0 * smooth_field()))
    fg = np.clip(fg, 0.02, 0.98)
    probs = np.stack([1.0 - fg, fg])
    intensity = smooth_field() + 0.2 * rng.normal(size=shape)
    # the Gaussian kernels integrate to tens of units at these bandwidths,
    # so weights an order of magnitude below 1 keep the total coupling on
    # the scale of the unary logits; far above that the mean-field map
    # turns bistable and every voxel rides a knife edge
    cfg = CrfConfig(
        w_appearance=float(rng.uniform(0.1, 0.25)),
        w_smoothness=float(rng.uniform(0.04, 0.1)),
        theta_alpha=float(rng.uniform(1.5, 2.5)),
        theta_beta=float(rng.uniform(0.12, 0.2)),
        theta_gamma=float(rng.uniform(1.0, 2.0)),
        iterations=5,
    )
    return ProbMap(probs), Volume(intensity), cfg


def index_grid_phantom(size, rng):
    """Reference for make_phantom: the squared ellipsoid distance summed
    over a full np.indices grid, one size^3 float64 array per axis."""
    center = size / 2.0 + rng.uniform(-0.05 * size, 0.05 * size, size=3)
    radii = rng.uniform(0.22, 0.32, size=3) * size
    idx = np.indices((size, size, size), dtype=np.float64)
    d2 = sum(((idx[a] - center[a]) / radii[a]) ** 2 for a in range(3))
    brain = d2 <= 1.0
    shell = (d2 > SHELL_INNER**2) & (d2 <= SHELL_OUTER**2)
    image = (
        BRAIN_INTENSITY * brain
        + SKULL_INTENSITY * shell
        + NOISE_SIGMA * rng.standard_normal((size, size, size))
    )
    return Volume(image), LabelMask(brain.astype(np.uint8))


def phantom_crf_instance(seed):
    """32-cube phantom at 2 mm with a noisy foreground map of its truth and
    the default CrfConfig; its refinement drives over a thousand foreground
    marginals below the smallest normal float."""
    rng = np.random.default_rng(seed)
    image, truth = make_phantom(32, rng)
    aff = np.diag([2.0, 2.0, 2.0, 1.0])
    fg = np.clip(0.2 + 0.6 * truth.data + 0.15 * rng.normal(size=truth.shape), 0.02, 0.98)
    return ProbMap(np.stack([1 - fg, fg]), aff), Volume(image.data, aff), CrfConfig()


def slab_loop_nearest(data, src_affine, dst_affine, dst_shape):
    """Reference for resample_nearest_to_grid: every destination voxel's
    source coordinates computed and rounded, one x-slab at a time."""
    mat = np.linalg.inv(src_affine) @ np.asarray(dst_affine, dtype=np.float64)
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


def lerp_every_axis(v: Volume, spacing_mm: float) -> np.ndarray:
    """Reference for the data ``resample_isotropic(v.data, v.affine,
    spacing_mm)`` returns: one _lerp_axis pass per axis, aligned or not."""
    sp = v.spacing
    out_shape = np.maximum(np.ceil(np.array(v.shape) * sp / spacing_mm), 1).astype(int)
    data = v.data
    for axis in range(3):
        ci = (np.arange(out_shape[axis]) + 0.5) * spacing_mm / sp[axis] - 0.5
        data = _lerp_axis(data, ci, axis)
    return data
