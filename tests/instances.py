"""Shared builders for refinement test instances, and the CRF oracles
that only the tests use."""

import numpy as np

from evcseg.crf import CrfConfig, UnaryField, _free_energy, kernel_matrix
from evcseg.errors import GeometryError
from evcseg.volume import LabelMask, ProbMap, Volume


def pairwise_kernel(fi, fj, cfg: CrfConfig) -> float:
    """Kernel value for feature vectors (x_mm, y_mm, z_mm, intensity)."""
    fi = np.asarray(fi, dtype=np.float64)
    fj = np.asarray(fj, dtype=np.float64)
    dp2 = float(((fi[:3] - fj[:3]) ** 2).sum())
    di2 = float((fi[3] - fj[3]) ** 2)
    app = np.exp(-dp2 / (2 * cfg.theta_alpha**2) - di2 / (2 * cfg.theta_beta**2))
    smooth = np.exp(-dp2 / (2 * cfg.theta_gamma**2))
    return float(cfg.w_appearance * app + cfg.w_smoothness * smooth)


def gibbs_energy(x: LabelMask, u: UnaryField, vol: Volume, cfg: CrfConfig) -> float:
    """Exact energy of a hard labeling: unary sum plus Potts pairwise sum."""
    labels = x.data.reshape(-1).astype(np.int64)
    uf = u.neg_log_probs.reshape(u.neg_log_probs.shape[0], -1)
    if labels.size != uf.shape[1]:
        raise GeometryError("labeling and unary field sizes differ")
    e_unary = uf[labels, np.arange(labels.size)].sum()
    k = kernel_matrix(vol, cfg)
    differ = labels[:, None] != labels[None, :]
    return float(e_unary + 0.5 * (k * differ).sum())


def free_energy_exact(qf, uf, k):
    """The CRF's free-energy formula fed the exact message qf @ k."""
    return _free_energy(qf, uf, qf @ k)


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
        backend="brute",
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
        backend="brute",
    )
    return ProbMap(probs), Volume(intensity), cfg
