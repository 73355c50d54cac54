"""Fully connected pairwise CRF over voxels, solved by mean-field iteration.

The model couples every voxel pair with a two-part Gaussian kernel: an
appearance term over (position, intensity) with bandwidths theta_alpha /
theta_beta and weight w_appearance, and a smoothness term over position
alone with bandwidth theta_gamma and weight w_smoothness. Label
disagreement costs the kernel value (Potts compatibility); unary costs
come from a probability map, typically the network's softmax output.

Two backends share the same update rule. "brute" materializes the full
N x N kernel matrix (capped at BRUTE_MAX_VOXELS, it is the reference
implementation and the test oracle); "filtered" computes the smoothness
sums exactly with a separable spatial Gaussian blur and approximates the
appearance sums with a bilateral filter that grids intensity only, which
is what makes full volumes tractable. Positions are voxel index times
spacing, and intensities are min-max normalized to [0, 1] before any
kernel evaluation, so the bandwidths keep their meaning across scanners.

Each state carries the message of its marginals, which gives both its
free energy and the next parallel update, so a refinement of n sweeps
makes 1 + n message passes. The message pass is linear and the two
labels' marginals sum to 1, so the filtered backend filters labels 1..
only: label 0's message is the kernel mass (the pass over a field of
ones) minus theirs. The first pass filters the ones field alongside the
foreground, and the states carry the mass forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .bilateral import bilateral_filter, gaussian_blur
from .errors import CapacityError, ConfigError, DomainError, GeometryError
from .volume import LabelMask, ProbMap, Volume

BRUTE_MAX_VOXELS = 4096
PROB_CLAMP = 1e-6


@dataclass(frozen=True)
class CrfConfig:
    w_appearance: float = 5.0
    w_smoothness: float = 3.0
    theta_alpha: float = 4.0
    theta_beta: float = 0.1
    theta_gamma: float = 3.0
    iterations: int = 5
    backend: str = "filtered"
    update_order: str = "parallel"

    def __post_init__(self):
        if self.w_appearance < 0 or self.w_smoothness < 0:
            raise ConfigError("kernel weights must be >= 0")
        if min(self.theta_alpha, self.theta_beta, self.theta_gamma) <= 0:
            raise ConfigError("kernel bandwidths must be > 0")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        if self.backend not in ("brute", "filtered"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.update_order not in ("parallel", "sequential"):
            raise ConfigError(f"unknown update_order {self.update_order!r}")
        if self.backend == "filtered" and self.update_order == "sequential":
            # voxel-at-a-time updates would need per-voxel kernel rows, which
            # only the brute backend has
            raise ConfigError("sequential updates require the brute backend")


@dataclass(frozen=True)
class UnaryField:
    """Per-voxel label costs: -log of clamped probabilities, (L, nx, ny, nz)."""

    neg_log_probs: np.ndarray


@dataclass(frozen=True)
class MeanFieldState:
    """Marginals, their message, and the free energy recorded after each sweep.

    message is M_l(i) = sum_{j != i} k_ij q_l(j), shaped (L, N), from the
    backend that made the state; the next parallel sweep updates from it.
    mass is the filtered backend's message of a field of ones, shaped (N,),
    from which label 0's message follows; None under the brute backend.
    trace_exact is False once any entry came from the filtered backend's
    approximate kernel sums.
    """

    q: np.ndarray
    message: np.ndarray
    free_energy_trace: tuple
    trace_exact: bool = True
    mass: np.ndarray | None = None


def unary_from_probmap(p: ProbMap) -> UnaryField:
    clamped = np.clip(p.data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return UnaryField(neg_log_probs=-np.log(clamped))


def _intensities(vol: Volume) -> np.ndarray:
    """Voxel intensities min-max scaled to [0, 1], on the volume's grid."""
    data = vol.data
    lo, hi = data.min(), data.max()
    return (data - lo) / (hi - lo) if hi > lo else np.zeros_like(data)


def kernel_matrix(vol: Volume, cfg: CrfConfig) -> np.ndarray:
    """Dense pairwise kernel with zero diagonal. Brute backend only."""
    n = vol.data.size
    if n > BRUTE_MAX_VOXELS:
        raise CapacityError(
            f"{n} voxels exceed the brute-force cap of {BRUTE_MAX_VOXELS}"
        )
    pos = np.indices(vol.data.shape).reshape(3, -1).T * vol.spacing
    inten = _intensities(vol).reshape(-1)
    dp2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    di2 = (inten[:, None] - inten[None, :]) ** 2
    k = cfg.w_appearance * np.exp(
        -dp2 / (2 * cfg.theta_alpha**2) - di2 / (2 * cfg.theta_beta**2)
    ) + cfg.w_smoothness * np.exp(-dp2 / (2 * cfg.theta_gamma**2))
    np.fill_diagonal(k, 0.0)
    return k


def _softmax_labels(logits):
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _free_energy(qf, uf, m):
    """Variational free energy of marginals qf (L, N) with message m = qf @ k.

    The Potts pairwise term sum_{i<j} k_ij (1 - q_i . q_j) equals
    0.5 * sum (1 - q) * m, because each voxel's marginals sum to 1.
    """
    return float((qf * uf).sum() + 0.5 * ((1.0 - qf) * m).sum() + xlogy(qf, qf).sum())


def filtered_message_pass(q, vol: Volume, cfg: CrfConfig):
    """Approximate M_i(l) = sum_{j != i} k(f_i, f_j) q_j(l) for all voxels.

    q is (L, nx, ny, nz). The smoothness part is the exact truncated
    spatial Gaussian blur at theta_gamma; the appearance part is the
    bilateral filter over intensity (in theta_beta units) and space
    (theta_alpha); the self term (w_appearance + w_smoothness) q_i is
    removed.
    """
    out = np.zeros(q.shape)
    if cfg.w_appearance > 0:
        inten = _intensities(vol) / cfg.theta_beta
        out += cfg.w_appearance * bilateral_filter(q, inten, vol.spacing, cfg.theta_alpha)
    if cfg.w_smoothness > 0:
        out += cfg.w_smoothness * gaussian_blur(q, vol.spacing, cfg.theta_gamma)
    out -= (cfg.w_appearance + cfg.w_smoothness) * q
    return out


def _scored(q, uf, vol, cfg, k, trace, exact, mass) -> MeanFieldState:
    """State for marginals q: their message, and their free energy appended
    to trace. k is the brute kernel matrix, or None for the filtered backend,
    whose kernel mass is filtered along with labels 1.. when mass is None."""
    qf = q.reshape(uf.shape)
    if k is not None:
        m = qf @ k  # k is symmetric
    else:
        rest = q[1:] if mass is not None else np.concatenate([np.ones_like(q[:1]), q[1:]])
        rest = filtered_message_pass(rest, vol, cfg).reshape(len(rest), -1)
        if mass is None:
            mass, rest = rest[0], rest[1:]
        m = np.concatenate([(mass - rest.sum(axis=0))[None], rest])
    return MeanFieldState(
        q=q,
        message=m,
        free_energy_trace=trace + (_free_energy(qf, uf, m),),
        trace_exact=exact and k is not None,
        mass=mass,
    )


def mean_field_step(
    state: MeanFieldState, u: UnaryField, vol: Volume, cfg: CrfConfig
) -> MeanFieldState:
    """One full sweep of marginal updates, renormalized per voxel.

    Appends the variational free energy of the new marginals to the trace:
    exact under the brute backend, a filtered approximation otherwise.
    """
    labels = u.neg_log_probs.shape[0]
    uf = u.neg_log_probs.reshape(labels, -1)
    k = kernel_matrix(vol, cfg) if cfg.backend == "brute" else None
    if cfg.update_order == "parallel":
        q_new = _softmax_labels(-uf + state.message)
    else:
        q_new = state.q.reshape(labels, -1).copy()
        for i in range(q_new.shape[1]):
            logits = -uf[:, i] + q_new @ k[i]
            z = np.exp(logits - logits.max())
            q_new[:, i] = z / z.sum()
    return _scored(
        q_new.reshape(state.q.shape), uf, vol, cfg, k,
        state.free_energy_trace, state.trace_exact, state.mass,
    )


def _initial_state(u: UnaryField, vol: Volume, cfg: CrfConfig) -> MeanFieldState:
    labels = u.neg_log_probs.shape[0]
    uf = u.neg_log_probs.reshape(labels, -1)
    q0 = _softmax_labels(-uf).reshape(u.neg_log_probs.shape)
    k = kernel_matrix(vol, cfg) if cfg.backend == "brute" else None
    return _scored(q0, uf, vol, cfg, k, (), True, None)


def refine(p: ProbMap, vol: Volume, cfg: CrfConfig):
    """Mean-field refinement of a probability map against its volume.

    Returns (LabelMask, MeanFieldState). iterations = 0 degenerates to the
    argmax of the input map.
    """
    if p.data.shape[1:] != vol.data.shape:
        raise GeometryError(
            f"probability map grid {p.data.shape[1:]} does not match "
            f"volume {vol.data.shape}"
        )
    if p.data.shape[0] != 2:
        raise DomainError("refinement is defined for two-label maps")
    u = unary_from_probmap(p)
    state = _initial_state(u, vol, cfg)
    for _ in range(cfg.iterations):
        state = mean_field_step(state, u, vol, cfg)
    source = p.data if cfg.iterations == 0 else state.q
    mask = LabelMask(np.argmax(source, axis=0).astype(np.uint8), vol.affine)
    return mask, state
