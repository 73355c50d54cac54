"""Fully connected pairwise CRF over voxels, solved by mean-field iteration.

The model couples every voxel pair with a two-part Gaussian kernel: an
appearance term over (position, intensity) with bandwidths theta_alpha /
theta_beta and weight w_appearance, and a smoothness term over position
alone with bandwidth theta_gamma and weight w_smoothness. Label
disagreement costs the kernel value (Potts compatibility); unary costs
come from a probability map, typically the network's softmax output.

The message pass computes the smoothness sums exactly with a separable
spatial Gaussian blur and approximates the appearance sums with a
bilateral filter that grids intensity only, which is what makes full
volumes tractable. Positions are voxel index times spacing, and
intensities are min-max normalized to [0, 1] before any kernel
evaluation, so the bandwidths keep their meaning across scanners. The
tests hold this path to a dense mean-field oracle written from the same
formulas (`tests/instances.py`: `dense_kernel`, `oracle_refine`).

Each state carries the message of its marginals, which gives both its
free energy and the next parallel update, so a refinement of n >= 1
sweeps that keeps its final state makes 1 + n message passes and 1 + n
free energies. One that only labels (`refine(..., keep_state=False)`,
as `extract` asks) makes n passes and no free energy: the last sweep's
marginals need no message, and the trace is a diagnostic. At 0 sweeps a
refinement makes none and is the argmax of the input map. The message
pass is linear and the two labels' marginals sum to 1, so only labels
1.. are filtered: label 0's message is the kernel mass (the pass over a
field of ones) minus theirs. The first pass filters the ones field
alongside the foreground, and the states carry the mass forward. They
also carry what the filter builds from the volume alone, once per
refinement: the bilateral filter's per-cell records
(`bilateral.cell_records`), which every pass reuses.

Marginals below the smallest normal float64 are set to 0. Messages reach
several hundred kernel units, so a confident voxel's losing label can
fall below 1e-308. Kept as subnormals, such marginals vanish in every sum
they join (the tests compare masks, messages and free energies with the
plain softmax's), but they slow every filter, blur and logarithm that
reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .bilateral import bilateral_filter, cell_records, gaussian_blur
from .errors import ConfigError, DomainError, whole_number
from .volume import LabelMask, ProbMap, Volume, check_same_grid

PROB_CLAMP = 1e-6
TINY = np.finfo(np.float64).tiny
LOG_TINY = np.log(TINY)


@dataclass(frozen=True)
class CrfConfig:
    w_appearance: float = 5.0
    w_smoothness: float = 3.0
    theta_alpha: float = 4.0
    theta_beta: float = 0.1
    theta_gamma: float = 3.0
    iterations: int = 5

    def __post_init__(self):
        kernel = (self.w_appearance, self.w_smoothness, self.theta_alpha, self.theta_beta,
                  self.theta_gamma)
        if not all(math.isfinite(v) for v in kernel):
            raise ConfigError(f"kernel weights and bandwidths must be finite, got {kernel}")
        for name in ("w_appearance", "w_smoothness"):
            if getattr(self, name) < 0:
                raise ConfigError(f"kernel weights must be >= 0, got {name}={getattr(self, name)}")
        thetas = (self.theta_alpha, self.theta_beta, self.theta_gamma)
        if min(thetas) <= 0:
            raise ConfigError("kernel bandwidths must be > 0")
        # the kernels divide by 2 * theta**2; a subnormal square underflows
        # toward 0 and turns the lag-0 weight into 0/0
        if min(t**2 for t in thetas) < TINY:
            raise ConfigError(
                f"kernel bandwidths must have normal float64 squares, got {thetas}"
            )
        object.__setattr__(self, "iterations", whole_number("iterations", self.iterations, 0))


@dataclass(frozen=True)
class UnaryField:
    """Per-voxel label costs: -log of clamped probabilities, (L, nx, ny, nz)."""

    neg_log_probs: np.ndarray


@dataclass(frozen=True)
class MeanFieldState:
    """Marginals, their message, and the free energy recorded after each sweep.

    message is M_l(i) = sum_{j != i} k_ij q_l(j), shaped (L, N), from the
    filtered message pass; the next parallel sweep updates from it. The
    free energies are the filtered approximation, since the pass
    approximates the appearance sums. mass is the message of a field of
    ones, shaped (N,), from which label 0's message follows; the next sweep
    from a state without it filters it again. kernel holds
    the bilateral records (see bilateral.cell_records) built for the volume
    with the first state, or None without an appearance term.
    """

    q: np.ndarray
    message: np.ndarray
    free_energy_trace: tuple
    mass: np.ndarray | None = None
    kernel: list | None = None


def unary_from_probmap(p: ProbMap) -> UnaryField:
    clamped = np.clip(p.data, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return UnaryField(neg_log_probs=-np.log(clamped))


def _appearance_intensities(vol: Volume, cfg: CrfConfig) -> np.ndarray:
    """Intensities min-max scaled to [0, 1], in units of the appearance
    bandwidth theta_beta."""
    data = vol.data
    lo, hi = data.min(), data.max()
    scaled = (data - lo) / (hi - lo) if hi > lo else np.zeros_like(data)
    return scaled / cfg.theta_beta


def _softmax_labels(logits):
    """Per-voxel softmax over the label axis, with subnormal marginals set to 0.

    exp(z) is below tiny for every z < log(tiny) and each voxel's sum is at
    least 1, so those entries would come out 0 anyway: they are not computed.
    """
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z, out=np.zeros_like(z), where=z >= LOG_TINY)
    q = e / e.sum(axis=0, keepdims=True)
    q[q < TINY] = 0.0
    return q


def _free_energy(qf, uf, m):
    """Variational free energy of marginals qf (L, N) with message m = qf @ k.

    The Potts pairwise term sum_{i<j} k_ij (1 - q_i . q_j) equals
    0.5 * sum (1 - q) * m, because each voxel's marginals sum to 1.
    """
    return float((qf * uf).sum() + 0.5 * ((1.0 - qf) * m).sum() + xlogy(qf, qf).sum())


def filtered_message_pass(q, vol: Volume, cfg: CrfConfig, cells=None):
    """Approximate M_i(l) = sum_{j != i} k(f_i, f_j) q_j(l) for all voxels.

    q is (L, nx, ny, nz). The smoothness part is the exact truncated
    spatial Gaussian blur at theta_gamma; the appearance part is the
    bilateral filter over intensity (in theta_beta units) and space
    (theta_alpha); the self term (w_appearance + w_smoothness) q_i is
    removed. cells are the filter's records for vol and cfg (a filtered
    state's kernel); None builds them during the pass.
    """
    out = np.zeros(q.shape)
    if cfg.w_appearance > 0:
        inten = _appearance_intensities(vol, cfg)
        out += cfg.w_appearance * bilateral_filter(q, inten, vol.spacing, cfg.theta_alpha, cells)
    if cfg.w_smoothness > 0:
        out += cfg.w_smoothness * gaussian_blur(q, vol.spacing, cfg.theta_gamma)
    out -= (cfg.w_appearance + cfg.w_smoothness) * q
    return out


def _scored(q, uf, vol, cfg, trace, mass, kernel, score=True) -> MeanFieldState:
    """State for marginals q: their message, and their free energy appended
    to trace unless score is False. kernel is the state's (see
    MeanFieldState); the kernel mass is filtered along with labels 1.. when
    mass is None."""
    qf = q.reshape(uf.shape)
    rest = q[1:] if mass is not None else np.concatenate([np.ones_like(q[:1]), q[1:]])
    rest = filtered_message_pass(rest, vol, cfg, kernel).reshape(len(rest), -1)
    if mass is None:
        mass, rest = rest[0], rest[1:]
    m = np.concatenate([(mass - rest.sum(axis=0))[None], rest])
    if score:
        trace += (_free_energy(qf, uf, m),)
    return MeanFieldState(q=q, message=m, free_energy_trace=trace, mass=mass, kernel=kernel)


def _flat(u: UnaryField) -> np.ndarray:
    return u.neg_log_probs.reshape(u.neg_log_probs.shape[0], -1)


def _swept(state: MeanFieldState, uf) -> np.ndarray:
    """The marginals one parallel sweep takes from the state's message."""
    return _softmax_labels(-uf + state.message).reshape(state.q.shape)


def mean_field_step(
    state: MeanFieldState, u: UnaryField, vol: Volume, cfg: CrfConfig, score=True
) -> MeanFieldState:
    """One parallel sweep: every voxel's marginals from the state's message.

    Appends the variational free energy of the new marginals, in the
    filtered approximation, to the trace; score=False leaves the trace as
    it was.
    """
    uf = _flat(u)
    return _scored(
        _swept(state, uf), uf, vol, cfg, state.free_energy_trace, state.mass, state.kernel, score
    )


def _initial_state(u: UnaryField, vol: Volume, cfg: CrfConfig, score=True) -> MeanFieldState:
    uf = _flat(u)
    q0 = _softmax_labels(-uf).reshape(u.neg_log_probs.shape)
    kernel = None
    if cfg.w_appearance > 0:
        # every pass of the refinement filters against the same intensities
        inten = _appearance_intensities(vol, cfg)
        kernel = list(cell_records(inten, vol.spacing, cfg.theta_alpha))
    return _scored(q0, uf, vol, cfg, (), None, kernel, score)


def _two_label_argmax(q: np.ndarray) -> np.ndarray:
    """np.argmax(q, axis=0) as uint8 for a two-label map: ties go to label 0."""
    return (q[1] > q[0]).astype(np.uint8)


def refine(p: ProbMap, vol: Volume, cfg: CrfConfig, keep_state=True):
    """Mean-field refinement of a probability map against its volume.

    Returns (LabelMask, MeanFieldState). After the grid check (a DataError
    unless p and vol share shape and affine) and the label check,
    iterations = 0 returns the argmax of the input map and None as the
    state, without unaries, kernel or message pass. Final marginals that are
    not finite, from kernel weights large enough to overflow the messages,
    raise a ConfigError.

    keep_state=False returns None as the state at every iteration count, for
    callers that only want the mask: n sweeps then make n message passes
    and no free energy, and the mask is the same bytes as the default's. The
    default keeps the final state, whose message and free-energy trace take
    one more pass and 1 + n free energies.
    """
    check_same_grid(p, vol, "probability map", "volume")
    if p.data.shape[0] != 2:
        raise DomainError("refinement is defined for two-label maps")
    if cfg.iterations == 0:
        return LabelMask(_two_label_argmax(p.data), vol.affine), None
    u = unary_from_probmap(p)
    # an overflowing kernel weight makes the messages non-finite inside
    # numpy; the check below reports it, so numpy's own warnings stay quiet
    with np.errstate(over="ignore", invalid="ignore"):
        state = _initial_state(u, vol, cfg, keep_state)
        for _ in range(cfg.iterations - 1):
            state = mean_field_step(state, u, vol, cfg, keep_state)
        if keep_state:
            state = mean_field_step(state, u, vol, cfg)
            q = state.q
        else:
            q, state = _swept(state, _flat(u)), None
    if not np.isfinite(q).all():
        raise ConfigError(
            f"mean-field marginals are not finite: the kernel weights w_appearance="
            f"{cfg.w_appearance:g} and w_smoothness={cfg.w_smoothness:g} overflow"
        )
    return LabelMask(_two_label_argmax(q), vol.affine), state
