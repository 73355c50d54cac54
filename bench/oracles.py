"""Output checks made apart from the program under test.

Each check recomputes what it verifies from first principles instead of
calling the evcseg function that produced it: a NIfTI-1 reader written
here, Dice from voxel counts, topology from scipy's labelling, CRF
messages from the paper's kernel summed pair by pair, and gradients from
central differences.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np
from scipy import ndimage

# CRF check tolerance: max abs error below this share of the exact range,
# as in TestFilteredMessagePass.test_matches_brute_sum.
CRF_TOL = 0.05
# gradient check tolerance, the finite-difference suite's GRAD_TOL
GRAD_TOL = 1e-4
# Central-difference step along a unit direction. PReLU kinks make the loss
# piecewise smooth: a kink inside the step skews the difference, which at
# 1e-5 broke the tolerance on a seed whose directional derivative was
# small (3.9e-4 relative error); 1e-6 keeps truncation and rounding error
# near 1e-7 and makes such crossings ten times rarer.
GRAD_EPS = 1e-6

_NIFTI_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}


def read_nifti_plain(path) -> tuple[np.ndarray, np.ndarray]:
    """Minimal little-endian NIfTI-1 reader: (voxels, 4x4 sform affine)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    if struct.unpack_from("<i", blob, 0)[0] != 348:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 header")
    dim = struct.unpack_from("<8h", blob, 40)
    datatype = struct.unpack_from("<h", blob, 70)[0]
    vox_offset = int(struct.unpack_from("<f", blob, 108)[0])
    slope, inter = struct.unpack_from("<2f", blob, 112)
    srow = np.array(struct.unpack_from("<12f", blob, 280), dtype=np.float64)
    shape = tuple(dim[1 : 1 + dim[0]])
    data = np.frombuffer(
        blob, "<" + _NIFTI_DTYPES[datatype], count=int(np.prod(shape)), offset=vox_offset
    ).reshape(shape, order="F")
    if slope not in (0.0, 1.0) or inter != 0.0:
        data = data * slope + inter
    affine = np.eye(4)
    affine[:3] = srow.reshape(3, 4)
    return data, affine


def dice_plain(truth: np.ndarray, pred: np.ndarray) -> float:
    t = truth.astype(bool)
    p = pred.astype(bool)
    return 2.0 * np.count_nonzero(t & p) / (np.count_nonzero(t) + np.count_nonzero(p))


def topology_problems(mask: np.ndarray) -> list[str]:
    """Empty list when the mask is one 26-connected foreground component
    whose complement is one 6-connected background component."""
    fg = mask.astype(bool)
    _, n_fg = ndimage.label(fg, structure=np.ones((3, 3, 3)))
    _, n_bg = ndimage.label(~fg, structure=ndimage.generate_binary_structure(3, 1))
    problems = []
    if n_fg != 1:
        problems.append(f"{n_fg} foreground components (26-connected)")
    if n_bg != 1:
        problems.append(f"{n_bg} background components (6-connected)")
    return problems


# --------------------------------------------------------------------------
# CRF messages against brute-force kernel sums
# --------------------------------------------------------------------------


def crf_features(volume: np.ndarray, spacing) -> tuple[np.ndarray, np.ndarray]:
    """Positions in mm and intensities min-max scaled to [0, 1], flat."""
    pos = np.indices(volume.shape).reshape(3, -1).T * np.asarray(spacing, dtype=float)
    flat = volume.reshape(-1).astype(np.float64)
    lo, hi = flat.min(), flat.max()
    inten = (flat - lo) / (hi - lo) if hi > lo else np.zeros_like(flat)
    return pos, inten


def brute_messages(q, volume, spacing, crf, sample) -> np.ndarray:
    """Exact M_i(l) = sum_{j != i} k(f_i, f_j) q_j(l) at the sampled voxels.

    k is the two-kernel Potts potential of Kraehenbuehl & Koltun (2011):
    w1 exp(-|p_i - p_j|^2 / 2 theta_alpha^2 - |I_i - I_j|^2 / 2 theta_beta^2)
    + w2 exp(-|p_i - p_j|^2 / 2 theta_gamma^2). Returns (labels, len(sample)).
    """
    pos, inten = crf_features(volume, spacing)
    qf = q.reshape(q.shape[0], -1).astype(np.float64)
    out = np.empty((qf.shape[0], len(sample)))
    for k, i in enumerate(sample):
        dp2 = ((pos - pos[i]) ** 2).sum(axis=1)
        di2 = (inten - inten[i]) ** 2
        kern = crf.w_appearance * np.exp(
            -dp2 / (2 * crf.theta_alpha**2) - di2 / (2 * crf.theta_beta**2)
        ) + crf.w_smoothness * np.exp(-dp2 / (2 * crf.theta_gamma**2))
        kern[i] = 0.0
        out[:, k] = qf @ kern
    return out


def crf_message_error(message, q, volume, spacing, crf, sample) -> float:
    """Max abs error of a filtered message at the sample, as a share of the
    exact messages' range there."""
    exact = brute_messages(q, volume, spacing, crf, sample)
    approx = message.reshape(message.shape[0], -1)[:, sample]
    return float(np.max(np.abs(approx - exact)) / (exact.max() - exact.min()))


# --------------------------------------------------------------------------
# network gradient against a central difference
# --------------------------------------------------------------------------


def directional_grad_error(loss, grads, params, direction) -> float:
    """Relative error between sum(grads . direction) and the float64
    central difference of loss(params) along direction."""
    def shifted(sign):
        return {k: p + sign * GRAD_EPS * direction[k] for k, p in params.items()}

    fd = (loss(shifted(1.0)) - loss(shifted(-1.0))) / (2 * GRAD_EPS)
    analytic = sum(float(np.vdot(grads[k], direction[k])) for k in params)
    return abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-30)
