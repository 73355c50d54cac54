"""Overlap and surface-distance metrics for binary masks.

Distances are measured between mask boundaries: foreground voxels with at
least one six-connected background neighbor, where everything outside the
grid counts as background. All metrics work in voxel units unless a
per-axis spacing is given.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import DomainError
from .volume import LabelMask


def _as_bool(mask) -> np.ndarray:
    data = mask.data if isinstance(mask, LabelMask) else np.asarray(mask)
    if data.ndim != 3:
        raise DomainError(f"expected a 3D mask, got ndim={data.ndim}")
    return data.astype(bool)


def dice(truth, pred) -> float:
    """Dice overlap; two empty masks count as perfect agreement."""
    t = _as_bool(truth)
    p = _as_bool(pred)
    denom = int(t.sum()) + int(p.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(t, p).sum()) / denom


def jaccard(truth, pred) -> float:
    """Intersection over union; two empty masks count as 1.0."""
    t = _as_bool(truth)
    p = _as_bool(pred)
    union = int(np.logical_or(t, p).sum())
    if union == 0:
        return 1.0
    return int(np.logical_and(t, p).sum()) / union


def boundary(mask) -> np.ndarray:
    """Foreground voxels with a six-connected background neighbor.

    The grid border counts as background, so a mask touching the edge of
    the volume has boundary voxels there.
    """
    m = _as_bool(mask)
    six = ndimage.generate_binary_structure(3, 1)
    eroded = ndimage.binary_erosion(m, structure=six, border_value=0)
    return m & ~eroded


def balanced_ahd(truth, pred, spacing=None) -> float:
    """Average boundary distance, both directions, normalized by the truth side.

    Sums nearest-boundary distances truth-to-pred and pred-to-truth and
    divides the total by twice the truth boundary size, so over- and
    under-segmentation move the score symmetrically but the normalization
    stays anchored to the reference mask.

    Returns +inf when the prediction is empty, whatever the truth; an
    empty truth under a non-empty prediction is a domain error.
    """
    bp = boundary(pred)
    if not bp.any():
        return float("inf")
    bt = boundary(truth)
    if not bt.any():
        raise DomainError("balanced AHD needs a non-empty truth mask")
    # scipy.spatial adds about 5 MB to a process's RSS; only scoring needs it
    from scipy.spatial import cKDTree

    # nearest-boundary distances between the boundary points alone
    sp = np.asarray(1.0 if spacing is None else spacing, dtype=np.float64)
    pt, pp = np.argwhere(bt) * sp, np.argwhere(bp) * sp
    total = cKDTree(pp).query(pt)[0].sum() + cKDTree(pt).query(pp)[0].sum()
    return float(total / (2.0 * len(pt)))
