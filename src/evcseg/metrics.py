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
    p = _as_bool(pred)
    if not p.any():
        return float("inf")
    t = _as_bool(truth)
    if not t.any():
        raise DomainError("balanced AHD needs a non-empty truth mask")
    if t.shape != p.shape:
        raise DomainError(f"truth shape {t.shape} differs from prediction shape {p.shape}")
    # Every boundary voxel lies in the union's bounding box, and a mask voxel
    # on a face of the box has background just beyond it in both masks, so
    # boundaries and distances taken inside the box equal the full grid's.
    box = ndimage.find_objects((t | p).view(np.uint8))[0]
    bt, bp = boundary(t[box]), boundary(p[box])
    # Only the int32 feature transform spans the box, one array for both
    # directions; distances are formed at the queried boundary alone, in the
    # EDT's own arithmetic, so they equal its distances bit for bit.
    ft = np.empty((3,) + bt.shape, dtype=np.int32)
    sp = np.reshape(np.asarray(1.0 if spacing is None else spacing, dtype=np.float64), (-1, 1))
    total = 0.0
    for features, queries in ((bp, bt), (bt, bp)):
        ndimage.distance_transform_edt(~features, sampling=spacing, return_distances=False,
                                       return_indices=True, indices=ft)
        d = (ft[:, queries] - np.nonzero(queries)) * sp
        total += np.sqrt((d * d).sum(axis=0)).sum()
    return float(total / (2.0 * bt.sum()))
