"""Connected-component cleanup of predicted masks.

Foreground uses 26-connectivity and background 6-connectivity, the
standard dual pair, so a diagonal chain of foreground voxels does not
split the background it passes through.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .volume import LabelMask

_STRUCTURES = {
    6: ndimage.generate_binary_structure(3, 1),
    26: ndimage.generate_binary_structure(3, 3),
}


def label_components(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Label connected components with deterministic ids.

    Ids are assigned by the scan-order position of each component's first
    voxel, starting at 1; background stays 0.

    Args:
        mask: boolean or 0/1 array.
        connectivity: 6 (faces) or 26 (faces, edges, corners).
    """
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    labels, count = ndimage.label(np.asarray(mask).astype(bool), structure=_STRUCTURES[connectivity])
    if count > 1:
        # renumber by first appearance in scan order; ndimage.label already
        # does this in practice but the contract should not rest on it
        flat = labels.ravel()
        occupied = np.flatnonzero(flat)
        ids, first = np.unique(flat[occupied], return_index=True)
        order = np.argsort(first, kind="stable")
        remap = np.zeros(count + 1, dtype=labels.dtype)
        remap[ids[order]] = np.arange(1, count + 1)
        labels = remap[labels]
    return labels, int(count)


def component_sizes(labels: np.ndarray, count: int) -> np.ndarray:
    """Voxel count per component id, index 0 being background."""
    return np.bincount(labels.ravel(), minlength=count + 1)


def fill_background_holes(m: LabelMask) -> LabelMask:
    """Turn every background component except the largest into foreground.

    Interior cavities are background components cut off from the outside,
    always smaller than the surrounding air, so keeping only the largest
    background component fills them. Ties keep the lowest id.
    """
    bg = ~m.data.astype(bool)
    labels, count = label_components(bg, connectivity=6)
    if count <= 1:
        return m
    sizes = component_sizes(labels, count)
    keep = int(np.argmax(sizes[1:])) + 1  # argmax takes the lowest id on ties
    return LabelMask(data=(labels != keep).astype(np.uint8), affine=m.affine)


def largest_foreground(m: LabelMask) -> LabelMask:
    """Keep only the largest 26-connected foreground component.

    A mask with at most one component, an empty one included, comes back
    unchanged; ties keep the lowest id.
    """
    labels, count = label_components(m.data, connectivity=26)
    if count <= 1:
        return m
    sizes = component_sizes(labels, count)
    keep = int(np.argmax(sizes[1:])) + 1
    return LabelMask(data=(labels == keep).astype(np.uint8), affine=m.affine)


def cleanup(m: LabelMask) -> LabelMask:
    """Fill interior holes, then keep the largest foreground component.

    Idempotent: the output has a single 26-connected component and a
    single 6-connected background component.
    """
    return largest_foreground(fill_background_holes(m))
