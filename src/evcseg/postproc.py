"""Connected-component cleanup of predicted masks.

Foreground uses 26-connectivity and background 6-connectivity, the
standard dual pair, so a diagonal chain of foreground voxels does not
split the background it passes through. Ids are ndimage.label's, in scan
order (tests pin this). Holes are filled before the largest component is
chosen, so a filled shell can outweigh a solid piece.
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
    # ndimage.label scans in C order: a component's first voxel has no labeled neighbour
    # yet, so it takes a new label, below any taken later, and a merge keeps the lower one
    labels, count = ndimage.label(mask, structure=_STRUCTURES[connectivity])
    return labels, int(count)


def component_sizes(labels: np.ndarray, count: int) -> np.ndarray:
    """Voxel count per component id, index 0 being background."""
    return np.bincount(labels.ravel(), minlength=count + 1)


def _largest(mask: np.ndarray, connectivity: int) -> np.ndarray | None:
    """The largest component as a bool array, ties to the lowest id; None with at most one."""
    labels, count = label_components(mask, connectivity)
    if count <= 1:
        return None
    return labels == np.argmax(component_sizes(labels, count)[1:]) + 1


def fill_background_holes(m: LabelMask) -> LabelMask:
    """Turn every background component except the largest into foreground.

    Interior cavities are background components cut off from the outside,
    always smaller than the surrounding air, so keeping only the largest
    background component fills them. Ties keep the lowest id.
    """
    air = _largest(m.data == 0, connectivity=6)
    return m if air is None else LabelMask(data=(~air).astype(np.uint8), affine=m.affine)


def largest_foreground(m: LabelMask) -> LabelMask:
    """Keep only the largest 26-connected foreground component.

    A mask with at most one component, an empty one included, comes back
    unchanged; ties keep the lowest id.
    """
    keep = _largest(m.data, connectivity=26)
    return m if keep is None else LabelMask(data=keep.astype(np.uint8), affine=m.affine)


def cleanup(m: LabelMask) -> LabelMask:
    """Fill interior holes, then keep the largest foreground component.

    Idempotent: the output has a single 26-connected component and a
    single 6-connected background component.
    """
    return largest_foreground(fill_background_holes(m))
