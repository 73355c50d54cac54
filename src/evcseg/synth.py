"""Synthetic head phantoms for tests and toy training runs.

Each phantom is an ellipsoidal "brain" (intensity 0.7) wrapped in a thin
ellipsoidal "skull" shell (intensity 0.9) with a dark gap between them,
plus white Gaussian noise everywhere. The ground-truth mask is the exact
brain ellipsoid, so metrics against it carry no annotation noise. Grids
are isotropic 1 mm with an identity affine.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import whole_number
from .nifti import write_nifti
from .volume import LabelMask, Volume

BRAIN_INTENSITY = 0.7
SKULL_INTENSITY = 0.9
NOISE_SIGMA = 0.05
# Shell bounds as multiples of the brain radii; the gap below SHELL_INNER
# mimics the dark CSF rim between brain and skull.
SHELL_INNER = 1.15
SHELL_OUTER = 1.30
MIN_SIZE = 16


def make_phantom(size: int, rng: np.random.Generator) -> tuple[Volume, LabelMask]:
    """One random phantom: (noisy image, exact brain mask) on a size^3 grid.

    The brain center jitters by up to 5% of the grid around its middle and
    the radii are uniform in [0.22, 0.32] of the grid size per axis, which
    keeps the whole skull shell inside the volume.
    """
    size = whole_number("phantom size", size, MIN_SIZE)
    center = size / 2.0 + rng.uniform(-0.05 * size, 0.05 * size, size=3)
    radii = rng.uniform(0.22, 0.32, size=3) * size

    # One broadcast axis each, so no 3 x size^3 index grid; the sum order
    # (x + y) + z fixes the phantoms' bytes, which tests hold to it.
    axis = np.arange(size, dtype=np.float64)
    x, y, z = (((axis - center[a]) / radii[a]) ** 2 for a in range(3))
    d2 = (x[:, None, None] + y[None, :, None]) + z[None, None, :]
    brain = d2 <= 1.0
    shell = (d2 > SHELL_INNER**2) & (d2 <= SHELL_OUTER**2)

    image = (
        BRAIN_INTENSITY * brain
        + SKULL_INTENSITY * shell
        + NOISE_SIGMA * rng.standard_normal((size, size, size))
    )
    return Volume(image), LabelMask(brain.astype(np.uint8))


def synth_dataset(n: int, size: int, seed: int, out_dir) -> list[tuple[Path, Path]]:
    """Write n phantoms under out_dir/images and out_dir/masks.

    Image and mask of a pair share a filename; each phantom draws from its
    own (seed, index) generator stream, so the files for a given (n, size,
    seed) are byte-identical across runs and machines.

    Returns:
        List of (image_path, mask_path) pairs in index order.
    """
    n = whole_number("n", n, 1)
    size = whole_number("phantom size", size, MIN_SIZE)
    seed = whole_number("seed", seed, 0)
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    msk_dir = out_dir / "masks"
    img_dir.mkdir(parents=True, exist_ok=True)
    msk_dir.mkdir(parents=True, exist_ok=True)

    pairs: list[tuple[Path, Path]] = []
    for i in range(n):
        rng = np.random.default_rng((int(seed), int(i)))
        vol, mask = make_phantom(size, rng)
        name = f"phantom_{i:03d}.nii.gz"
        img_path = img_dir / name
        msk_path = msk_dir / name
        write_nifti(vol, img_path)
        write_nifti(mask, msk_path)
        pairs.append((img_path, msk_path))
    return pairs
