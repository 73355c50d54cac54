"""
Training-time augmentation, reproducibly
=========================================

"""

import numpy as np

from evcseg.augment import intensity_augment, rigid_augment
from evcseg.synth import make_phantom
from evcseg.volume import LabelMask

vol, mask = make_phantom(32, np.random.default_rng(1))


def centroid(m):
    return np.array(np.nonzero(m)).mean(axis=1)


# each (seed, epoch, index) triple owns an independent random stream, as in
# train, so sample 3 of epoch 0 sees the same perturbation no matter which
# order the loader visits the data in
rng = np.random.default_rng((0, 0, 3))

# intensity: one global scale and shift per volume
aug = intensity_augment(vol, rng)
print("intensity mean before/after:",
      round(float(vol.data.mean()), 4), "/", round(float(aug.data.mean()), 4))

# geometry: a small rigid rotation + translation about the grid center,
# trilinear for the image and nearest-neighbor for the mask so labels
# stay crisp binary
out_v, out_m = rigid_augment(aug, LabelMask(mask.data), rng)
print("mask centroid before:", np.round(centroid(mask.data), 2))
print("mask centroid after: ", np.round(centroid(out_m.data), 2))
print("mask stays binary:", sorted(np.unique(out_m.data)) == [0, 1])

# replaying the same stream reproduces the identical augmented pair
rng2 = np.random.default_rng((0, 0, 3))
aug2 = intensity_augment(vol, rng2)
out_v2, out_m2 = rigid_augment(aug2, LabelMask(mask.data), rng2)
print("bitwise reproducible:",
      np.array_equal(out_v.data, out_v2.data) and np.array_equal(out_m.data, out_m2.data))
