"""
Cleaning up a noisy segmentation with the dense CRF
====================================================

"""

import numpy as np

from evcseg.crf import CrfConfig, refine
from evcseg.metrics import dice
from evcseg.volume import ProbMap, Volume

# ground truth: a sphere of radius 4 in a 12-cube
shape = (12, 12, 12)
grids = np.indices(shape)
d2 = sum((g - 6) ** 2 for g in grids)
truth = (d2 <= 16).astype(np.uint8)

# the "network output": confident probabilities that are simply wrong at
# 5% of voxels, as if the classifier had salt-and-pepper failures
rng = np.random.default_rng(7)
fg = np.where(truth > 0, 0.9, 0.1)
flip = rng.uniform(size=shape) < 0.05
fg = np.where(flip, 1.0 - fg, fg)
probs = ProbMap(np.stack([1.0 - fg, fg]))

# the image itself tracks the truth closely; the appearance kernel can
# therefore tell flipped voxels from honest boundary voxels
intensity = Volume(truth + rng.normal(0.0, 0.05, size=shape))

before = dice(truth, np.argmax(probs.data, axis=0))
print("dice before refinement:", round(before, 4))

cfg = CrfConfig(w_appearance=3.0, w_smoothness=1.0, theta_alpha=3.0,
                theta_beta=0.15, theta_gamma=1.5, iterations=5)
mask, state = refine(probs, intensity, cfg)
print("dice after refinement: ", round(dice(truth, mask.data), 4))

# each mean-field sweep updates every voxel at once from the last sweep's
# marginals; where the sweeps settle, the marginals are a stationary point of
# the variational free energy. The trace records it per sweep in the filtered
# approximation: the message pass grids the appearance kernel's intensities
print("free energy per sweep:", " ".join(f"{v:.2f}" for v in state.free_energy_trace))
