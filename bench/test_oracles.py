"""Negative controls: the benchmark's checks must reject broken outputs.

    python3 -m pytest bench/test_oracles.py

Each oracle check runs once on workload-scale inputs where it must pass
and once on a deliberately damaged output where it must fail, so neither
check can pass vacuously.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from evcseg.crf import CrfConfig, filtered_message_pass  # noqa: E402
from evcseg.evnet import evnet_forward, load_checkpoint  # noqa: E402
from evcseg.nifti import read_nifti  # noqa: E402
from evcseg.pipeline import preprocess_volume  # noqa: E402

SEED = 5


def test_crf_check_rejects_scaled_message(tmp_path):
    state = workloads.ExtractWorkload(iterations=5, volumes=1).setup(tmp_path, SEED)
    img, _ = state["pairs"][0]
    net_vol, _ = preprocess_volume(read_nifti(img), workloads.GRID)
    params, net_cfg, _ = load_checkpoint(workloads.CHECKPOINT)
    q, _ = evnet_forward(net_vol.data[None, None].astype(np.float32), params, net_cfg)
    q = q[0].astype(np.float64)
    crf = CrfConfig()
    message = filtered_message_pass(q, net_vol, crf)
    sample = np.random.default_rng(SEED).choice(q[0].size, workloads.CRF_SAMPLE, replace=False)

    def error(m):
        return oracles.crf_message_error(m, q, net_vol.data, net_vol.spacing, crf, sample)

    assert error(message) < oracles.CRF_TOL
    assert error(1.1 * message) >= oracles.CRF_TOL


def test_gradient_check_rejects_zeroed_tensor(tmp_path):
    wl = workloads.TrainWorkload()
    state = wl.setup(tmp_path, SEED)
    loss, grads, params, direction = wl.gradients(state, SEED)
    assert oracles.directional_grad_error(loss, grads, params, direction) < oracles.GRAD_TOL

    broken = dict(grads, **{"head.kernel": np.zeros_like(grads["head.kernel"])})
    assert oracles.directional_grad_error(loss, broken, params, direction) >= oracles.GRAD_TOL


def test_topology_check_rejects_split_and_holed_masks():
    cube = np.zeros((8, 8, 8), dtype=np.uint8)
    cube[2:6, 2:6, 2:6] = 1
    assert oracles.topology_problems(cube) == []
    split = cube.copy()
    split[7, 7, 7] = 1
    assert oracles.topology_problems(split) == ["2 foreground components (26-connected)"]
    holed = cube.copy()
    holed[3:5, 3:5, 3:5] = 0
    assert oracles.topology_problems(holed) == ["2 background components (6-connected)"]
