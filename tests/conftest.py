"""Session fixtures shared by the pipeline, CLI, and acceptance tests."""

import json

import pytest

from evcseg.evnet import EvNetConfig
from evcseg.pipeline import GridConfig, TrainConfig, train
from evcseg.synth import synth_dataset

TOY_EVNET = EvNetConfig(levels=2, base_channels=2, seed=0)
TOY_GRID = GridConfig(pad_shape=(16, 16, 16), resize_half=False)


def rewrite_manifest(path, edit):
    """Apply ``edit`` to a checkpoint's JSON manifest in place."""
    data = path.read_bytes()
    n = int.from_bytes(data[8:12], "little")
    manifest = json.loads(data[12 : 12 + n])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + n :])


@pytest.fixture(scope="session")
def phantom_dataset(tmp_path_factory):
    """Four 16^3 phantoms under images/ and masks/."""
    root = tmp_path_factory.mktemp("phantoms")
    synth_dataset(n=4, size=16, seed=3, out_dir=root)
    return root


@pytest.fixture(scope="session")
def init_checkpoint(tmp_path_factory, phantom_dataset):
    """Untrained (0 epoch) toy checkpoint matching TOY_EVNET and TOY_GRID."""
    path = tmp_path_factory.mktemp("ckpt") / "init.evc"
    train(
        TrainConfig(
            data_dir=phantom_dataset,
            checkpoint_path=path,
            epochs=0,
            evnet=TOY_EVNET,
            grid=TOY_GRID,
        )
    )
    return path
