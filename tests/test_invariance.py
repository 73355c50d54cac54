"""Metamorphic tests: changes to how a scan is stored that must not change
what the chain returns (Chen, Cheung & Yiu 1998).

The same world image stored with its voxel axes in another order, with its
intensities scaled, or with its origin moved gives the same native mask
byte for byte. Training pairs stored permuted, or with their origin moved,
reach the network grid with the same bytes and give the same checkpoint.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from evcseg.crf import CrfConfig
from evcseg.evnet import EvNetConfig
from evcseg.nifti import write_nifti
from evcseg.pipeline import (
    GridConfig,
    PipelineConfig,
    TrainConfig,
    _load_training_pairs,
    extract,
    train,
)
from evcseg.synth import make_phantom
from evcseg.volume import LabelMask, Volume

CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"
ZXY = (2, 0, 1)  # stored axis i holds world axis ZXY[i]


def stored(data, affine, order=ZXY, flip=1):
    """The same world image with voxel axes `order` of the old ones, stored
    axis `flip` reversed: every voxel keeps its world position."""
    data = np.flip(np.transpose(data, order), flip)
    affine = np.array(affine, dtype=np.float64)
    affine[:, :3] = affine[:, list(order)]
    affine[:3, 3] += affine[:3, flip] * (data.shape[flip] - 1)
    affine[:3, flip] *= -1.0
    return np.ascontiguousarray(data), affine


class TestExtract:
    """bench/checkpoint.evc at the default grid and 5 CRF iterations."""

    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        image, _ = make_phantom(64, np.random.default_rng(900))
        return self.native_mask(tmp_path_factory.mktemp("plain"), image)

    @staticmethod
    def native_mask(tmp_path, image):
        # float64 on disk, so the stored intensities are the scan's own
        write_nifti(image, tmp_path / "head.nii", dtype=np.float64)
        res = extract(PipelineConfig(
            input_path=tmp_path / "head.nii",
            output_path=tmp_path / "mask.nii",
            checkpoint_path=CHECKPOINT,
            crf=CrfConfig(iterations=5),
        ))
        assert res.native_mask.data.any()
        return image, res.native_mask.data

    def test_axes_permuted_and_flipped(self, plain, tmp_path):
        image, mask = plain
        _, out = self.native_mask(tmp_path, Volume(*stored(image.data, image.affine)))
        assert out.tobytes() == stored(mask, image.affine)[0].tobytes()

    def test_intensities_scaled(self, plain, tmp_path):
        image, mask = plain
        _, out = self.native_mask(tmp_path, Volume(image.data * 1000.0, image.affine))
        assert out.tobytes() == mask.tobytes()

    def test_origin_moved(self, plain, tmp_path):
        image, mask = plain
        affine = image.affine.copy()
        affine[:3, 3] += [13.25, -7.5, 100.0]
        _, out = self.native_mask(tmp_path, Volume(image.data, affine))
        assert out.tobytes() == mask.tobytes()


@pytest.mark.parametrize("grid", [
    GridConfig(pad_shape=(16, 16, 16), resize_half=False),
    GridConfig(pad_shape=(32, 32, 32)),
], ids=["full", "halved"])
def test_train_pairs_stored_permuted(grid, tmp_path):
    rng = np.random.default_rng(901)
    pairs = [make_phantom(16 * (2 if grid.resize_half else 1), rng) for _ in range(3)]
    digests = []
    for name, store in (("plain", lambda d, a: (d, a)), ("zxy", stored)):
        root = tmp_path / name
        for i, (image, mask) in enumerate(pairs):
            for kind, obj, cls in (("images", image, Volume), ("masks", mask, LabelMask)):
                (root / kind).mkdir(parents=True, exist_ok=True)
                write_nifti(cls(*store(obj.data, obj.affine)), root / kind / f"p{i}.nii")
        res = train(TrainConfig(
            data_dir=root,
            checkpoint_path=root / "model.evc",
            epochs=2,
            holdout=1,
            evnet=EvNetConfig(levels=2, base_channels=2, seed=0),
            grid=grid,
        ))
        digests.append(hashlib.sha256(res.checkpoint_path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("halve", [False, True])
def test_training_pairs_reach_the_same_network_grid(halve, tmp_path):
    # 2.5 mm voxels along x: some network voxel centres lie halfway between
    # two native ones, and must round the same way however the scan is stored
    image, mask = make_phantom(32, np.random.default_rng(902))
    affine = np.diag([2.5, 1.0, 1.0, 1.0])
    moved = affine.copy()
    moved[:3, 3] = [-91.3, 17.9, 3.7]
    loaded = []
    for name, store in (("plain", lambda d: (d, affine)), ("moved", lambda d: (d, moved)),
                        ("zxy", lambda d: stored(d, affine))):
        for kind, obj, cls in (("images", image, Volume), ("masks", mask, LabelMask)):
            (tmp_path / name / kind).mkdir(parents=True)
            write_nifti(cls(*store(obj.data)), tmp_path / name / kind / "p.nii")
        (net_vol, net_mask), = _load_training_pairs(TrainConfig(
            data_dir=tmp_path / name,
            checkpoint_path=tmp_path / "unused.evc",
            evnet=EvNetConfig(levels=2, base_channels=2),
            grid=GridConfig(pad_shape=(80, 32, 32), resize_half=halve),
        ))
        loaded.append(net_vol.data.tobytes() + net_mask.data.tobytes())
    assert loaded[1] == loaded[0] and loaded[2] == loaded[0]
