"""Metamorphic tests: changes to how a scan is stored that must not change
what the chain returns (Chen, Cheung & Yiu 1998).

The same world image stored with its voxel axes in another order, with its
intensities scaled, or with its origin moved gives the same native mask
byte for byte. Training pairs stored permuted, or with their origin moved,
reach the network grid with the same bytes and give the same checkpoint.
The same phantom scanned with thick slices or on a rotated grid keeps a
Dice floor.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from evcseg.crf import CrfConfig
from evcseg.evnet import EvNetConfig
from evcseg.metrics import dice
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


def native_mask(tmp_path, image, iterations=5):
    """The scan and the native mask bench/checkpoint.evc extracts from it at
    the default grid."""
    # float64 on disk, so the stored intensities are the scan's own
    write_nifti(image, tmp_path / "head.nii", dtype=np.float64)
    res = extract(PipelineConfig(
        input_path=tmp_path / "head.nii",
        output_path=tmp_path / "mask.nii",
        checkpoint_path=CHECKPOINT,
        crf=CrfConfig(iterations=iterations),
    ))
    assert res.native_mask.data.any()
    return image, res.native_mask.data


class TestExtract:
    """bench/checkpoint.evc at the default grid and 5 CRF iterations."""

    @pytest.fixture(scope="class")
    def plain(self, tmp_path_factory):
        image, _ = make_phantom(64, np.random.default_rng(900))
        return native_mask(tmp_path_factory.mktemp("plain"), image)

    def test_axes_permuted_and_flipped(self, plain, tmp_path):
        image, mask = plain
        _, out = native_mask(tmp_path, Volume(*stored(image.data, image.affine)))
        assert out.tobytes() == stored(mask, image.affine)[0].tobytes()

    def test_intensities_scaled(self, plain, tmp_path):
        image, mask = plain
        _, out = native_mask(tmp_path, Volume(image.data * 1000.0, image.affine))
        assert out.tobytes() == mask.tobytes()

    def test_origin_moved(self, plain, tmp_path):
        image, mask = plain
        affine = image.affine.copy()
        affine[:3, 3] += [13.25, -7.5, 100.0]
        _, out = native_mask(tmp_path, Volume(image.data, affine))
        assert out.tobytes() == mask.tobytes()


def thick_slices(image, truth, mm):
    """The 1 mm phantom as a scan of mm-thick slices along z: the image and
    the truth averaged over each slab, the truth kept where it covers half."""
    slabs = image.shape[:2] + (image.shape[2] // mm, mm)
    affine = np.diag([1.0, 1.0, float(mm), 1.0])
    return (image.reshape(slabs).mean(-1), truth.reshape(slabs).mean(-1) >= 0.5, affine)


def rotated_grid(image, truth, degrees):
    """The 1 mm phantom sampled on a grid of its own size rotated in plane
    about its centre: the image and the truth interpolated trilinearly, the
    truth kept where it reaches 0.5."""
    t = np.deg2rad(degrees)
    rot = np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]])
    centre = (np.array(image.shape) - 1) / 2
    affine = np.eye(4)
    affine[:3, :3], affine[:3, 3] = rot, centre - rot @ centre
    # the phantom's affine is the identity, so world points are its indices
    points = rot @ np.indices(image.shape).reshape(3, -1) + affine[:3, 3:]

    def sample(a, mode):
        return ndimage.map_coordinates(a, points, order=1, mode=mode).reshape(a.shape)

    return sample(image, "nearest"), sample(truth.astype(np.float64), "constant") >= 0.5, affine


@pytest.mark.parametrize("scan,measured", [
    pytest.param(lambda image, truth: thick_slices(image, truth, 2), 0.9545, id="2mm-slices"),
    pytest.param(lambda image, truth: thick_slices(image, truth, 4), 0.9300, id="4mm-slices"),
    pytest.param(lambda image, truth: rotated_grid(image, truth, 20.0), 0.9478,
                 id="rotated-20deg"),
])
def test_scanner_geometry_dice_floor(scan, measured, tmp_path):
    """Native Dice at 0 iterations stays within 0.01 of `measured`, the
    minimum over the three seeds when the floor was set. The default 64^3
    pad fits each scan's resampled extent (64^3 at 1 mm)."""
    scores = []
    for seed in (700, 701, 702):
        image, truth = make_phantom(64, np.random.default_rng(seed))
        data, scan_truth, affine = scan(image.data, truth.data)
        _, mask = native_mask(tmp_path, Volume(data, affine), iterations=0)
        scores.append(dice(scan_truth, mask))
    assert min(scores) >= measured - 0.01, scores


@pytest.mark.parametrize("grid", [
    GridConfig(pad_shape=(16, 16, 16), resize_half=False),
    GridConfig(pad_shape=(32, 32, 32)),
], ids=["full", "halved"])
def test_train_pairs_stored_permuted(grid, tmp_path):
    rng = np.random.default_rng(901)
    pairs = [make_phantom(16 * grid.step, rng) for _ in range(3)]
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
        root = tmp_path / name
        (net_vol, net_mask), = _load_training_pairs(TrainConfig(
            data_dir=root,
            checkpoint_path=tmp_path / "unused.evc",
            evnet=EvNetConfig(levels=2, base_channels=2),
            grid=GridConfig(pad_shape=(80, 32, 32), resize_half=halve),
        ), [("p.nii", root / "images" / "p.nii", root / "masks" / "p.nii")])
        loaded.append(net_vol.data.tobytes() + net_mask.data.tobytes())
    assert loaded[1] == loaded[0] and loaded[2] == loaded[0]
