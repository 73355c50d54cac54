"""Tests for the extract / train / evaluate orchestration layer."""

import json

import numpy as np
import pytest

from conftest import TOY_EVNET, TOY_GRID
from evcseg.crf import CrfConfig
from evcseg.errors import ConfigError, DataError, GeometryError, TrainingError
from evcseg.evnet import EvNetConfig, init_params, load_checkpoint, save_checkpoint
from evcseg.nifti import read_mask, read_nifti, write_nifti
from evcseg.pipeline import (
    NORM_CLAMP,
    GridConfig,
    PipelineConfig,
    TrainConfig,
    _check_grid_fits,
    evaluate,
    extract,
    preprocess_volume,
    train,
    worker_count,
)
from evcseg.synth import make_phantom
from evcseg.volume import LabelMask, Volume, mask_to_native

FAST_CRF = CrfConfig(iterations=0)


def toy_pipeline_config(dataset, ckpt, out_path, **overrides):
    defaults = dict(
        input_path=str(dataset / "images" / "phantom_000.nii.gz"),
        output_path=str(out_path),
        checkpoint_path=str(ckpt),
        crf=FAST_CRF,
        cleanup=False,
        grid=TOY_GRID,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestGridConfig:
    def test_defaults(self):
        g = GridConfig()
        assert g.pad_shape == (64, 64, 64)
        assert g.network_shape() == (32, 32, 32)

    def test_no_resize_keeps_pad_shape(self):
        g = GridConfig(pad_shape=(40, 40, 40), resize_half=False)
        assert g.network_shape() == (40, 40, 40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pad_shape=(33, 32, 32)),  # odd but halving requested
            dict(pad_shape=(0, 32, 32)),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            GridConfig(**kwargs)

    def test_grid_fit_check(self):
        _check_grid_fits(TOY_GRID, EvNetConfig(levels=2, base_channels=2))
        with pytest.raises(ConfigError):
            _check_grid_fits(
                GridConfig(pad_shape=(60, 60, 60)),  # network 30^3, needs % 4 = 0
                EvNetConfig(levels=3, base_channels=2),
            )


class TestPreprocessVolume:
    def test_chain_and_metadata(self):
        vol, _ = make_phantom(32, np.random.default_rng(0))
        grid = GridConfig(pad_shape=(40, 40, 40), resize_half=False)
        out, meta = preprocess_volume(vol, grid)
        assert out.shape == (40, 40, 40)
        assert meta["pad"]["offsets"] == [4, 4, 4]
        assert meta["pre_resize_shape"] == [40, 40, 40]
        assert meta["network_grid"]["shape"] == [40, 40, 40]
        assert meta["original"]["shape"] == [32, 32, 32]
        assert out.data.max() <= NORM_CLAMP
        assert out.data.min() >= 0.0

    def test_normalization_divisor(self):
        vol, _ = make_phantom(32, np.random.default_rng(1))
        out, meta = preprocess_volume(
            vol, GridConfig(pad_shape=(32, 32, 32), resize_half=False)
        )
        divisor = meta["normalize"]["divisor"]
        assert divisor == pytest.approx(np.percentile(vol.data, 99.0), rel=1e-6)
        # Skull voxels sit near the 99th percentile, so they normalize to ~1.
        assert 0.9 <= out.data.max() <= 1.5

    def test_halving(self):
        vol, _ = make_phantom(32, np.random.default_rng(2))
        out, meta = preprocess_volume(vol, GridConfig(pad_shape=(32, 32, 32)))
        assert out.shape == (16, 16, 16)
        assert meta["pre_resize_shape"] == [32, 32, 32]


class TestExtract:
    def test_writes_mask_and_sidecar(self, phantom_dataset, init_checkpoint, tmp_path):
        cfg = toy_pipeline_config(phantom_dataset, init_checkpoint, tmp_path / "m.nii.gz")
        res = extract(cfg)
        assert res.output_path.exists()
        assert res.sidecar_path == tmp_path / "m.nii.gz.transforms.json"
        on_disk = read_mask(res.output_path)
        original = read_nifti(cfg.input_path)
        assert on_disk.shape == original.shape
        assert np.array_equal(on_disk.data, res.native_mask.data)
        sidecar = json.loads(res.sidecar_path.read_text())
        assert sidecar["checkpoint_config_hash"] == res.sidecar["checkpoint_config_hash"]
        assert sidecar["config"]["evnet"]["levels"] == 2

    def test_crf_and_cleanup_stages_run(self, phantom_dataset, init_checkpoint, tmp_path):
        cfg = toy_pipeline_config(
            phantom_dataset,
            init_checkpoint,
            tmp_path / "m.nii.gz",
            crf=CrfConfig(iterations=1),
            cleanup=True,
        )
        res = extract(cfg)
        assert res.native_mask.shape == (16, 16, 16)

    def test_zero_iters_no_cleanup_is_argmax(
        self, phantom_dataset, init_checkpoint, tmp_path
    ):
        cfg = toy_pipeline_config(phantom_dataset, init_checkpoint, tmp_path / "m.nii.gz")
        res = extract(cfg)
        am = LabelMask(
            np.argmax(res.probs.data, axis=0).astype(np.uint8), res.probs.affine
        )
        expected = mask_to_native(
            am,
            read_nifti(cfg.input_path),
            offsets=tuple(res.sidecar["transforms"]["pad"]["offsets"]),
            pre_resize_shape=tuple(res.sidecar["transforms"]["pre_resize_shape"]),
        )
        assert np.array_equal(res.native_mask.data, expected.data)

    def test_zero_iters_skips_crf(
        self, phantom_dataset, init_checkpoint, tmp_path, monkeypatch
    ):
        def no_message_pass(*args, **kwargs):
            raise AssertionError("extract ran a CRF message pass at 0 iterations")

        monkeypatch.setattr("evcseg.crf.filtered_message_pass", no_message_pass)
        cfg = toy_pipeline_config(
            phantom_dataset, init_checkpoint, tmp_path / "m.nii.gz",
            crf=CrfConfig(iterations=0),
        )
        res = extract(cfg)
        assert np.array_equal(
            res.network_mask.data, np.argmax(res.probs.data, axis=0)
        )

    def test_sidecar_replays_native_mapping(
        self, phantom_dataset, init_checkpoint, tmp_path
    ):
        # Rebuild the native mask from sidecar values alone: the network-grid
        # affine, pad offsets, and pre-halving shape all come from the JSON.
        cfg = toy_pipeline_config(phantom_dataset, init_checkpoint, tmp_path / "m.nii.gz")
        res = extract(cfg)
        sidecar = json.loads(res.sidecar_path.read_text())
        grid_affine = np.array(sidecar["transforms"]["network_grid"]["affine"])
        replayed = mask_to_native(
            LabelMask(res.network_mask.data, grid_affine),
            read_nifti(sidecar["input"]),
            offsets=tuple(sidecar["transforms"]["pad"]["offsets"]),
            pre_resize_shape=tuple(sidecar["transforms"]["pre_resize_shape"]),
        )
        assert np.array_equal(replayed.data, read_mask(res.output_path).data)

    def test_bit_reproducible(self, phantom_dataset, init_checkpoint, tmp_path):
        a = toy_pipeline_config(phantom_dataset, init_checkpoint, tmp_path / "a.nii.gz")
        b = toy_pipeline_config(phantom_dataset, init_checkpoint, tmp_path / "b.nii.gz")
        extract(a)
        extract(b)
        assert (tmp_path / "a.nii.gz").read_bytes() == (tmp_path / "b.nii.gz").read_bytes()

    @pytest.mark.parametrize("background_bias,flagged", [(50.0, True), (-50.0, False)])
    def test_empty_mask_flagged(
        self, phantom_dataset, init_checkpoint, tmp_path, background_bias, flagged
    ):
        # head.bias decides the label everywhere: background (label 0) or
        # foreground wins every voxel.
        params, net_cfg, _ = load_checkpoint(init_checkpoint)
        params["head.bias"] = np.array([background_bias, -background_bias], np.float32)
        ckpt = tmp_path / "biased.evc"
        save_checkpoint(ckpt, params, net_cfg)
        res = extract(toy_pipeline_config(phantom_dataset, ckpt, tmp_path / "m.nii.gz"))
        assert res.native_mask.data.any() != flagged
        sidecar = json.loads(res.sidecar_path.read_text())
        if flagged:
            assert sidecar["flags"] == ["empty_mask"]
        else:
            assert "flags" not in sidecar

    def test_missing_checkpoint(self, phantom_dataset, tmp_path):
        cfg = toy_pipeline_config(
            phantom_dataset, tmp_path / "nope.evc", tmp_path / "m.nii.gz"
        )
        with pytest.raises(FileNotFoundError, match="nope.evc"):
            extract(cfg)

    def test_indivisible_grid_rejected(self, phantom_dataset, init_checkpoint, tmp_path):
        cfg = toy_pipeline_config(
            phantom_dataset,
            init_checkpoint,
            tmp_path / "m.nii.gz",
            grid=GridConfig(pad_shape=(35, 35, 35), resize_half=False),
        )
        with pytest.raises(ConfigError, match="stage 'config'"):
            extract(cfg)

    def test_input_larger_than_pad(self, phantom_dataset, init_checkpoint, tmp_path):
        cfg = toy_pipeline_config(
            phantom_dataset,
            init_checkpoint,
            tmp_path / "m.nii.gz",
            grid=GridConfig(pad_shape=(8, 8, 8), resize_half=False),
        )
        with pytest.raises(GeometryError, match="stage 'pad'"):
            extract(cfg)


class TestTrain:
    def toy_train_config(self, dataset, path, **overrides):
        defaults = dict(
            data_dir=dataset,
            checkpoint_path=path,
            epochs=2,
            lr=0.1,
            momentum=0.9,
            holdout=0,
            seed=0,
            augment=False,
            evnet=TOY_EVNET,
            grid=TOY_GRID,
        )
        defaults.update(overrides)
        return TrainConfig(**defaults)

    def test_zero_epochs_writes_init_checkpoint(self, phantom_dataset, tmp_path):
        path = tmp_path / "init.evc"
        res = train(self.toy_train_config(phantom_dataset, path, epochs=0))
        assert res.best_epoch is None and res.history == ()
        log = json.loads(res.log_path.read_text())
        assert log["epochs"] == []
        params, cfg, manifest = load_checkpoint(path)
        assert manifest["extra"]["epoch"] is None
        fresh = init_params(cfg, dtype=np.float32)
        assert all(np.array_equal(params[k], fresh[k]) for k in params)

    def test_fixed_seed_identical_logs(self, phantom_dataset, tmp_path):
        r1 = train(self.toy_train_config(phantom_dataset, tmp_path / "a.evc", augment=True))
        r2 = train(self.toy_train_config(phantom_dataset, tmp_path / "b.evc", augment=True))
        r3 = train(
            self.toy_train_config(phantom_dataset, tmp_path / "c.evc", augment=True, seed=1)
        )
        assert r1.log_path.read_text() == r2.log_path.read_text()
        assert r1.history != r3.history
        assert (tmp_path / "a.evc").read_bytes() == (tmp_path / "b.evc").read_bytes()

    def test_loss_decreases(self, phantom_dataset, tmp_path):
        res = train(self.toy_train_config(phantom_dataset, tmp_path / "t.evc", epochs=5))
        losses = [h["train_loss"] for h in res.history]
        assert losses[-1] < losses[0]

    def test_holdout_split_and_best_checkpoint(self, phantom_dataset, tmp_path):
        res = train(
            self.toy_train_config(phantom_dataset, tmp_path / "t.evc", epochs=3, holdout=1)
        )
        vals = [h["val_loss"] for h in res.history]
        assert all(v is not None for v in vals)
        assert res.best_loss == min(vals)
        _, _, manifest = load_checkpoint(tmp_path / "t.evc")
        assert manifest["extra"]["epoch"] == res.best_epoch

    def test_batch_size_two(self, phantom_dataset, tmp_path):
        res = train(
            self.toy_train_config(phantom_dataset, tmp_path / "t.evc", batch_size=2)
        )
        assert np.isfinite([h["train_loss"] for h in res.history]).all()

    def test_augmentation_changes_losses(self, phantom_dataset, tmp_path):
        plain = train(self.toy_train_config(phantom_dataset, tmp_path / "p.evc"))
        auged = train(
            self.toy_train_config(phantom_dataset, tmp_path / "a.evc", augment=True)
        )
        assert plain.history != auged.history

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_no_numpy_warning(self, phantom_dataset, tmp_path):
        # at this rate the first update makes the next forward pass overflow;
        # the loss check reports it, without numpy's own warnings
        cfg = self.toy_train_config(phantom_dataset, tmp_path / "t.evc", epochs=3, lr=1e10)
        with pytest.raises(TrainingError, match="non-finite training loss at epoch 0, batch 1"):
            train(cfg)

    def test_holdout_too_large(self, phantom_dataset, tmp_path):
        with pytest.raises(ConfigError, match="holdout"):
            train(self.toy_train_config(phantom_dataset, tmp_path / "t.evc", holdout=4))

    def test_unpaired_files_listed(self, tmp_path):
        from evcseg.synth import synth_dataset

        synth_dataset(n=2, size=16, seed=0, out_dir=tmp_path / "d")
        orphan = tmp_path / "d" / "images" / "phantom_999.nii.gz"
        orphan.write_bytes((tmp_path / "d" / "images" / "phantom_000.nii.gz").read_bytes())
        cfg = self.toy_train_config(
            tmp_path / "d", tmp_path / "t.evc", grid=GridConfig(pad_shape=(16, 16, 16), resize_half=False)
        )
        with pytest.raises(DataError, match="phantom_999"):
            train(cfg)

    def test_shape_mismatch_listed(self, tmp_path):
        from evcseg.synth import synth_dataset

        synth_dataset(n=2, size=16, seed=0, out_dir=tmp_path / "d")
        bad = LabelMask(np.zeros((8, 8, 8), dtype=np.uint8))
        write_nifti(bad, tmp_path / "d" / "masks" / "phantom_001.nii.gz")
        cfg = self.toy_train_config(
            tmp_path / "d",
            tmp_path / "t.evc",
            grid=GridConfig(pad_shape=(16, 16, 16), resize_half=False),
        )
        with pytest.raises(DataError, match="phantom_001"):
            train(cfg)

    def test_missing_subdirs(self, tmp_path):
        with pytest.raises(DataError, match="images"):
            train(self.toy_train_config(tmp_path, tmp_path / "t.evc"))


def write_mask_file(path, data):
    write_nifti(LabelMask(np.asarray(data, dtype=np.uint8)), path)


def ball_mask(size, radius, center=None):
    c = (size - 1) / 2 if center is None else center
    idx = np.indices((size, size, size))
    return (sum((idx[a] - c) ** 2 for a in range(3)) <= radius**2).astype(np.uint8)


class TestEvaluate:
    def build_dirs(self, tmp_path, cases):
        pred = tmp_path / "pred"
        truth = tmp_path / "truth"
        pred.mkdir()
        truth.mkdir()
        for name, (p, t) in cases.items():
            write_mask_file(pred / name, p)
            write_mask_file(truth / name, t)
        return pred, truth

    def test_perfect_predictions(self, tmp_path):
        ball = ball_mask(12, 4)
        pred, truth = self.build_dirs(
            tmp_path, {f"c{i}.nii.gz": (ball, ball) for i in range(3)}
        )
        report = evaluate(pred, truth, json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")
        assert report["summary"]["dice"] == {"mean": 1.0, "std": 0.0, "n": 3}
        assert report["summary"]["balanced_ahd"]["mean"] == 0.0
        csv = (tmp_path / "r.csv").read_text().splitlines()
        assert csv[0] == "metric,mean,std,n"
        assert csv[1] == "dice,1.0,0.0,3"
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["cases"]["c0.nii.gz"]["dice"] == 1.0

    def test_hand_case_dice(self, tmp_path):
        # |truth| = 4, |pred| = 6, |overlap| = 3: dice 0.6, jaccard 3/7.
        truth_arr = np.zeros((4, 4, 4), dtype=np.uint8)
        pred_arr = np.zeros((4, 4, 4), dtype=np.uint8)
        truth_arr[0, 0, :4] = 1
        pred_arr[0, 0, 1:4] = 1
        pred_arr[1, 1, :3] = 1
        pred, truth = self.build_dirs(tmp_path, {"h.nii.gz": (pred_arr, truth_arr)})
        report = evaluate(pred, truth)
        case = report["cases"]["h.nii.gz"]
        assert case["dice"] == pytest.approx(0.6, abs=1e-12)
        assert case["jaccard"] == pytest.approx(3 / 7, abs=1e-12)

    def test_empty_prediction_flagged(self, tmp_path):
        ball = ball_mask(10, 3)
        empty = np.zeros((10, 10, 10), dtype=np.uint8)
        pred, truth = self.build_dirs(tmp_path, {"e.nii.gz": (empty, ball)})
        report = evaluate(pred, truth, json_path=tmp_path / "r.json")
        case = report["cases"]["e.nii.gz"]
        assert case["balanced_ahd"] == float("inf")
        assert case["flags"] == ["empty_prediction"]
        assert case["dice"] == 0.0
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["cases"]["e.nii.gz"]["balanced_ahd"] == float("inf")

    def test_unmatched_files_listed(self, tmp_path):
        ball = ball_mask(10, 3)
        pred, truth = self.build_dirs(tmp_path, {"a.nii.gz": (ball, ball)})
        write_mask_file(truth / "b.nii.gz", ball)
        with pytest.raises(DataError, match="b.nii.gz"):
            evaluate(pred, truth)

    def test_worker_count_does_not_change_report(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        cases = {
            f"c{i}.nii.gz": (ball_mask(10, 3 + i % 2), ball_mask(10, 3, center=4.4))
            for i in range(4)
        }
        pred, truth = self.build_dirs(tmp_path, cases)
        monkeypatch.setenv("EVCSEG_THREADS", "1")
        r1 = evaluate(pred, truth)
        monkeypatch.setenv("EVCSEG_THREADS", "4")
        r2 = evaluate(pred, truth)
        assert r1 == r2

    def test_shape_mismatch_rejected(self, tmp_path):
        pred, truth = self.build_dirs(
            tmp_path, {"a.nii.gz": (np.zeros((4, 4, 4), np.uint8), ball_mask(10, 3))}
        )
        with pytest.raises(DataError, match="a.nii.gz"):
            evaluate(pred, truth)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("EVCSEG_THREADS", "3")
        assert worker_count() == 3

    def test_default_bounded(self, monkeypatch):
        monkeypatch.delenv("EVCSEG_THREADS", raising=False)
        assert 1 <= worker_count() <= 8

    @pytest.mark.parametrize("value", ["0", "-2", "many"])
    def test_invalid_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("EVCSEG_THREADS", value)
        with pytest.raises(ConfigError):
            worker_count()
