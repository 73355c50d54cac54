"""Tests for the extract / train / evaluate orchestration layer."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_EVNET, TOY_GRID
from evcseg import crf, pipeline
from evcseg.crf import CrfConfig
from evcseg.errors import ConfigError, DataError, GeometryError, TrainingError
from evcseg.evnet import (
    EvNetConfig,
    config_hash,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from evcseg.nifti import read_mask, read_nifti, write_nifti
from evcseg.pipeline import (
    NORM_CLAMP,
    GridConfig,
    PipelineConfig,
    TrainConfig,
    _check_grid_fits,
    evaluate,
    extract,
    linear_percentile,
    preprocess_volume,
    train,
)
from evcseg.synth import make_phantom, synth_dataset
from evcseg.volume import LabelMask, mask_to_native

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

    def test_step_is_a_property_not_a_field(self):
        # the halving factor is read, never stored, so sidecars keep their keys
        assert GridConfig().step == 2
        assert GridConfig(resize_half=False).step == 1
        assert [f.name for f in dataclasses.fields(GridConfig)] == ["pad_shape", "resize_half"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(pad_shape=(33, 32, 32)),  # odd but halving requested
            dict(pad_shape=(0, 32, 32)),
            dict(pad_shape=(16, 16, 16.7)),  # used to become 16
            dict(pad_shape=(16, 16, 16.0)),
            dict(pad_shape=("16", 16, True), resize_half=False),  # was (16, 16, 1)
            dict(pad_shape=64),  # this and None raised a bare TypeError
            dict(pad_shape=None),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            GridConfig(**kwargs)

    def test_numpy_ints_become_python_ints(self):
        g = GridConfig(pad_shape=np.array([16, 16, 16]), resize_half=False)
        assert g.pad_shape == (16, 16, 16)
        assert all(type(s) is int for s in g.pad_shape)

    def test_grid_fit_check(self):
        _check_grid_fits(TOY_GRID, EvNetConfig(levels=2, base_channels=2))
        with pytest.raises(ConfigError):
            _check_grid_fits(
                GridConfig(pad_shape=(60, 60, 60)),  # network 30^3, needs % 4 = 0
                EvNetConfig(levels=3, base_channels=2),
            )


class TestWholeNumberFields:
    """Every integer config field takes a whole number at or above its
    minimum, and keeps it as a Python int; anything else is a ConfigError
    raised before any file is written."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TrainConfig("d", "c.evc", epochs=1.5),  # used to fail after a write
            lambda: TrainConfig("d", "c.evc", batch_size=True),
            lambda: TrainConfig("d", "c.evc", holdout="1"),
            lambda: TrainConfig("d", "c.evc", seed=0.0),
            lambda: EvNetConfig(levels=2.0),  # used to fail in a slice
            lambda: EvNetConfig(base_channels=4.5),  # used to be accepted
            lambda: EvNetConfig(seed=-1),
            lambda: EvNetConfig(convs_per_block=(1, 1.5)),  # used to be accepted
        ],
        ids=["epochs", "batch_size", "holdout", "train_seed", "levels", "base_channels",
             "evnet_seed", "convs_per_block"],
    )
    def test_config_refuses(self, make):
        with pytest.raises(ConfigError, match="must be an integer >= "):
            make()

    @pytest.mark.parametrize(
        "args", [(1.5, 16, 0), (1, 16.0, 0), (1, 16, "0"), (0, 16, 0), (1, 8, 0), (1, 16, -1)],
        ids=["n_float", "size_float", "seed_str", "n_zero", "size_small", "seed_negative"],
    )
    def test_synth_dataset_refuses_before_writing(self, args, tmp_path):
        with pytest.raises(ConfigError, match="must be an integer >= "):
            synth_dataset(*args, tmp_path / "d")
        assert not (tmp_path / "d").exists()

    def test_numpy_ints_become_python_ints(self):
        i = np.int64
        train_cfg = TrainConfig("d", "c.evc", epochs=i(2), batch_size=i(1), holdout=i(0),
                                seed=i(3))
        net_cfg = EvNetConfig(levels=i(2), base_channels=i(2), convs_per_block=(i(1), i(2)),
                              seed=i(0))
        fields = [train_cfg.epochs, train_cfg.batch_size, train_cfg.holdout, train_cfg.seed,
                  net_cfg.levels, net_cfg.base_channels, net_cfg.seed, *net_cfg.convs_per_block,
                  CrfConfig(iterations=i(4)).iterations]
        assert all(type(v) is int for v in fields)
        # json refuses numpy ints, so the hash proves the conversion too
        assert config_hash(net_cfg) == config_hash(EvNetConfig(levels=2, base_channels=2))

    def test_bench_checkpoint_keeps_its_hash(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"
        _, cfg, manifest = load_checkpoint(path)
        assert config_hash(cfg) == manifest["config_hash"] == "c635fbc39439d5cd"


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
        assert divisor == np.percentile(vol.data, 99.0)
        # Skull voxels sit near the 99th percentile, so they normalize to ~1.
        assert 0.9 <= out.data.max() <= 1.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 10, 99, 100, 101, 4097, 65536, 2**21])
    def test_percentile_is_numpys(self, n):
        # == on floats: numpy's linear method, same float. Only a zero's
        # sign could differ (0.0 and -0.0 tied at the two ranks); none of
        # these draws holds -0.0, and a divisor is clamped above 0 anyway
        rng = np.random.default_rng(n)
        draws = [
            rng.standard_normal(n),
            rng.integers(0, 4, n).astype(np.float64),  # ties everywhere
            np.round(rng.random(n) * 1e3) * 10.0 ** rng.integers(-3, 3, n),
        ]
        for x in draws:
            for pct in (0.0, 1.0, 50.0, 99.0, 99.9, 100.0):
                assert linear_percentile(x, pct) == np.percentile(x, pct), pct

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


class TestExtractRefinesWithoutState:
    """extract asks refine for the mask alone: n message passes at n
    iterations, and the mask the default refine gives."""

    CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"

    def test_five_passes_and_the_default_mask(self, tmp_path, monkeypatch):
        image, _ = make_phantom(64, np.random.default_rng(1014))
        write_nifti(image, tmp_path / "head.nii")
        cfg = PipelineConfig(
            input_path=tmp_path / "head.nii",
            output_path=tmp_path / "mask.nii",
            checkpoint_path=self.CHECKPOINT,
            crf=CrfConfig(iterations=5),
            cleanup=False,
        )
        passes, message_pass = [], crf.filtered_message_pass

        def counting(*args):
            passes.append(1)
            return message_pass(*args)

        monkeypatch.setattr(crf, "filtered_message_pass", counting)
        res = extract(cfg)
        assert len(passes) == 5
        net_vol, _ = preprocess_volume(read_nifti(cfg.input_path), cfg.grid)
        mask, state = crf.refine(res.probs, net_vol, cfg.crf)
        assert len(passes) == 11 and len(state.free_energy_trace) == 6
        assert res.network_mask.data.any()
        assert res.network_mask.data.tobytes() == mask.data.tobytes()


def train_digests(data_dir, out):
    """sha256 of the checkpoint and loss log of one small 32^3 training run."""
    res = train(
        TrainConfig(
            data_dir=data_dir,
            checkpoint_path=out,
            epochs=2,
            lr=0.05,
            holdout=1,
            seed=4,
            evnet=EvNetConfig(base_channels=2, seed=4),
            grid=GridConfig(pad_shape=(32, 32, 32), resize_half=False),
        )
    )
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in (res.checkpoint_path, res.log_path)]


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

    def test_bytes_do_not_depend_on_reruns_or_blas_threads(self, tmp_path):
        # the kernel gradient sums over the forward's phase grid, zeros
        # included; checkpoint and loss log must still repeat byte for byte
        synth_dataset(n=3, size=32, seed=5, out_dir=tmp_path / "data")
        digests = [train_digests(tmp_path / "data", tmp_path / f"{r}.evc") for r in "ab"]
        tests = str(Path(__file__).resolve().parent)
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = "import sys; from test_pipeline import train_digests; print(*train_digests(*sys.argv[1:]))"
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src, tests, *filter(None, [os.environ.get("PYTHONPATH")])])}
            proc = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / "data"), str(tmp_path / f"t{threads}.evc")],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.split())
        assert all(d == digests[0] for d in digests), digests

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

    @pytest.mark.filterwarnings("error")
    def test_empty_prediction_flagged(self, tmp_path):
        # e: a ball missed; z: an empty truth, and an empty prediction agreeing
        ball = ball_mask(10, 3)
        empty = np.zeros((10, 10, 10), dtype=np.uint8)
        pred, truth = self.build_dirs(tmp_path, {"e.nii.gz": (empty, ball),
                                                 "z.nii.gz": (empty, empty)})
        report = evaluate(pred, truth, json_path=tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        for name, overlap in (("e.nii.gz", 0.0), ("z.nii.gz", 1.0)):
            case = report["cases"][name]
            assert case["balanced_ahd"] == float("inf")
            assert case["flags"] == ["empty_prediction"]
            assert case["dice"] == case["jaccard"] == overlap
            assert loaded["cases"][name]["balanced_ahd"] == float("inf")

    def test_unmatched_files_listed(self, tmp_path):
        ball = ball_mask(10, 3)
        pred, truth = self.build_dirs(tmp_path, {"a.nii.gz": (ball, ball)})
        write_mask_file(truth / "b.nii.gz", ball)
        with pytest.raises(DataError, match="b.nii.gz"):
            evaluate(pred, truth)

    @pytest.mark.parametrize("threads,n_cases", [("1", 3), ("4", 1)])
    def test_one_worker_scores_in_calling_thread(self, tmp_path, monkeypatch, threads, n_cases):
        # EVCSEG_THREADS is no longer read: a leftover setting must not
        # move scoring off the calling thread or reorder the cases.
        ball = ball_mask(10, 3)
        names = [f"c{i}.nii.gz" for i in range(n_cases)]
        pred, truth = self.build_dirs(tmp_path, {n: (ball, ball) for n in names})
        calls = []
        score_case = pipeline._score_case

        def recording(name, pred_path, truth_path):
            calls.append((name, threading.get_ident()))
            return score_case(name, pred_path, truth_path)

        monkeypatch.setattr(pipeline, "_score_case", recording)
        monkeypatch.setenv("EVCSEG_THREADS", threads)
        report = evaluate(pred, truth)
        assert calls == [(n, threading.get_ident()) for n in names]
        assert list(report["cases"]) == names

    def test_shape_mismatch_rejected(self, tmp_path):
        pred, truth = self.build_dirs(
            tmp_path, {"a.nii.gz": (np.zeros((4, 4, 4), np.uint8), ball_mask(10, 3))}
        )
        with pytest.raises(DataError, match="a.nii.gz"):
            evaluate(pred, truth)
