"""Tests for the evcseg command line: flags, wiring, exit codes."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_GRID, rewrite_manifest
from evcseg import cli
from evcseg.crf import CrfConfig
from evcseg.evnet import load_checkpoint, save_checkpoint
from evcseg.nifti import read_mask, read_nifti, read_probmap, write_nifti
from evcseg.pipeline import PipelineConfig, TrainConfig
from evcseg.volume import ProbMap, Volume

GRID_FLAGS = ["--pad", "16", "16", "16", "--no-resize-half"]


def run(argv):
    return cli.main(argv)


def _offline_develop_available():
    """True if setuptools can install this checkout without pip or a network.

    Before setuptools 80 the ``develop`` command installs in process through
    easy_install; from 80 on it hands over to pip, whose build isolation
    fetches the build requirements from an index.
    """
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return False
    return int(version.split(".")[0]) < 80


@pytest.fixture
def evcseg_on_path(tmp_path, monkeypatch):
    """Put an installed ``evcseg`` console script on PATH.

    A source checkout run with ``PYTHONPATH=src`` has none, so install a copy
    of ``pyproject.toml`` and ``src/`` with setuptools' ``develop --no-deps``
    into a throwaway venv that shares this interpreter's packages, and put
    its ``bin/`` first on PATH. The script is then the one setuptools writes
    from ``[project.scripts]``.
    """
    if shutil.which("evcseg") is not None:
        return
    repo = Path(__file__).resolve().parents[1]
    shutil.copy(repo / "pyproject.toml", tmp_path)
    shutil.copytree(repo / "src", tmp_path / "src")
    venv.create(tmp_path / "venv", system_site_packages=True)
    bin_dir = tmp_path / "venv" / "bin"
    # With the copy's src/ already on PYTHONPATH, develop would skip the
    # easy-install.pth entry that lets the script find its metadata.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [bin_dir / "python", "-c", "from setuptools import setup; setup()",
         "develop", "--no-deps"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")


class TestSynthCommand:
    def test_writes_pairs(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "d"), "--n", "2", "--size", "16"]) == 0
        assert "2 phantom pairs" in capsys.readouterr().out
        for sub in ("images", "masks"):
            assert sorted(p.name for p in (tmp_path / "d" / sub).iterdir()) == [
                "phantom_000.nii.gz",
                "phantom_001.nii.gz",
            ]

    def test_same_seed_identical_bytes(self, tmp_path):
        run(["synth", "--out", str(tmp_path / "a"), "--n", "1", "--size", "16", "--seed", "5"])
        run(["synth", "--out", str(tmp_path / "b"), "--n", "1", "--size", "16", "--seed", "5"])
        a = (tmp_path / "a" / "images" / "phantom_000.nii.gz").read_bytes()
        b = (tmp_path / "b" / "images" / "phantom_000.nii.gz").read_bytes()
        assert a == b

    def test_too_small_size_is_data_error(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "d"), "--size", "8"]) == 3
        assert "size" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run(["extract", "--in", "x.nii"])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["florb"])
        assert exc.value.code == 2

    def test_pad_and_full_grid_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(
                ["extract", "--in", "x", "--out", "y", "--checkpoint", "z",
                 "--pad", "32", "32", "32", "--full-grid"]
            )
        assert exc.value.code == 2


class Intercepted(Exception):
    """Raised by a stand-in for a pipeline entry point, carrying its args."""


class TestDefaults:
    """With only the required flags, each command builds the default configs."""

    @pytest.fixture
    def captured(self, monkeypatch):
        def capture(*args):
            raise Intercepted(*args)

        for name in ("extract", "train", "refine"):
            monkeypatch.setattr(cli, name, capture)

    def test_extract(self, captured):
        with pytest.raises(Intercepted) as exc:
            run(["extract", "--in", "a.nii", "--out", "m.nii", "--checkpoint", "c.evc"])
        (cfg,) = exc.value.args
        assert cfg == PipelineConfig(
            input_path="a.nii", output_path="m.nii", checkpoint_path="c.evc"
        )

    def test_train(self, captured):
        with pytest.raises(Intercepted) as exc:
            run(["train", "--data", "d", "--out", "c.evc"])
        (cfg,) = exc.value.args
        assert cfg == TrainConfig(data_dir="d", checkpoint_path="c.evc")

    def test_refine(self, captured, tmp_path):
        write_nifti(ProbMap(np.full((2, 4, 4, 4), 0.5)), tmp_path / "p.nii.gz")
        write_nifti(Volume(np.zeros((4, 4, 4))), tmp_path / "v.nii.gz")
        with pytest.raises(Intercepted) as exc:
            run(["refine", "--prob", str(tmp_path / "p.nii.gz"),
                 "--image", str(tmp_path / "v.nii.gz"), "--out", str(tmp_path / "m.nii.gz")])
        _, _, crf = exc.value.args
        assert crf == CrfConfig()


class TestTrainCommand:
    def test_zero_epochs(self, phantom_dataset, tmp_path, capsys):
        code = run(
            ["train", "--data", str(phantom_dataset), "--out", str(tmp_path / "c.evc"),
             "--epochs", "0", "--base-channels", "2", *GRID_FLAGS]
        )
        assert code == 0
        assert "initialization checkpoint" in capsys.readouterr().out
        assert (tmp_path / "c.evc").exists()
        assert json.loads((tmp_path / "c.evc.log.json").read_text())["epochs"] == []

    def test_diverging_loss_names_epoch_and_batch(self, phantom_dataset, tmp_path, capsys):
        # the first update at this rate makes the next forward pass overflow
        # to a NaN loss, which is caught before any gradient is taken
        code = run(
            ["train", "--data", str(phantom_dataset), "--out", str(tmp_path / "c.evc"),
             "--epochs", "3", "--lr", "1e10", "--levels", "2", "--base-channels", "2",
             "--no-augment", *GRID_FLAGS]
        )
        assert code == 4
        assert "non-finite training loss at epoch 0, batch 1" in capsys.readouterr().err

    def test_bad_data_dir(self, tmp_path, capsys):
        code = run(
            ["train", "--data", str(tmp_path), "--out", str(tmp_path / "c.evc"),
             "--epochs", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "images" in capsys.readouterr().err


class TestExtractCommand:
    def test_end_to_end(self, phantom_dataset, init_checkpoint, tmp_path, capsys):
        out = tmp_path / "mask.nii.gz"
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(out), "--checkpoint", str(init_checkpoint),
             "--crf-iters", "0", "--no-cleanup", *GRID_FLAGS]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()
        assert (tmp_path / "mask.nii.gz.transforms.json").exists()
        assert read_mask(out).shape == (16, 16, 16)

    def test_missing_checkpoint_names_path(self, phantom_dataset, tmp_path, capsys):
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"),
             "--checkpoint", str(tmp_path / "absent.evc"), *GRID_FLAGS]
        )
        assert code == 3
        assert "absent.evc" in capsys.readouterr().err

    def test_checkpoint_missing_tensor_is_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        params, cfg, _ = load_checkpoint(init_checkpoint)
        del params["head.bias"]
        ckpt = tmp_path / "partial.evc"
        save_checkpoint(ckpt, params, cfg)
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(ckpt),
             "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "head.bias" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_negative_tensor_offset_is_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # An offset before the payload would read the tensor from the manifest.
        ckpt = tmp_path / "bad_offset.evc"
        shutil.copy(init_checkpoint, ckpt)
        rewrite_manifest(ckpt, lambda m: m["tensors"]["head.bias"].update(offset=-1000))
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(ckpt),
             "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "head.bias" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_nan_voxel_is_data_error(self, phantom_dataset, init_checkpoint, tmp_path, capsys):
        image = tmp_path / "nan.nii"
        write_nifti(read_nifti(phantom_dataset / "images" / "phantom_000.nii.gz"), image)
        data = bytearray(image.read_bytes())
        data[-4:] = np.array(np.nan, "<f4").tobytes()  # the last voxel
        image.write_bytes(bytes(data))
        code = run(
            ["extract", "--in", str(image), "--out", str(tmp_path / "m.nii.gz"),
             "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_signaling_nan_voxel_prints_only_the_error(
        self, phantom_dataset, init_checkpoint, tmp_path
    ):
        # the float32 -> float64 cast of a signaling NaN sets numpy's invalid
        # flag; the finite check alone must speak, so run the real console
        # entry in a fresh interpreter, whose warnings would reach stderr
        image = tmp_path / "snan.nii"
        write_nifti(read_nifti(phantom_dataset / "images" / "phantom_000.nii.gz"), image)
        data = bytearray(image.read_bytes())
        data[-4:] = bytes([0x01, 0x00, 0x80, 0x7F])  # the last voxel
        image.write_bytes(bytes(data))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "evcseg.cli", "extract", "--in", str(image),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(init_checkpoint),
             "--crf-iters", "0", *GRID_FLAGS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evcseg: error: ")
        assert "finite" in lines[0]

    def test_nan_vox_offset_is_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        image = tmp_path / "nan_offset.nii"
        write_nifti(read_nifti(phantom_dataset / "images" / "phantom_000.nii.gz"), image)
        data = bytearray(image.read_bytes())
        data[108:112] = np.array(np.nan, "<f4").tobytes()  # vox_offset
        image.write_bytes(bytes(data))
        code = run(
            ["extract", "--in", str(image), "--out", str(tmp_path / "m.nii.gz"),
             "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "vox_offset" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_nan_sform_is_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        image = tmp_path / "nan_sform.nii"
        write_nifti(read_nifti(phantom_dataset / "images" / "phantom_000.nii.gz"), image)
        data = bytearray(image.read_bytes())
        data[280:284] = np.array(np.nan, "<f4").tobytes()  # srow_x[0]
        image.write_bytes(bytes(data))
        code = run(
            ["extract", "--in", str(image), "--out", str(tmp_path / "m.nii.gz"),
             "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "nan_sform.nii" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_truncated_gzip_is_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        image = tmp_path / "cut.nii.gz"
        blob = (phantom_dataset / "images" / "phantom_000.nii.gz").read_bytes()
        image.write_bytes(blob[: len(blob) // 2])
        code = run(
            ["extract", "--in", str(image), "--out", str(tmp_path / "m.nii.gz"),
             "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "cut.nii.gz" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_geometry_problem_is_compute_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # 16^3 input cannot be padded into an 8^3 target.
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(init_checkpoint),
             "--pad", "8", "8", "8", "--no-resize-half"]
        )
        assert code == 4
        assert "stage 'pad'" in capsys.readouterr().err


class TestRefineCommand:
    def test_zero_iterations_is_argmax(self, tmp_path):
        rng = np.random.default_rng(0)
        fg = rng.uniform(0.05, 0.95, size=(6, 6, 6))
        probs = ProbMap(np.stack([1.0 - fg, fg]))
        vol = Volume(rng.uniform(size=(6, 6, 6)))
        write_nifti(probs, tmp_path / "p.nii.gz")
        write_nifti(vol, tmp_path / "v.nii.gz")
        out = tmp_path / "m.nii.gz"
        code = run(
            ["refine", "--prob", str(tmp_path / "p.nii.gz"),
             "--image", str(tmp_path / "v.nii.gz"), "--out", str(out),
             "--crf-iters", "0"]
        )
        assert code == 0
        stored = read_probmap(tmp_path / "p.nii.gz")
        expected = np.argmax(stored.data, axis=0).astype(np.uint8)
        assert np.array_equal(read_mask(out).data, expected)

    def test_refinement_runs_brute(self, tmp_path):
        rng = np.random.default_rng(1)
        fg = rng.uniform(0.05, 0.95, size=(6, 6, 6))
        probs = ProbMap(np.stack([1.0 - fg, fg]))
        vol = Volume(rng.uniform(size=(6, 6, 6)))
        write_nifti(probs, tmp_path / "p.nii.gz")
        write_nifti(vol, tmp_path / "v.nii.gz")
        code = run(
            ["refine", "--prob", str(tmp_path / "p.nii.gz"),
             "--image", str(tmp_path / "v.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"),
             "--crf-backend", "brute", "--crf-iters", "2",
             "--w-app", "0.2", "--w-smooth", "0.1"]
        )
        assert code == 0
        assert read_mask(tmp_path / "m.nii.gz").shape == (6, 6, 6)


class TestEvalCommand:
    def test_reports_and_exit_zero(self, tmp_path, capsys):
        from evcseg.volume import LabelMask

        ball = np.zeros((10, 10, 10), dtype=np.uint8)
        ball[3:7, 3:7, 3:7] = 1
        for sub in ("pred", "truth"):
            (tmp_path / sub).mkdir()
            write_nifti(LabelMask(ball), tmp_path / sub / "a.nii.gz")
        code = run(
            ["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth"),
             "--out-json", str(tmp_path / "r.json"), "--out-csv", str(tmp_path / "r.csv")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dice: 1.0000" in out
        assert (tmp_path / "r.json").exists() and (tmp_path / "r.csv").exists()

    def test_unmatched_is_data_error(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "truth").mkdir()
        code = run(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert code == 3


class TestConfigFile:
    def test_key_value_defaults(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# phantom defaults\nn=3\nsize=16\nseed=9\n")
        assert run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        assert len(list((tmp_path / "d" / "images").iterdir())) == 3

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n=3\nsize=16\n")
        assert run(
            ["synth", "--out", str(tmp_path / "d"), "--config", str(cfg), "--n", "1"]
        ) == 0
        assert len(list((tmp_path / "d" / "images").iterdir())) == 1

    def test_json_config(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps({"n": 2, "size": 16}))
        assert run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        assert len(list((tmp_path / "d" / "images").iterdir())) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("phantoms=3\n")
        assert run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 3
        assert "phantoms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "blob", [b'{"n": 2,', b"n=\xff\n"], ids=["broken-json", "not-utf8"]
    )
    def test_unreadable_file_is_data_error(self, blob, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(blob)
        assert run(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 3
        assert f"{cfg}: unreadable config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text,key",
        [
            ("extract", "crf_iters=2.5\npad=[16, 16, 16]\nno_resize_half=true\n", "crf_iters"),
            ("extract", "crf_iters=true\npad=[16, 16, 16]\nno_resize_half=true\n", "crf_iters"),
            ("extract", json.dumps({"pad": [16, 16, 16.7], "no_resize_half": True}), "pad"),
            ("synth", "n=2.5\nsize=16\n", "n"),
        ],
        ids=["float-for-int", "bool-for-int", "float-in-int-list", "synth-float-for-int"],
    )
    def test_value_must_fit_its_option(
        self, command, text, key, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.nii.gz"
        argv = {
            "extract": ["extract", "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
                        "--out", str(out), "--checkpoint", str(init_checkpoint)],
            "synth": ["synth", "--out", str(out)],
        }[command]
        assert run([*argv, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("evcseg: error: ")
        assert f"{cfg}: {key}:" in err
        assert not out.exists()


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "evcseg" in capsys.readouterr().out

    @pytest.mark.skipif(
        shutil.which("evcseg") is None and not _offline_develop_available(),
        reason="needs the evcseg console script on PATH "
        "(pip install --no-build-isolation -e .) or setuptools<80 "
        "to install it offline into a throwaway venv",
    )
    def test_installed_entry_point(self, evcseg_on_path):
        import subprocess

        proc = subprocess.run(
            ["evcseg", "--version"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "evcseg" in proc.stdout
