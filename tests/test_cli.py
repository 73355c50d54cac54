"""Tests for the evcseg command line: flags, wiring, exit codes."""

import argparse
import dataclasses
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import venv
from pathlib import Path

import numpy as np
import pytest

from conftest import rewrite_manifest
from evcseg import cli, crf
from evcseg.crf import CrfConfig, refine
from evcseg.errors import CapacityError, EvcsegError, FormatError
from evcseg.evnet import EvNetConfig, config_hash, load_checkpoint, save_checkpoint
from evcseg.metrics import dice
from evcseg.nifti import read_mask, read_nifti, read_probmap, write_nifti
from evcseg.pipeline import GridConfig, PipelineConfig, TrainConfig
from evcseg.synth import make_phantom
from evcseg.volume import LabelMask, ProbMap, Volume

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

    @pytest.mark.parametrize("command, backend", [("extract", "brute"), ("refine", "filtered")])
    def test_crf_backend_flag_is_gone(self, command, backend):
        # the filtered message pass is the CRF's only path
        with pytest.raises(SystemExit) as exc:
            run([command, *REQUIRED[command], "--crf-backend", backend])
        assert exc.value.code == 2

    def test_multiscale_mode_flag_is_gone(self):
        # concatenation is the one lower-scale merge; no flag selects it
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", "d", "--out", "c.evc", "--multiscale-mode", "concat"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "--in", "x.nii", "--out", "m.nii", "--checkpoint", "c.evc"],
            ["train", "--data", "d", "--out", "c.evc"],
            ["refine", "--prob", "p.nii", "--image", "v.nii", "--out", "m.nii"],
            ["eval", "--pred", "p", "--truth", "t"],
            ["synth", "--out", "d"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_flag_is_gone(self, argv):
        # every setting is a flag of its command; no file supplies defaults
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--config", "f"])
        assert exc.value.code == 2

    def test_readme_flags_exist(self):
        """Every --flag the README's command-line section shows is an option
        of some subcommand (or of the top-level parser)."""
        text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        parser = cli.build_parser()
        (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        known = {
            opt
            for p in (parser, *subs.choices.values())
            for action in p._actions
            for opt in action.option_strings
        }
        assert "--pad" in flags
        assert flags <= known, sorted(flags - known)


class Intercepted(Exception):
    """Raised by a stand-in for a pipeline entry point, carrying its args."""


def _extract_args(**changes):
    """extract's call with the required flags of REQUIRED and changes to the config."""
    return (PipelineConfig(input_path="a.nii", output_path="m.nii", checkpoint_path="c.evc",
                           **changes),)


def _train_args(**changes):
    return (TrainConfig(data_dir="d", checkpoint_path="c.evc", **changes),)


def _refine_args(**changes):
    return ("p.nii.gz", "v.nii.gz", "m.nii.gz", CrfConfig(**changes))


REQUIRED = {
    "extract": ["--in", "a.nii", "--out", "m.nii", "--checkpoint", "c.evc"],
    "train": ["--data", "d", "--out", "c.evc"],
    "refine": ["--prob", "p.nii.gz", "--image", "v.nii.gz", "--out", "m.nii.gz"],
}
DEFAULT_ARGS = {"extract": _extract_args(), "train": _train_args(), "refine": _refine_args()}
GRID_CHANGES = [
    (["--pad", "32", "32", "32"], {"pad_shape": (32, 32, 32)}),
    (["--no-resize-half"], {"resize_half": False}),
]
CRF_CHANGES = [
    (["--crf-iters", "2"], {"iterations": 2}),
    (["--w-app", "1.5"], {"w_appearance": 1.5}),
    (["--w-smooth", "0.5"], {"w_smoothness": 0.5}),
    (["--theta-alpha", "2"], {"theta_alpha": 2.0}),
    (["--theta-beta", "0.2"], {"theta_beta": 0.2}),
    (["--theta-gamma", "1"], {"theta_gamma": 1.0}),
]
# (command, one optional flag with a non-default value, the call it should make)
CONFIG_FLAGS = [
    ("extract", ["--sidecar", "s.json"], _extract_args(sidecar_path="s.json")),
    ("extract", ["--no-cleanup"], _extract_args(cleanup=False)),
    *(("extract", f, _extract_args(grid=GridConfig(**c))) for f, c in GRID_CHANGES),
    *(("extract", f, _extract_args(crf=CrfConfig(**c))) for f, c in CRF_CHANGES),
    ("train", ["--log", "l.json"], _train_args(log_path="l.json")),
    ("train", ["--epochs", "3"], _train_args(epochs=3)),
    ("train", ["--lr", "0.05"], _train_args(lr=0.05)),
    ("train", ["--momentum", "0.5"], _train_args(momentum=0.5)),
    ("train", ["--batch", "2"], _train_args(batch_size=2)),
    ("train", ["--holdout", "1"], _train_args(holdout=1)),
    ("train", ["--seed", "7"], _train_args(seed=7, evnet=EvNetConfig(seed=7))),
    ("train", ["--levels", "3"], _train_args(evnet=EvNetConfig(levels=3))),
    ("train", ["--base-channels", "8"], _train_args(evnet=EvNetConfig(base_channels=8))),
    ("train", ["--no-multiscale"], _train_args(evnet=EvNetConfig(multiscale_inputs=False))),
    ("train", ["--no-augment"], _train_args(augment=False)),
    *(("train", f, _train_args(grid=GridConfig(**c))) for f, c in GRID_CHANGES),
    *(("refine", f, _refine_args(**c)) for f, c in CRF_CHANGES),
]


class TestDefaults:
    """With only the required flags, each command builds the default configs."""

    @pytest.fixture
    def captured(self, monkeypatch):
        def capture(*args):
            raise Intercepted(*args)

        for name in ("extract", "train", "refine_file"):
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

    def test_refine(self, captured):
        with pytest.raises(Intercepted) as exc:
            run(["refine", "--prob", "p.nii.gz", "--image", "v.nii.gz", "--out", "m.nii.gz"])
        assert exc.value.args == ("p.nii.gz", "v.nii.gz", "m.nii.gz", CrfConfig())

    @pytest.mark.parametrize("command,flag,expected", CONFIG_FLAGS,
                             ids=[c + f[0] for c, f, _ in CONFIG_FLAGS])
    def test_flag_sets_exactly_its_field(self, captured, command, flag, expected):
        # the flags reach the configs by field name, so a misspelled name
        # would leave the default in place without an error
        assert expected != DEFAULT_ARGS[command]
        with pytest.raises(Intercepted) as exc:
            run([command, *REQUIRED[command], *flag])
        assert exc.value.args == expected

    def test_every_optional_flag_has_a_case(self):
        (subs,) = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in REQUIRED:
            options = {opt for action in subs.choices[command]._actions
                       if not action.required for opt in action.option_strings}
            covered = {f[0] for c, f, _ in CONFIG_FLAGS if c == command}
            assert options - {"-h", "--help"} == covered, command


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

    @pytest.mark.parametrize(
        "flag,value",
        [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.1"), ("--momentum", "nan"), ("--momentum", "1")],
    )
    def test_bad_rate_rejected_before_any_file(self, phantom_dataset, tmp_path, capsys, flag, value):
        # refused with the config: a rate that cannot train must leave no
        # checkpoint of non-finite weights behind
        out = tmp_path / "c.evc"
        code = run(
            ["train", "--data", str(phantom_dataset), "--out", str(out),
             "--epochs", "1", flag, value, "--base-channels", "2", *GRID_FLAGS]
        )
        assert code == 3
        assert flag.lstrip("-") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        sidecar = json.loads((tmp_path / "mask.nii.gz.transforms.json").read_text())
        assert set(sidecar["config"]["crf"]) == {f.name for f in dataclasses.fields(CrfConfig)}
        assert "backend" not in sidecar["config"]["crf"]
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

    def test_overlapping_tensor_offsets_are_data_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # head.bias read from head.kernel's bytes would make a mask with the
        # wrong weights
        ckpt = tmp_path / "overlap.evc"
        shutil.copy(init_checkpoint, ckpt)
        rewrite_manifest(ckpt, lambda m: m["tensors"]["head.bias"].update(
            offset=m["tensors"]["head.kernel"]["offset"]
        ))
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(ckpt),
             "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "head.bias" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_bytes_after_checkpoint_payload_are_data_error(
        self, phantom_dataset, tmp_path, capsys
    ):
        ckpt = tmp_path / "long.evc"
        ckpt.write_bytes(TestSpatialUnits.CHECKPOINT.read_bytes() + b"\x00" * 7)
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(ckpt),
             "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "7 bytes after the tensor payload" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_oversized_config_is_data_error_without_allocating(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # A config that would need 1.16 TiB of weights must be refused from
        # tensor shapes alone, before any array of that size is drawn.
        ckpt = tmp_path / "huge.evc"
        shutil.copy(init_checkpoint, ckpt)

        def widen(m):
            m["config"]["base_channels"] = 100000
            cfg = EvNetConfig(**{**m["config"], "convs_per_block": tuple(m["config"]["convs_per_block"])})
            m["config_hash"] = config_hash(cfg)

        rewrite_manifest(ckpt, widen)
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(ckpt),
             "--crf-iters", "0", *GRID_FLAGS]
        )
        assert code == 3
        assert "tensors do not match the config" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="up0.kernel"):
                load_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--w-app", "nan"), ("--w-smooth", "inf"), ("--theta-alpha", "inf"),
         ("--theta-beta", "nan"), ("--theta-gamma", "inf")],
    )
    def test_non_finite_crf_setting_is_data_error(
        self, flag, value, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(init_checkpoint),
             flag, value, *GRID_FLAGS]
        )
        assert code == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_overflowing_crf_weight_is_config_error(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # used to write an all-background mask and an empty_mask sidecar
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(init_checkpoint),
             "--w-app", "1e308", *GRID_FLAGS]
        )
        assert code == 3
        assert "stage 'crf': mean-field marginals are not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_tiny_intensity_bandwidth_is_compute_error_without_allocating(
        self, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # at theta_beta 1e-9 the intensities span 3e9 filter cells, whose
        # per-axis counts would outgrow memory; the span alone refuses them
        code = run(
            ["extract",
             "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
             "--out", str(tmp_path / "m.nii.gz"), "--checkpoint", str(init_checkpoint),
             "--theta-beta", "1e-9", *GRID_FLAGS]
        )
        assert code == 4
        assert "wider intensity bandwidth" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()
        rng = np.random.default_rng(4)
        fg = rng.uniform(0.05, 0.95, size=(16, 16, 16))
        probs, vol = ProbMap(np.stack([1.0 - fg, fg])), Volume(rng.uniform(size=(16, 16, 16)))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                refine(probs, vol, CrfConfig(theta_beta=1e-9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestSpatialUnits:
    """A scan whose header gives its affine in metres extracts as the same
    scan given in mm does."""

    CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"

    def test_metre_scan_extracts_like_mm(self, tmp_path):
        image, truth = make_phantom(64, np.random.default_rng(1013))
        write_nifti(image, tmp_path / "mm.nii")
        write_nifti(Volume(image.data, np.diag([0.001, 0.001, 0.001, 1.0])), tmp_path / "m.nii")
        header = bytearray((tmp_path / "m.nii").read_bytes())
        header[123] = 1  # xyzt_units: metres
        (tmp_path / "m.nii").write_bytes(bytes(header))
        for name in ("mm", "m"):
            code = run(["extract", "--in", str(tmp_path / f"{name}.nii"),
                        "--out", str(tmp_path / f"{name}.mask.nii"),
                        "--checkpoint", str(self.CHECKPOINT)])
            assert code == 0
        mm, m = (read_mask(tmp_path / f"{name}.mask.nii") for name in ("mm", "m"))
        assert dice(truth.data, m.data) >= 0.9
        np.testing.assert_array_equal(m.data, mm.data)
        np.testing.assert_allclose(m.affine, mm.affine, rtol=1e-6)


class TestGridBoundaries:
    """Scans whose resampled grid sits at an edge: a float32 spacing just
    above a whole grid, volumes with no contrast to segment, and grids
    shorter than one voxel of the network's coarsest level."""

    CHECKPOINT = TestSpatialUnits.CHECKPOINT

    def extract(self, volume, tmp_path):
        write_nifti(volume, tmp_path / "scan.nii")
        return run(["extract", "--in", str(tmp_path / "scan.nii"),
                    "--out", str(tmp_path / "mask.nii"),
                    "--checkpoint", str(self.CHECKPOINT)])

    def test_float32_spacing_fits_the_default_pad(self, tmp_path):
        # 80 slices of 0.8 mm read back at 0.800000012 mm: 64 mm, not 65
        image, truth = make_phantom(80, np.random.default_rng(1080))
        assert self.extract(Volume(image.data, np.diag([0.8, 0.8, 0.8, 1.0])), tmp_path) == 0
        assert read_nifti(tmp_path / "scan.nii").spacing[0] > 0.8
        assert dice(truth.data, read_mask(tmp_path / "mask.nii").data) >= 0.9

    @pytest.mark.parametrize(
        "data",
        [np.full((64, 64, 64), 5.0), np.zeros((64, 64, 64)), np.full((1, 1, 1), 5.0)],
        ids=["constant", "zeros", "single_voxel"],
    )
    def test_no_contrast_is_data_error(self, data, tmp_path, capsys):
        assert self.extract(Volume(data), tmp_path) == 3
        assert "contrast" in capsys.readouterr().err
        assert not (tmp_path / "mask.nii").exists()

    # at the default grid (pad 64^3 halved, 2 levels) the coarsest network
    # voxel is 2 * 2 = 4 resampled voxels of 1 mm
    DEGENERATE = [(2, 2, 2), (3, 3, 3), (1, 1, 64), (64, 64, 1)]
    DEGENERATE_IDS = ["2x2x2", "3x3x3", "1x1x64", "64x64x1"]

    @pytest.mark.parametrize("shape", DEGENERATE, ids=DEGENERATE_IDS)
    def test_degenerate_grid_is_data_error(self, shape, tmp_path, capsys):
        data = np.random.default_rng(sum(shape)).uniform(size=shape)
        assert self.extract(Volume(data), tmp_path) == 3
        err = capsys.readouterr().err
        assert "stage 'resample'" in err and "coarsest level" in err
        assert not (tmp_path / "mask.nii").exists()

    @pytest.mark.parametrize("shape", DEGENERATE, ids=DEGENERATE_IDS)
    def test_degenerate_grid_is_unusable_for_training(self, shape, tmp_path, capsys):
        for sub in ("images", "masks"):
            (tmp_path / "d" / sub).mkdir(parents=True)
        data = np.random.default_rng(sum(shape)).uniform(size=shape)
        write_nifti(Volume(data), tmp_path / "d" / "images" / "tiny.nii")
        write_nifti(LabelMask((data > 0.5).astype(np.uint8)), tmp_path / "d" / "masks" / "tiny.nii")
        code = run(["train", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "c.evc"),
                    "--epochs", "0"])
        assert code == 3
        err = capsys.readouterr().err
        assert "unusable training pairs" in err and "tiny.nii: stage 'resample'" in err
        assert not (tmp_path / "c.evc").exists()


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

    @pytest.mark.parametrize("voxel,fault", [
        pytest.param((0.45, 0.45), "per-voxel probabilities must sum to 1", id="sum"),
        pytest.param((-0.5, 1.5), "probabilities must be nonnegative", id="negative"),
    ])
    def test_invalid_probabilities_are_data_error(self, voxel, fault, tmp_path, capsys):
        # a 4^3 two-label map holding 0.5 per label but at one voxel,
        # written by hand: a ProbMap would refuse it
        probs = np.full((4, 4, 4, 2), 0.5, dtype="<f4")
        probs[1, 2, 3] = voxel
        prob_path, image_path = tmp_path / "p.nii", tmp_path / "v.nii"
        write_nifti(ProbMap(np.full((2, 4, 4, 4), 0.5)), prob_path)
        prob_path.write_bytes(prob_path.read_bytes()[:352] + probs.tobytes(order="F"))
        write_nifti(Volume(np.random.default_rng(3).uniform(size=(4, 4, 4))), image_path)
        code = run(["refine", "--prob", str(prob_path), "--image", str(image_path),
                    "--out", str(tmp_path / "m.nii")])
        assert code == 3
        assert f"stage 'read': {fault}" in capsys.readouterr().err
        assert not (tmp_path / "m.nii").exists()

    @pytest.mark.parametrize("shape,spacing,shift,fault", [
        pytest.param((8, 8, 8), 3.0, 50.0, "probability map and volume grids disagree",
                     id="affine"),
        pytest.param((8, 8, 9), 1.0, 0.0,
                     "probability map shape (8, 8, 8) != volume shape (8, 8, 9)", id="shape"),
        pytest.param((8, 8, 8), 1.0, 5.0, "probability map and volume grids disagree",
                     id="moved-5mm"),
    ])
    def test_grid_mismatch_is_data_error(self, shape, spacing, shift, fault, tmp_path, capsys):
        # the image must sit on the map's grid, not merely share its shape;
        # train (image vs mask) and eval (prediction vs truth) exit 3 alike
        rng = np.random.default_rng(2)
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        affine = np.diag([spacing, spacing, spacing, 1.0])
        affine[:3, 3] = shift
        write_nifti(ProbMap(np.stack([1.0 - fg, fg])), tmp_path / "p.nii.gz")
        write_nifti(Volume(rng.uniform(size=shape), affine), tmp_path / "v.nii.gz")
        code = run(["refine", "--prob", str(tmp_path / "p.nii.gz"),
                    "--image", str(tmp_path / "v.nii.gz"), "--out", str(tmp_path / "m.nii.gz")])
        assert code == 3
        assert f"stage 'crf': {fault}" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_overflowing_weight_is_config_error(self, tmp_path, capsys):
        # the marginals turn NaN, whose argmax used to be written as an
        # all-background mask with exit 0
        out = tmp_path / "m.nii.gz"
        code = run(["refine", *(str(x) for kv in refine_inputs(tmp_path).items() for x in kv),
                    "--out", str(out), "--w-app", "1e308"])
        assert code == 3
        assert "kernel weights w_appearance=1e+308" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iterations", ["0", "3"])
    def test_prints_update_count(self, iterations, tmp_path, capsys):
        rng = np.random.default_rng(3)
        fg = rng.uniform(0.05, 0.95, size=(6, 6, 6))
        write_nifti(ProbMap(np.stack([1.0 - fg, fg])), tmp_path / "p.nii.gz")
        write_nifti(Volume(rng.uniform(size=(6, 6, 6))), tmp_path / "v.nii.gz")
        out = tmp_path / "m.nii.gz"
        code = run(
            ["refine", "--prob", str(tmp_path / "p.nii.gz"),
             "--image", str(tmp_path / "v.nii.gz"), "--out", str(out),
             "--crf-iters", iterations]
        )
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out} ({iterations} updates)\n"

    @pytest.mark.parametrize("one_label", [False, True], ids=["3d", "one-label"])
    def test_map_that_is_not_two_labels_is_format_error(self, one_label, tmp_path, capsys):
        # a map of the wrong rank or label count is malformed input, not a geometry fault
        prob_path, image_path = tmp_path / "p.nii", tmp_path / "v.nii"
        write_nifti(Volume(np.full((4, 4, 4), 0.5)), prob_path)
        if one_label:  # the same file, its dim claiming a 4th axis of length 1
            raw = bytearray(prob_path.read_bytes())
            raw[40:50] = np.array([4, 4, 4, 4, 1], "<i2").tobytes()
            prob_path.write_bytes(bytes(raw))
        write_nifti(Volume(np.random.default_rng(3).uniform(size=(4, 4, 4))), image_path)
        code = run(["refine", "--prob", str(prob_path), "--image", str(image_path),
                    "--out", str(tmp_path / "m.nii")])
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("evcseg: error: ")
        assert f"{prob_path}: expected a 4D probability map" in lines[0]
        assert not (tmp_path / "m.nii").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--theta-alpha", "1e-320"), ("--theta-gamma", "1e-320"),
         ("--theta-beta", "1e-320"), ("--theta-alpha", "1e-160")],
    )
    def test_bandwidth_with_subnormal_square_is_data_error(
        self, flag, value, tmp_path, capsys
    ):
        # 2 * theta**2 underflows, so the blur's lag-0 weight would be 0/0
        rng = np.random.default_rng(5)
        fg = rng.uniform(0.05, 0.95, size=(8, 8, 8))
        write_nifti(ProbMap(np.stack([1.0 - fg, fg])), tmp_path / "p.nii.gz")
        write_nifti(Volume(rng.uniform(size=(8, 8, 8))), tmp_path / "v.nii.gz")
        code = run(
            ["refine", "--prob", str(tmp_path / "p.nii.gz"),
             "--image", str(tmp_path / "v.nii.gz"), "--out", str(tmp_path / "m.nii.gz"),
             flag, value]
        )
        assert code == 3
        assert "normal float64" in capsys.readouterr().err
        assert not (tmp_path / "m.nii.gz").exists()

    def test_default_refine_mask_from_n_passes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        fg = rng.uniform(0.05, 0.95, size=(9, 8, 7))
        write_nifti(ProbMap(np.stack([1.0 - fg, fg])), tmp_path / "p.nii.gz")
        write_nifti(Volume(rng.uniform(size=(9, 8, 7))), tmp_path / "v.nii.gz")
        passes, message_pass = [], crf.filtered_message_pass

        def counting(*args):
            passes.append(1)
            return message_pass(*args)

        monkeypatch.setattr(crf, "filtered_message_pass", counting)
        out = tmp_path / "m.nii.gz"
        code = run(
            ["refine", "--prob", str(tmp_path / "p.nii.gz"),
             "--image", str(tmp_path / "v.nii.gz"), "--out", str(out), "--crf-iters", "3"]
        )
        assert code == 0 and len(passes) == 3
        mask, state = refine(
            read_probmap(tmp_path / "p.nii.gz"), read_nifti(tmp_path / "v.nii.gz"),
            CrfConfig(iterations=3),
        )
        assert state is not None
        assert read_mask(out).data.tobytes() == mask.data.tobytes()


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

    def test_shifted_affine_is_data_error(self, tmp_path, capsys):
        from evcseg.volume import LabelMask

        ball = np.zeros((10, 10, 10), dtype=np.uint8)
        ball[3:7, 3:7, 3:7] = 1
        shifted = np.eye(4)
        shifted[:3, 3] = [0.0, 0.0, 1.0]
        for sub, affine in (("pred", shifted), ("truth", np.eye(4))):
            (tmp_path / sub).mkdir()
            write_nifti(LabelMask(ball, affine), tmp_path / sub / "a.nii.gz")
        code = run(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert code == 3
        assert "a.nii.gz: prediction and truth grids disagree" in capsys.readouterr().err

    def test_unmatched_is_data_error(self, tmp_path, capsys):
        (tmp_path / "pred").mkdir()
        (tmp_path / "truth").mkdir()
        code = run(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert code == 3

    @pytest.mark.parametrize("kind", ["prediction", "truth"])
    def test_missing_directory_is_data_error(self, kind, tmp_path, capsys):
        dirs = {"prediction": tmp_path / "pred", "truth": tmp_path / "truth"}
        for other, d in dirs.items():
            if other != kind:
                d.mkdir()
        code = run(["eval", "--pred", str(dirs["prediction"]), "--truth", str(dirs["truth"])])
        assert code == 3
        assert (f"stage 'config': {kind} directory not found: {dirs[kind]}"
                in capsys.readouterr().err)

    def test_scoring_error_names_its_stage(self, tmp_path, capsys):
        ball = np.zeros((6, 6, 6))
        ball[2:4, 2:4, 2:4] = 1.0
        half = ball.copy()
        half[0, 0, 0] = 0.5
        for sub, data in (("pred", half), ("truth", ball)):
            (tmp_path / sub).mkdir()
            write_nifti(Volume(data), tmp_path / sub / "a.nii.gz")
        code = run(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("evcseg: error: stage 'score': "), err
        assert "mask file contains values other than 0 and 1" in err


def refine_inputs(tmp_path):
    """A 6^3 two-label map and its image under tmp_path, keyed by flag."""
    rng = np.random.default_rng(7)
    fg = rng.uniform(0.05, 0.95, size=(6, 6, 6))
    paths = {"--prob": tmp_path / "p.nii.gz", "--image": tmp_path / "v.nii.gz"}
    write_nifti(ProbMap(np.stack([1.0 - fg, fg])), paths["--prob"])
    write_nifti(Volume(rng.uniform(size=(6, 6, 6))), paths["--image"])
    return paths


class TestConfigRefusals:
    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("extract", ["--pad", "63", "64", "64"], "pad_shape must be even to halve"),
            ("extract", ["--pad", "2", "2", "2"], "network grid (1, 1, 1) is not divisible by 2"),
            ("extract", ["--crf-iters", "-1"], "iterations must be an integer >= 0"),
            ("refine", ["--w-app", "-1"], "kernel weights must be >= 0"),
            ("train", ["--levels", "1"], "levels must be an integer >= 2"),
            ("train", ["--lr", "nan"], "lr must be finite and >= 0"),
            ("refine", ["--w-smooth", "-1"], "kernel weights must be >= 0, got w_smoothness=-1.0"),
            ("refine", ["--theta-beta", "0"], "kernel bandwidths must be > 0, got theta_beta=0.0"),
            ("refine", ["--theta-gamma", "1e-200"],
             "kernel bandwidths must have normal float64 squares, got theta_gamma=1e-200"),
            ("refine", ["--w-app", "nan"],
             "kernel weights and bandwidths must be finite, got w_appearance=nan"),
            ("refine", ["--theta-alpha", "1e200"],
             "kernel bandwidths must have normal float64 squares, got theta_alpha=1e+200"),
        ],
    )
    def test_refusal_names_stage_config_once(
        self, command, flags, message, phantom_dataset, init_checkpoint, tmp_path, capsys
    ):
        # a setting refused while the CLI builds the configs reads like one the
        # pipeline's config stage refuses: one prefix, exit 3, nothing written
        out = tmp_path / "out"
        argv = {
            "extract": ["--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
                        "--out", str(out / "m.nii.gz"), "--checkpoint", str(init_checkpoint)],
            "refine": ["--prob", str(tmp_path / "p.nii"), "--image", str(tmp_path / "i.nii"),
                       "--out", str(out / "m.nii.gz")],
            "train": ["--data", str(phantom_dataset), "--out", str(out / "c.evc"),
                      "--epochs", "0"],
        }[command]
        assert run([command, *argv, *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"evcseg: error: stage 'config': {message}"), err
        assert err.count("stage") == 1 and len(err.splitlines()) == 1, err
        assert not out.exists()


class TestOutputCollisions:
    """An output that resolves to another output of its command, to one of
    its inputs or to an existing directory exits 3 before anything is
    written, where the write used to replace the file with exit 0 or fail
    only after the work. The mask may still replace the scan it was read
    from."""

    @staticmethod
    def refused(capsys):
        """The error line of an output refused in the config stage."""
        err = capsys.readouterr().err
        assert err.startswith("evcseg: error: stage 'config': ") and "overwrite" in err, err

    @staticmethod
    def aliased(tmp_path, name, default_suffix, how):
        """The first output's path and the second's flag values: the same
        file spelled through a subdirectory, or (how="default") no flag and
        the default name a symlink to the first."""
        out = tmp_path / name
        if how == "spelled":
            (tmp_path / "sub").mkdir()
            return out, [str(tmp_path / "sub" / ".." / name)]
        (tmp_path / (name + default_suffix)).symlink_to(out)
        return out, []

    @pytest.mark.parametrize("how", ["spelled", "default"])
    def test_train_log_onto_checkpoint(self, how, phantom_dataset, tmp_path, capsys):
        out, log = self.aliased(tmp_path, "m.evc", ".log.json", how)
        code = run(["train", "--data", str(phantom_dataset), "--out", str(out),
                    *(["--log", *log] if log else []), "--epochs", "0",
                    "--base-channels", "2", *GRID_FLAGS])
        assert code == 3
        self.refused(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("how", ["spelled", "default"])
    def test_extract_sidecar_onto_mask(self, how, phantom_dataset, init_checkpoint, tmp_path,
                                       capsys):
        out, sidecar = self.aliased(tmp_path, "o.nii.gz", ".transforms.json", how)
        code = run(["extract", "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
                    "--out", str(out), *(["--sidecar", *sidecar] if sidecar else []),
                    "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS])
        assert code == 3
        self.refused(capsys)
        assert not out.exists()

    def test_eval_reports_onto_each_other(self, tmp_path, capsys):
        ball = np.zeros((10, 10, 10), dtype=np.uint8)
        ball[3:7, 3:7, 3:7] = 1
        for sub in ("pred", "truth"):
            (tmp_path / sub).mkdir()
            write_nifti(LabelMask(ball), tmp_path / sub / "a.nii.gz")
        out, csv = self.aliased(tmp_path, "r.x", "", "spelled")
        code = run(["eval", "--pred", str(tmp_path / "pred"), "--truth", str(tmp_path / "truth"),
                    "--out-json", str(out), "--out-csv", *csv])
        assert code == 3
        self.refused(capsys)
        assert not out.exists()

    @staticmethod
    def contents(path):
        """A file's bytes, or a directory's entry names."""
        return sorted(os.listdir(path)) if path.is_dir() else path.read_bytes()

    @pytest.mark.parametrize(
        "flag,onto", [("--out", "checkpoint"), ("--sidecar", "checkpoint"), ("--sidecar", "scan"),
                      ("--out", "directory"), ("--sidecar", "directory")]
    )
    def test_extract_output_onto_an_input(self, flag, onto, phantom_dataset, init_checkpoint,
                                          tmp_path, capsys):
        ckpt = tmp_path / "m.evc"
        scan = tmp_path / "s.nii.gz"
        shutil.copy(init_checkpoint, ckpt)
        shutil.copy(phantom_dataset / "images" / "phantom_000.nii.gz", scan)
        (tmp_path / "adir").mkdir()
        target = {"checkpoint": ckpt, "scan": scan, "directory": tmp_path / "adir"}[onto]
        before = self.contents(target)
        outputs = {"--out": str(tmp_path / "o.nii.gz"), flag: str(target)}
        code = run(["extract", "--in", str(scan), "--checkpoint", str(ckpt),
                    *(x for kv in outputs.items() for x in kv), "--crf-iters", "0", *GRID_FLAGS])
        assert code == 3
        self.refused(capsys)
        assert self.contents(target) == before
        assert not (tmp_path / "o.nii.gz").exists()

    @pytest.mark.parametrize("flag,rel", [
        pytest.param("--out", "images/phantom_000.nii.gz", id="--out-images"),
        pytest.param("--log", "masks/phantom_000.nii.gz", id="--log-masks"),
        pytest.param("--out", "images", id="--out-directory"),
        pytest.param("--log", "masks", id="--log-directory"),
    ])
    def test_train_output_onto_a_training_file(self, flag, rel, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(self.dataset(tmp_path), data)
        target = data / rel
        before = self.contents(target)
        outputs = {"--out": str(tmp_path / "m.evc"), flag: str(target)}
        code = run(["train", "--data", str(data), *(x for kv in outputs.items() for x in kv),
                    "--epochs", "0", "--base-channels", "2", *GRID_FLAGS])
        assert code == 3
        self.refused(capsys)
        assert self.contents(target) == before
        assert sorted(os.listdir(data)) == ["images", "masks"]
        assert not (tmp_path / "m.evc").exists()

    @pytest.mark.parametrize("flag,rel", [
        pytest.param("--out-json", "phantom_001.nii.gz", id="--out-json"),
        pytest.param("--out-csv", "phantom_001.nii.gz", id="--out-csv"),
        pytest.param("--out-json", "", id="--out-json-directory"),
        pytest.param("--out-csv", "", id="--out-csv-directory"),
    ])
    def test_eval_report_onto_a_mask(self, flag, rel, tmp_path, capsys):
        masks = self.dataset(tmp_path) / "masks"
        target = masks / rel
        before = self.contents(target)
        code = run(["eval", "--pred", str(masks), "--truth", str(masks), flag, str(target)])
        assert code == 3
        self.refused(capsys)
        assert self.contents(target) == before

    @pytest.mark.parametrize("onto", ["--prob", "--image", "directory"])
    def test_refine_output_onto_an_input(self, onto, tmp_path, capsys):
        inputs = refine_inputs(tmp_path)
        (tmp_path / "adir").mkdir()
        target = inputs.get(onto, tmp_path / "adir")
        before = self.contents(target)
        code = run(["refine", *(str(x) for kv in inputs.items() for x in kv),
                    "--out", str(target)])
        assert code == 3
        self.refused(capsys)
        assert self.contents(target) == before
        assert sorted(os.listdir(tmp_path)) == ["adir", "p.nii.gz", "v.nii.gz"]

    @staticmethod
    def dataset(tmp_path):
        run(["synth", "--out", str(tmp_path / "synth"), "--n", "2", "--size", "16"])
        return tmp_path / "synth"

    def test_extract_may_replace_its_input(self, phantom_dataset, init_checkpoint, tmp_path):
        scan = tmp_path / "s.nii.gz"
        shutil.copy(phantom_dataset / "images" / "phantom_000.nii.gz", scan)
        code = run(["extract", "--in", str(scan), "--out", str(scan),
                    "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS])
        assert code == 0
        assert read_mask(scan).shape == (16, 16, 16)


class TestOutputDirectories:
    """Every output's directory is made before the work starts, where a
    missing one used to fail only after the work was done."""

    def test_extract(self, phantom_dataset, init_checkpoint, tmp_path):
        out, sidecar = tmp_path / "out" / "m.nii.gz", tmp_path / "side" / "s.json"
        code = run(["extract", "--in", str(phantom_dataset / "images" / "phantom_000.nii.gz"),
                    "--out", str(out), "--sidecar", str(sidecar),
                    "--checkpoint", str(init_checkpoint), "--crf-iters", "0", *GRID_FLAGS])
        assert code == 0
        assert out.is_file() and sidecar.is_file()

    def test_train(self, phantom_dataset, tmp_path):
        ckpt, log = tmp_path / "ck" / "m.evc", tmp_path / "logs" / "l.json"
        code = run(["train", "--data", str(phantom_dataset), "--out", str(ckpt), "--log", str(log),
                    "--epochs", "1", "--base-channels", "2", "--no-augment", *GRID_FLAGS])
        assert code == 0
        assert ckpt.is_file() and json.loads(log.read_text())["epochs"]

    def test_eval(self, phantom_dataset, tmp_path):
        report, table = tmp_path / "rep" / "r.json", tmp_path / "tab" / "r.csv"
        masks = str(phantom_dataset / "masks")
        code = run(["eval", "--pred", masks, "--truth", masks,
                    "--out-json", str(report), "--out-csv", str(table)])
        assert code == 0
        assert report.is_file() and table.is_file()

    def test_refine(self, tmp_path):
        out = tmp_path / "sub" / "m.nii.gz"
        code = run(["refine", *(str(x) for kv in refine_inputs(tmp_path).items() for x in kv),
                    "--out", str(out)])
        assert code == 0
        assert read_mask(out).shape == (6, 6, 6)


def _error_classes(cls=EvcsegError):
    return [cls, *(c for sub in cls.__subclasses__() for c in _error_classes(sub))]


# The exit codes README documents: 3 for bad input data or configuration,
# 4 for geometry, capacity and training failures.
DOCUMENTED_EXIT = {
    "EvcsegError": 4, "GeometryError": 4, "CapacityError": 4, "TrainingError": 4,
    "FormatError": 3, "BadMagicError": 3, "UnsupportedDatatypeError": 3,
    "TruncatedFileError": 3, "DataError": 3, "ConfigError": 3, "DomainError": 3, "OSError": 3,
}


class TestExitCodes:
    def test_every_error_class_has_a_documented_code(self):
        names = sorted(c.__name__ for c in _error_classes())
        assert names == sorted(set(DOCUMENTED_EXIT) - {"OSError"})

    @pytest.mark.parametrize("cls", [*_error_classes(), OSError], ids=lambda c: c.__name__)
    def test_main_returns_the_documented_code(self, cls, monkeypatch, tmp_path, capsys):
        def fail(*args):
            raise cls("boom")

        monkeypatch.setattr(cli, "synth_dataset", fail)
        assert run(["synth", "--out", str(tmp_path / "d")]) == DOCUMENTED_EXIT[cls.__name__]
        assert capsys.readouterr().err == "evcseg: error: boom\n"

    @pytest.mark.parametrize("message,line", [
        ("Unable to allocate 603. GiB", "out of memory: Unable to allocate 603. GiB"),
        ("", "out of memory"),
    ])
    def test_out_of_memory_is_a_compute_error(self, message, line, monkeypatch, tmp_path, capsys):
        # one error line and the compute exit code, never a traceback
        def fail(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "synth_dataset", fail)
        assert run(["synth", "--out", str(tmp_path / "d"), "--size", "3000"]) == 4
        assert capsys.readouterr().err == f"evcseg: error: {line}\n"


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
