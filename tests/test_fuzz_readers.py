"""Fuzz the file readers: a mutated or truncated file may read or fail, but
it fails only with an EvcsegError subclass, never a bare Python error, and
with the exit code of bad input.

Each test draws CASES mutations, case k from np.random.default_rng((key, k))
with the test's own key, so every run draws the same cases whatever else
the process has imported."""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from evcseg.errors import EvcsegError
from evcseg.evnet import config_hash, load_checkpoint
from evcseg.evnet.network import param_shapes
from evcseg.nifti import read_header, read_mask, read_nifti, read_probmap, write_nifti
from evcseg.volume import LabelMask, ProbMap, Volume

CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"
NIFTI_HEADER = 352  # header plus the 4 extension-flag bytes
CASES = 300


def _nifti_bytes(suffix, kind=Volume):
    """A valid file of a 6x5x4 grid: a scan, a 0/1 mask or a two-label map."""
    rng = np.random.default_rng(80)
    affine = np.diag([1.5, 1.0, 0.8, 1.0])
    affine[:3, 3] = (-4.0, 2.0, 7.5)
    if kind is Volume:
        obj = Volume(rng.standard_normal((6, 5, 4)), affine)
    elif kind is LabelMask:
        obj = LabelMask((rng.random((6, 5, 4)) < 0.5).astype(np.uint8), affine)
    else:
        fg = rng.random((6, 5, 4))
        obj = ProbMap(np.stack([1.0 - fg, fg]), affine)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"v{suffix}"
        write_nifti(obj, path)
        return path.read_bytes()


def _mutations(key, data, head):
    """The CASES mutations of one test: up to 8 byte overwrites, mostly
    within the first `head` bytes, then an optional truncation."""
    draws = []
    for case in range(CASES):
        rng = np.random.default_rng((key, case))
        edits = []
        for _ in range(rng.integers(9)):
            span = head if rng.random() < 0.75 else len(data)
            edits.append((int(rng.integers(span)), int(rng.integers(256))))
        cut = int(rng.integers(len(data) + 1)) if rng.random() < 0.5 else None
        draws.append((edits, cut))
    return draws


def _mutate(data, mutation):
    edits, cut = mutation
    buf = bytearray(data)
    for i, b in edits:
        buf[i] = b
    return bytes(buf[:cut])


def _agrees_with_header(path, vol):
    """Whether a volume read cleanly has the shape and affine its header claims."""
    hdr = read_header(path)
    return vol.shape == hdr.shape[:3] and np.array_equal(vol.affine, hdr.affine())


def _is_binary_mask(path, mask):
    """Whether a mask read cleanly holds only 0 and 1 on its header's grid."""
    return _agrees_with_header(path, mask) and np.isin(mask.data, (0, 1)).all()


def _is_probability_map(path, probs):
    """Whether a map read cleanly is nonnegative, sums to 1 over its labels,
    and has the shape and affine its header claims, labels last on disk."""
    hdr = read_header(path)
    return (
        probs.data.min() >= 0.0
        and np.allclose(probs.data.sum(axis=0), 1.0, rtol=0.0, atol=1e-6)
        and probs.data.shape == (hdr.shape[3], *hdr.shape[:3])
        and np.array_equal(probs.affine, hdr.affine())
    )


def _matches_its_config(path, loaded):
    """Whether a checkpoint loaded cleanly holds exactly the float32
    tensors its config builds, under that config's hash."""
    params, cfg, manifest = loaded
    shapes = {name: arr.shape for name, arr in params.items()}
    return (
        shapes == param_shapes(cfg)
        and all(arr.dtype == np.float32 for arr in params.values())
        and manifest["config_hash"] == config_hash(cfg)
    )


def _reads_or_fails_cleanly(read, target, suffix, check=None):
    """Read each mutated file; a failure must be an EvcsegError with exit
    code 3. A file that reads cleanly must pass `check(path, result)`,
    where one is given."""
    key, data, head = TARGETS[target]
    for case, mutation in enumerate(_mutations(key, data, head)):
        mutated = _mutate(data, mutation)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / f"f{suffix}"
            path.write_bytes(mutated)
            try:
                result = read(path)
            except EvcsegError as exc:
                # the original is valid, so the fuzzing starts from a good file
                assert mutated != data, exc
                assert exc.exit_code == 3, (case, mutation, exc)
            except Exception as exc:
                raise AssertionError(f"case {case} {mutation}: {exc!r}") from exc
            else:
                assert check is None or check(path, result), (case, mutation)


NIFTI = _nifti_bytes(".nii")
NIFTI_GZ = _nifti_bytes(".nii.gz")
MASK = _nifti_bytes(".nii", LabelMask)
PROBMAP = _nifti_bytes(".nii", ProbMap)
NIFTI_GZ_HEAD = 10 + 64  # gzip header, then the deflate block's code tables
CKPT = CHECKPOINT.read_bytes()
CKPT_HEAD = 12 + int.from_bytes(CKPT[8:12], "little")  # magic, length, manifest

# per test: its stream key, the file it mutates and that file's head
TARGETS = {
    "nifti": (1, NIFTI, NIFTI_HEADER),
    "nifti_gz": (2, NIFTI_GZ, NIFTI_GZ_HEAD),
    "checkpoint": (3, CKPT, CKPT_HEAD),
    "nifti_header": (4, NIFTI, NIFTI_HEADER),
    "nifti_gz_header": (5, NIFTI_GZ, NIFTI_GZ_HEAD),
    "mask": (6, MASK, NIFTI_HEADER),
    "probmap": (7, PROBMAP, NIFTI_HEADER),
}


def test_mutated_nifti():
    # a file that is not 3D is bad input like any other: exit 3
    _reads_or_fails_cleanly(read_nifti, "nifti", ".nii", check=_agrees_with_header)


def test_mutated_nifti_gz():
    _reads_or_fails_cleanly(read_nifti, "nifti_gz", ".nii.gz", check=_agrees_with_header)


def test_mutated_mask():
    _reads_or_fails_cleanly(read_mask, "mask", ".nii", check=_is_binary_mask)


def test_mutated_probmap():
    _reads_or_fails_cleanly(read_probmap, "probmap", ".nii", check=_is_probability_map)


def test_mutated_checkpoint():
    _reads_or_fails_cleanly(load_checkpoint, "checkpoint", ".evc", check=_matches_its_config)


def test_mutated_nifti_header():
    # every fault read_header can find is in the file's format: exit 3
    _reads_or_fails_cleanly(read_header, "nifti_header", ".nii")


def test_mutated_nifti_gz_header():
    _reads_or_fails_cleanly(read_header, "nifti_gz_header", ".nii.gz")


def test_draws_do_not_depend_on_imports():
    # hash every test's mutations in a process that imports this module
    # alone and in one that first imports the rest of the chain
    script = (
        "import hashlib, importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "import test_fuzz_readers as f\n"
        "draws = [f._mutations(*t) for t in f.TARGETS.values()]\n"
        "print(hashlib.sha256(repr(draws).encode()).hexdigest())\n"
    )
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    digests = []
    for extra in ([], ["evcseg.pipeline", "evcseg.cli", "evcseg.crf"]):
        proc = subprocess.run(
            [sys.executable, "-c", script, *extra],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    draws = [_mutations(*t) for t in TARGETS.values()]
    assert digests[0] == hashlib.sha256(repr(draws).encode()).hexdigest()
