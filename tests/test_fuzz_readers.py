"""Fuzz the file readers: a mutated or truncated file may read or fail, but
it fails only with an EvcsegError subclass, never a bare Python error."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evcseg.errors import EvcsegError
from evcseg.evnet import load_checkpoint
from evcseg.nifti import read_header, read_nifti, write_nifti
from evcseg.volume import Volume

CHECKPOINT = Path(__file__).resolve().parents[1] / "bench" / "checkpoint.evc"
NIFTI_HEADER = 352  # header plus the 4 extension-flag bytes

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _nifti_bytes(suffix):
    rng = np.random.default_rng(80)
    affine = np.diag([1.5, 1.0, 0.8, 1.0])
    affine[:3, 3] = (-4.0, 2.0, 7.5)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"v{suffix}"
        write_nifti(Volume(rng.standard_normal((6, 5, 4)), affine), path)
        return path.read_bytes()


def _mutations(data, head):
    """Up to 8 byte overwrites, mostly within the first `head` bytes, then
    an optional truncation."""
    index = st.one_of(st.integers(0, head - 1), st.integers(0, len(data) - 1))
    edits = st.lists(st.tuples(index, st.integers(0, 255)), max_size=8)
    return st.tuples(edits, st.none() | st.integers(0, len(data)))


def _mutate(data, mutation):
    edits, cut = mutation
    buf = bytearray(data)
    for i, b in edits:
        buf[i] = b
    return bytes(buf[:cut])


def _reads_or_fails_cleanly(read, data, mutation, suffix):
    mutated = _mutate(data, mutation)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"f{suffix}"
        path.write_bytes(mutated)
        try:
            read(path)
        except EvcsegError:
            if mutated == data:
                raise  # the original is valid, so the fuzzing starts from a good file


NIFTI = _nifti_bytes(".nii")
NIFTI_GZ = _nifti_bytes(".nii.gz")
NIFTI_GZ_HEAD = 10 + 64  # gzip header, then the deflate block's code tables
CKPT = CHECKPOINT.read_bytes()
CKPT_HEAD = 12 + int.from_bytes(CKPT[8:12], "little")  # magic, length, manifest


@FUZZ
@given(_mutations(NIFTI, NIFTI_HEADER))
def test_mutated_nifti(mutation):
    _reads_or_fails_cleanly(read_nifti, NIFTI, mutation, ".nii")


@FUZZ
@given(_mutations(NIFTI_GZ, NIFTI_GZ_HEAD))
def test_mutated_nifti_gz(mutation):
    _reads_or_fails_cleanly(read_nifti, NIFTI_GZ, mutation, ".nii.gz")


@FUZZ
@given(_mutations(CKPT, CKPT_HEAD))
def test_mutated_checkpoint(mutation):
    _reads_or_fails_cleanly(load_checkpoint, CKPT, mutation, ".evc")



@FUZZ
@given(_mutations(NIFTI, NIFTI_HEADER))
def test_mutated_nifti_header(mutation):
    _reads_or_fails_cleanly(read_header, NIFTI, mutation, ".nii")


@FUZZ
@given(_mutations(NIFTI_GZ, NIFTI_GZ_HEAD))
def test_mutated_nifti_gz_header(mutation):
    _reads_or_fails_cleanly(read_header, NIFTI_GZ, mutation, ".nii.gz")
