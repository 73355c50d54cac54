"""Smoke tests of the benchmark harness: a short extract-crf run, and a
traced run each of train and extract-crf.

They catch a change to the program that breaks what ``bench/`` imports, the
loading of ``bench/checkpoint.evc``, or what the traced spans read: the
``evcseg.evnet.network`` conv names, the conv cache layout, the CRF's
``bilateral_filter`` name and ``evcseg.pipeline.mask_to_native``.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_extract_crf_runs_and_is_correct():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-crf",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_traced_train_times_the_convs():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["evnet.conv3d_forward_s"]["value"] > 0
    assert result["metrics"]["evnet.conv3d_backward_s"]["value"] > 0


def test_traced_extract_times_the_filter():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-crf",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    # extract refines without keeping the state: 5 iterations, 5 passes
    assert metrics["crf.message_passes"]["value"] == 5
    assert metrics["bilateral.filter_s"]["value"] > 0
    assert metrics["crf.message_pass_peak_mb"]["value"] < 10
    assert metrics["volume.mask_to_native_s"]["value"] > 0
