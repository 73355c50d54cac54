"""Smoke tests of the benchmark harness: a short extract-crf run and a
traced train run.

They catch a change to the program that breaks what ``bench/`` imports, the
loading of ``bench/checkpoint.evc``, or what the traced spans read: the
``evcseg.evnet.network`` conv names and the conv cache layout.
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
