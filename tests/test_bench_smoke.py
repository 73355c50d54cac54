"""Smoke test of the benchmark harness: one short extract-crf run.

It catches a change to the program that breaks what ``bench/`` imports or
the loading of ``bench/checkpoint.evc``.
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
