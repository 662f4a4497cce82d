"""The benchmark's traced tiny run and self-test, so API changes that break them fail here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_traced_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--size", "tiny",
           "--seconds", "0.5", "--trace", "1", "--seed", "5"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout


@pytest.mark.slow
def test_bench_selftest_passes():
    # includes the flipped-code-byte and missing-src/ checks
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
