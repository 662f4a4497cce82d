"""The benchmark's traced self-test run, so API changes that break it fail here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tiny_traced_run_is_correct():
    cmd = [sys.executable, "bench/run.py", "--workload", "all", "--size", "tiny",
           "--seconds", "0.5", "--trace", "1", "--seed", "5"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
