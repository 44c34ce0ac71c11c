"""scripts/step_memory.py at a tiny shape: one JSON line, reproducible bytes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "step_memory.py"), *args],
                         env=env, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_step_memory_reports_one_reproducible_step():
    args = ("--input", "3x8x16x16", "--filters", "4,8", "--hidden", "8", "--batch", "2")
    first, second = _run(*args), _run(*args)
    assert first["input"] == [3, 8, 16, 16] and first["filters"] == [4, 8]
    assert first["batch"] == 2 and first["openblas_threads"] == "1"
    assert 0 < first["peak_rss_mb"] and 0 <= first["step_s"]
    assert 0 <= first["forward_s"] and 0 <= first["backward_s"]
    # each of the three is rounded to the millisecond
    assert abs(first["forward_s"] + first["backward_s"] - first["step_s"]) < 0.002
    assert len(first["sha256"]) == 64
    assert second["sha256"] == first["sha256"]
    assert _run(*args[:-1], "3")["sha256"] != first["sha256"]
