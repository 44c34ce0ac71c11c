"""scripts/step_memory.py at a tiny shape: one JSON line, reproducible bytes,
the bytes of the library's training step, and the CLI's rule of integer text
for its numbers."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from strokebench import model
from strokebench.nn.layers import default_architecture

ROOT = Path(__file__).resolve().parents[1]


def _proc(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "step_memory.py"), *args],
                          env=env, capture_output=True, text=True)


def _run(*args):
    proc = _proc(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
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


def test_step_memory_measures_the_library_step():
    """The script's SHA-256 is that of `model._summed_gradients`, the
    function `_train_step` calls, computed in this process on the script's
    net, batch and classes: the script cannot drift into a step of its own."""
    shape, filters, hidden, batch = (3, 8, 16, 16), (4, 8), 8, 3
    arch = default_architecture(shape, filters=filters, hidden=hidden, n_classes=2)
    net = model.build_model(2, arch, seed=0, input_shape=shape)
    x = np.random.default_rng(0).random((batch,) + shape, dtype=np.float32)
    _, logits, grads, _ = model._summed_gradients(
        net, [(cuboid, n % 2) for n, cuboid in enumerate(x)], "test")
    digest = hashlib.sha256(logits.tobytes())
    for name in sorted(grads):
        digest.update(name.encode())
        digest.update(grads[name].tobytes())
    reported = _run("--input", "3x8x16x16", "--filters", "4,8", "--hidden", "8",
                    "--batch", "3")
    assert reported["sha256"] == digest.hexdigest()


@pytest.mark.parametrize("flag,value", [
    ("--input", "3x9_8x120x120"), ("--input", "3x0x16x16"),
    ("--filters", "4,+8"), ("--filters", "4, 8"), ("--filters", "4,0"),
    ("--hidden", "+500"), ("--hidden", "٥"), ("--batch", " 2"), ("--batch", "0"),
    ("--seed", "1_0"),
    # integer text, but no model can be built for the shape
    ("--input", "3x16x32"), ("--input", "3x16x32x30"), ("--input", "1x16x32x32"),
])
def test_numbers_follow_the_integer_rule(flag, value):
    proc = _proc(flag, value)
    assert proc.returncode == 2 and f"argument {flag}: invalid" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout
