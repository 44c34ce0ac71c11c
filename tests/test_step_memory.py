"""scripts/step_memory.py at a tiny shape: one JSON line, reproducible bytes,
the bytes of the library's training step, and the flags, readers and
messages of `strokebench train`."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strokebench import model
from strokebench.model import TrainConfig
from strokebench.nn.layers import FILTERS, HIDDEN, INPUT_SHAPE, default_architecture

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("step_memory", ROOT / "scripts" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_memory)


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


# the tiny shape 3x8x16x16, as scripts/bench_pairs.py --tiny runs it
TINY = ("--cuboid-len", "8", "--cuboid-size", "16", "--filters", "4,8", "--hidden", "8")


def test_step_memory_reports_one_reproducible_step():
    args = TINY + ("--batch", "2")
    first, second = _run(*args), _run(*args)
    assert first["input"] == [3, 8, 16, 16] and first["filters"] == [4, 8]
    assert first["batch"] == 2 and first["openblas_threads"] == "1"
    assert 0 < first["peak_rss_mb"] and 0 <= first["step_s"]
    # the peak after the model build, which the step's peak includes
    assert 0 < first["build_peak_rss_mb"] <= first["peak_rss_mb"]
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
    reported = _run(*TINY, "--batch", "3")
    assert reported["sha256"] == digest.hexdigest()


def test_digest_copies_no_gradient():
    """The script hashes each gradient from its buffer: hashing a 4 MB
    gradient allocates less than 64 KB, and gives the digest of its
    tobytes() copy."""
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((2, 2)).astype(np.float32)
    grads = {"fc1.weight": rng.standard_normal((1000, 1000)).astype(np.float32),
             "fc1.bias": rng.standard_normal(1000).astype(np.float32)}
    expected = hashlib.sha256(logits.tobytes())
    for name in sorted(grads):
        expected.update(name.encode())
        expected.update(grads[name].tobytes())
    tracemalloc.start()
    try:
        got = step_memory.digest(logits, grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected.hexdigest()
    assert peak < 64 << 10


def test_defaults_are_the_paper_recipe(monkeypatch, capsys):
    """With no flags the script reads every setting from `RunConfig`, the
    defaults of `strokebench train`: the paper's cuboid, filters, hidden
    units and batch, and seed 0. The step itself is faked here."""
    seen = {}

    def fake_step(net, samples, where):
        seen["input_shape"] = net.input_shape
        seen["batch"] = sum(1 for _ in samples)
        return 0.0, np.zeros((seen["batch"], 2), np.float32), {}, (0.0, 0.0)

    monkeypatch.setattr(model, "_summed_gradients", fake_step)
    assert step_memory.main([]) == 0
    reported = json.loads(capsys.readouterr().out)
    assert reported["input"] == list(INPUT_SHAPE) and seen["input_shape"] == INPUT_SHAPE
    assert reported["filters"] == list(FILTERS) and reported["hidden"] == HIDDEN
    assert reported["batch"] == seen["batch"] == TrainConfig.batch_size
    assert reported["seed"] == 0


def test_negative_seed_is_taken_mod_2_64():
    """`--seed -1` is read as `strokebench train` reads it, and draws as
    seed 2**64 - 1, as SplitMix64 takes it."""
    negative = _run(*TINY, "--batch", "1", "--seed", "-1")
    assert negative["seed"] == -1 and len(negative["sha256"]) == 64
    assert _run(*TINY, "--batch", "1", "--seed", str(2**64 - 1))["sha256"] == negative["sha256"]


BAD_SETTINGS = [
    ("--cuboid-len", "9_8", "argument --cuboid-len: not a base-10 integer: '9_8'"),
    ("--cuboid-size", "+16", "argument --cuboid-size: not a base-10 integer: '+16'"),
    ("--filters", "4,+8", "argument --filters: count list '4,+8': '+8' is not an integer"),
    ("--filters", "4,,8", "argument --filters: count list '4,,8' has an empty item"),
    ("--filters", "4,0", "argument --filters: count list '4,0': '0' is not >= 1"),
    ("--hidden", "+500", "argument --hidden: not a base-10 integer: '+500'"),
    ("--hidden", "\u0665", "argument --hidden: not a base-10 integer: '\u0665'"),
    ("--batch", " 2", "argument --batch: not a base-10 integer: ' 2'"),
    ("--seed", "1_0", "argument --seed: not a base-10 integer: '1_0'"),
    # integer text, refused by the library that the setting feeds
    ("--batch", "0", "argument --batch: batch_size must be >= 1, got 0"),
    ("--cuboid-size", "0",
     "no model for --cuboid-len 8 --cuboid-size 0 --hidden 8: input size S must be >= 1, got 0"),
    ("--cuboid-len", "0", "no model for --cuboid-len 0 --cuboid-size 16 --hidden 8: "
                          "input frames T must be >= 1, got 0"),
    ("--hidden", "0", "no model for --cuboid-len 8 --cuboid-size 16 --hidden 0: "
                      "hidden units must be >= 1, got 0"),
]


@pytest.mark.parametrize("flag,value,message", BAD_SETTINGS,
                         ids=[f"{flag}-{value}" for flag, value, _ in BAD_SETTINGS])
def test_numbers_follow_the_integer_rule(flag, value, message):
    """The last stderr line is the whole error: the flag that was given and
    the CLI's or the library's message for its value."""
    proc = _proc(*TINY, flag, value)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1] == f"step_memory.py: error: {message}"
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def test_filters_accept_spaces_around_counts():
    assert _run(*TINY, "--batch", "1", "--filters", "4, 8")["filters"] == [4, 8]
