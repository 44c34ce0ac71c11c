"""Peak memory and time of one training step, measured in this process.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/step_memory.py \
        --cuboid-len 98 --cuboid-size 120 --filters 30,60,80 --hidden 500 --batch 10

builds the default architecture for a 2-class model at the RGB cuboid shape
(3, len, size, size), then computes the gradients of one training step on a
seeded random batch (no optimizer step) with the function training calls,
`strokebench.model._summed_gradients`: forward pass, softmax cross entropy
and backward pass one sample at a time, summed in sample order. It prints
one JSON line: peak RSS of the process in MB, the peak RSS it had already
reached when the model was built, before the first cuboid was drawn
(`build_peak_rss_mb`; peak RSS never falls, so the step's own peak shows
only where it is higher), the step's wall seconds
(with drawing the cuboids, about 20 ms each at the paper shape), the
forward passes with the loss and the backward passes among them, and a
SHA-256 over the logits and every summed parameter gradient, so two builds
can be compared byte for byte. Run each measurement in a fresh process:
peak RSS never falls.

Its flags are those of `strokebench train` (`--cuboid-len`, `--cuboid-size`,
`--filters`, `--hidden`, `--batch`, `--seed`), with the CLI's readers,
defaults and help (`strokebench.cli.RunConfig`), so the command above spells
out the paper-recipe defaults. A value the CLI refuses exits 2 with the
CLI's message, and so do a batch below 1 and a cuboid no model can be built
for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from strokebench import cli, model
from strokebench.errors import ArchitectureError, TrainingError
from strokebench.nn.rng import MASK64


def _peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def digest(logits, grads) -> str:
    """SHA-256 over the logits' bytes, then each gradient's name and bytes in
    name order. Each gradient is hashed from its own buffer (a C-order copy
    only of one that is not contiguous), so hashing copies no array of
    fc1's weight size after the step."""
    sha = hashlib.sha256(logits.tobytes())
    for name in sorted(grads):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(grads[name]))
    return sha.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for key in ("cuboid_len", "cuboid_size", "filters", "hidden", "batch", "seed"):
        cli._add_setting(p, key)
    cfg = cli.build_run_config(p.parse_args(argv))

    try:
        model.TrainConfig(batch_size=cfg.batch)
    except TrainingError as e:
        p.error(f"argument --batch: {e}")
    try:
        net = cli._default_net(cfg, 2)  # the model `strokebench train` builds
    except ArchitectureError as e:
        p.error(f"no model for --cuboid-len {cfg.cuboid_len} --cuboid-size {cfg.cuboid_size} "
                f"--hidden {cfg.hidden}: {e}")
    build_peak_rss_mb = _peak_rss_mb()
    shape = net.input_shape
    rng = np.random.default_rng(cfg.seed & MASK64)
    # each cuboid is drawn as the step reaches it (the values of one
    # (batch,) + shape draw), as training cuts each cuboid from its video
    # when the step reaches it: no copy of the batch belongs to the step
    samples = ((rng.random(shape, dtype=np.float32), n % 2) for n in range(cfg.batch))

    t0 = time.perf_counter()
    _, logits, grads, (forward_s, backward_s) = model._summed_gradients(net, samples, "step")
    step_s = time.perf_counter() - t0

    print(json.dumps({
        "input": list(shape), "filters": list(cfg.filters), "hidden": cfg.hidden,
        "batch": cfg.batch, "seed": cfg.seed,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "peak_rss_mb": _peak_rss_mb(),
        "build_peak_rss_mb": build_peak_rss_mb,
        "step_s": round(step_s, 3),
        "forward_s": round(forward_s, 3),
        "backward_s": round(backward_s, 3),
        "sha256": digest(logits, grads),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
