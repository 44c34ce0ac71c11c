"""Peak memory and time of one training step, measured in this process.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/step_memory.py \
        --input 3x98x120x120 --filters 30,60,80 --hidden 500 --batch 10

builds the default architecture for a 2-class model at the given input
shape, then computes the gradients of one training step on a seeded random
batch (no optimizer step) with the function training calls,
`strokebench.model._summed_gradients`: forward pass, softmax cross entropy
and backward pass one sample at a time, summed in sample order. It prints
one JSON line: peak RSS of the process in MB, the step's wall seconds
(with drawing the cuboids, about 20 ms each at the paper shape), the
forward passes with the loss and the backward passes among them, and a
SHA-256 over the logits and every summed parameter gradient, so two builds
can be compared byte for byte. Run each measurement in a fresh process:
peak RSS never falls.

Every option defaults to the paper recipe, so the command above spells out
the defaults. They are read from the library: the input shape, filters and
hidden units from `strokebench.nn.layers`, the batch from
`strokebench.model.TrainConfig`. Numbers follow the CLI's rule of integer
text (`strokebench.frames.ascii_int`), and every count is at least 1; any
other spelling, and a shape the architecture cannot be built for, exits 2.
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

from strokebench import model
from strokebench.errors import ArchitectureError
from strokebench.frames import ascii_int
from strokebench.nn.layers import FILTERS, HIDDEN, INPUT_SHAPE, default_architecture


def _count(text: str) -> int:
    value = ascii_int(text)
    if value < 1:
        raise ValueError(f"not a count >= 1: {text!r}")
    return value


def _shape(raw: str) -> tuple[int, ...]:
    return tuple(_count(v) for v in raw.split("x"))


def _filters(raw: str) -> tuple[int, ...]:
    return tuple(_count(v) for v in raw.split(","))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--input", type=_shape, default=INPUT_SHAPE,
                   help=f"cuboid shape CxTxHxW (default {'x'.join(map(str, INPUT_SHAPE))})")
    p.add_argument("--filters", type=_filters, default=FILTERS,
                   help=f"comma-separated conv filter counts (default "
                        f"{','.join(map(str, FILTERS))})")
    p.add_argument("--hidden", type=_count, default=HIDDEN)
    p.add_argument("--batch", type=_count, default=model.TrainConfig.batch_size)
    p.add_argument("--seed", type=ascii_int, default=0)
    args = p.parse_args(argv)

    try:
        arch = default_architecture(args.input, filters=args.filters, hidden=args.hidden,
                                    n_classes=2)
        net = model.build_model(2, arch, seed=args.seed, input_shape=args.input)
    except ArchitectureError as e:
        p.error(f"argument --input: invalid shape {'x'.join(map(str, args.input))}: {e}")
    rng = np.random.default_rng(args.seed)
    # each cuboid is drawn as the step reaches it (the values of one
    # (batch,) + input draw): training steps over cuboids it holds anyway,
    # so no copy of the batch belongs to the step
    samples = ((rng.random(args.input, dtype=np.float32), n % 2) for n in range(args.batch))

    t0 = time.perf_counter()
    _, logits, grads, (forward_s, backward_s) = model._summed_gradients(net, samples, "step")
    step_s = time.perf_counter() - t0

    digest = hashlib.sha256(logits.tobytes())
    for name in sorted(grads):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(grads[name]).tobytes())
    print(json.dumps({
        "input": list(args.input), "filters": list(args.filters), "hidden": args.hidden,
        "batch": args.batch, "seed": args.seed,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "step_s": round(step_s, 3),
        "forward_s": round(forward_s, 3),
        "backward_s": round(backward_s, 3),
        "sha256": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
