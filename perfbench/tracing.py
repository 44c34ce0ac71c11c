"""Spans around strokebench's public functions, taken from outside the package.

`Tracer.install` replaces each traced function at the module (or class)
attribute the program looks it up through, so calls made inside the package
(`model.train` calling `ops.conv3d_forward`, `model.detect` calling
`extract_cuboid`) pass through a wrapper. Every wrapped call becomes a span
(name, start, end, parent) held in memory; `layer_metric` folds the spans into
the per-layer metrics named `<module>.<function>[.<layer>].<stat>`.

Operation counts and bytes moved are computed from argument shapes, not
measured: they repeat exactly for a given input and ignore cache behaviour.
Peak allocation per `nn.ops` call comes from `tracemalloc`, which numpy
reports its array buffers to; it runs only while the tracer is active.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

import numpy as np

from strokebench import annotations, frames, metrics, model, synth
from strokebench.nn import ops, optim
from strokebench.nn.layers import chain_shapes

# nn.ops functions are leaves: they call no other traced function, so their
# spans never overlap and a tracemalloc peak reset inside one is safe.
OPS = ("conv3d_forward", "conv3d_backward", "maxpool3d", "maxpool3d_backward",
       "relu_forward", "relu_backward", "linear_forward", "linear_backward",
       "softmax", "softmax_cross_entropy")

# Set-up calls are also recorded in the "setup" mode, so the traced run shows
# what set-up spends; everything else is recorded only in the "active" mode.
SETUP = ("synth.generate_corpus", "model.train", "model.save_checkpoint",
         "model.load_checkpoint")

# Spans whose time the program spends in kernels and data loading rather
# than in the Python glue of model.train / model.detect; they never nest.
LEAF_PREFIXES = ("nn.ops.", "nn.optim.", "frames.extract_cuboid")


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _conv_macs(weight, out_shape) -> int:
    n, f, to, ho, wo = out_shape
    return n * f * to * ho * wo * int(np.prod(weight.shape[1:]))


def _count_conv_forward(args, out):
    x, weight, bias = args[:3]
    return 2 * _conv_macs(weight, out.shape), _nbytes(x, weight, bias, out)


def _count_conv_backward(args, out):
    x, weight, grad_out = args[:3]
    # grad_input and grad_weight each cost one multiply-add per forward tap
    return 4 * _conv_macs(weight, grad_out.shape), _nbytes(x, weight, grad_out, *out)


def _count_linear_forward(args, out):
    x, weight, bias = args[:3]
    return 2 * x.shape[0] * weight.size, _nbytes(x, weight, bias, out)


def _count_linear_backward(args, out):
    x, weight, grad_out = args[:3]
    return 4 * x.shape[0] * weight.size, _nbytes(x, weight, grad_out, *out)


def _count_extract(args, out):
    src = args[0]
    length = out.values.shape[1]
    return None, length * src.height * src.width * 3  # source bytes read


def _count_pairs(args, out):
    return sum(len(p) * len(g) for p, g in args[0].videos.values()), None


COUNTERS = {
    "nn.ops.conv3d_forward": _count_conv_forward,
    "nn.ops.conv3d_backward": _count_conv_backward,
    "nn.ops.linear_forward": _count_linear_forward,
    "nn.ops.linear_backward": _count_linear_backward,
    "frames.extract_cuboid": _count_extract,
    "metrics.match_detections": _count_pairs,
}


class LayerNames:
    """Names a conv call `conv{k}` by its weight shape and a pool call
    `pool{k}` by its input shape, in the layer order of one model."""

    def __init__(self, net: model.ModelParams):
        self.conv = {arr.shape: name.removesuffix(".weight")
                     for name, arr in net.params.items()
                     if name.startswith("conv") and name.endswith(".weight")}
        self.pool = {}
        in_shapes = [net.input_shape] + chain_shapes(net.specs, net.input_shape)[:-1]
        for spec, in_shape in zip(net.specs, in_shapes):
            if spec.kind == "maxpool3d":
                self.pool[tuple(in_shape)] = f"pool{len(self.pool) + 1}"

    def of(self, op: str, args) -> str | None:
        if op in ("conv3d_forward", "conv3d_backward"):
            return self.conv.get(args[1].shape)
        if op == "maxpool3d":
            return self.pool.get(args[0].shape[1:])
        if op == "maxpool3d_backward":
            return self.pool.get(tuple(args[2][1:]))
        return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "work", "nbytes", "alloc")

    def __init__(self, name: str, parent: int | None):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.work = self.nbytes = self.alloc = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the traced functions. It starts in the "setup" mode; `pause`
    records nothing and `start`/`stop` bound the fully traced window."""

    def __init__(self):
        self.layers: LayerNames | None = None
        self.mode = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = []

    def install(self) -> None:
        for op in OPS:
            self._wrap(f"nn.ops.{op}", [(ops, op)], op=op)
        self._wrap("nn.optim.step", [(optim.NesterovSGD, "step")])
        # model.py binds extract_cuboid and generate_window_proposals by name
        self._wrap("frames.extract_cuboid",
                   [(frames, "extract_cuboid"), (model, "extract_cuboid")])
        self._wrap("frames.resize_bilinear", [(frames, "resize_bilinear")])
        for fn in ("forward", "classify", "detect", "train", "save_checkpoint",
                   "load_checkpoint"):
            self._wrap(f"model.{fn}", [(model, fn)])
        self._wrap("synth.generate_corpus", [(synth, "generate_corpus")])
        self._wrap("annotations.generate_window_proposals",
                   [(annotations, "generate_window_proposals"),
                    (model, "generate_window_proposals")])
        for fn in ("parse_annotations", "write_predictions"):
            self._wrap(f"annotations.{fn}", [(annotations, fn)])
        for fn in ("average_precision", "global_iou", "match_detections"):
            self._wrap(f"metrics.{fn}", [(metrics, fn)])

    def uninstall(self) -> None:
        self.stop()
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def pause(self) -> None:
        self.mode = "off"

    def start(self, net: model.ModelParams) -> None:
        """Record every traced call from now on; conv/pool layers are named
        after `net`'s architecture."""
        self.layers = LayerNames(net)
        tracemalloc.start(1)
        self.mode = "active"

    def stop(self) -> None:
        if self.mode == "active":
            tracemalloc.stop()
        self.mode = "off"

    def _wrap(self, name: str, sites, op: str | None = None) -> None:
        orig = getattr(*sites[0])
        always = name in SETUP
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.mode == "off" or (tracer.mode == "setup" and not always):
                return orig(*args, **kwargs)
            layer = tracer.layers.of(op, args) if op and tracer.layers else None
            span = Span(f"{name}.{layer}" if layer else name,
                        tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            alloc = op is not None
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            try:
                span.start = time.perf_counter()
                result = orig(*args, **kwargs)
                span.end = time.perf_counter()
            finally:
                tracer._stack.pop()
            if alloc:
                span.alloc = tracemalloc.get_traced_memory()[1] - base
            if counter is not None:
                span.work, span.nbytes = counter(args, result)
            return result

        for owner, attr in sites:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    # -- reduction ----------------------------------------------------------
    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def coverage(self, root: str) -> float:
        """Share of the time of `root` spans spent inside leaf spans."""
        def under_root(span):
            while span.parent is not None:
                span = self.spans[span.parent]
                if span.name == root:
                    return True
            return False

        total = self.seconds(root)
        covered = sum(s.seconds for s in self.spans
                      if s.name.startswith(LEAF_PREFIXES) and under_root(s))
        return covered / total if total else 0.0

    def layer_metric(self, metric: str) -> float:
        """Value of one per-layer metric `<span name>.<stat>`; a layer the
        workload never called reads 0."""
        if metric == "frames.src_mb_per_s":
            spans = self._named("frames.extract_cuboid")
            secs = sum(s.seconds for s in spans)
            return sum(s.nbytes for s in spans) / 1e6 / secs if secs else 0.0
        family, stat = metric.rsplit(".", 1)
        spans = self._named(family)
        if not spans:
            return 0
        secs = [s.seconds for s in spans]
        if stat == "s":
            return sum(secs)
        if stat == "calls":
            return len(spans)
        if stat == "p50_ms":
            return statistics.median(secs) * 1e3
        if stat == "p90_ms":
            return (statistics.quantiles(secs, n=10)[8] if len(secs) > 1 else secs[0]) * 1e3
        if stat == "gflop":  # per call
            return sum(s.work for s in spans) / len(spans) / 1e9
        if stat == "gflop_per_s":
            return sum(s.work for s in spans) / 1e9 / sum(secs)
        if stat == "mb_moved":  # per call
            return sum(s.nbytes for s in spans) / len(spans) / 1e6
        if stat == "peak_alloc_mb":
            return max(s.alloc for s in spans) / 1e6
        if stat == "pairs":
            return sum(s.work for s in spans)
        raise KeyError(f"no rule for per-layer metric {metric!r}")

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent index] JSON rows."""
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in self.spans], fh)
