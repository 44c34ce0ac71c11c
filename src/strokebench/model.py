"""Model assembly, the training loop with validation-based snapshot selection,
classification/detection inference and checkpoint I/O.

The model is the paper's chain and no other: `default_architecture`, which
checks its input shape, conv filters, hidden units and classes, run by fixed loops.

Checkpoint layout (bit-exact): magic ``STKB1\\n``; one UTF-8 header line
``arch layers=<n> input=<C>x<T>x<H>x<W>``; one UTF-8 descriptor line per
layer; then for each parameter in declaration order: name length (u32 LE),
name bytes, rank (u32), extents (u32 each), raw little-endian float32 values.
A checkpoint loads only if it holds exactly the lines and records
save_checkpoint writes for a model build_model accepts.
"""

from __future__ import annotations

import logging
import math
import os
import re
import struct
import time
from collections.abc import Iterable
from itertools import zip_longest
from dataclasses import dataclass, replace

import numpy as np

from .annotations import (NONSTROKE_LABEL, PROPOSAL_LEN, PROPOSAL_STRIDE, STROKE_LABEL,
                          Segment, generate_window_proposals)
from .errors import ArchitectureError, CheckpointError, CuboidError, ShapeError, TrainingError
from .frames import VideoSource, ascii_int, extract_cuboid
from .nn import ops
from .nn.layers import (HIDDEN, INPUT_SHAPE, LayerSpec, default_architecture, param_entries,
                        to_descriptor)
from .nn.optim import NesterovSGD
from .nn.rng import SplitMix64, derive_seed

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"STKB1\n"

DETECTION_LABELS = [NONSTROKE_LABEL, STROKE_LABEL]
STROKE_CLASS = DETECTION_LABELS.index(STROKE_LABEL)

_INIT_SALT = 0x494E4954  # distinct streams per purpose
_SHUFFLE_SALT = 0x53485546
_INIT_CHUNK = 1 << 18  # draws at a time in build_model, not all of fc1's 9.2M at paper shape


@dataclass
class ModelParams:
    specs: list[LayerSpec]
    params: dict[str, np.ndarray]
    input_shape: tuple[int, int, int, int]

    @property
    def n_classes(self) -> int:
        return self.specs[-1].out_features

    def copy(self) -> "ModelParams":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 10
    lr: float = 1e-4
    momentum: float = 0.5
    weight_decay: float = 0.005
    seed: int = 0
    # train reads the cuboid shape from the model; these only have to match it
    cuboid_len: int = INPUT_SHAPE[1]
    cuboid_size: int = INPUT_SHAPE[2]

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise TrainingError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class DatasetItem:
    """One training/eval sample: a labeled segment of a video."""

    video_id: str
    segment: Segment
    class_index: int


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float


def _default_model(n_classes: int, arch: list[LayerSpec], input_shape) -> ModelParams:
    """The model of `arch` with no parameters yet: `arch` must be the
    default chain for the input shape, `n_classes`, its filters and its hidden
    units (HIDDEN if it has no linear layer), else ArchitectureError names
    the rule one of those numbers breaks or the first layer that differs."""
    hidden = next((s.out_features for s in arch if s.kind == "linear"), HIDDEN)
    filters = [s.out_channels for s in arch if s.kind == "conv3d"]
    default = default_architecture(input_shape, filters, hidden, n_classes=n_classes)
    if not arch:
        raise ArchitectureError("architecture has no layers")
    for i, (got, want) in enumerate(zip_longest(arch, default)):
        if got != want:
            got, want = (repr(to_descriptor(s)) if s else "no layer" for s in (got, want))
            raise ArchitectureError(f"layer {i}: {got} where the default architecture has {want}")
    return ModelParams(default, {}, tuple(input_shape))


def build_model(n_classes: int, arch: list[LayerSpec], seed: int, *,
                input_shape: tuple[int, int, int, int]) -> ModelParams:
    """The model of `arch`, checked by _default_model.

    Weights and biases are uniform in ±1/sqrt(fan_in), drawn per layer in
    declaration order from one seeded stream, so a fixed seed gives
    byte-identical parameters, the same in chunks of at most _INIT_CHUNK draws.
    """
    model = _default_model(n_classes, arch, input_shape)
    stream = SplitMix64(derive_seed(seed, _INIT_SALT))
    for name, shape in param_entries(model.specs):
        if name.endswith(".weight"):  # the bias that follows shares this bound
            bound = 1.0 / np.sqrt(np.prod(shape[1:]))
        vals = np.empty(math.prod(shape), dtype=np.float32)
        for a, b in ops._even_runs(vals.size, _INIT_CHUNK):
            vals[a:b] = stream.uniform(b - a, -bound, bound)
        model.params[name] = vals.reshape(shape)
    return model


def _forward_full(model: ModelParams, cuboid: np.ndarray, training: bool):
    """(K,) logits of one (C, T, H, W) cuboid and, with `training`, the
    caches _backward_full reads, in run order, among them each pool's index
    of the winning tap in every window (one byte per pooled element).
    Otherwise the list stays empty and each pool computes its values only,
    with no tap index; the logits keep their bytes.

    A fixed loop: each block runs its conv3d and maxpool3d as one kernel,
    `ops.conv3d_maxpool3d` (back as both conv backward halves with the pool's
    window, so no full-size conv output or gradient exists), then its relu,
    on the pooled tensor; then flatten, fc1, relu and fc2. Relu after the
    pool is exact: relu is monotone, so where a window's maximum is > 0 both
    orders pick the same first maximum, and where it is <= 0 both give +0.0
    (relu_forward maps every x <= 0, -0.0 included, to +0.0); a NaN wins its
    window either way. Against relu before the pool, only the stored winning
    tap of a window whose values are all <= 0 can differ, and with it the
    sign of the zero gradient routed there (g * 0 before, now 0 + g * 0,
    which is +0.0). Each relu runs in place on the array the kernel before
    it made, and in training caches the bool mask of its output > 0: the
    next conv or linear layer caches the relu'd array itself, so no
    activation is held twice. The kernels take a unit batch axis: it is
    added here and in _backward_full, and nowhere else.
    """
    caches = []
    keep = caches.append if training else (lambda cache: None)
    specs, params = model.specs, model.params

    def relu(spec, x):
        x = ops.relu_forward(x, out=x)
        if training:  # x > 0 masks relu's input and output alike, NaN, ±0 and ±inf too
            keep((spec, x > 0))
        return x

    cur = cuboid[None]
    for k in range((len(specs) - 4) // 3):  # the blocks before the head's four layers
        conv, block_relu, pool = specs[3 * k : 3 * k + 3]
        weight, bias, x = f"conv{k + 1}.weight", f"conv{k + 1}.bias", cur
        cur, taps = ops.conv3d_maxpool3d(x, params[weight], params[bias], conv.stride,
                                         conv.pad, pool.window, need_winners=training)
        keep((conv, weight, bias, pool.window, taps, x))
        cur = relu(block_relu, cur)
    flatten, fc1, head_relu, fc2 = specs[-4:]
    keep((flatten, cur.shape))
    x = cur.reshape(1, -1)
    cur = ops.linear_forward(x, params["fc1.weight"], params["fc1.bias"])
    keep((fc1, "fc1.weight", "fc1.bias", None, None, x))
    x = relu(head_relu, cur)
    cur = ops.linear_forward(x, params["fc2.weight"], params["fc2.bias"])
    keep((fc2, "fc2.weight", "fc2.bias", None, None, x))
    return cur[0], caches


def _backward_full(model: ModelParams, caches, grad_logits: np.ndarray,
                   sums: dict[str, np.ndarray | list]) -> None:
    """Adds one sample's parameter gradients, from its (K,) logit gradient,
    into `sums` in place as each layer's backward returns them; for a
    linear weight, whose entry in `sums` is a list, it appends the sample's
    (x, grad_out) instead (see `_layer_backward`). Empties `caches`, last
    layer first, mirroring _forward_full: fc2, relu, fc1 and flatten, then
    each block's relu and conv. Each cache is popped where it is used, so no
    frame but its user's holds it, and each saved array is freed as soon as
    the layer's backward is done with it."""
    g = _layer_backward(model, caches, grad_logits[None], sums)  # fc2
    g = ops.relu_backward(caches.pop()[1], g)
    g = _layer_backward(model, caches, g, sums)  # fc1
    g = g.reshape(caches.pop()[1])  # flatten
    while caches:  # the blocks, last first
        g = ops.relu_backward(caches.pop()[1], g)
        g = _layer_backward(model, caches, g, sums)


def _layer_backward(model: ModelParams, caches: list, g: np.ndarray,
                    sums: dict[str, np.ndarray | list]) -> np.ndarray | None:
    """The backward of the conv or linear layer whose cache is last in
    `caches`, which it pops: returns the gradient for its input (None for
    the first conv, whose input needs none) and adds its parameter
    gradients into `sums`. A linear layer forms no weight gradient: it
    appends its input and output gradient, the factors
    `ops.linear_weight_grad` sums over the batch, to its weight's list in
    `sums`. A conv forms its weight gradient first (`ops.conv3d_backward`),
    then drops its input, of which its cache held the only reference, and
    only then forms grad_input (`ops.conv3d_input_grad`). Every array
    unpacked from the cache dies on return."""
    spec, weight, bias, window, taps, x = caches.pop()
    w = model.params[weight]
    if spec.kind == "conv3d":
        grad_w, grad_b = ops.conv3d_backward(x, w, g, spec.stride, spec.pad, window=window,
                                             taps=taps)
        sums[weight] += grad_w
        shape = x.shape
        del x  # its only reference: it never coexists with its gradient
        g = (ops.conv3d_input_grad(w, g, shape, spec.stride, spec.pad, window=window,
                                   taps=taps) if caches else None)
    else:
        sums[weight].append((x, g))
        g, grad_b = ops.linear_backward(x, w, g)
    sums[bias] += grad_b
    return g


def forward(model: ModelParams, cuboid: np.ndarray) -> np.ndarray:
    """(K,) logits of one cuboid of shape `model.input_shape`."""
    if cuboid.shape != model.input_shape:
        raise ShapeError(f"cuboid shape {cuboid.shape} does not match {model.input_shape}")
    return _forward_full(model, cuboid, training=False)[0]


def classify(model: ModelParams, cuboid_values: np.ndarray):
    """(class index, probabilities): the argmax of the logits, ties to the
    lowest index, as validation counts it, and the logits' softmax."""
    logits = forward(model, cuboid_values.astype(np.float32, copy=False))
    return int(np.argmax(logits)), ops.softmax(logits)


def check_video_length(model: ModelParams, src: VideoSource) -> None:
    """Raise CuboidError if `src` is shorter than the model input, so that no
    window of it can be classified."""
    length = model.input_shape[1]
    if src.frame_count < length:
        raise CuboidError(f"{src.video_id}: only {src.frame_count} frames, shorter than "
                          f"the {length}-frame model input")


def _window_input(model: ModelParams, src: VideoSource, begin: int) -> np.ndarray:
    """The model input for the window starting at `begin`: a cuboid of the
    model's input length and size, right-clamped to fit inside the video,
    which must be no shorter than that length (see check_video_length)."""
    _, length, size, _ = model.input_shape
    start = max(0, min(begin, src.frame_count - length))
    return extract_cuboid(src, start, length, size).values


def classify_windows(model: ModelParams, src: VideoSource,
                     windows: list[Segment]) -> list[tuple[Segment, int, np.ndarray]]:
    """(window, class index, probabilities) for each window, in order. A video
    shorter than the model input scores nothing: [] and one warning."""
    try:
        check_video_length(model, src)
    except CuboidError as e:
        logger.warning("%s; no windows classified", e)
        return []
    return [(w, *classify(model, _window_input(model, src, w.begin))) for w in windows]


def detect(model: ModelParams, src: VideoSource, proposal_len: int = PROPOSAL_LEN,
           proposal_stride: int = PROPOSAL_STRIDE) -> list[Segment]:
    """Score window proposals with the 2-class model; each positive window is
    its own detection, no merging of adjacent windows."""
    if model.n_classes != 2:
        raise ShapeError(f"detection needs a 2-class model, got {model.n_classes}")
    proposals = generate_window_proposals(src.frame_count, proposal_len, proposal_stride)
    return [Segment(p.begin, p.end, STROKE_LABEL, score=float(probs[STROKE_CLASS]))
            for p, cls, probs in classify_windows(model, src, proposals)
            if cls == STROKE_CLASS]


def _usable_items(items: list[DatasetItem], sources: dict[str, VideoSource],
                  model: ModelParams) -> list[DatasetItem]:
    """The items a cuboid can be cut for: their video has a source at least
    the model's input length long. Each other item is logged as skipped."""
    usable = []
    for item in items:
        src = sources.get(item.video_id)
        if src is None:
            logger.warning("no video source for %s; sample skipped", item.video_id)
            continue
        try:
            check_video_length(model, src)
        except CuboidError as e:
            logger.warning("%s; sample skipped", e)
            continue
        usable.append(item)
    return usable


def _samples(model: ModelParams, items: list[DatasetItem], sources: dict[str, VideoSource]):
    """(cuboid, class index) of each usable item, each cuboid cut only when
    the loop that consumes it gets there. The cuboid is a float32 copy, so
    its video's mapped pages are released as soon as it is cut, and the
    generator drops it before it cuts the next."""
    for item in items:
        src = sources[item.video_id]
        cuboid = _window_input(model, src, item.segment.begin)
        src.release()
        yield cuboid, item.class_index
        del cuboid


def _summed_gradients(model: ModelParams, samples: Iterable[tuple[np.ndarray, int]],
                      where: str):
    """Forward, loss and backward of each (cuboid, class) in `samples`, one
    cuboid at a time as `samples` yields it, so that no stacked copy of the
    batch is made and one sample's caches are live at a time.

    In sample order, each sample's parameter gradients are added into one sum
    per parameter that starts from zero, and its loss into a summed loss that
    starts from zero. A linear weight's gradient is the exception: each
    backward keeps only the sample's factors (x, grad_out), 74 KB at paper
    fc1, and `ops.linear_weight_grad` sums them in sample order, with the
    same bytes, after the last sample's backward, when no cuboid or cache is
    live. So no array of fc1's weight size exists during any sample's
    passes. Each activation is held once: a relu caches a one-byte mask, not
    its output, which only the next layer's cache holds, and each conv's
    input dies before its grad_input is formed (see `_layer_backward`).
    Returns (summed loss, the (N, K) logits, the summed gradients,
    (forward seconds, backward seconds)): the forward passes with their
    losses, and the backward passes with the sums. A loss that is not finite
    raises TrainingError before its sample's backward, a summed gradient
    that is not finite once all sums are formed. Each cuboid is dropped
    before the next is pulled from `samples`.
    """
    linear = [name for name, p in model.params.items() if p.ndim == 2]  # the linear weights
    grads = {name: [] if name in linear else np.zeros_like(p)
             for name, p in model.params.items()}
    loss = 0.0
    logits = []
    forward_s = backward_s = 0.0
    for cuboid, cls in samples:
        t0 = time.perf_counter()
        out, caches = _forward_full(model, cuboid, training=True)
        sample_loss, grad_logits = ops.softmax_cross_entropy(out, cls)
        t1 = time.perf_counter()
        forward_s += t1 - t0
        if not np.isfinite(sample_loss):
            raise TrainingError(f"{where}: loss is {sample_loss}; stopping the run")
        loss += sample_loss
        logits.append(out)
        _backward_full(model, caches, grad_logits, grads)
        backward_s += time.perf_counter() - t1
        del cuboid
    t0 = time.perf_counter()
    for name in linear:
        grads[name] = ops.linear_weight_grad(grads[name])
    backward_s += time.perf_counter() - t0
    for name in model.params:
        if not np.isfinite(grads[name]).all():
            raise TrainingError(f"{where}: gradient of {name} is not finite; stopping the run")
    return loss, np.stack(logits), grads, (forward_s, backward_s)


def _train_step(model: ModelParams, opt: NesterovSGD,
                samples: Iterable[tuple[np.ndarray, int]], where: str) -> tuple[float, int]:
    """One SGD step on a batch of (cuboid, class) samples, with the gradients
    `_summed_gradients` sums: (summed loss, correct predictions). A loss or
    a parameter gradient that is not finite raises TrainingError before any
    parameter or velocity changes. The caches and gradients die on return,
    before validation allocates."""
    classes = []

    def counted(sample):  # map keeps no sample while it pulls the next
        classes.append(sample[1])
        return sample

    loss, logits, grads, _ = _summed_gradients(model, map(counted, samples), where)
    opt.step(model.params, grads)
    return loss, int(np.sum(np.argmax(logits, axis=1) == classes))


def _evaluate(model: ModelParams, samples: Iterable[tuple[np.ndarray, int]]) -> float:
    """The share of samples whose `classify` class is their own: one cuboid
    at a time, the shape inference runs the model at, each dropped before
    the next is pulled from `samples`."""
    hits = []
    for cuboid, cls in samples:
        hits.append(classify(model, cuboid)[0] == cls)
        del cuboid
    return sum(hits) / len(hits)


def train(model: ModelParams, train_items: list[DatasetItem],
          val_items: list[DatasetItem], sources: dict[str, VideoSource],
          cfg: TrainConfig):
    """SGD over epochs with per-epoch validation; returns (best_model, history).

    Every epoch shuffles with its own (seed, epoch)-derived stream, sums the
    sample losses (a batch's gradient is the sum of its samples') and keeps
    the snapshot with the highest validation accuracy, earliest epoch on
    ties. Training and validation run the model on one sample at a time, as
    `classify` does, and cut each sample's cuboid only when they reach it,
    every epoch anew, so one cuboid is held at a time however large the
    corpus. Each cut releases its video's mapping (`VideoSource.release`),
    so the video pages training reads do not stay in the process's RSS, and
    an RGBV video holds no file descriptor between its cuts. Within a step,
    one sample's caches are live at a time, beside the sums of the conv
    and bias gradients; each linear weight's gradient is summed from the
    samples' factors after the batch's last backward (`_summed_gradients`),
    so fc1's weight-sized sum never coexists with a cuboid or a cache.
    Samples whose video is missing or too short are skipped, each with one
    warning before epoch 1; with no usable training or validation sample
    the run aborts before epoch 1. A frame that cannot be read, or an RGBV
    file whose size changed since it was opened, raises when a step or
    validation reaches it. A batch whose loss or parameter gradient is not
    finite raises TrainingError naming the epoch and batch, before that
    batch changes any parameter. Cuboid settings that do not match the
    model input raise TrainingError, and bad optimizer settings
    ConfigError, before any video is read.
    """
    if not train_items or not val_items:
        raise TrainingError("train and validation sets must be non-empty")
    cuboid_shape = (3, cfg.cuboid_len, cfg.cuboid_size, cfg.cuboid_size)
    if cuboid_shape != model.input_shape:
        raise TrainingError(
            f"cuboid_len/cuboid_size give cuboids of shape {cuboid_shape}, but the "
            f"model input shape is {model.input_shape}"
        )
    for item in train_items + val_items:
        if not 0 <= item.class_index < model.n_classes:
            raise TrainingError(
                f"class index {item.class_index} outside [0, {model.n_classes})"
            )
    opt = NesterovSGD(model.params, cfg.lr, cfg.momentum, cfg.weight_decay)

    train_usable = _usable_items(train_items, sources, model)
    val_usable = _usable_items(val_items, sources, model)
    skipped = len(train_items) + len(val_items) - len(train_usable) - len(val_usable)
    if skipped:
        logger.warning("skipped %d unextractable samples", skipped)
    if not train_usable or not val_usable:
        raise TrainingError("no usable samples after extraction; aborting")

    best = None
    best_acc = -1.0
    history: list[EpochStats] = []
    n = len(train_usable)
    for epoch in range(1, cfg.epochs + 1):
        order = list(range(n))
        SplitMix64(derive_seed(cfg.seed, _SHUFFLE_SALT, epoch)).shuffle(order)
        epoch_loss = 0.0
        correct = 0
        for i in range(0, n, cfg.batch_size):
            batch = [train_usable[j] for j in order[i : i + cfg.batch_size]]
            loss, hits = _train_step(model, opt, _samples(model, batch, sources),
                                     f"epoch {epoch}, batch {i // cfg.batch_size + 1}")
            epoch_loss += loss
            correct += hits
        val_acc = _evaluate(model, _samples(model, val_usable, sources))
        history.append(EpochStats(epoch, epoch_loss, correct / n, val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best = model.copy()
    return best, history


def history_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,train_loss,train_acc,val_acc"]
    for h in history:
        lines.append(f"{h.epoch},{h.train_loss!r},{h.train_acc!r},{h.val_acc!r}")
    return "\n".join(lines) + "\n"


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """What precedes a parameter's values: name length (u32 LE), UTF-8 name,
    rank (u32) and extents (u32 each)."""
    nb = name.encode("utf-8")
    return struct.pack(f"<I{len(nb)}sI{len(shape)}I", len(nb), nb, len(shape), *shape)


def _text_lines(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[str]:
    """The header line and one descriptor line per layer, as saved."""
    header = f"arch layers={len(specs)} input={'x'.join(map(str, input_shape))}"
    return [header] + [to_descriptor(spec) for spec in specs]


def save_checkpoint(model: ModelParams, path) -> None:
    """Write one record per param_entries(model.specs) entry, in that order,
    each straight from its array to the file; CheckpointError, before the
    file is made, for a model build_model refuses (so every file it writes
    loads), or unless params holds exactly those entries."""
    try:
        _default_model(model.n_classes, model.specs, model.input_shape)
    except ArchitectureError as e:
        raise CheckpointError(f"{path}: {e}") from None
    entries = dict(param_entries(model.specs))
    if (shapes := {name: arr.shape for name, arr in model.params.items()}) != entries:
        raise CheckpointError(f"{path}: parameters {shapes} do not match the layers' {entries}")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for line in _text_lines(model.specs, model.input_shape):
            f.write((line + "\n").encode("utf-8"))
        for name, shape in entries.items():
            f.write(_record_head(name, shape))
            f.write(np.ascontiguousarray(model.params[name], dtype="<f4"))


def _read_line(f, path) -> str:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError(f"{path}: truncated checkpoint: unterminated text line")
    try:
        return line[:-1].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: text line {line[:-1]!r} is not UTF-8") from None


def load_checkpoint(path) -> ModelParams:
    """The model the checkpoint at `path` holds, each parameter read from the
    file straight into its array. Its text lines must be those save_checkpoint
    writes for the default chain of the input shape in the header, the conv3d
    lines' out= and the first and last linear line's out= (hidden units,
    classes); else CheckpointError names the rule one of those numbers
    breaks (see default_architecture) or the first line that differs."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        header = _read_line(f, path)
        try:
            _, layers, shape = header.split(" ")
            n_layers = ascii_int(layers.removeprefix("layers="))
            input_shape = tuple(ascii_int(x) for x in shape.removeprefix("input=").split("x"))
        except ValueError:
            raise CheckpointError(f"{path}: bad header line {header!r}") from None
        try:  # an ArchitectureError of the chain's numbers becomes a CheckpointError
            if n_layers < 1:
                raise ArchitectureError("architecture has no layers")
            lines = [header] + [_read_line(f, path) for _ in range(n_layers)]
            filters, features = [], []
            for lineno, line in enumerate(lines[1:], 3):
                kind = line.split(" ")[0]
                if kind in ("conv3d", "linear"):  # their out= field, in ASCII digits as saved
                    if (out := re.search(r" out=([0-9]+)(?: |$)", line)) is None:
                        raise CheckpointError(f"{path}: line {lineno} reads {line!r}, which "
                                              "save_checkpoint never writes")
                    (filters if kind == "conv3d" else features).append(int(out[1]))
            hidden, n_classes = (features[0], features[-1]) if features else (HIDDEN, 2)
            specs = default_architecture(input_shape, filters, hidden, n_classes=n_classes)
            for lineno, (line, saved) in enumerate(zip(lines, _text_lines(specs, input_shape)), 2):
                if line != saved:
                    raise CheckpointError(f"{path}: line {lineno} reads {line!r}, but "
                                          f"save_checkpoint writes {saved!r}")
            model = ModelParams(specs, {}, input_shape)
        except ArchitectureError as e:
            raise CheckpointError(f"{path}: {e}") from None

        pos = f.tell()
        for name, shape in param_entries(model.specs):
            try:
                head = _record_head(name, shape)
            except struct.error:  # no record holds an extent past u32
                raise CheckpointError(
                    f"{path}: {name} {shape} has an extent past 2**32 - 1") from None
            end = pos + len(head) + 4 * math.prod(shape)
            if end > size:
                raise CheckpointError(f"{path}: truncated at parameter {name}")
            if f.read(len(head)) != head:
                raise CheckpointError(
                    f"{path}: record at byte {pos} is not parameter {name} of shape {shape}"
                )
            vals = np.empty(shape, dtype="<f4")
            if f.readinto(vals) != vals.nbytes:  # the file shrank while it was read
                raise CheckpointError(f"{path}: truncated at parameter {name}")
            model.params[name] = vals.astype(np.float32, copy=False)
            pos = end
        if pos != size:
            raise CheckpointError(f"{path}: {size - pos} bytes of trailing data")
        return model
