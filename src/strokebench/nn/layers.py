"""Layer specifications, their shape arithmetic and the checked default architecture."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ArchitectureError, ShapeError
from .ops import conv3d_out_extents, maxpool3d_out_extents


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int = 0
    out_channels: int = 0
    kernel: tuple[int, int, int] = (0, 0, 0)
    stride: int = 1
    pad: int = 0
    window: tuple[int, int, int] = field(default=(0, 0, 0))
    in_features: int = 0
    out_features: int = 0


def conv3d(in_channels: int, out_channels: int, kernel, stride: int, pad: int) -> LayerSpec:
    return LayerSpec("conv3d", in_channels=in_channels, out_channels=out_channels,
                     kernel=tuple(int(k) for k in kernel), stride=stride, pad=pad)


def maxpool3d(window) -> LayerSpec:
    return LayerSpec("maxpool3d", window=tuple(int(x) for x in window))


def relu() -> LayerSpec:
    return LayerSpec("relu")


def flatten() -> LayerSpec:
    return LayerSpec("flatten")


def linear(in_features: int, out_features: int) -> LayerSpec:
    return LayerSpec("linear", in_features=in_features, out_features=out_features)


def output_shape(spec: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Shape produced by one layer from `shape` (without the batch axis)."""
    if spec.kind == "conv3d":
        return (spec.out_channels,) + conv3d_out_extents(shape[1:], spec.kernel,
                                                         spec.stride, spec.pad)
    if spec.kind == "maxpool3d":
        return (shape[0],) + maxpool3d_out_extents(shape[1:], spec.window)
    if spec.kind == "flatten":
        return (math.prod(shape),)
    if spec.kind == "linear":
        return (spec.out_features,)
    return shape  # relu


def chain_shapes(specs: list[LayerSpec], input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Per-layer output shapes; raises naming the first offending layer."""
    shapes = []
    cur = tuple(input_shape)
    for i, spec in enumerate(specs):
        try:
            cur = output_shape(spec, cur)
        except ShapeError as e:
            raise ArchitectureError(f"layer {i} ({spec.kind}): {e}") from e
        shapes.append(cur)
    return shapes


def param_entries(specs: list[LayerSpec]) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs for every parameter the chain declares."""
    entries = []
    n_conv = n_fc = 0
    for spec in specs:
        if spec.kind == "conv3d":
            n_conv += 1
            entries.append((f"conv{n_conv}.weight",
                            (spec.out_channels, spec.in_channels) + spec.kernel))
            entries.append((f"conv{n_conv}.bias", (spec.out_channels,)))
        elif spec.kind == "linear":
            n_fc += 1
            entries.append((f"fc{n_fc}.weight", (spec.out_features, spec.in_features)))
            entries.append((f"fc{n_fc}.bias", (spec.out_features,)))
    return entries


def to_descriptor(spec: LayerSpec) -> str:
    """The checkpoint's text line of one layer: a relu's, a flatten's or
    another kind's is its kind alone."""
    if spec.kind == "conv3d":
        return (f"conv3d in={spec.in_channels} out={spec.out_channels} kernel="
                f"{'x'.join(map(str, spec.kernel))} stride={spec.stride} pad={spec.pad}")
    if spec.kind == "maxpool3d":
        return f"maxpool3d window={'x'.join(map(str, spec.window))}"
    if spec.kind == "linear":
        return f"linear in={spec.in_features} out={spec.out_features}"
    return spec.kind


def _pool_extent(n: int) -> int:
    """Pool window for one axis: halve when possible, else the smallest prime
    factor so the divisibility contract always holds (1 when nothing divides)."""
    if n <= 1:
        return 1
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n  # prime extent: collapse the axis


# the paper's network: its input cuboid, conv filter counts and hidden units
INPUT_SHAPE = (3, 98, 120, 120)
FILTERS = (30, 60, 80)
HIDDEN = 500


def default_architecture(input_shape, filters, hidden: int, *, n_classes: int) -> list[LayerSpec]:
    """Conv/relu/pool blocks, one per filter count, followed by a two-layer
    classifier head: the model's one chain, and the one place its numbers
    are checked. ArchitectureError names the number and its rule unless the
    input is (3, T, S, S) with T, S >= 1, each filter count and `hidden`
    are >= 1, and `n_classes` is >= 2.

    Pool windows adapt to the running extents (see _pool_extent) so such
    numbers always yield a valid chain; at INPUT_SHAPE and FILTERS the temporal
    axis pools 2/7/7 (98 -> 49 -> 7 -> 1) and the spatial axes 2/2/2 (120 -> 15).
    """
    shape = tuple(input_shape)
    if len(shape) != 4 or shape[0] != 3:
        raise ArchitectureError(f"input shape must be (3, T, S, S), got {shape}")
    if shape[2] != shape[3]:
        raise ArchitectureError(f"input frames must be square, got {shape}")
    for name, value, least in [("input frames T", shape[1], 1), ("input size S", shape[2], 1),
                               *(("filters", f, 1) for f in filters),
                               ("hidden units", hidden, 1), ("classes", n_classes, 2)]:
        if value < least:
            raise ArchitectureError(f"{name} must be >= {least}, got {value}")
    c, extents = 3, shape[1:]
    specs: list[LayerSpec] = []
    for f in filters:  # a 3x3x3 conv at pad 1 keeps the extents
        win = tuple(_pool_extent(n) for n in extents)
        specs += [conv3d(c, f, kernel=(3, 3, 3), stride=1, pad=1), relu(), maxpool3d(win)]
        c, extents = f, maxpool3d_out_extents(extents, win)
    return specs + [flatten(), linear(c * math.prod(extents), hidden), relu(),
                    linear(hidden, n_classes)]
