import itertools
import re

import numpy as np
import pytest

from strokebench.errors import ArchitectureError, ShapeError
from strokebench.nn import layers, ops
from strokebench.nn.gradcheck import gradcheck, run_all
from strokebench.nn.layers import (FILTERS, HIDDEN, chain_shapes, conv3d,
                                   default_architecture, flatten, linear, maxpool3d,
                                   param_entries, relu, to_descriptor)


def test_chain_shapes_basic():
    specs = [conv3d(3, 8, (3, 3, 3), 1, 1), relu(), maxpool3d((2, 2, 2)), flatten(),
             linear(8 * 2 * 4 * 4, 5)]
    shapes = chain_shapes(specs, (3, 4, 8, 8))
    assert shapes == [(8, 4, 8, 8), (8, 4, 8, 8), (8, 2, 4, 4), (8 * 2 * 4 * 4,), (5,)]


def test_chain_names_offending_layer():
    specs = [conv3d(3, 8, (3, 3, 3), 1, 1), maxpool3d((2, 2, 2))]
    with pytest.raises(ArchitectureError, match=r"layer 1 \(maxpool3d\)"):
        chain_shapes(specs, (3, 5, 8, 8))


def _chain_matches_kernel(spec, extents, run_kernel):
    """chain_shapes gives the (C, T', H', W') the kernel returns for a one-sample
    one-channel input of `extents`, or raises with the kernel's message.
    Returns whether the kernel rejected the input."""
    try:
        expected = run_kernel(np.zeros((1, 1) + extents, dtype=np.float32)).shape[1:]
    except ShapeError as e:
        with pytest.raises(ArchitectureError, match=re.escape(f"layer 0 ({spec.kind}): {e}")):
            chain_shapes([spec], (1,) + extents)
        return True
    assert chain_shapes([spec], (1,) + extents) == [expected], (spec, extents)
    return False


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_chain_shapes_match_conv_kernel(stride, pad):
    rejected = []
    for kernel in itertools.product((1, 2, 3), repeat=3):
        spec = conv3d(1, 2, kernel, stride, pad)
        weight = np.zeros((2, 1) + kernel, dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        for extents in itertools.product((1, 2, 3), repeat=3):
            rejected.append(_chain_matches_kernel(
                spec, extents, lambda x: ops.conv3d_forward(x, weight, bias, stride, pad)))
    assert any(rejected) == (pad == 0) and not all(rejected)


@pytest.mark.parametrize("window", [(1, 1, 1), (2, 2, 2), (7, 2, 2), (1, 2, 3), (3, 1, 1),
                                    (2, 5, 1)])
def test_chain_shapes_match_pool_kernel(window):
    spec = maxpool3d(window)
    rejected = [_chain_matches_kernel(spec, extents, lambda x: ops.maxpool3d(x, window)[0])
                for extents in itertools.product((2, 3, 5, 7, 14), repeat=3)]
    assert any(rejected) == (window != (1, 1, 1)) and not all(rejected)


@pytest.mark.parametrize("spec, message", [
    (layers.LayerSpec("maxpool3d"), "pool window extents must be >= 1, got (0, 0, 0)"),
    (layers.LayerSpec("conv3d", in_channels=1, out_channels=1, kernel=(1, 1, 1), stride=0),
     "stride must be >= 1 and pad >= 0, got stride=0 pad=0"),
    (layers.LayerSpec("conv3d", in_channels=1, out_channels=1, kernel=(3, 3)),
     "kernel must have 3 extents, got (3, 3)"),
    (layers.LayerSpec("conv3d", in_channels=1, out_channels=1, kernel=()),
     "kernel must have 3 extents, got ()"),
    (layers.LayerSpec("maxpool3d", window=(2, 2)), "pool window must have 3 extents, got (2, 2)"),
], ids=["pool_window", "conv_stride", "kernel_2_extents", "kernel_0_extents", "window_2_extents"])
def test_hand_built_spec_rejected_with_the_kernel_rule(spec, message):
    # a hand-built LayerSpec meets the kernel's own rule in the chain walk
    with pytest.raises(ArchitectureError, match=re.escape(f"layer 0 ({spec.kind}): {message}")):
        chain_shapes([spec], (1, 2, 2, 2))


def test_default_architecture_accepts_canonical_input():
    specs = default_architecture((3, 98, 120, 120), FILTERS, HIDDEN, n_classes=20)
    shapes = chain_shapes(specs, (3, 98, 120, 120))
    assert shapes[-1] == (20,)
    # temporal axis: 98 -> 49 -> 7 -> 1, spatial: 120 -> 60 -> 30 -> 15
    pools = [s for s in specs if s.kind == "maxpool3d"]
    assert [p.window for p in pools] == [(2, 2, 2), (7, 2, 2), (7, 2, 2)]
    convs = [s for s in specs if s.kind == "conv3d"]
    assert [c.out_channels for c in convs] == [30, 60, 80]


def test_default_architecture_reduced():
    specs = default_architecture((3, 16, 32, 32), filters=(8, 16), hidden=64, n_classes=2)
    shapes = chain_shapes(specs, (3, 16, 32, 32))
    assert shapes[-1] == (2,)
    assert [s.window for s in specs if s.kind == "maxpool3d"] == [(2, 2, 2), (2, 2, 2)]


@pytest.mark.parametrize("input_shape, filters, hidden, n_classes, message", [
    ((3, 4, 8, 8), (4,), 8, 1, "classes must be >= 2, got 1"),
    ((1, 4, 8, 8), (4,), 8, 2, "input shape must be (3, T, S, S), got (1, 4, 8, 8)"),
    ((3, 4, 8, 16), (4,), 8, 2, "input frames must be square, got (3, 4, 8, 16)"),
    ((3, 0, 8, 8), (4,), 8, 2, "input frames T must be >= 1, got 0"),
    ((3, 4, 0, 0), (4,), 8, 2, "input size S must be >= 1, got 0"),
    ((3, 4, 8, 8), (4, 0), 8, 2, "filters must be >= 1, got 0"),
    ((3, 4, 8, 8), (4,), 0, 2, "hidden units must be >= 1, got 0"),
], ids=["one_class", "gray", "non_square", "zero_frames", "zero_size", "zero_filters",
        "zero_hidden"])
def test_default_architecture_refuses_numbers_breaking_their_rule(
        input_shape, filters, hidden, n_classes, message):
    """The model's one check: each refusal names the number and its rule."""
    with pytest.raises(ArchitectureError) as refused:
        default_architecture(input_shape, filters, hidden, n_classes=n_classes)
    assert str(refused.value) == message


def test_param_entries_order_and_shapes():
    specs = default_architecture((3, 16, 32, 32), filters=(8, 16), hidden=64, n_classes=2)
    entries = param_entries(specs)
    names = [n for n, _ in entries]
    assert names == ["conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias",
                     "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]
    shapes = dict(entries)
    assert shapes["conv1.weight"] == (8, 3, 3, 3, 3)
    assert shapes["fc2.weight"] == (2, 64)


@pytest.mark.parametrize("spec, text", [
    (conv3d(3, 30, (3, 3, 3), 1, 1), "conv3d in=3 out=30 kernel=3x3x3 stride=1 pad=1"),
    (conv3d(3, 8, kernel=(1, 3, 2), stride=2, pad=0),
     "conv3d in=3 out=8 kernel=1x3x2 stride=2 pad=0"),
    (maxpool3d((7, 2, 2)), "maxpool3d window=7x2x2"),
    (linear(18000, 500), "linear in=18000 out=500"),
    (relu(), "relu"),
    (flatten(), "flatten"),
], ids=["conv3d_default", "conv3d", "maxpool3d", "linear", "relu", "flatten"])
def test_descriptor_text(spec, text):
    """The checkpoint line of each layer; load_checkpoint reads it back
    (tests/test_model.py, TestCheckpoint)."""
    assert to_descriptor(spec) == text


def test_factory_validation():
    # the factories only build; the kernels' extent rules refuse what they make
    for spec, input_shape, message in [
        (conv3d(1, 1, kernel=(0, 3, 3), stride=1, pad=1), (1, 4, 4, 4),
         "kernel extents must be >= 1, got (0, 3, 3)"),
        (maxpool3d((0, 2, 2)), (1, 4, 4, 4), "pool window extents must be >= 1, got (0, 2, 2)"),
    ]:
        with pytest.raises(ArchitectureError, match=re.escape(f"layer 0 ({spec.kind}): {message}")):
            chain_shapes([spec], input_shape)


def test_pool_extent_rules():
    assert layers._pool_extent(98) == 2
    assert layers._pool_extent(49) == 7
    assert layers._pool_extent(7) == 7
    assert layers._pool_extent(1) == 1
    assert layers._pool_extent(15) == 3
    assert layers._pool_extent(13) == 13  # prime: collapse


class TestGradcheck:
    def test_every_kind_below_tolerance(self):
        results = run_all(trials=20, seed=0)
        assert set(results) == {"conv3d", "maxpool3d", "linear", "relu",
                                "softmax_cross_entropy"}
        for kind, err in results.items():
            assert err < 1e-6, (kind, err)

    def test_softmax_meets_tighter_bound(self):
        assert gradcheck("softmax_cross_entropy", trials=20, seed=0) < 1e-8

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="no gradient check"):
            gradcheck("dropout", trials=1, seed=0)

    def test_corrupted_backward_is_detected(self, monkeypatch):
        # negative control: a broken adjoint must push the error over tolerance
        from strokebench.nn import gradcheck as gc, ops

        real = ops.linear_backward

        def broken(x, w, grad_out):
            gx, gb = real(x, w, grad_out)
            return gx * 1.01, gb

        monkeypatch.setattr(ops, "linear_backward", broken)
        assert gc.gradcheck("linear", trials=5, seed=0) > 1e-6
