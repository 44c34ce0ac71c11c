"""What the benchmark reads of the program, checked in the tier-1 suite.

`perfbench/tracing.py` names each conv call after its weight shape and each
pool call after its input shape, from the model's `specs` (through
`chain_shapes`) and parameter names. The benchmark runs the desk and paper
default models; its smoke test runs outside this suite, so the tracer is
also run here on a desk model's training step and forward.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

import numpy as np

from strokebench import annotations, frames, metrics, model, synth
from strokebench.nn import ops, optim
from strokebench.nn.layers import FILTERS, HIDDEN, INPUT_SHAPE, default_architecture
from strokebench.nn.optim import NesterovSGD

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("input_shape, filters, hidden", [
    ((3, 16, 32, 32), (8, 16), 64),
    (INPUT_SHAPE, FILTERS, HIDDEN),
], ids=["desk", "paper"])
def test_layer_names_name_every_conv_and_pool(tracing, input_shape, filters, hidden):
    arch = default_architecture(input_shape, filters, hidden, n_classes=2)
    net = model.build_model(2, arch, seed=0, input_shape=input_shape)
    names = tracing.LayerNames(net)
    assert sorted(names.conv.values()) == [f"conv{k}" for k in range(1, len(filters) + 1)]
    assert sorted(names.pool.values()) == [f"pool{k}" for k in range(1, len(filters) + 1)]
    extents = input_shape[1:]
    for k, f in enumerate(filters, 1):
        weight = net.params[f"conv{k}.weight"]
        conv_out = (1, f) + tuple(extents)  # a 3x3x3 conv at pad 1 keeps the extents
        for op in ("conv3d_forward", "conv3d_backward"):
            assert names.of(op, (None, weight)) == f"conv{k}"
        assert names.of("maxpool3d", (SimpleNamespace(shape=conv_out),)) == f"pool{k}"
        assert names.of("maxpool3d_backward", (None, None, conv_out)) == f"pool{k}"
        window = net.specs[3 * k - 1].window
        extents = [e // w for e, w in zip(extents, window)]


def test_tracer_names_each_conv_backward_of_a_step_and_uninstalls(tracing):
    """A traced desk training step and forward: every `nn.ops.conv3d_backward`
    span is named after its conv, the model's walk passing the weight as the
    call's second argument, and uninstalling puts every original back."""
    shape, filters = (3, 16, 32, 32), (8, 16)
    net = model.build_model(2, default_architecture(shape, filters, 64, n_classes=2), seed=0,
                            input_shape=shape)
    owners = (ops, optim.NesterovSGD, frames, model, synth, annotations, metrics)
    before = [dict(vars(owner)) for owner in owners]
    rng = np.random.default_rng(0)
    samples = [(rng.random(shape, dtype=np.float32), n % 2) for n in range(2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ops.conv3d_backward is not before[0]["conv3d_backward"]
        tracer.start(net)
        model._train_step(net, NesterovSGD(net.params, 0.01, 0.5, 0.005), samples, "traced")
        model.forward(net, samples[0][0])
    finally:
        tracer.uninstall()
    backward = [s.name for s in tracer.spans if s.name.startswith("nn.ops.conv3d_backward")]
    assert backward == ["nn.ops.conv3d_backward.conv2", "nn.ops.conv3d_backward.conv1"] * 2
    assert [s.name for s in tracer.spans if s.name.startswith("model.")] == ["model.forward"]
    assert [dict(vars(owner)) for owner in owners] == before
