"""What the benchmark reads of the program, checked in the tier-1 suite.

`perfbench/tracing.py` names each conv call after its weight shape and each
pool call after its input shape, from the model's `specs` (through
`chain_shapes`) and parameter names. The benchmark runs the desk and paper
default models; its smoke test runs outside this suite.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from strokebench import model
from strokebench.nn.layers import FILTERS, HIDDEN, INPUT_SHAPE, default_architecture

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
