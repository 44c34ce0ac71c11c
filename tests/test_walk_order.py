"""The training walk of `model._forward_full`/`_backward_full` against a frozen
copy of the spec-order walk it replaced.

The model now runs each relu -> maxpool3d pair as maxpool3d -> relu, each
conv3d -> maxpool3d pair as one kernel both ways, and its kernels take one
sample. The reference below keeps the earlier walk:
every layer in spec order, the pool gradient scattered with `np.add.at` into
a flat (N, C, ...) buffer at the winners `oracles.taps_to_winners` makes of
the pool's tap index, and the conv bias gradient as
`grad_out.sum(axis=(0, 2, 3, 4))` on that C-order gradient. Both walks run
each sample of a batch alone. Logits, every parameter gradient and the
inference logits must match the reference byte for byte, also on inputs
where the two orders pick different pool winners (windows whose values are
all <= 0) and on signed zeros, NaN and infinities.
"""

import numpy as np
import pytest

from strokebench import model
from strokebench.errors import TrainingError
from strokebench.nn import ops
from strokebench.nn.layers import default_architecture
from strokebench.nn.optim import NesterovSGD

from oracles import maxpool3d_backward_flat, taps_to_winners

# -- frozen reference ----------------------------------------------------------


def spec_order_step(net, x, upstream):
    """(logits, grads) of the spec-order walk; `upstream(logits)` gives the
    gradient of the loss with respect to the logits."""
    caches = []
    cur = x
    n_conv = n_fc = 0
    for spec in net.specs:
        if spec.kind == "conv3d":
            n_conv += 1
            caches.append((spec, n_conv, cur))
            cur = ops.conv3d_forward(cur, net.params[f"conv{n_conv}.weight"],
                                     net.params[f"conv{n_conv}.bias"], spec.stride, spec.pad)
        elif spec.kind == "maxpool3d":
            in_shape = cur.shape
            cur, taps = ops.maxpool3d(cur, spec.window)
            caches.append((spec, taps, in_shape))
        elif spec.kind == "relu":
            caches.append((spec, cur))
            cur = ops.relu_forward(cur)
        elif spec.kind == "flatten":
            caches.append((spec, cur.shape))
            cur = cur.reshape(cur.shape[0], -1)
        elif spec.kind == "linear":
            n_fc += 1
            caches.append((spec, n_fc, cur))
            cur = ops.linear_forward(cur, net.params[f"fc{n_fc}.weight"],
                                     net.params[f"fc{n_fc}.bias"])
    logits = cur
    grads = {}
    g = upstream(logits)
    for cache in reversed(caches):
        spec = cache[0]
        if spec.kind == "conv3d":
            _, idx, inp = cache
            assert g.flags.c_contiguous
            bias_grad = g.sum(axis=(0, 2, 3, 4))
            weight = net.params[f"conv{idx}.weight"]
            grads[f"conv{idx}.weight"], _ = ops.conv3d_backward(inp, weight, g, spec.stride,
                                                                 spec.pad)
            g = ops.conv3d_input_grad(weight, g, inp.shape, spec.stride, spec.pad)
            grads[f"conv{idx}.bias"] = bias_grad
        elif spec.kind == "maxpool3d":
            _, taps, in_shape = cache
            g = maxpool3d_backward_flat(g, taps_to_winners(taps, in_shape, spec.window),
                                        in_shape)
        elif spec.kind == "relu":
            g = ops.relu_backward(cache[1] > 0, g)
        elif spec.kind == "flatten":
            g = g.reshape(cache[1])
        elif spec.kind == "linear":
            _, idx, inp = cache
            grads[f"fc{idx}.weight"] = ops.linear_weight_grad([(inp, g)])
            g, grads[f"fc{idx}.bias"] = ops.linear_backward(inp, net.params[f"fc{idx}.weight"], g)
    return logits, grads


# -- cases ---------------------------------------------------------------------

DESK = ((3, 16, 32, 32), (8, 16), 64)
# three blocks like the paper's: the temporal axis pools 2/7/7 (98 -> 1)
PAPER_LIKE = ((3, 98, 16, 16), (4, 6, 8), 16)


def _net(shape, filters, hidden, seed=5):
    arch = default_architecture(shape, filters=filters, hidden=hidden, n_classes=2)
    return model.build_model(2, arch, seed=seed, input_shape=shape)


def _loss_gradient(classes):
    """The loss gradient of sample s, whose class is classes[s]."""
    return lambda logits, s: ops.softmax_cross_entropy(logits, int(classes[s]))[1]


def _negative(logits, s):
    """Finite upstream gradients that are all < 0, so that `g * 0` is -0.0:
    row s of those of a batch.

    Finite even where the logits are not: training runs the backward sweep
    only after a finite loss. (A NaN upstream gradient routed through an
    all-<= 0 window lands on the other winner, so the NaN that reaches a
    parameter gradient may carry another sign bit.)
    """
    first = s * logits.size
    return -0.25 - np.abs(np.sin(np.arange(first, first + logits.size,
                                           dtype=logits.dtype))).reshape(logits.shape)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_walks_agree(net, x, upstream):
    """Per sample s of x, the walks agree on that cuboid with the upstream
    gradient `upstream(logits, s)` of its (K,) logits; the reference walks
    the one-sample batch x[s:s+1]."""
    for s in range(len(x)):
        ref_logits, ref_grads = spec_order_step(
            net, x[s:s + 1], lambda logits: upstream(logits[0], s)[None])
        logits, caches = model._forward_full(net, x[s], training=True)
        # -0.0 + v keeps the bytes of every v arithmetic makes, quiet NaNs and
        # signed zeros too, so these sums are the sample's raw gradients; a
        # linear weight's is summed from the one sample's factors
        grads = {name: [] if p.ndim == 2 else np.full_like(p, -0.0)
                 for name, p in net.params.items()}
        model._backward_full(net, caches, upstream(logits, s), grads)
        for name, p in net.params.items():
            if p.ndim == 2:
                grads[name] = ops.linear_weight_grad(grads[name])
        assert _same_bytes(logits, ref_logits[0]), s
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert _same_bytes(grads[name], ref_grads[name]), (s, name)
        assert _same_bytes(model.forward(net, x[s]), ref_logits[0]), s


@pytest.mark.parametrize("batch", [1, 5, 10])
def test_desk_step_matches_spec_order_walk(batch):
    x = np.random.default_rng(batch).random((batch,) + DESK[0], dtype=np.float32)
    _assert_walks_agree(_net(*DESK), x, _loss_gradient(np.arange(batch) % 2))


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_paper_like_step_matches_spec_order_walk(batch):
    net = _net(*PAPER_LIKE)
    assert [s.window for s in net.specs if s.kind == "maxpool3d"] == \
        [(2, 2, 2), (7, 2, 2), (7, 2, 2)]
    x = np.random.default_rng(10 + batch).random((batch,) + PAPER_LIKE[0], dtype=np.float32)
    _assert_walks_agree(net, x, _loss_gradient(np.arange(batch) % 2))


def _edge_case(kind, rng, x, net):
    if kind == "all <= 0 windows":  # every conv1 output is < 0
        net.params["conv1.bias"][:] = -1e3
    elif kind == "some <= 0 windows":  # a mix of windows: some all < 0, some not
        net.params["conv1.bias"][:] = -0.35
    elif kind == "signed zeros":
        x[:] = 0.0
        x[rng.random(x.shape) < 0.5] = -0.0
        x[:, :, ::3] = rng.random(x[:, :, ::3].shape)
    elif kind == "nan":
        x[rng.random(x.shape) < 1e-3] = np.nan
    elif kind == "inf":
        x[0, 1, 2, 3, 4] = np.inf
        x[-1, 2, 5, 6, 7] = -np.inf
    return x


EDGES = ["all <= 0 windows", "some <= 0 windows", "signed zeros", "nan", "inf"]


@pytest.mark.parametrize("kind", EDGES)
@pytest.mark.parametrize("case", [DESK, PAPER_LIKE], ids=["desk", "paper-like"])
def test_edge_inputs_match_spec_order_walk(case, kind):
    rng = np.random.default_rng(len(kind))
    net = _net(*case)
    x = rng.random((3,) + case[0], dtype=np.float32)
    x = _edge_case(kind, rng, x, net)
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_walks_agree(net, x, _negative)


def test_some_windows_pick_other_winners():
    """The mixed case really has windows where the two orders store another
    winner; the bytes above hold there."""
    rng = np.random.default_rng(len("some <= 0 windows"))
    net = _net(*DESK)
    net.params["conv1.bias"][:] = -0.35
    x = rng.random((3,) + DESK[0], dtype=np.float32)
    window = net.specs[2].window
    differ = []
    for s in range(len(x)):
        conv = ops.conv3d_forward(x[s:s + 1], net.params["conv1.weight"],
                                  net.params["conv1.bias"], 1, 1)
        _, raw_taps = ops.maxpool3d(conv, window)
        _, relu_taps = ops.maxpool3d(ops.relu_forward(conv), window)
        differ.append(raw_taps != relu_taps)
    differ = np.concatenate(differ)
    assert 0 < differ.sum() < differ.size


# -- inference pools values only -----------------------------------------------


@pytest.mark.parametrize("kind", ["random"] + EDGES)
def test_inference_pools_without_winners_and_keeps_training_logits(kind, monkeypatch):
    rng = np.random.default_rng(len(kind) + 4)
    net = _net(*DESK)
    x = _edge_case(kind, rng, rng.random((3,) + DESK[0], dtype=np.float32), net)
    calls, seen = [], []
    pool, loss = ops.conv3d_maxpool3d, ops.softmax_cross_entropy

    def pool_spy(x, weight, bias, stride, pad, window, **kwargs):
        pooled, taps = pool(x, weight, bias, stride, pad, window, **kwargs)
        calls.append((kwargs["need_winners"], taps is None))
        return pooled, taps

    def loss_spy(logits, cls):
        seen.append(logits.copy())
        return loss(logits, cls)

    monkeypatch.setattr(ops, "conv3d_maxpool3d", pool_spy)
    monkeypatch.setattr(ops, "softmax_cross_entropy", loss_spy)
    n_pools = sum(spec.kind == "maxpool3d" for spec in net.specs)
    with np.errstate(invalid="ignore", over="ignore"):
        # one-sample inference, the shape training runs the model at
        logits = [model.forward(net, cuboid) for cuboid in x]
        assert calls == [(False, True)] * n_pools * len(x)
        calls.clear()
        opt = NesterovSGD(net.params, 0.01, 0.5, 0.005)
        try:
            model._train_step(net, opt, [(cuboid, n % 2) for n, cuboid in enumerate(x)], "spy")
        except TrainingError:  # a NaN or infinite input stops the step after its forward
            assert kind in ("nan", "inf")
    assert seen and calls == [(True, False)] * n_pools * len(seen)
    for n, training_logits in enumerate(seen):
        assert _same_bytes(logits[n], training_logits), n
