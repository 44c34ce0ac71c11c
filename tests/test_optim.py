import tracemalloc

import numpy as np
import pytest

from strokebench.model import TrainConfig
from strokebench.nn import optim
from strokebench.nn.ops import TILE_BYTES
from strokebench.nn.optim import NesterovSGD


def _single(value, dtype=np.float64):
    return {"w": np.array([value], dtype=dtype)}


def test_zero_gradient_is_a_noop():
    params = _single(1.5)
    opt = NesterovSGD(params, lr=0.1, momentum=0.5, weight_decay=0.0)
    opt.step(params, _single(0.0))
    assert params["w"].item() == 1.5
    assert opt.velocity["w"].item() == 0.0


def test_hand_derived_two_step_trace():
    # theta=1, g0=1, mu=0.5, lr=0.1, wd=0: 0.85 after one step, 0.675 after two
    params = _single(1.0)
    opt = NesterovSGD(params, lr=0.1, momentum=0.5, weight_decay=0.0)
    opt.step(params, _single(1.0))
    assert abs(params["w"].item() - 0.85) < 1e-12
    assert abs(opt.velocity["w"].item() - 1.0) < 1e-12
    opt.step(params, _single(1.0))
    assert abs(params["w"].item() - 0.675) < 1e-12
    assert abs(opt.velocity["w"].item() - 1.5) < 1e-12


def test_reduces_to_plain_sgd_without_momentum_and_decay():
    rng = np.random.default_rng(0)
    theta0 = rng.standard_normal(20)
    grads = [rng.standard_normal(20) for _ in range(5)]
    params = {"w": theta0.copy()}
    opt = NesterovSGD(params, lr=0.05, momentum=0.0, weight_decay=0.0)
    manual = theta0.copy()
    for g in grads:
        opt.step(params, {"w": g})
        manual -= 0.05 * g
        assert np.array_equal(params["w"], manual)  # bitwise, not approximate


def test_weight_decay_pulls_toward_zero():
    params = _single(2.0)
    opt = NesterovSGD(params, lr=0.1, momentum=0.0, weight_decay=0.5)
    opt.step(params, _single(0.0))
    # g = 0 + 0.5*2 = 1; theta = 2 - 0.1*1
    assert abs(params["w"].item() - 1.9) < 1e-12


def test_velocity_tracks_parameter_shapes():
    params = {"a": np.zeros((2, 3), dtype=np.float32), "b": np.zeros(5, dtype=np.float32)}
    opt = NesterovSGD(params, lr=0.1, momentum=0.5, weight_decay=0.0)
    assert opt.velocity["a"].shape == (2, 3)
    assert opt.velocity["b"].dtype == np.float32


def test_hyperparameter_validation():
    good = {"lr": 0.1, "momentum": 0.5, "weight_decay": 0.0}
    for bad, message in [({"lr": 0.0}, "learning rate"), ({"lr": float("nan")}, "learning rate"),
                         ({"momentum": 1.0}, "momentum"), ({"weight_decay": -0.1}, "weight decay"),
                         ({"weight_decay": float("inf")}, "weight decay")]:
        with pytest.raises(ValueError, match=message):
            NesterovSGD(_single(0.0), **(good | bad))


def test_default_hyperparameters():
    # the optimizer has no defaults of its own: training passes TrainConfig's
    cfg = TrainConfig()
    opt = NesterovSGD(_single(0.0), cfg.lr, cfg.momentum, cfg.weight_decay)
    assert (opt.lr, opt.momentum, opt.weight_decay) == (1e-4, 0.5, 0.005)


@pytest.mark.parametrize("weight_decay", [0.0, 0.005])
def test_blocked_step_has_the_bytes_of_the_formula(weight_decay, monkeypatch):
    """Three steps in blocks of 2 rows (one filter of a conv weight, 14
    values of a bias) give, byte for byte, the module docstring's formula on
    whole arrays, and leave the gradients as they were."""
    monkeypatch.setattr(optim, "TILE_BYTES", 2 * 7 * 4)
    rng = np.random.default_rng(9)
    shapes = {"fc.weight": (9, 7), "conv.weight": (3, 2, 1, 1, 7), "fc.bias": (225,)}
    params = {k: rng.standard_normal(s, dtype=np.float32) for k, s in shapes.items()}
    params["fc.weight"][0, :3] = [0.0, -0.0, 1e-38]
    theta = {k: v.copy() for k, v in params.items()}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    lr, momentum = 0.01, 0.5
    opt = NesterovSGD(params, lr, momentum, weight_decay)
    for _ in range(3):
        grads = {k: rng.standard_normal(s, dtype=np.float32) for k, s in shapes.items()}
        grads["fc.weight"][1, :2] = [0.0, -0.0]
        given = {k: g.copy() for k, g in grads.items()}
        opt.step(params, grads)
        for k, g0 in grads.items():
            assert g0.tobytes() == given[k].tobytes()
            g = g0 + weight_decay * theta[k] if weight_decay else g0
            velocity[k] = momentum * velocity[k] + g
            theta[k] = theta[k] - lr * (g + momentum * velocity[k])
    for k in shapes:
        assert params[k].dtype == np.float32
        assert params[k].tobytes() == theta[k].tobytes(), k
        assert opt.velocity[k].tobytes() == velocity[k].tobytes(), k


def test_step_temporaries_are_three_blocks():
    """A step on a (200, 6000) float32 weight (4.8 MB) holds at most three
    blocks of 21 rows (504 KB each) of temporaries at a time: g, and the two
    products of the update. On whole arrays it held three weights' worth."""
    rng = np.random.default_rng(10)
    params = {"w": rng.standard_normal((200, 6000), dtype=np.float32)}
    grads = {"w": rng.standard_normal((200, 6000), dtype=np.float32)}
    opt = NesterovSGD(params, 0.01, 0.5, 0.005)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        opt.step(params, grads)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * TILE_BYTES < params["w"].nbytes
