import numpy as np
import pytest

from strokebench.model import TrainConfig
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
