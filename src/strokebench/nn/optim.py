"""SGD with Nesterov momentum and L2 weight decay.

Per parameter theta with raw gradient g0 the step is

    g = g0 + weight_decay * theta
    v = momentum * v + g
    theta -= lr * (g + momentum * v)

i.e. decay is folded into the gradient before the velocity update and the
lookahead term g + momentum*v is applied, matching the convention of the
mainstream training frameworks. With momentum = weight_decay = 0 this reduces
exactly to theta -= lr * g0.

Each parameter is updated one block of rows (at most TILE_BYTES, one row
at least) at a time, so the step's temporaries are block-sized; every op is
elementwise, so the blocking changes no byte. The gradients are only read.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError
from .ops import TILE_BYTES, _even_runs


class NesterovSGD:
    def __init__(self, params: dict[str, np.ndarray], lr: float, momentum: float,
                 weight_decay: float):
        if not 0 < lr < math.inf:
            raise ConfigError(f"learning rate must be > 0 and finite, got {lr}")
        if not 0 <= momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        if not 0 <= weight_decay < math.inf:
            raise ConfigError(f"weight decay must be >= 0 and finite, got {weight_decay}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update params in place; velocity tracks each parameter by name."""
        for name, theta in params.items():
            g0 = grads[name]
            v = self.velocity[name]
            if g0.shape != theta.shape or v.shape != theta.shape:
                raise ShapeError(
                    f"{name}: parameter {theta.shape}, gradient {g0.shape} and "
                    f"velocity {v.shape} shapes must agree"
                )
            for a, b in _even_runs(len(theta), TILE_BYTES // max(1, theta[0].nbytes)):
                self._step_block(theta[a:b], g0[a:b], v[a:b])

    def _step_block(self, theta, g0, v) -> None:
        g = g0 + self.weight_decay * theta if self.weight_decay else g0
        v *= self.momentum
        v += g
        theta -= self.lr * (g + self.momentum * v)
