"""Central-finite-difference verification of every hand-written backward pass.

All checks run in float64. For a layer we fix a random projection R, take the
scalar objective L(inputs) = sum(forward(inputs) * R), compare backward(R)
against elementwise central differences, and report the worst relative error

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12)

over all inputs and trials. The loss is its own scalar objective.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .rng import MASK64

EPS = 1e-5  # central-difference step


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-12)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_grad(f, x: np.ndarray, eps: float) -> np.ndarray:
    """Central differences of scalar-valued f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return g


def _worst(objective, pairs) -> float:
    """Worst relative error of each (analytic gradient, input) pair against
    central differences of `objective` at that input, in order."""
    return max(max_rel_error(a, numeric_grad(objective, x, EPS)) for a, x in pairs)


def _per_sample(check, x, r) -> float:
    """Worst error of `check(x[s:s+1], r[s:s+1])` over the samples of x, the
    one-sample inputs the kernels take, each with its projection (or class)."""
    return max(check(x[s:s + 1], r[s:s + 1]) for s in range(len(x)))


def _check_conv3d(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 3))
    c = int(rng.integers(1, 3))
    f = int(rng.integers(1, 4))
    kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))
    # extents that keep every output extent >= 1
    t = kt + int(rng.integers(0, 3))
    h = kh + int(rng.integers(0, 3))
    w = kw + int(rng.integers(0, 3))
    x = rng.standard_normal((n, c, t, h, w))
    wt = rng.standard_normal((f, c, kt, kh, kw))
    b = rng.standard_normal(f)
    r = rng.standard_normal((n, f) + ops.conv3d_out_extents((t, h, w), (kt, kh, kw), stride, pad))

    def check(xs, rs):
        def objective():
            return float(np.sum(ops.conv3d_forward(xs, wt, b, stride, pad) * rs))

        gw, gb = ops.conv3d_backward(xs, wt, rs, stride, pad)
        gx = ops.conv3d_input_grad(wt, rs, xs.shape, stride, pad)
        return _worst(objective, [(gx, xs), (gw, wt), (gb, b)])

    return _per_sample(check, x, r)


def _check_maxpool3d(rng: np.random.Generator) -> float:
    window = tuple(int(rng.integers(1, 3)) for _ in range(3))
    pt, ph, pw = window
    n, c = 1, int(rng.integers(1, 3))
    to, ho, wo = (int(rng.integers(1, 3)) for _ in range(3))  # windows per axis
    # resample until every window's top two values are well separated, so the
    # finite-difference probe cannot flip a winner
    while True:
        x = rng.standard_normal((n, c, to * pt, ho * ph, wo * pw))
        r = (x.reshape(n, c, to, pt, ho, ph, wo, pw).transpose(0, 1, 2, 4, 6, 3, 5, 7)
             .reshape(-1, pt * ph * pw))
        if r.shape[1] == 1:
            break
        part = np.sort(r, axis=1)
        if np.min(part[:, -1] - part[:, -2]) > 1e3 * EPS:
            break
    out, taps = ops.maxpool3d(x, window)
    g = rng.standard_normal(out.shape)

    def objective():
        return float(np.sum(ops.maxpool3d(x, window)[0] * g))

    gx = ops.maxpool3d_backward(g, taps, x.shape, window)
    return _worst(objective, [(gx, x)])


def _check_linear(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 5))
    fin = int(rng.integers(1, 8))
    fout = int(rng.integers(1, 6))
    x = rng.standard_normal((n, fin))
    w = rng.standard_normal((fout, fin))
    b = rng.standard_normal(fout)
    r = rng.standard_normal((n, fout))

    def check(xs, rs):
        def objective():
            return float(np.sum(ops.linear_forward(xs, w, b) * rs))

        gx, gb = ops.linear_backward(xs, w, rs)
        gw = ops.linear_weight_grad([(xs, rs)])
        return _worst(objective, [(gx, xs), (gw, w), (gb, b)])

    return _per_sample(check, x, r)


def _check_relu(rng: np.random.Generator) -> float:
    # keep |x| well away from the kink at 0
    shape = (2, int(rng.integers(3, 9)))
    x = (rng.uniform(0.05, 1.0, shape)) * rng.choice([-1.0, 1.0], shape)
    r = rng.standard_normal(shape)

    def objective():
        return float(np.sum(ops.relu_forward(x) * r))

    return _worst(objective, [(ops.relu_backward(x > 0, r.copy()), x)])


def _check_softmax_cross_entropy(rng: np.random.Generator) -> float:
    n = int(rng.integers(1, 4))
    k = int(rng.integers(2, 7))
    # bounded logits keep every softmax entry well away from 0, where the
    # relative error of the difference quotient blows up
    logits = rng.uniform(-1.0, 1.0, (n, k))
    classes = rng.integers(0, k, n)

    def check(rows, cls):
        row, c = rows[0], int(cls[0])  # the one (K,) sample the loss takes

        def objective():
            return ops.softmax_cross_entropy(row, c)[0]

        return _worst(objective, [(ops.softmax_cross_entropy(row, c)[1], row)])

    return _per_sample(check, logits, classes)


_CHECKS = {
    "conv3d": _check_conv3d,
    "maxpool3d": _check_maxpool3d,
    "linear": _check_linear,
    "relu": _check_relu,
    "softmax_cross_entropy": _check_softmax_cross_entropy,
}


def gradcheck(kind: str, trials: int, seed: int) -> float:
    """Worst relative error over `trials` random instances of one layer kind."""
    if kind not in _CHECKS:
        raise ValueError(f"no gradient check for kind {kind!r}; know {sorted(_CHECKS)}")
    rng = np.random.default_rng(seed & MASK64)
    return max(_CHECKS[kind](rng) for _ in range(trials))


def run_all(trials: int, seed: int) -> dict[str, float]:
    """Max relative error per layer kind plus the loss, in a fixed order."""
    return {kind: gradcheck(kind, trials=trials, seed=seed) for kind in _CHECKS}
