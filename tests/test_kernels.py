"""conv3d and maxpool3d against frozen copies of the kernels they replaced,
the channel-major gradient layout maxpool3d_backward hands to
conv3d_backward, and the memory bound stated in the `nn.ops` module
docstring.

The references below are the earlier kernels, kept verbatim: conv3d through
a full im2col copy fed to np.tensordot, maxpool3d through a transposed copy
and argmax.

Pooling involves no BLAS call, so it must match its reference byte for byte
on any input. The conv kernels make the same products and sums as im2col
but call BLAS with other matrix shapes, and OpenBLAS picks its kernel (and
thread split) by shape. At the conv layers the desk and paper recipes train
(3x3x3 kernels, stride 1, pad 1, batch 2 and up) the bytes come out equal.
Elsewhere they may not. For example, a batch of one desk sample gives a
per-tap grad_weight product of under 1e6 multiply-adds; on an AVX-512
OpenBLAS build such products can go to a small-matrix kernel, which sums in
another order than the one large im2col product did. There the results are
held to a rounding tolerance.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from strokebench.nn import ops

from oracles import maxpool3d_backward_flat

# -- frozen references ---------------------------------------------------------


def _padded_windows(x, kshape, stride, pad):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, kshape, axis=(2, 3, 4))
    return win[:, :, ::stride, ::stride, ::stride]  # (N,C,T',H',W',kt,kh,kw)


def im2col_conv3d_forward(x, weight, bias, stride=1, pad=0):
    win = _padded_windows(x, weight.shape[2:], stride, pad)
    out = np.tensordot(win, weight, axes=([1, 5, 6, 7], [1, 2, 3, 4]))  # (N,T',H',W',F)
    out = np.moveaxis(out, -1, 1)
    out = out + bias.reshape(1, -1, 1, 1, 1)
    return np.ascontiguousarray(out)


def im2col_conv3d_backward(x, weight, grad_out, stride=1, pad=0):
    to, ho, wo = grad_out.shape[2:]
    win = _padded_windows(x, weight.shape[2:], stride, pad)
    grad_weight = np.tensordot(grad_out, win, axes=([0, 2, 3, 4], [0, 2, 3, 4]))
    grad_bias = grad_out.sum(axis=(0, 2, 3, 4))

    gcols = np.tensordot(grad_out, weight, axes=([1], [0]))  # (N,T',H',W',C,kt,kh,kw)
    gcols = np.moveaxis(gcols, 4, 1)  # (N,C,T',H',W',kt,kh,kw)
    n, c, t, h, w = x.shape
    kt, kh, kw = weight.shape[2:]
    gxp = np.zeros((n, c, t + 2 * pad, h + 2 * pad, w + 2 * pad), dtype=grad_out.dtype)
    for i in range(kt):
        for j in range(kh):
            for k in range(kw):
                gxp[
                    :,
                    :,
                    i : i + stride * (to - 1) + 1 : stride,
                    j : j + stride * (ho - 1) + 1 : stride,
                    k : k + stride * (wo - 1) + 1 : stride,
                ] += gcols[..., i, j, k]
    grad_input = gxp[:, :, pad : pad + t, pad : pad + h, pad : pad + w]
    return np.ascontiguousarray(grad_input), grad_weight, grad_bias


def transpose_maxpool3d(x, window):
    pt, ph, pw = window
    n, c, t, h, w = x.shape
    to, ho, wo = t // pt, h // ph, w // pw
    r = (
        x.reshape(n, c, to, pt, ho, ph, wo, pw)
        .transpose(0, 1, 2, 4, 6, 3, 5, 7)
        .reshape(n, c, to, ho, wo, pt * ph * pw)
    )
    local = r.argmax(axis=-1)
    out = np.take_along_axis(r, local[..., None], axis=-1)[..., 0]

    dt = local // (ph * pw)
    dh = (local // pw) % ph
    dw = local % pw
    tt = np.arange(to).reshape(1, 1, to, 1, 1) * pt + dt
    hh = np.arange(ho).reshape(1, 1, 1, ho, 1) * ph + dh
    ww = np.arange(wo).reshape(1, 1, 1, 1, wo) * pw + dw
    nn = np.arange(n).reshape(n, 1, 1, 1, 1)
    cc = np.arange(c).reshape(1, c, 1, 1, 1)
    winners = (((nn * c + cc) * t + tt) * h + hh) * w + ww
    return np.ascontiguousarray(out), winners.astype(np.int64)


# -- helpers -------------------------------------------------------------------


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _conv_case(rng, dtype, x_shape, filters, kernel=(3, 3, 3), stride=1, pad=1):
    x = rng.standard_normal(x_shape).astype(dtype)
    weight = rng.standard_normal((filters, x_shape[1]) + kernel).astype(dtype)
    bias = rng.standard_normal(filters).astype(dtype)
    out = im2col_conv3d_forward(x, weight, bias, stride, pad)
    grad_out = rng.standard_normal(out.shape).astype(dtype)
    return x, weight, bias, out, grad_out


# -- conv3d --------------------------------------------------------------------

# (name, input shape, filters): the conv layers of the README desk recipe at
# the batch sizes it trains with, and the paper's third conv layer at batch 2
MODEL_LAYERS = [
    ("desk conv1, batch 10", (10, 3, 16, 32, 32), 8),
    ("desk conv2, batch 10", (10, 8, 8, 16, 16), 16),
    ("desk conv1, batch 5", (5, 3, 16, 32, 32), 8),
    ("desk conv2, batch 5", (5, 8, 8, 16, 16), 16),
    ("paper conv3, batch 2", (2, 60, 7, 30, 30), 80),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,x_shape,filters", MODEL_LAYERS[:4])
def test_conv_bit_identical_at_desk_layers(name, x_shape, filters, dtype):
    rng = np.random.default_rng(sum(x_shape) + filters)
    x, weight, bias, out, grad_out = _conv_case(rng, dtype, x_shape, filters)
    assert _same_bytes(ops.conv3d_forward(x, weight, bias, 1, 1), out)
    got = ops.conv3d_backward(x, weight, grad_out, 1, 1)
    ref = im2col_conv3d_backward(x, weight, grad_out, 1, 1)
    for part, g, r in zip(("grad_input", "grad_weight", "grad_bias"), got, ref):
        assert _same_bytes(g, r), f"{name} {part}"


@pytest.mark.parametrize("stride,pad", [(1, 1), (1, 0), (2, 1), (2, 0)])
def test_conv_bit_identical_at_paper_conv3(stride, pad):
    rng = np.random.default_rng(3 + stride + pad)
    _, x_shape, filters = MODEL_LAYERS[4]
    x, weight, bias, out, grad_out = _conv_case(rng, np.float32, x_shape, filters,
                                                stride=stride, pad=pad)
    assert _same_bytes(ops.conv3d_forward(x, weight, bias, stride, pad), out)
    got = ops.conv3d_backward(x, weight, grad_out, stride, pad)
    ref = im2col_conv3d_backward(x, weight, grad_out, stride, pad)
    for g, r in zip(got, ref):
        assert _same_bytes(g, r)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_matches_im2col_at_random_shapes(dtype):
    """Any kernel, stride and padding: equal up to summation-order rounding."""
    tol = 100 * np.finfo(dtype).eps
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, c, f = (int(v) for v in rng.integers(1, 5, 3))
        kernel = tuple(int(v) for v in rng.integers(1, 4, 3))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x_shape = (n, c) + tuple(k + int(rng.integers(0, 9)) for k in kernel)
        x, weight, bias, out, grad_out = _conv_case(rng, dtype, x_shape, f, kernel,
                                                    stride, pad)
        got = (ops.conv3d_forward(x, weight, bias, stride, pad),) + ops.conv3d_backward(
            x, weight, grad_out, stride, pad)
        ref = (out,) + im2col_conv3d_backward(x, weight, grad_out, stride, pad)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert np.abs(g - r).max() <= tol * max(np.abs(r).max(), 1.0)


# -- maxpool3d -----------------------------------------------------------------

WINDOWS = [(2, 2, 2), (1, 2, 3), (3, 1, 1), (7, 2, 2), (1, 1, 1), (2, 5, 1)]


def _pool_input(rng, dtype, window, kind):
    shape = (2, 3) + tuple(p * int(rng.integers(1, 4)) for p in window)
    if kind == "random":
        return rng.standard_normal(shape).astype(dtype)
    if kind == "ties":  # few distinct values, signed zeros among them
        return rng.choice(np.array([-0.0, 0.0, 1.0, 2.0], dtype=dtype), shape)
    x = rng.choice(np.array([-1.0, 0.0, 1.0], dtype=dtype), shape)
    x[rng.random(shape) < 0.2] = np.nan
    x[rng.random(shape) < 0.05] = np.inf
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
@pytest.mark.parametrize("window", WINDOWS)
def test_maxpool_bit_identical(window, kind, dtype):
    rng = np.random.default_rng(sum(window) + len(kind))
    for _ in range(5):
        x = _pool_input(rng, dtype, window, kind)
        out, winners = ops.maxpool3d(x, window)
        ref_out, ref_winners = transpose_maxpool3d(x, window)
        assert _same_bytes(out, ref_out)
        assert _same_bytes(winners, ref_winners)


def test_maxpool_bit_identical_on_strided_input():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 6, 8)).swapaxes(3, 4)
    out, winners = ops.maxpool3d(x, (2, 2, 3))
    ref_out, ref_winners = transpose_maxpool3d(x, (2, 2, 3))
    assert _same_bytes(out, ref_out) and _same_bytes(winners, ref_winners)


# -- channel-major gradients ---------------------------------------------------

# maxpool3d_backward returns an (N, C, ...) view of a (C, N, ...) buffer, and
# conv3d_backward takes that view as grad_out without a copy


def _channel_major(a):
    """The values of `a`, held in a C-order (C, N, ...) buffer, viewed as (N, C, ...)."""
    return np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)


# (input shape, filters): grad_out is (N, filters) + input extents
LAYOUT_CASES = [
    ((1, 3, 16, 32, 32), 8),
    ((2, 60, 7, 30, 30), 80),
    ((5, 3, 16, 32, 32), 8),
    ((10, 3, 16, 32, 32), 8),
    ((10, 8, 8, 16, 16), 16),
]


@pytest.mark.parametrize("x_shape,filters", LAYOUT_CASES)
def test_conv_backward_same_bytes_for_channel_major_grad_out(x_shape, filters):
    rng = np.random.default_rng(sum(x_shape) + filters)
    x, weight, _, _, grad_out = _conv_case(rng, np.float32, x_shape, filters)
    view = _channel_major(grad_out)
    assert not view.flags.c_contiguous or x_shape[0] == 1
    got = ops.conv3d_backward(x, weight, view, 1, 1)
    ref = ops.conv3d_backward(x, weight, grad_out, 1, 1)
    for part, g, r in zip(("grad_input", "grad_weight", "grad_bias"), got, ref):
        assert _same_bytes(g, r), part
    # both keep the sums a reduction over the C-order grad_out makes
    assert _same_bytes(got[2], grad_out.sum(axis=(0, 2, 3, 4)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
@pytest.mark.parametrize("window", WINDOWS)
def test_maxpool_backward_matches_flat_scatter(window, kind, dtype):
    rng = np.random.default_rng(2 * sum(window) + len(kind))
    for n in (1, 2, 5):
        x = _pool_input(rng, dtype, window, kind)
        x = np.concatenate([x] * 3)[:n]
        out, winners = ops.maxpool3d(x, window)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        grad_out[rng.random(out.shape) < 0.2] = -0.0
        got = ops.maxpool3d_backward(grad_out, winners, x.shape)
        assert _same_bytes(got, maxpool3d_backward_flat(grad_out, winners, x.shape))
        assert got.swapaxes(0, 1).flags.c_contiguous


# -- memory bound --------------------------------------------------------------

# x (1,8,32,64,64) float32 is 4.2 MB; a full 3x3x3 im2col copy of it, 113 MB
BOUND_X = (1, 8, 32, 64, 64)
BOUND_FILTERS = 8


def _peak_bytes(fn, *args):
    """tracemalloc peak of one call, above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bound_case():
    x, weight, bias, out, grad_out = _conv_case(np.random.default_rng(8), np.float32,
                                                BOUND_X, BOUND_FILTERS)
    # the bound the ops module docstring states
    bound = 4 * (x.nbytes + out.nbytes) + ops.BLOCK_BYTES
    assert 27 * x.nbytes > max(bound, 100e6)
    return x, weight, bias, grad_out, bound


def test_conv_forward_memory_is_bounded(bound_case):
    x, weight, bias, _, bound = bound_case
    assert _peak_bytes(ops.conv3d_forward, x, weight, bias, 1, 1) < bound


def test_conv_backward_memory_is_bounded(bound_case):
    x, weight, _, grad_out, bound = bound_case
    assert _peak_bytes(ops.conv3d_backward, x, weight, grad_out, 1, 1) < bound


def test_memory_bound_rejects_im2col(bound_case):
    x, weight, bias, grad_out, bound = bound_case
    assert _peak_bytes(im2col_conv3d_forward, x, weight, bias, 1, 1) > bound
    assert _peak_bytes(im2col_conv3d_backward, x, weight, grad_out, 1, 1) > bound
