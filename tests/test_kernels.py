"""conv3d and maxpool3d against frozen copies of the kernels they replaced,
and the memory bounds stated in the `nn.ops` module docstring.

The references below are the earlier kernels, kept verbatim: conv3d through
a full im2col copy fed to np.tensordot, the conv forward through one column
block of up to 32 MB of output frames per GEMM, the conv grad_weight through
one GEMM per kernel tap, maxpool3d through a transposed copy and argmax. The
pool reference returns that argmax, the winning tap of each window, which is
what maxpool3d returns now; `oracles.taps_to_winners` turns it into the
flat winner indices the earlier pool backward scattered to. One reference
is not an earlier kernel: `tile_grad_weight` states the grad_weight sum the
conv backward makes, one GEMM per sample and tile of the documented tile
plan over naive padded windows, summed from zero in tile order.

The kernels take one sample. A case drawn at a batch of N is checked sample
by sample: the kernel on x[s:s+1] against the reference on x[s:s+1].

Pooling involves no BLAS call, so it must match its reference byte for byte
on any input. The conv forward and grad_input make the same products and
sums as im2col but call BLAS with other matrix shapes, and OpenBLAS picks
its kernel (and thread split) by shape. At the conv layers the desk and
paper recipes train (3x3x3 kernels, stride 1, pad 1) the bytes come out
equal. Elsewhere they may not, and the results are held to
a rounding tolerance.

grad_weight sums over the output positions tile by tile, so its last bits
differ from those of one im2col GEMM or of one GEMM per tap. It is held to
the bytes of `tile_grad_weight` at one OpenBLAS thread, the setting the
benchmark and `scripts/step_memory.py` run at; those tests compare in a
child process started with OPENBLAS_NUM_THREADS=1. Against the float64
result a batch's sum of it, as training makes it, is held to be no further
off than the per-tap GEMMs, which stay as the rounding reference.
"""

import ast
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from strokebench import model
from strokebench.errors import ShapeError
from strokebench.nn import ops
from strokebench.nn.layers import default_architecture
from strokebench.nn.optim import NesterovSGD

from oracles import maxpool3d_backward_flat, taps_to_winners

# -- frozen references ---------------------------------------------------------


def _padded_windows(x, kshape, stride, pad):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, kshape, axis=(2, 3, 4))
    return win[:, :, ::stride, ::stride, ::stride]  # (N,C,T',H',W',kt,kh,kw)


def both_halves(x, weight, grad_out, stride, pad, **pool):
    """(grad_input, grad_weight, grad_bias): the weight half of the conv
    backward, then its input half, as the model runs them."""
    grad_weight, grad_bias = ops.conv3d_backward(x, weight, grad_out, stride, pad, **pool)
    return (ops.conv3d_input_grad(weight, grad_out, x.shape, stride, pad, **pool), grad_weight,
            grad_bias)


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


FRAME_BLOCK_BYTES = 32 << 20


def frame_block_conv3d_forward(x, weight, bias, stride=1, pad=0):
    """conv3d_forward before it worked in cache-sized tiles: per sample, one
    GEMM per block of output frames whose columns take up to 32 MB, and the
    bias added to the whole output at the end."""
    to, ho, wo = ops._check_conv(x.shape, weight, stride, pad)
    n = x.shape[0]
    f = weight.shape[0]
    kdim = weight[0].size
    w2 = weight.reshape(f, kdim)
    out = np.empty((n, f, to, ho, wo), dtype=np.result_type(x, weight))
    frames = max(1, FRAME_BLOCK_BYTES // (kdim * ho * wo * x.itemsize))
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    for s in range(n):
        win = sliding_window_view(x[s], weight.shape[2:], axis=(1, 2, 3))
        win = win[:, ::stride, ::stride, ::stride].transpose(0, 4, 5, 6, 1, 2, 3)
        for t0 in range(0, to, frames):
            cols = win[:, :, :, :, t0 : t0 + frames].reshape(kdim, -1)  # copies
            np.matmul(w2, cols, out=out[s, :, t0 : t0 + frames].reshape(f, -1))
            del cols  # so that two blocks never coexist
    out += bias.reshape(1, -1, 1, 1, 1)
    return out


def per_tap_grad_weight(x, weight, grad_out, stride=1, pad=0):
    """conv3d grad_weight as one (F x M) @ (M x C) GEMM per kernel tap,
    M = N*T'*H'*W'."""
    f, c = weight.shape[:2]
    to, ho, wo = grad_out.shape[2:]
    g2 = np.ascontiguousarray(grad_out.swapaxes(0, 1)).reshape(f, -1)
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad), (pad, pad)))
    xp = x.swapaxes(0, 1)
    grad_weight = np.empty(weight.shape, dtype=np.result_type(grad_out, x))
    for i, j, k in np.ndindex(*weight.shape[2:]):
        x_tap = xp[:, :, i : i + stride * (to - 1) + 1 : stride,
                   j : j + stride * (ho - 1) + 1 : stride,
                   k : k + stride * (wo - 1) + 1 : stride]
        grad_weight[:, :, i, j, k] = g2 @ x_tap.reshape(c, -1).T
    return grad_weight


def tile_runs(count, cap):
    """range(count) as the fewest [start, end) runs of at most `cap` items
    (one at least), whose lengths differ by at most one."""
    runs = -(-count // max(1, cap))
    return [(count * i // runs, count * (i + 1) // runs) for i in range(runs)]


def tile_plan(x_shape, kshape, outs, itemsize):
    """The tiles of conv3d's lowering, as [start, end) runs of one sample's
    flat output positions, in order: whole output frames when one frame's
    columns fit in TILE_BYTES, else runs of rows of one frame, frame by
    frame, each split into the fewest runs of lengths that differ by one
    at most. It is written out here, apart from `nn.ops`, so that a change
    to the kernels' plan fails the byte pins."""
    to, ho, wo = outs
    rows = ops.TILE_BYTES // (x_shape[1] * int(np.prod(kshape)) * wo * itemsize)
    if rows >= ho:
        return [(a * ho * wo, b * ho * wo) for a, b in tile_runs(to, rows // ho)]
    return [((t * ho + a) * wo, (t * ho + b) * wo)
            for t in range(to) for a, b in tile_runs(ho, rows)]


def tile_grad_weight(x, weight, grad_out, stride=1, pad=0):
    """conv3d grad_weight as one (F x P) @ (P x C*kt*kh*kw) GEMM per sample
    and tile of P output positions, added into a sum that starts from zero,
    in sample and tile order."""
    n, f = grad_out.shape[:2]
    kdim = weight[0].size
    win = _padded_windows(x, weight.shape[2:], stride, pad)  # (N,C,T',H',W',kt,kh,kw)
    grad_weight = np.zeros((f, kdim), dtype=np.result_type(grad_out, x))
    for s in range(n):
        cols = np.ascontiguousarray(win[s].transpose(0, 4, 5, 6, 1, 2, 3)).reshape(kdim, -1)
        g = grad_out[s].reshape(f, -1)
        for a, b in tile_plan(x.shape, weight.shape[2:], grad_out.shape[2:], x.itemsize):
            grad_weight += g[:, a:b] @ np.ascontiguousarray(cols[:, a:b]).T
    return grad_weight.reshape(weight.shape)


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
    return np.ascontiguousarray(out), local


# -- helpers -------------------------------------------------------------------


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_taps(taps, ref_taps):
    """The tap index equals the reference argmax, as uint8: every window
    here has at most 256 taps."""
    return _same_bytes(taps, ref_taps.astype(np.uint8)) and (taps == ref_taps).all()


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


def grad_weight_other_bytes(seed, dtype, x_shape, filters, kernel, stride, pad):
    """The samples s of the case `_conv_case` draws from `seed` where
    conv3d_backward's grad_weight on x[s:s+1] does not have the bytes of
    tile_grad_weight on x[s:s+1]."""
    x, weight, _, _, grad_out = _conv_case(np.random.default_rng(seed), dtype, x_shape,
                                           filters, kernel, stride, pad)
    return [s for s in range(len(x))
            if not _same_bytes(ops.conv3d_backward(x[s:s + 1], weight, grad_out[s:s + 1],
                                                   stride, pad)[0],
                               tile_grad_weight(x[s:s + 1], weight, grad_out[s:s + 1],
                                                stride, pad))]


def _at_one_blas_thread(func, *args):
    """func(*args) of this module, run in a child with one OpenBLAS thread."""
    here = Path(__file__).resolve().parent
    path = [str(here), str(here.parent / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS="1")
    code = f"import {__name__} as m; print(repr(m.{func.__name__}(*{args!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return ast.literal_eval(out.strip())


def _assert_backward_bytes(name, seed, x, weight, grad_out, stride, pad):
    """Per sample, grad_input and grad_bias have the bytes of im2col, and
    grad_weight those of tile_grad_weight at one OpenBLAS thread (x, weight
    and grad_out are the `_conv_case` of `seed`, at a 3x3x3 kernel)."""
    for s in range(len(x)):
        xs, gs = x[s:s + 1], grad_out[s:s + 1]
        got = both_halves(xs, weight, gs, stride, pad)
        ref = im2col_conv3d_backward(xs, weight, gs, stride, pad)
        assert _same_bytes(got[0], ref[0]), f"{name} sample {s} grad_input"
        assert _same_bytes(got[2], ref[2]), f"{name} sample {s} grad_bias"
    assert _at_one_blas_thread(grad_weight_other_bytes, seed, x.dtype.name, x.shape,
                               weight.shape[0], (3, 3, 3), stride, pad) == [], \
        f"{name} grad_weight"


def _assert_forward_bytes(name, x, weight, bias, stride, pad, reference):
    """Per sample, conv3d_forward has the bytes of `reference`."""
    for s in range(len(x)):
        got = ops.conv3d_forward(x[s:s + 1], weight, bias, stride, pad)
        assert _same_bytes(got, reference(x[s:s + 1], weight, bias, stride, pad)), \
            f"{name} sample {s}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,x_shape,filters", MODEL_LAYERS[:4])
def test_conv_bit_identical_at_desk_layers(name, x_shape, filters, dtype):
    seed = sum(x_shape) + filters
    x, weight, bias, _, grad_out = _conv_case(np.random.default_rng(seed), dtype, x_shape,
                                              filters)
    _assert_forward_bytes(name, x, weight, bias, 1, 1, im2col_conv3d_forward)
    _assert_backward_bytes(name, seed, x, weight, grad_out, 1, 1)


# (name, input shape, filters, stride, pad): paper conv3 at batch 2 with and
# without stride and padding, and paper conv2 on 4 frames, where one output
# frame's col2im columns (11.7 MB) exceed BLOCK_BYTES, so grad_input runs in
# blocks of 20 rows of one frame (3.9 MB each)
PAPER_CASES = [MODEL_LAYERS[4] + sp for sp in [(1, 1), (1, 0), (2, 1), (2, 0)]] + [
    ("paper conv2, batch 1, 4 frames", (1, 30, 4, 60, 60), 60, 1, 1),
    ("paper conv2, batch 2, 4 frames", (2, 30, 4, 60, 60), 60, 1, 1),
]


@pytest.mark.parametrize("name,x_shape,filters,stride,pad", PAPER_CASES)
def test_conv_bit_identical_at_paper_layers(name, x_shape, filters, stride, pad):
    seed = 3 + stride + pad
    x, weight, bias, _, grad_out = _conv_case(np.random.default_rng(seed), np.float32,
                                              x_shape, filters, stride=stride, pad=pad)
    _assert_forward_bytes(name, x, weight, bias, stride, pad, im2col_conv3d_forward)
    _assert_backward_bytes(name, seed, x, weight, grad_out, stride, pad)


def _assert_random_shapes_match_im2col(dtype):
    """Any kernel, stride and padding: equal up to summation-order rounding."""
    tol = 100 * np.finfo(dtype).eps
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, c, f = (int(v) for v in rng.integers(1, 5, 3))
        kernel = tuple(int(v) for v in rng.integers(1, 4, 3))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x_shape = (n, c) + tuple(k + int(rng.integers(0, 9)) for k in kernel)
        x, weight, bias, _, grad_out = _conv_case(rng, dtype, x_shape, f, kernel,
                                                  stride, pad)
        for s in range(n):
            xs, gs = x[s:s + 1], grad_out[s:s + 1]
            got = (ops.conv3d_forward(xs, weight, bias, stride, pad),) + both_halves(
                xs, weight, gs, stride, pad)
            ref = ((im2col_conv3d_forward(xs, weight, bias, stride, pad),)
                   + im2col_conv3d_backward(xs, weight, gs, stride, pad))
            for g, r in zip(got, ref):
                assert g.dtype == r.dtype and g.shape == r.shape
                assert np.abs(g - r).max() <= tol * max(np.abs(r).max(), 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_matches_im2col_at_random_shapes(dtype):
    _assert_random_shapes_match_im2col(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_matches_im2col_in_tiles_and_blocks_of_one_row(dtype, monkeypatch):
    """The same cases with every tile and col2im block one output row: each
    tile refills the input frames it reads, and grad_input walks the rows of
    a frame last first."""
    monkeypatch.setattr(ops, "TILE_BYTES", 1)
    monkeypatch.setattr(ops, "BLOCK_BYTES", 1)
    (_, _, tiles, blocks), = ops._conv_plan(81, 4, (3, 5, 6), 4, None)
    assert tiles == blocks == [(slice(6 * (5 * t + r), 6 * (5 * t + r + 1)), (t, t + 1), (r, r + 1))
                               for t in range(3) for r in range(5)]
    _assert_random_shapes_match_im2col(dtype)


# -- conv3d forward in cache-sized tiles ---------------------------------------

# (name, input shape, filters): every conv layer the workloads and the README
# run. The desk detector classifies one cuboid at a time. At paper conv1 and
# conv2 one frame's columns exceed TILE_BYTES, so tiles are runs of rows (120
# rows in 10 tiles of 12, 60 rows in 30 tiles of 2); a few frames suffice.
TILE_CASES = [
    ("desk conv1, batch 1", (1, 3, 16, 32, 32), 8),
    ("desk conv2, batch 1", (1, 8, 8, 16, 16), 16),
    ("desk conv1, batch 5", (5, 3, 16, 32, 32), 8),
    ("desk conv2, batch 5", (5, 8, 8, 16, 16), 16),
    ("desk conv1, batch 10", (10, 3, 16, 32, 32), 8),
    ("desk conv2, batch 10", (10, 8, 8, 16, 16), 16),
    ("paper conv3, batch 1", (1, 60, 7, 30, 30), 80),
    ("paper conv3, batch 2", (2, 60, 7, 30, 30), 80),
    ("paper conv1, batch 1, 4 frames", (1, 3, 4, 120, 120), 30),
    ("paper conv2, batch 1, 4 frames", (1, 30, 4, 60, 60), 60),
]


@pytest.mark.parametrize("name,x_shape,filters", TILE_CASES)
def test_tiled_forward_bit_identical_to_frame_blocks(name, x_shape, filters):
    """Cutting the GEMM's N axis into equal tiles keeps every byte. A plan
    with a small remainder tile (13-row tiles and a 3-row rest at paper
    conv1) changed the bytes of the rows in the remainder."""
    rng = np.random.default_rng(sum(x_shape) + filters)
    x, weight, bias, _, _ = _conv_case(rng, np.float32, x_shape, filters)
    _assert_forward_bytes(name, x, weight, bias, 1, 1, frame_block_conv3d_forward)


def test_tiles_have_equal_lengths():
    assert ops._even_runs(120, 13) == [(12 * k, 12 * k + 12) for k in range(10)]
    assert ops._even_runs(60, 2) == [(2 * k, 2 * k + 2) for k in range(30)]
    assert [b - a for a, b in ops._even_runs(7, 2)] == [1, 2, 2, 2]
    assert ops._even_runs(5, 0) == [(k, k + 1) for k in range(5)]
    assert ops._even_runs(3, 8) == [(0, 3)]


# -- conv3d grad_weight, one GEMM per sample and tile --------------------------

# (name, input shape, filters, kernel, stride, pad): the MODEL_LAYERS, kernels
# one tap wide, stride 2 without padding, and more channels than filters
WEIGHT_CASES = [(name, x_shape, filters, (3, 3, 3), 1, 1)
                for name, x_shape, filters in MODEL_LAYERS] + [
    ("kernel 1x1x1", (5, 8, 8, 16, 16), 16, (1, 1, 1), 1, 0),
    ("kernel 2x3x1", (5, 8, 8, 16, 16), 16, (2, 3, 1), 1, 1),
    ("paper conv3, stride 2, pad 0", (2, 60, 7, 30, 30), 80, (3, 3, 3), 2, 0),
    ("16 channels, 8 filters", (5, 16, 8, 16, 16), 8, (3, 3, 3), 1, 1),
]


def _weight_seed(x_shape, filters, kernel, stride):
    return sum(x_shape) + filters + sum(kernel) + stride


def _weight_case(dtype, x_shape, filters, kernel, stride, pad):
    rng = np.random.default_rng(_weight_seed(x_shape, filters, kernel, stride))
    return _conv_case(rng, dtype, x_shape, filters, kernel, stride, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,x_shape,filters,kernel,stride,pad", WEIGHT_CASES)
def test_grad_weight_bit_identical_to_tile_gemms(name, x_shape, filters, kernel, stride, pad,
                                                 dtype):
    assert _at_one_blas_thread(grad_weight_other_bytes,
                               _weight_seed(x_shape, filters, kernel, stride),
                               np.dtype(dtype).name, x_shape, filters, kernel, stride,
                               pad) == [], name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 2, 3])
def test_grad_weight_at_small_desk_batches_within_rounding(batch, dtype):
    """The tile sums equal the per-tap GEMMs up to rounding, at desk batch 1
    to 3 too."""
    tol = 100 * np.finfo(dtype).eps
    for x_shape, filters in (((batch, 3, 16, 32, 32), 8), ((batch, 8, 8, 16, 16), 16)):
        x, weight, _, _, grad_out = _weight_case(dtype, x_shape, filters, (3, 3, 3), 1, 1)
        for s in range(batch):
            xs, gs = x[s:s + 1], grad_out[s:s + 1]
            got = ops.conv3d_backward(xs, weight, gs, 1, 1)[0]
            ref = per_tap_grad_weight(xs, weight, gs, 1, 1)
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


# the MODEL_LAYERS, and paper conv1 on 4 frames (10 tiles of 12 rows a frame)
ACCURACY_CASES = MODEL_LAYERS + [("paper conv1, batch 2, 4 frames", (2, 3, 4, 120, 120), 30)]


@pytest.mark.parametrize("name,x_shape,filters", ACCURACY_CASES)
def test_tile_grad_weight_closer_to_float64_than_per_tap_gemms(name, x_shape, filters):
    """A batch's grad_weight, as training sums it (each sample's from
    conv3d_backward, added in sample order into a sum from zero), against
    per-tap GEMMs over the whole batch. Summed over grad_weight's elements,
    its float32 distance from the float64 result is 0.35 to 0.80 times the
    per-tap GEMMs' (these cases, three seeds each). One sample alone does
    not hold this: at desk conv2 its tile sums are 1.4 times as far off as
    its per-tap GEMMs."""
    rng = np.random.default_rng(sum(x_shape) + filters)
    x, weight, _, _, grad_out = _conv_case(rng, np.float32, x_shape, filters)
    exact = per_tap_grad_weight(*(a.astype(np.float64) for a in (x, weight, grad_out)), 1, 1)
    got = np.zeros_like(weight)
    for s in range(len(x)):
        got += ops.conv3d_backward(x[s:s + 1], weight, grad_out[s:s + 1], 1, 1)[0]
    per_tap = per_tap_grad_weight(x, weight, grad_out, 1, 1)
    assert np.abs(got - exact).sum() < np.abs(per_tap - exact).sum(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name,x_shape,filters,kernel,stride,pad", WEIGHT_CASES[::2])
def test_backward_without_grad_input(name, x_shape, filters, kernel, stride, pad, dtype):
    x, weight, _, _, grad_out = _weight_case(dtype, x_shape, filters, kernel, stride, pad)
    for s in range(len(x)):
        xs, gs = x[s:s + 1], grad_out[s:s + 1]
        full = both_halves(xs, weight, gs, stride, pad)
        halves = ops.conv3d_backward(xs, weight, gs, stride, pad)
        # the weight half forms no grad_input, not even an empty stand-in
        assert len(halves) == 2 and all(h.dtype == grad_out.dtype for h in halves)
        grad_weight, grad_bias = halves
        assert _same_bytes(grad_weight, full[1]) and _same_bytes(grad_bias, full[2]), (name, s)
        # the other half, from the input's shape alone
        shape = list(xs.shape)
        assert _same_bytes(ops.conv3d_input_grad(weight, gs, shape, stride, pad), full[0]), name


def test_backward_full_skips_only_the_first_conv_grad_input(monkeypatch):
    """Each conv's backward forms its weight gradient alone
    (conv3d_backward), and every conv but the first then its grad_input
    with conv3d_input_grad, once the conv's input, which its cache held, is
    gone."""
    arch = default_architecture((3, 8, 16, 16), filters=(4, 8, 8), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=3, input_shape=(3, 8, 16, 16))
    x = np.random.default_rng(3).random((2, 3, 8, 16, 16), dtype=np.float32)
    calls, inputs = [], {}

    def weight_spy(x, weight, grad_out, stride=1, pad=0, **kwargs):
        out = orig_weight(x, weight, grad_out, stride, pad, **kwargs)
        calls.append(("weight", weight.shape[:2], len(out)))
        return out

    def input_spy(weight, grad_out, input_shape, stride, pad, **kwargs):
        alive = inputs[weight.shape]() is not None
        out = orig_input(weight, grad_out, input_shape, stride, pad, **kwargs)
        calls.append(("input", weight.shape[:2], alive, out.shape))
        return out

    orig_weight, orig_input = ops.conv3d_backward, ops.conv3d_input_grad
    monkeypatch.setattr(ops, "conv3d_backward", weight_spy)
    monkeypatch.setattr(ops, "conv3d_input_grad", input_spy)
    sums = {name: [] if p.ndim == 2 else np.zeros_like(p) for name, p in net.params.items()}
    for s in range(len(x)):
        logits, caches = model._forward_full(net, x[s], training=True)
        inputs = {net.params[c[1]].shape: weakref.ref(c[-1])
                  for c in caches if c[0].kind == "conv3d"}
        model._backward_full(net, caches, np.ones_like(logits), sums)
    assert calls == [("weight", (8, 8), 2), ("input", (8, 8), False, (1, 8, 2, 4, 4)),
                     ("weight", (8, 4), 2), ("input", (8, 4), False, (1, 4, 4, 8, 8)),
                     ("weight", (4, 3), 2)] * len(x)


def test_backward_full_frees_each_cache_before_the_next_layer(monkeypatch):
    """When conv1's backward runs, pool2's tap index, which conv2's fused
    backward read, is gone."""
    shape = (3, 8, 16, 16)
    arch = default_architecture(shape, filters=(4, 8), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=3, input_shape=shape)
    x = np.ones((2,) + shape, dtype=np.float32)
    alive = []

    def spy(x, weight, *args, **kwargs):
        alive.append(taps() is not None)
        return orig(x, weight, *args, **kwargs)

    orig = ops.conv3d_backward
    monkeypatch.setattr(ops, "conv3d_backward", spy)
    sums = {name: [] if p.ndim == 2 else np.zeros_like(p) for name, p in net.params.items()}
    for s in range(len(x)):
        logits, caches = model._forward_full(net, x[s], training=True)
        conv2 = [c for c in caches if c[0].kind == "conv3d"][1]
        taps = weakref.ref(conv2[4])
        del conv2
        model._backward_full(net, caches, np.ones_like(logits), sums)
    assert alive == [True, False] * len(x)


def test_step_allocates_no_fc1_weight_sized_array_before_a_conv_backward(monkeypatch):
    """From the start of a batch-3 step up to each conv backward, the
    tracemalloc peak stays below the bytes of fc1.weight (4.1 MB, larger
    than all else the step holds at this shape), so no array of its size
    was made: its gradient is summed after the last backward, and has the
    bytes of adding each sample's grad_out.T @ x in sample order into zeros."""
    shape = (3, 8, 16, 16)
    arch = default_architecture(shape, filters=(4, 8), hidden=4000, n_classes=2)
    net = model.build_model(2, arch, seed=3, input_shape=shape)
    fc1 = net.params["fc1.weight"]
    factors, peaks = [], []

    def linear_spy(x, weight, grad_out):
        if weight is fc1:
            factors.append((x.copy(), grad_out.copy()))
        return orig_linear(x, weight, grad_out)

    def conv_spy(x, weight, *args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return orig_conv(x, weight, *args, **kwargs)

    orig_linear, orig_conv = ops.linear_backward, ops.conv3d_backward
    monkeypatch.setattr(ops, "linear_backward", linear_spy)
    monkeypatch.setattr(ops, "conv3d_backward", conv_spy)
    rng = np.random.default_rng(3)
    samples = [(rng.random(shape, dtype=np.float32), n % 2) for n in range(3)]
    tracemalloc.start()
    try:
        _, _, sums, _ = model._summed_gradients(net, samples, "step")
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2 * 3 and max(peaks) < fc1.nbytes
    expected = np.zeros_like(fc1)
    for x, grad_out in factors:
        expected += grad_out.T @ x
    assert len(factors) == 3 and np.any(expected != 0)
    assert sums["fc1.weight"].dtype == fc1.dtype
    assert sums["fc1.weight"].tobytes() == expected.tobytes()


def test_conv2_input_dies_before_its_grad_input(monkeypatch):
    """From the start of a training step to the end of conv2's backward
    (when conv1's starts), the tracemalloc peak stays below conv2's
    grad_input + pool1's tap index + relu1's mask + 1.25 MB for all else
    at the peak: conv2's tile buffers and input frames, its output's
    gradient, pool2's output that fc1 holds, Python objects. The bound has
    no term for conv2's input (relu1's output, 2.1 MB here, the largest
    array the step makes) beside its grad_input of that size.
    While relu1's cache and conv2's both held that input through conv2's
    grad_input, the step peaked at 5.52 MB against this bound of 4.46 MB;
    now it peaks at 4.22 MB, in conv2's weight gradient."""
    monkeypatch.setattr(ops, "TILE_BYTES", 128 << 10)
    monkeypatch.setattr(ops, "BLOCK_BYTES", 128 << 10)
    shape, filters = (3, 32, 64, 64), (32, 2)
    arch = default_architecture(shape, filters=filters, hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=7, input_shape=shape)
    samples = [(np.random.default_rng(7).random(shape, dtype=np.float32), 0)]
    conv1, peaks = net.params["conv1.weight"], []

    def spy(x, weight, *args, **kwargs):
        if weight is conv1:
            peaks.append(tracemalloc.get_traced_memory()[1])
        return orig(x, weight, *args, **kwargs)

    orig = ops.conv3d_backward
    monkeypatch.setattr(ops, "conv3d_backward", spy)
    tracemalloc.start()
    try:
        model._summed_gradients(net, samples, "step")
    finally:
        tracemalloc.stop()
    pooled = filters[0] * 16 * 32 * 32  # elements of pool1's output, conv2's input
    bound = 4 * pooled + pooled + pooled + (1280 << 10)
    assert len(peaks) == 1 and peaks[0] < bound, (peaks, bound)


def test_relu_caches_a_mask_and_its_next_layer_the_relud_array(monkeypatch):
    """After a training forward, every relu cache is the bool mask of its
    output > 0, one byte per element. Each relu ran in place, and the next
    conv or linear layer caches the array it returned (or a flattened view
    of it). No cache holds any other float array but the input cuboid:
    no activation is held twice."""
    shape = (3, 8, 16, 16)
    arch = default_architecture(shape, filters=(4, 8), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=3, input_shape=shape)
    cuboid = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
    relus = []

    def relu_spy(x, out=None):
        relus.append((x, orig(x, out=out)))
        return relus[-1][1]

    orig = ops.relu_forward
    monkeypatch.setattr(ops, "relu_forward", relu_spy)
    _, caches = model._forward_full(net, cuboid, training=True)
    masks = [(i, c[1]) for i, c in enumerate(caches) if c[0].kind == "relu"]
    assert len(masks) == len(relus) == 3
    for (i, mask), (x, out) in zip(masks, relus):
        assert out is x, i
        assert mask.dtype == np.bool_ and np.array_equal(mask, out > 0), i
        nxt = next(c[-1] for c in caches[i + 1:] if c[0].kind in ("conv3d", "linear"))
        assert nxt is out or nxt.base is out, i
    floats = [a for c in caches for a in c[1:]
              if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    owners = [cuboid] + [out for _, out in relus]
    assert sorted(next(k for k, o in enumerate(owners) if np.shares_memory(a, o))
                  for a in floats) == [0, 1, 2, 3]


def test_forward_and_step_leave_the_callers_cuboid():
    """Each relu runs in place on an array a kernel made, never on the
    caller's cuboid: it keeps its bytes through `forward` and a training
    step."""
    shape = (3, 4, 8, 8)
    arch = default_architecture(shape, filters=(4,), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=9, input_shape=shape)
    cuboid = np.random.default_rng(9).standard_normal(shape).astype(np.float32)
    before = cuboid.tobytes()
    model.forward(net, cuboid)
    assert cuboid.tobytes() == before
    opt = NesterovSGD(net.params, lr=0.01, momentum=0.9, weight_decay=0.005)
    model._train_step(net, opt, [(cuboid, 0), (cuboid, 1)], "step")
    assert cuboid.tobytes() == before


def test_forward_makes_no_relu_mask(monkeypatch):
    """In a forward each relu runs in place and makes no mask: from each
    relu's start to the start of the next kernel, the tracemalloc peak
    grows by less than 4 KB. A training forward's grows by each relu's
    mask at least (64 KB for relu1 here), so the measure sees a mask where
    one is made."""
    shape = (3, 16, 64, 64)
    arch = default_architecture(shape, filters=(8, 16), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=4, input_shape=shape)
    x = np.random.default_rng(4).random(shape, dtype=np.float32)
    starts, growth = [], []

    def relu_spy(*args, **kwargs):
        starts.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return orig_relu(*args, **kwargs)

    def next_kernel(kernel):
        def spy(*args, **kwargs):
            if starts:
                growth.append(tracemalloc.get_traced_memory()[1] - starts.pop())
            return kernel(*args, **kwargs)
        return spy

    orig_relu = ops.relu_forward
    monkeypatch.setattr(ops, "relu_forward", relu_spy)
    for name in ("conv3d_maxpool3d", "linear_forward"):
        monkeypatch.setattr(ops, name, next_kernel(getattr(ops, name)))
    tracemalloc.start()
    try:
        model.forward(net, x)
        inference = growth[:]
        growth.clear()
        _, caches = model._forward_full(net, x, training=True)
    finally:
        tracemalloc.stop()
    masks = [c[1].nbytes for c in caches if c[0].kind == "relu"]
    assert len(inference) == len(growth) == len(masks) == 3 and masks[0] == 64 << 10
    assert max(inference) < 4 << 10
    assert all(g >= m for g, m in zip(growth, masks))


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
        for s in range(len(x)):
            out, taps = ops.maxpool3d(x[s:s + 1], window)
            ref_out, ref_taps = transpose_maxpool3d(x[s:s + 1], window)
            assert _same_bytes(out, ref_out)
            assert _same_taps(taps, ref_taps)


def test_maxpool_bit_identical_on_strided_input():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 6, 8)).swapaxes(3, 4)
    for s in range(len(x)):
        out, taps = ops.maxpool3d(x[s:s + 1], (2, 2, 3))
        ref_out, ref_taps = transpose_maxpool3d(x[s:s + 1], (2, 2, 3))
        assert _same_bytes(out, ref_out) and _same_taps(taps, ref_taps)


def test_maxpool_values_only_bit_identical_on_strided_input():
    x = np.random.default_rng(4).standard_normal((2, 3, 4, 6, 8)).swapaxes(3, 4)
    for s in range(len(x)):
        out, taps = ops.maxpool3d(x[s:s + 1], (2, 2, 3), need_winners=False)
        assert taps is None and _same_bytes(out, transpose_maxpool3d(x[s:s + 1], (2, 2, 3))[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
@pytest.mark.parametrize("window", WINDOWS)
def test_maxpool_values_only_bit_identical(window, kind, dtype):
    rng = np.random.default_rng(sum(window) + len(kind))
    for _ in range(5):
        x = _pool_input(rng, dtype, window, kind)
        for s in range(len(x)):
            out, taps = ops.maxpool3d(x[s:s + 1], window, need_winners=False)
            assert taps is None
            assert _same_bytes(out, transpose_maxpool3d(x[s:s + 1], window)[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("zeros", [(-0.0, 0.0), (0.0, -0.0)], ids=["-0 first", "+0 first"])
@pytest.mark.parametrize("need_winners", [True, False])
def test_maxpool_signed_zero_tie_keeps_the_first_zero(zeros, need_winners, dtype):
    # np.maximum may return either zero of a tie; the first tap's zero wins
    first, second = zeros
    x = np.full((1, 1, 2, 2, 2), -1.0, dtype=dtype)
    x[0, 0, 0, 1, 0] = first
    x[0, 0, 1, 0, 1] = second
    for window in [(2, 2, 2), (2, 1, 2), (1, 2, 2)]:
        out = ops.maxpool3d(x, window, need_winners=need_winners)[0]
        ref = transpose_maxpool3d(x, window)[0]
        assert _same_bytes(out, ref), window
    assert np.signbit(ops.maxpool3d(x, (2, 2, 2), need_winners=need_winners)[0]) == \
        np.signbit(dtype(first))


# -- gradients -----------------------------------------------------------------

# (input shape, filters): grad_out is (N, filters) + input extents
BIAS_CASES = [
    ((1, 3, 16, 32, 32), 8),
    ((2, 60, 7, 30, 30), 80),
    ((5, 3, 16, 32, 32), 8),
    ((10, 3, 16, 32, 32), 8),
    ((10, 8, 8, 16, 16), 16),
]


@pytest.mark.parametrize("x_shape,filters", BIAS_CASES)
def test_conv_grad_bias_is_the_c_order_sum(x_shape, filters):
    """grad_bias keeps the sums a reduction over the C-order grad_out makes."""
    rng = np.random.default_rng(sum(x_shape) + filters)
    x, weight, _, _, grad_out = _conv_case(rng, np.float32, x_shape, filters)
    for s in range(len(x)):
        gs = grad_out[s:s + 1]
        got = ops.conv3d_backward(x[s:s + 1], weight, gs, 1, 1)[1]
        assert _same_bytes(got, gs.sum(axis=(0, 2, 3, 4))), s


def test_conv_grad_bias_sums_from_zero():
    """A channel of -0.0 gradients sums to +0.0, as a sum that starts from
    zero does."""
    grad_out = np.full((1, 2, 2, 2, 2), -0.0, dtype=np.float32)
    grad_out[0, 1, 0, 0, 0] = 1.0
    grad_bias = ops.conv3d_backward(np.ones((1, 1, 2, 2, 2), np.float32),
                                    np.ones((2, 1, 1, 1, 1), np.float32), grad_out, 1, 0)[1]
    assert grad_bias.tolist() == [0.0, 1.0] and not np.signbit(grad_bias).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
@pytest.mark.parametrize("window", WINDOWS)
def test_maxpool_backward_matches_flat_scatter(window, kind, dtype):
    rng = np.random.default_rng(2 * sum(window) + len(kind))
    for n in (1, 2, 5):
        x = _pool_input(rng, dtype, window, kind)
        x = np.concatenate([x] * 3)[:n]
        out_shape = x.shape[:2] + ops.maxpool3d_out_extents(x.shape[2:], window)
        grad_out = rng.standard_normal(out_shape).astype(dtype)
        grad_out[rng.random(out_shape) < 0.2] = -0.0
        for s in range(n):
            xs, gs = x[s:s + 1], grad_out[s:s + 1]
            taps = ops.maxpool3d(xs, window)[1]
            got = ops.maxpool3d_backward(gs, taps, xs.shape, window)
            winners = taps_to_winners(taps, xs.shape, window)
            assert _same_bytes(got, maxpool3d_backward_flat(gs, winners, xs.shape))
            assert got.flags.c_contiguous


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


def _tile_frames(x, kt=3, pad=1):
    """Bytes of the kt padded input frames one tile of output rows reads."""
    return x.shape[1] * kt * (x.shape[3] + 2 * pad) * (x.shape[4] + 2 * pad) * x.itemsize


def test_conv_forward_memory_is_bounded(bound_case):
    """Past its output and the padded input frames a tile reads, the forward
    holds one tile's columns, at most TILE_BYTES (the frame-block forward
    held 32 MB)."""
    x, weight, bias, grad_out, _ = bound_case
    limit = grad_out.nbytes + _tile_frames(x) + 2 * ops.TILE_BYTES
    assert _peak_bytes(ops.conv3d_forward, x, weight, bias, 1, 1) < limit
    assert _peak_bytes(frame_block_conv3d_forward, x, weight, bias, 1, 1) > limit


def test_conv_backward_memory_is_bounded(bound_case):
    x, weight, _, grad_out, bound = bound_case
    assert _peak_bytes(both_halves, x, weight, grad_out, 1, 1) < bound


def test_conv_backward_without_grad_input_peaks_lower():
    """The weight half alone skips the grad_input buffers, which set the
    whole backward's peak: the returned grad_input, which col2im adds into
    directly, and one col2im block. The padded gradient and the copy that
    stripped its padding, which took one more input size, are gone."""
    x, weight, _, _, grad_out = _conv_case(np.random.default_rng(8), np.float32, BOUND_X,
                                           BOUND_FILTERS, kernel=(3, 3, 1))
    assert grad_out.flags.c_contiguous  # no copy of grad_out
    skip = _peak_bytes(ops.conv3d_backward, x, weight, grad_out, 1, 1)
    full = _peak_bytes(both_halves, x, weight, grad_out, 1, 1)
    half = _peak_bytes(lambda: ops.conv3d_input_grad(weight, grad_out, x.shape, 1, 1))
    assert skip < full
    # grad_input, one block, the ufunc buffers of its adds (96 KB) and Python objects
    assert max(full, half) < x.nbytes + ops.BLOCK_BYTES + (128 << 10)


def test_conv_backward_without_grad_input_holds_the_frames_of_one_tile(bound_case):
    """Past the padded input frames one tile reads (0.42 MB), the backward
    without grad_input holds only one tile's columns (at most TILE_BYTES),
    the (F, C*kt*kh*kw) sum, which it returns as grad_weight, one GEMM
    output of that size, the returned grad_bias and Python objects: 0.92 MB
    in all. It held one padded sample (4.74 MB) before, and the kernel-row
    block that replaced held kw input sizes, 12.6 MB here."""
    x, weight, _, grad_out, _ = bound_case
    sums = 2 * weight.nbytes + weight.shape[0] * x.itemsize
    peak = _peak_bytes(ops.conv3d_backward, x, weight, grad_out, 1, 1)
    assert peak < _tile_frames(x) + ops.TILE_BYTES + sums + (16 << 10)


def test_memory_bound_rejects_im2col(bound_case):
    x, weight, bias, grad_out, bound = bound_case
    assert _peak_bytes(im2col_conv3d_forward, x, weight, bias, 1, 1) > bound
    assert _peak_bytes(im2col_conv3d_backward, x, weight, grad_out, 1, 1) > bound


# x (1,16,32,128,128) float32 is 34 MB, 8 blocks of BLOCK_BYTES; the int64
# flat winners the pool returned before took 8.4 MB, two blocks
POOL_X = (1, 16, 32, 128, 128)


@pytest.fixture(scope="module")
def pool_case():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(POOL_X, dtype=np.float32)
    pooled, taps = ops.maxpool3d(x, (2, 2, 2))
    assert 8 * taps.size >= 2 * ops.BLOCK_BYTES
    grad_out = rng.standard_normal(pooled.shape, dtype=np.float32)
    return x, pooled, taps, grad_out


def test_maxpool_memory_is_one_block_above_its_result(pool_case):
    x, pooled, taps, _ = pool_case
    assert taps.dtype == np.uint8 and taps.shape == pooled.shape
    peak = _peak_bytes(ops.maxpool3d, x, (2, 2, 2))
    assert peak < pooled.nbytes + pooled.size + ops.BLOCK_BYTES  # one byte per tap


def test_maxpool_backward_memory_is_one_block_above_its_result(pool_case):
    x, _, taps, grad_out = pool_case
    peak = _peak_bytes(ops.maxpool3d_backward, grad_out, taps, x.shape, (2, 2, 2))
    assert peak < x.nbytes + ops.BLOCK_BYTES


def test_linear_weight_gradient_is_one_block_above_its_sum():
    """Summing three samples' (200, 6000) weight gradients holds one block
    of 20 rows (480 KB) besides the sum it returns; linear_backward holds
    only grad_input and grad_bias."""
    rng = np.random.default_rng(17)
    weight = rng.standard_normal((200, 6000), dtype=np.float32)
    factors = [(rng.standard_normal((1, 6000), dtype=np.float32),
                rng.standard_normal((1, 200), dtype=np.float32)) for _ in range(3)]
    peak = _peak_bytes(ops.linear_weight_grad, factors)
    assert peak < weight.nbytes + ops.TILE_BYTES
    x, grad_out = factors[0]
    results = x.nbytes + grad_out.nbytes  # grad_input and grad_bias
    assert _peak_bytes(ops.linear_backward, x, weight, grad_out) < results + 1024


@pytest.mark.parametrize("shape", [(1, 2, 0, 4, 4), (1, 2, 4, 0, 4), (1, 2, 4, 4, 0),
                                   (1, 0, 4, 4, 4)])
def test_maxpool_of_a_zero_extent_is_empty(shape):
    """An extent of zero plans no block (or blocks of empty frames): empty
    results of the right shapes and dtypes."""
    x = np.zeros(shape, dtype=np.float32)
    pooled_shape = shape[:2] + tuple(e // 2 for e in shape[2:])
    pooled, taps = ops.maxpool3d(x, (2, 2, 2))
    assert pooled.shape == taps.shape == pooled_shape
    assert pooled.dtype == np.float32 and taps.dtype == np.uint8
    assert ops.maxpool3d(x, (2, 2, 2), need_winners=False)[0].shape == pooled_shape
    grad = ops.maxpool3d_backward(pooled, taps, shape, (2, 2, 2))
    assert grad.shape == shape and grad.dtype == np.float32


# -- conv3d_maxpool3d: each conv -> pool pair in one kernel ---------------------

# (name, input shape, filters, pool window): every conv -> pool pair the
# workloads run (paper conv1 in 49 pool blocks, conv2 in 7), and paper conv1
# on 4 frames, whose frames have the same tile plan and two pool blocks
FUSED_CASES = [
    ("desk conv1", (1, 3, 16, 32, 32), 8, (2, 2, 2)),
    ("desk conv2", (1, 8, 8, 16, 16), 16, (2, 2, 2)),
    ("paper conv1", (1, 3, 98, 120, 120), 30, (2, 2, 2)),
    ("paper conv2", (1, 30, 49, 60, 60), 60, (7, 2, 2)),
    ("paper conv3", (1, 60, 7, 30, 30), 80, (7, 2, 2)),
    ("paper conv1, 4 frames", (1, 3, 4, 120, 120), 30, (2, 2, 2)),
]
# the inputs of tests/test_walk_order.py's edge cases, made at the conv; the
# whole paper conv1 and conv2 take random inputs only, to keep the suite short
FUSED_EDGES = ["random", "all <= 0 windows", "some <= 0 windows", "signed zeros", "nan", "inf"]
FUSED_RUNS = [(case, kind) for case in FUSED_CASES
              for kind in (FUSED_EDGES[:1] if case[0] in ("paper conv1", "paper conv2")
                           else FUSED_EDGES)]


def _fused_case(x_shape, filters, window, kind, dtype=np.float32):
    rng = np.random.default_rng(sum(x_shape) + filters + len(kind))
    x, weight, bias, _, _ = _conv_case(rng, dtype, x_shape, filters)
    if kind == "all <= 0 windows":
        bias[:] = -1e3
    elif kind == "some <= 0 windows":
        bias[:] = -2.0
    elif kind == "signed zeros":
        x[:] = 0.0
        x[rng.random(x.shape) < 0.5] = -0.0
        bias[::2] = -0.0
    elif kind == "nan":
        x[rng.random(x.shape) < 1e-3] = np.nan
    elif kind == "inf":
        x[0, 0, 1, 2, 3] = np.inf
        x[0, -1, 2, 5, 6] = -np.inf
    out_shape = (1, filters) + ops.maxpool3d_out_extents(x_shape[2:], window)
    grad = rng.standard_normal(out_shape).astype(dtype)
    grad[rng.random(out_shape) < 0.2] = -0.0
    return x, weight, bias, grad


def _assert_fused_bytes(x, weight, bias, window, grad):
    """conv3d_maxpool3d and its backward against conv3d_forward -> maxpool3d
    and maxpool3d_backward -> conv3d_backward and conv3d_input_grad."""
    conv = ops.conv3d_forward(x, weight, bias, 1, 1)
    pooled, taps = ops.maxpool3d(conv, window)
    got, got_taps = ops.conv3d_maxpool3d(x, weight, bias, 1, 1, window)
    assert _same_bytes(got, pooled) and _same_bytes(got_taps, taps)
    values, none = ops.conv3d_maxpool3d(x, weight, bias, 1, 1, window, need_winners=False)
    assert none is None and _same_bytes(values, pooled)
    conv_grad = ops.maxpool3d_backward(grad, taps, conv.shape, window)
    ref = both_halves(x, weight, conv_grad, 1, 1)
    fused = both_halves(x, weight, grad, 1, 1, window=window, taps=got_taps)
    for a, b in zip(fused, ref):
        assert _same_bytes(a, b)


@pytest.mark.parametrize("case,kind", FUSED_RUNS,
                         ids=[f"{case[0]}-{kind}" for case, kind in FUSED_RUNS])
def test_conv_pool_pair_bit_identical(case, kind):
    _, x_shape, filters, window = case
    x, weight, bias, grad = _fused_case(x_shape, filters, window, kind)
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_fused_bytes(x, weight, bias, window, grad)


def _runs(kdim, filters, outs, itemsize, window):
    """The runs of conv output frames that ops._conv_plan holds at a time."""
    return [(t0, t1) for t0, t1, *_ in ops._conv_plan(kdim, filters, outs, itemsize, window)]


def test_paper_conv1_and_conv2_pool_in_several_blocks():
    """The paper cases above cross block seams: one pool block is 2 conv1
    frames (3.5 MB) or 7 conv2 frames (6 MB)."""
    assert _runs(81, 30, (4, 120, 120), 4, (2, 2, 2)) == [(0, 2), (2, 4)]
    assert _runs(81, 30, (98, 120, 120), 4, (2, 2, 2)) == [
        (a, a + 2) for a in range(0, 98, 2)]
    assert _runs(810, 60, (49, 60, 60), 4, (7, 2, 2)) == [
        (a, a + 7) for a in range(0, 49, 7)]


# (name, input shape, filters, window, TILE_BYTES, BLOCK_BYTES, the runs of
# conv output frames): tiles of rows take runs of pool blocks, and tiles of
# whole frames, which a run could split, one run
BLOCK_CASES = [
    ("tiles of rows, a run per frame", (1, 2, 4, 8, 8), 3, (1, 2, 2), 2 * 54 * 8 * 4,
     3 * 64 * 4, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ("tiles of rows, runs of 2 and 4 frames", (1, 3, 10, 12, 12), 5, (2, 2, 2),
     5 * 81 * 12 * 4, 2 * 5 * 2 * 144 * 4, [(0, 2), (2, 6), (6, 10)]),
    ("desk conv1, tiles of whole frames", (1, 3, 16, 32, 32), 8, (2, 2, 2), 512 << 10,
     64 << 10, [(0, 16)]),
]


@pytest.mark.parametrize("kind", FUSED_EDGES)
@pytest.mark.parametrize("name,x_shape,filters,window,tile,block,runs", BLOCK_CASES,
                         ids=[case[0] for case in BLOCK_CASES])
def test_conv_pool_pair_bit_identical_in_several_blocks(name, x_shape, filters, window, tile,
                                                        block, runs, kind, monkeypatch):
    monkeypatch.setattr(ops, "TILE_BYTES", tile)
    monkeypatch.setattr(ops, "BLOCK_BYTES", block)
    kdim = x_shape[1] * 27
    assert _runs(kdim, filters, x_shape[2:], 4, window) == runs
    for dtype in (np.float32, np.float64):
        x, weight, bias, grad = _fused_case(x_shape, filters, window, kind, dtype)
        with np.errstate(invalid="ignore", over="ignore"):
            _assert_fused_bytes(x, weight, bias, window, grad)


def test_conv_pool_pair_refuses_what_its_parts_refuse():
    x = np.zeros((1, 2, 6, 8, 8), np.float32)
    weight = np.zeros((4, 2, 3, 3, 3), np.float32)
    with pytest.raises(ShapeError, match="not divisible by pool window"):
        ops.conv3d_maxpool3d(x, weight, np.zeros(4, np.float32), 1, 1, (4, 2, 2))
    with pytest.raises(ShapeError, match="does not match 4 filters"):
        ops.conv3d_maxpool3d(x, weight, np.zeros(3, np.float32), 1, 1, (2, 2, 2))
    pooled, taps = ops.conv3d_maxpool3d(x, weight, np.zeros(4, np.float32), 1, 1, (2, 2, 2))
    with pytest.raises(ShapeError, match="does not match output"):
        ops.conv3d_backward(x, weight, pooled[:, :, :1], 1, 1, window=(2, 2, 2), taps=taps)


# conv1 of a paper-like chain: 3 channels to 30 filters, a (1, 30, 16, 96, 96)
# float32 output of 17.7 MB, pooled in blocks of at most 4 MB
CONV1_SHAPE, CONV1_FILTERS = (3, 16, 96, 96), (30, 8)


def test_no_conv1_output_in_a_training_step_or_forward():
    """A training step's tracemalloc peak, and a forward's, stay below the
    bytes of conv1's output, so no array of its extent (the output, or its
    gradient) is ever allocated. Both peaked above it when conv1 and pool1
    ran as two kernels."""
    arch = default_architecture(CONV1_SHAPE, filters=CONV1_FILTERS, hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=1, input_shape=CONV1_SHAPE)
    x = np.random.default_rng(1).random(CONV1_SHAPE, dtype=np.float32)
    conv1 = CONV1_FILTERS[0] * int(np.prod(CONV1_SHAPE[1:])) * 4
    assert len(_runs(81, 30, CONV1_SHAPE[1:], 4, (2, 2, 2))) > 4
    assert _peak_bytes(model._summed_gradients, net, [(x, 0)], "step") < conv1
    assert _peak_bytes(model.forward, net, x) < conv1


def test_conv_pool_pair_memory_is_one_run_above_its_results():
    """The bounds the ops docstring states, at paper conv1 on 16 frames: a
    27.6 MB conv output held in 8 runs of 3.46 MB. The forward peaks below
    its pooled values and taps + the padded frames one tile reads + one run
    + 2 * TILE_BYTES (9.36 MB; it uses 9.17 MB), the backward without
    grad_input below those frames + one run + 2 * BLOCK_BYTES (12.4 MB; it
    uses 9.70 MB), both well below the conv output alone."""
    x, weight, bias, _, _ = _conv_case(np.random.default_rng(30), np.float32,
                                       (1, 3, 16, 120, 120), 30)
    runs = _runs(81, 30, (16, 120, 120), 4, (2, 2, 2))
    assert len(runs) == 8
    run = 30 * 2 * 120 * 120 * 4
    frames = _tile_frames(x)
    assert frames == 3 * 3 * 122 * 122 * 4
    pooled, taps = ops.conv3d_maxpool3d(x, weight, bias, 1, 1, (2, 2, 2))
    grad = np.random.default_rng(31).standard_normal(pooled.shape, dtype=np.float32)
    forward = _peak_bytes(ops.conv3d_maxpool3d, x, weight, bias, 1, 1, (2, 2, 2))
    backward = _peak_bytes(lambda: ops.conv3d_backward(x, weight, grad, 1, 1, window=(2, 2, 2),
                                                       taps=taps))
    assert forward < pooled.nbytes + taps.nbytes + frames + run + 2 * ops.TILE_BYTES
    assert backward < frames + run + 2 * ops.BLOCK_BYTES
    assert max(forward, backward) < 8 * run / 2


def test_paper_conv2_holds_no_padded_sample_or_frame_block():
    """Paper conv2 on one (7, 2, 2) pool run, a 6.05 MB conv output. Its
    tiles are runs of 2 rows and its col2im blocks runs of 20 rows, as one
    output frame's col2im columns (11.7 MB) exceed BLOCK_BYTES. The forward
    peaks below its results + the run + the padded frames one tile reads
    (1.38 MB) + 2 * TILE_BYTES (8.75 MB; it uses 8.32 MB), the backward
    below grad_input + the run's gradient + BLOCK_BYTES + the weight-sized
    col2im operand and sum + 128 KB of ufunc buffers and Python objects
    (13.8 MB; it uses 13.5 MB). With a padded sample (4.15 MB) and whole-frame
    col2im blocks they used 11.1 and 21.3 MB."""
    shape, filters, window = (1, 30, 7, 60, 60), 60, (7, 2, 2)
    x, weight, bias, grad = _fused_case(shape, filters, window, "random")
    run = filters * 7 * 60 * 60 * 4
    assert _runs(810, filters, shape[2:], 4, window) == [(0, 7)]
    (_, _, tiles, blocks), = ops._conv_plan(810, filters, shape[2:], 4, window)
    assert {r1 - r0 for _, _, (r0, r1) in tiles} == {2}
    assert [rows for _, _, rows in blocks[:3]] == [(0, 20), (20, 40), (40, 60)]
    pooled, taps = ops.conv3d_maxpool3d(x, weight, bias, 1, 1, window)
    forward = _peak_bytes(ops.conv3d_maxpool3d, x, weight, bias, 1, 1, window)
    backward = _peak_bytes(lambda: both_halves(x, weight, grad, 1, 1, window=window, taps=taps))
    half = _peak_bytes(lambda: ops.conv3d_input_grad(weight, grad, x.shape, 1, 1, window=window,
                                                     taps=taps))
    assert forward < pooled.nbytes + taps.nbytes + run + _tile_frames(x) + 2 * ops.TILE_BYTES
    assert backward < x.nbytes + run + ops.BLOCK_BYTES + 2 * weight.nbytes + (128 << 10)
    # the input half alone: grad_input, the run's gradient, one block and the col2im operand
    assert half < x.nbytes + run + ops.BLOCK_BYTES + weight.nbytes + (128 << 10)


def test_paper_conv2_holds_one_run_gradient_at_a_time():
    """Paper conv2 on two (7, 2, 2) pool runs: each half of its backward
    holds one run's conv output gradient (6.05 MB) at a time. The weight
    half peaks below the padded frames one tile reads + TILE_BYTES + two
    weight sizes + one run + one block of the pool backward that builds a
    run (one pooled frame's flat indices, their int64 copy and origins,
    1.09 MB) + 16 KB (9.45 MB; it uses 9.12 MB). The input half peaks below
    grad_input + one run + BLOCK_BYTES + one weight size + 128 KB (16.6 MB;
    it uses 16.3 MB). While each loop held its run's gradient through the
    next one's build, and the gradient cache built the next run before it
    dropped the last, they used 15.2 and 19.3 MB."""
    shape, filters, window = (1, 30, 14, 60, 60), 60, (7, 2, 2)
    x, weight, bias, grad = _fused_case(shape, filters, window, "random")
    assert _runs(810, filters, shape[2:], 4, window) == [(0, 7), (7, 14)]
    run = filters * 7 * 60 * 60 * 4
    pool_block = 30 * 30 * (filters * (16 + 4) + 8)
    _, taps = ops.conv3d_maxpool3d(x, weight, bias, 1, 1, window)
    weight_half = _peak_bytes(lambda: ops.conv3d_backward(x, weight, grad, 1, 1, window=window,
                                                          taps=taps))
    input_half = _peak_bytes(lambda: ops.conv3d_input_grad(weight, grad, x.shape, 1, 1,
                                                           window=window, taps=taps))
    assert weight_half < (_tile_frames(x) + ops.TILE_BYTES + 2 * weight.nbytes + run
                          + pool_block + (16 << 10))
    assert input_half < x.nbytes + run + ops.BLOCK_BYTES + weight.nbytes + (128 << 10)


def test_conv_input_grad_refuses_what_the_backward_refuses():
    x = np.zeros((1, 2, 4, 8, 8), np.float32)
    weight = np.zeros((4, 2, 3, 3, 3), np.float32)
    pooled, taps = ops.conv3d_maxpool3d(x, weight, np.zeros(4, np.float32), 1, 1, (2, 2, 2))
    with pytest.raises(ShapeError, match="a pool window and its tap index go together"):
        ops.conv3d_input_grad(weight, pooled, x.shape, 1, 1, window=(2, 2, 2))
    with pytest.raises(ShapeError, match="does not match output"):
        ops.conv3d_input_grad(weight, pooled, x.shape, 1, 1)
    with pytest.raises(ShapeError, match="input channels 3 do not match weight channels 2"):
        ops.conv3d_input_grad(weight, pooled, (1, 3, 4, 8, 8), 1, 1, window=(2, 2, 2),
                              taps=taps)
    with pytest.raises(ShapeError, match="one sample"):
        ops.conv3d_input_grad(weight, pooled, (2, 2, 4, 8, 8), 1, 1, window=(2, 2, 2),
                              taps=taps)


def test_conv_backward_refuses_a_window_without_its_taps():
    x = np.zeros((1, 2, 4, 8, 8), np.float32)
    weight = np.zeros((4, 2, 3, 3, 3), np.float32)
    pooled, _ = ops.conv3d_maxpool3d(x, weight, np.zeros(4, np.float32), 1, 1, (2, 2, 2))
    with pytest.raises(ShapeError, match="a pool window and its tap index go together"):
        ops.conv3d_backward(x, weight, pooled, 1, 1, window=(2, 2, 2))


def test_conv_backward_refuses_taps_without_their_window():
    """A tap index alone was ignored: the gradient went through unpooled."""
    x = np.zeros((1, 2, 4, 8, 8), np.float32)
    weight = np.zeros((4, 2, 3, 3, 3), np.float32)
    _, taps = ops.conv3d_maxpool3d(x, weight, np.zeros(4, np.float32), 1, 1, (2, 2, 2))
    grad = np.zeros((1, 4, 4, 8, 8), np.float32)
    with pytest.raises(ShapeError, match="a pool window and its tap index go together"):
        ops.conv3d_backward(x, weight, grad, 1, 1, taps=taps)


def _traced_kernels():
    """The nn.ops names perfbench/tracing.py wraps (its OPS tuple)."""
    tracing = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    for node in ast.parse(tracing.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no OPS tuple in {tracing}")


def test_no_traced_kernel_runs_inside_another(monkeypatch):
    """Every kernel the tracer wraps is a leaf: while one runs, no other
    starts, through a training step and a forward whose fused conv-pool
    pairs run in several pool runs. The tracer's spans would nest otherwise,
    as they did when the fused backward called maxpool3d_backward."""
    monkeypatch.setattr(ops, "TILE_BYTES", 2 * 81 * 16 * 4)  # conv1 tiles of 2 rows
    monkeypatch.setattr(ops, "BLOCK_BYTES", 4 * 2 * 16 * 16 * 4)  # runs of 2 conv1 frames
    shape = (3, 8, 16, 16)
    assert _runs(81, 4, shape[1:], 4, (2, 2, 2)) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    depth, deepest = [0], [0]

    def counted(kernel):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            deepest[0] = max(deepest[0], depth[0])
            try:
                return kernel(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    names = _traced_kernels()
    assert {"conv3d_backward", "maxpool3d_backward"} <= set(names)
    for name in names:
        monkeypatch.setattr(ops, name, counted(getattr(ops, name)))
    arch = default_architecture(shape, filters=(4, 8), hidden=8, n_classes=2)
    net = model.build_model(2, arch, seed=5, input_shape=shape)
    x = np.random.default_rng(5).random(shape, dtype=np.float32)
    opt = NesterovSGD(net.params, lr=0.01, momentum=0.9, weight_decay=0.005)
    model._train_step(net, opt, [(x, 0), (x[:, ::-1].copy(), 1)], "step")
    model.forward(net, x)
    assert deepest == [1]
