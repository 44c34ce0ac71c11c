"""Dense 3D CNN kernels with hand-written backward passes.

Tensors are C-order numpy arrays, and every op preserves the input dtype
(training runs in float32, gradient checking in float64). The conv and pool
kernels and `linear_backward` take one sample: activations are
(1, C, T, H, W), linear inputs (1, In); any other batch extent is refused
with a ShapeError. `softmax` and `softmax_cross_entropy` take one (K,)
logit vector. A batch runs as one-sample passes (see `model`).
Conv weights are (F, C, kt, kh, kw), linear weights (Out, In).

Memory. No kernel builds a full im2col copy of its input (27x the input for
a 3x3x3 kernel), nor a padded copy of it. `_conv_plan` fixes how both
passes of a conv walk its output: tiles of output positions whose columns
fill one reused buffer of at most `TILE_BYTES` (one output row at least),
lowered from one reused zero-bordered buffer of only the input frames a
tile reads; col2im blocks of grad_input of at most `BLOCK_BYTES` (one
output row at least); and runs of frames, one maxpool3d block each, in
which a conv and the max pool after it, one kernel both ways
(`conv3d_maxpool3d`), hold the conv output and its gradient. The conv
backward has two halves, two kernels. The weight half, `conv3d_backward`,
reads the input and adds one (F, C*kt*kh*kw) sum and one GEMM output of
that size. The input half, `conv3d_input_grad`, takes only the input's
shape, so a caller that holds the input's only reference can drop it in
between, as the model does; it holds the returned grad_input and one
col2im block. `maxpool3d` pools, with no transposed copy,
and `maxpool3d_backward` expands the tap index (each window's winning tap,
one byte per pooled element; inference builds none) to flat int64 indices,
one block of at most `BLOCK_BYTES` at a time. Every block loop, here, in
`optim` and in `model.build_model`, is planned by `_even_runs`: the fewest
runs within the cap (one frame or row at least) whose lengths differ by one
at most.
`linear_backward` forms no weight gradient, only grad_input and grad_bias:
a sample's weight gradient is the outer product of its grad_out and x, so
the caller keeps those factors (74 KB per sample at paper fc1, whose weight
is 36.7 MB), and `linear_weight_grad` sums a batch's products into one
array of the weight's size, one block of rows of at most `TILE_BYTES` at a
time, once the batch's backward passes are done. `relu_forward` runs in
place when given out=x. `relu_backward` takes the bool mask x > 0, one byte
per element (the model caches it instead of relu's output), and multiplies
it into the gradient it is given, in place: its caller owns that gradient
and reads only the result (in the model, it is always the array the next
layer's backward returned).

Bound. `conv_bounds`, `pool_bounds` and `linear_bounds` return what each
kernel's tracemalloc peak above its caller's stays below, in bytes, from the
kernels' own plans (`tests/test_kernels.py` checks them). A conv kernel with
a pool window holds `CONV_OBJECTS` of Python objects at most (without one,
the plan of a large output alone may hold more, as at paper conv1), and
numpy's ufunc buffers (three operands of `np.getbufsize()` values) where it
adds into strided views. The forward holds the largest run of `_conv_plan`
(without a window, the whole output) and with a window its results and the
masks `_pool_block` makes for a run (two bytes and a tap index per pooled
value), the padded input frames `_tile_columns` holds and the largest tile's
columns. The weight half holds those frames and columns and two weight
sizes, and with a window the larger of a channel group's gradient (for
grad_bias) and a run's, each with the `_pool_backward` block that builds it.
The input half holds grad_input, one weight size, with a window a run's
gradient, and the larger of the largest col2im block and the block that
builds the run. `maxpool3d` holds its results and its largest block of
input, `maxpool3d_backward` its result and its largest block,
`linear_weight_grad` its sum, its largest block of rows and 16 KB of Python
objects, `linear_backward` its results and 1 KB, `relu_backward` only its
result.

Numerics. Each output element of the forward and of grad_input is one dot
product over the same reduction axis, in the same order, as in the im2col
formulation, but BLAS is called with other matrix shapes. OpenBLAS picks
its kernel by shape and CPU, so the bytes match im2col at the layer shapes
the model runs on the `SkylakeX` core (as numpy's bundled OpenBLAS names it
through `scipy_openblas_get_corename64_`) and may differ in the last bits
elsewhere: under `OPENBLAS_CORETYPE=HASWELL` the 22 byte-identity cases of
tests/test_kernels.py fail. grad_weight is summed per tile: one GEMM per
tile, added in order into a sum that starts from zero, not one GEMM over
all T'*H'*W' positions. Its last bits therefore differ from im2col's.
Summed over the samples of a batch from zero, as training sums them, and
then over its elements, its distance from the float64 result is smaller
than that of one GEMM per kernel tap over the batch at the model's layer
shapes. One sample alone need not be: at desk conv2 it is further off than
the per-tap GEMMs'.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError

# Upper bound on the columns of one conv3d_forward tile: a quarter of the
# 2 MB L2 cache of one core of the target machine, because OpenBLAS packs a
# second copy of the columns and the tile's output must fit beside them.
TILE_BYTES = 512 << 10

# Upper bound on one block of a streaming kernel: a col2im block of
# conv3d_input_grad (one output row at least), the input of a maxpool3d block
# (one output frame at least), the temporaries of a maxpool3d_backward block
# (one output frame at least). At 4 MB the pooled-size arrays a 2x2x2
# window's passes reread (about a quarter of the block) fit in the 2 MB L2
# cache of one core of the target machine: training pooling of paper
# pool1, (2, 30, 98, 120, 120), took 0.25-0.30 s with 1 to 8 MB blocks, 0.31 s
# with 32 MB and 0.55 s unblocked (one CPU, one BLAS thread, best of 5).
# Col2im time barely depends on the cap, and a freed block raises glibc's mmap
# threshold to its size, so smaller blocks hold less freed heap (BENCH_21.json).
BLOCK_BYTES = 4 << 20

CONV_OBJECTS = 96 << 10  # conv_bounds' allowance for Python objects (see "Bound" above)


def conv3d_out_extents(extents, kernel, stride: int, pad: int) -> tuple[int, int, int]:
    """(T', H', W') of a conv over (T, H, W) `extents`; ShapeError unless the
    kernel has 3 extents, each >= 1, stride >= 1, pad >= 0 and each output
    extent is >= 1."""
    if len(kernel) != 3:
        raise ShapeError(f"kernel must have 3 extents, got {kernel}")
    if min(kernel) < 1:
        raise ShapeError(f"kernel extents must be >= 1, got {kernel}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"stride must be >= 1 and pad >= 0, got stride={stride} pad={pad}")
    outs = tuple((e + 2 * pad - k) // stride + 1 for e, k in zip(extents, kernel))
    if min(outs) < 1:
        raise ShapeError(f"kernel {kernel} with stride={stride} pad={pad} does not fit "
                         f"input extents {extents}")
    return outs


def maxpool3d_out_extents(extents, window) -> tuple[int, int, int]:
    """(T', H', W') of a pool over (T, H, W) `extents`; ShapeError unless the
    window has 3 extents, each >= 1, that divide the input's."""
    if len(window) != 3:
        raise ShapeError(f"pool window must have 3 extents, got {window}")
    if min(window) < 1:
        raise ShapeError(f"pool window extents must be >= 1, got {window}")
    if any(e % p for e, p in zip(extents, window)):
        raise ShapeError(f"extents {extents} not divisible by pool window {window}")
    return tuple(e // p for e, p in zip(extents, window))


def _check_one_sample(op, shape):
    if len(shape) != 5 or shape[0] != 1:
        raise ShapeError(f"{op} takes one sample of shape (1,C,T,H,W), got shape {tuple(shape)}")


def _check_conv(shape, weight, stride, pad):
    _check_one_sample("conv3d", shape)
    if weight.ndim != 5:
        raise ShapeError(f"conv3d weight must be 5-d (F,C,kt,kh,kw), got shape {weight.shape}")
    if shape[1] != weight.shape[1]:
        raise ShapeError(
            f"input channels {shape[1]} do not match weight channels {weight.shape[1]}"
        )
    return conv3d_out_extents(shape[2:], weight.shape[2:], stride, pad)


def _even_runs(count, cap):
    """range(count) as the fewest [start, end) runs of at most `cap` items
    (one at least), whose lengths differ by at most one."""
    runs = -(-count // max(1, cap))
    return [(count * i // runs, count * (i + 1) // runs) for i in range(runs)]


def _longest(runs):
    """The length of the longest [start, end) run of `runs` (0 for none)."""
    return max((b - a for a, b, *_ in runs), default=0)


def _pool_blocks(frames, frame_input):
    """maxpool3d's blocks of `frames` pooled frames, `frame_input` bytes of input each."""
    return _even_runs(frames, BLOCK_BYTES // max(1, frame_input))


def _conv_plan(kdim, f, outs, itemsize, window):
    """How both passes of a conv with C*kt*kh*kw = `kdim`, `f` filters and
    output extents `outs` walk its output, with the pool `window` after it
    (None for none): a list of runs (t0, t1, tiles, blocks). The conv output
    is held one run of frames [t0, t1) at a time: a maxpool3d block when the
    tiles are runs of rows and there is a window, else all frames, as a tile
    of whole frames may cross a block's end. `tiles` cut the run into the
    parts whose columns the forward and grad_weight lower (at most
    TILE_BYTES), `blocks` into grad_input's col2im blocks (at most
    BLOCK_BYTES). Either holds whole output frames when one frame's columns
    fit in its cap, else a run of rows of one frame; the frames, or each
    frame's rows, are split into the fewest such parts, so that no GEMM is a
    small remainder (which OpenBLAS may run with another kernel). Each part
    is (positions, frames, rows): its flat T'*H'*W' positions from frame t0,
    and its [start, end) frames from t0 and rows."""
    to, ho, wo = outs
    frame = ho * wo  # output positions per frame
    row = kdim * wo * itemsize  # bytes of one output row's columns

    def parts(n, cap):  # the parts of a run of n frames
        rows = cap // row
        if rows >= ho:
            return [(slice(a * frame, b * frame), (a, b), (0, ho))
                    for a, b in _even_runs(n, rows // ho)]
        return [(slice(i * frame + a * wo, i * frame + b * wo), (i, i + 1), (a, b))
                for i in range(n) for a, b in _even_runs(ho, rows)]

    runs = [(0, to)] if TILE_BYTES // row >= ho or window is None else [
        (a * window[0], b * window[0])
        for a, b in _pool_blocks(to // window[0], f * window[0] * frame * itemsize)]
    # shared by the runs of each length
    cuts = {n: (parts(n, TILE_BYTES), parts(n, BLOCK_BYTES)) for n in {b - a for a, b in runs}}
    return [(t0, t1) + cuts[t1 - t0] for t0, t1 in runs]


def _tile_buffers(runs, wo, kt, stride):
    """The (frames, rows) of each tile of the _conv_plan `runs`, the output positions
    of the largest, and the padded input frames the tile of the most frames reads."""
    shapes = {(f1 - f0, r1 - r0) for _, (f0, f1), (r0, r1) in runs[0][2]}
    return shapes, wo * max(n * r for n, r in shapes), (max(n for n, _ in shapes) - 1) * stride + kt


def _tile_columns(x, kshape, stride: int, pad: int, outs, runs):
    """columns(t0, frames, rows): for the unpadded one-sample input `x`, the
    (C*kt*kh*kw, positions) columns of a tile of the _conv_plan run from
    frame t0, lowered into one buffer that the next tile overwrites. They
    are lowered from a zero-bordered copy of only the input frames the tile
    reads, (frames - 1) * stride + kt of them, which the next tile refills
    only if it reads other frames."""
    c, t = x.shape[1:3]
    kdim, wo = c * math.prod(kshape), outs[2]
    shapes, positions, held = _tile_buffers(runs, wo, kshape[0], stride)
    cols = np.empty(kdim * positions, dtype=x.dtype)
    # per tile shape: the column buffer as the tile's windows and as the GEMM operand
    lowered = {(n, r): (cols[: kdim * wo * n * r].reshape((c,) + kshape + (n, r, wo)),
                        cols[: kdim * wo * n * r].reshape(kdim, -1)) for n, r in shapes}
    padded = np.zeros((c, held) + tuple(e + 2 * pad for e in x.shape[3:]), dtype=x.dtype)
    inside = (slice(pad, pad + x.shape[3]), slice(pad, pad + x.shape[4]))
    win = sliding_window_view(padded, kshape, axis=(1, 2, 3))
    # (C,kt,kh,kw | frames, rows, columns) windows over the held frames
    win = win[:, ::stride, ::stride, ::stride].transpose(0, 4, 5, 6, 1, 2, 3)
    filled = None  # (first output frame, frames) of the held input

    def columns(t0, frames, rows):
        nonlocal filled
        n = frames[1] - frames[0]
        if filled != (t0 + frames[0], n):
            filled = (t0 + frames[0], n)
            s = (t0 + frames[0]) * stride - pad  # the input frame held first
            a = max(s, 0)
            b = max(a, min(s + (n - 1) * stride + kshape[0], t))
            padded[:, : a - s] = 0
            padded[:, b - s :] = 0
            padded[(slice(None), slice(a - s, b - s)) + inside] = x[0, :, a:b]
        windows, matrix = lowered[n, rows[1] - rows[0]]
        np.copyto(windows, win[:, :, :, :, :n, rows[0] : rows[1]])
        return matrix
    return columns


def conv3d_forward(x, weight, bias, stride: int, pad: int):
    """Cross-correlation over (T,H,W), zero-padded: conv3d_maxpool3d, no pool."""
    return conv3d_maxpool3d(x, weight, bias, stride, pad, None)[0]


def conv3d_maxpool3d(x, weight, bias, stride: int, pad: int, window, *, need_winners=True):
    """maxpool3d(conv3d_forward(x, weight, bias, stride, pad), window,
    need_winners=need_winners); with window None, (the (1,F,T',H',W') conv
    output, None). Per tile of output positions (see _conv_plan): one GEMM
    of the tile's columns writing straight into the output, then the bias
    added to the tile while it is still in cache. Only the GEMM's N axis is
    cut, so each output element is the same dot product as in one GEMM over
    all positions. Each run is pooled as maxpool3d pools a block.
    """
    outs = _check_conv(x.shape, weight, stride, pad)
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {weight.shape[0]} filters")
    f = weight.shape[0]
    w2 = weight.reshape(f, -1)
    runs = _conv_plan(w2.shape[1], f, outs, x.itemsize, window)
    out = np.empty((1, f, _longest(runs)) + outs[1:], np.result_type(x, weight))
    pooled = out if window is None else np.empty((1, f) + maxpool3d_out_extents(outs, window),
                                                 dtype=out.dtype)
    taps = (np.zeros(pooled.shape, dtype=_tap_dtype(window))
            if window is not None and need_winners else None)
    column_bias, flat = bias.reshape(f, 1), out.reshape(f, -1)
    columns = _tile_columns(x, weight.shape[2:], stride, pad, outs, runs)
    for t0, t1, tiles, _ in runs:
        for positions, frames, rows in tiles:
            dst = flat[:, positions]
            np.matmul(w2, columns(t0, frames, rows), out=dst)
            dst += column_bias
        if window is not None:
            p = slice(t0 // window[0], t1 // window[0])
            _pool_block(out[0, :, : t1 - t0], window, pooled[0, :, p],
                        None if taps is None else taps[0, :, p])
    return pooled, taps


def _check_backward(input_shape, weight, grad_out, stride, pad, window, taps):
    """The conv output extents of a backward from grad_out, checked as
    conv3d_backward and conv3d_input_grad check their arguments."""
    outs = _check_conv(input_shape, weight, stride, pad)
    expected = (1, weight.shape[0]) + (outs if window is None else
                                       maxpool3d_out_extents(outs, window))
    if grad_out.shape != expected:
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match output {expected}")
    if (window is None) != (taps is None):
        raise ShapeError(f"a pool window and its tap index go together, got window {window} "
                         f"and {'no' if taps is None else 'a'} tap index")
    if window is not None and taps.shape != expected:
        raise ShapeError(f"tap index shape {taps.shape} does not match output {expected}")
    return outs


def _conv_grads(grad_out, window, taps, outs):
    """conv_grad(c0, c1, t0, t1): the gradient of the conv output's channels
    [c0, c1) and frames [t0, t1), flat, from the gradient `grad_out` of the
    (pooled) output, through the pool's backward at `taps` with a `window`.
    It keeps the last one it built, and drops it before it builds another,
    so that two never coexist unless its caller holds one."""
    ho, wo = outs[1:]
    held = {}  # built once where one run and one group hold it all

    def conv_grad(c0, c1, t0, t1):
        key = (c0, c1, t0, t1)
        if key not in held:
            held.clear()
            if window is None:
                held[key] = grad_out[0, c0:c1, t0:t1].reshape(c1 - c0, -1)
            else:
                p = slice(t0 // window[0], t1 // window[0])
                held[key] = _pool_backward(grad_out[:, c0:c1, p], taps[:, c0:c1, p],
                                           (1, c1 - c0, t1 - t0, ho, wo),
                                           window).reshape(c1 - c0, -1)
        return held[key]
    return conv_grad


def _channel_groups(f, outs, itemsize):
    """conv3d_backward's groups of the `f` channels of an `outs` gradient, within BLOCK_BYTES."""
    return _even_runs(f, BLOCK_BYTES // (math.prod(outs) * itemsize))


def conv3d_backward(x, weight, grad_out, stride: int, pad: int, *, window=None, taps=None):
    """The weight half of the adjoints of conv3d_forward, or with a `window`
    of conv3d_maxpool3d at its tap index `taps`, for the gradient `grad_out`
    of the (pooled) output: (grad_weight, grad_bias). grad_input is
    conv3d_input_grad's. The conv output's gradient is built one run of
    _conv_plan at a time, and for grad_bias in groups of whole channels
    within BLOCK_BYTES (one at least): each sums its C-order row.

    grad_weight: per tile of _conv_plan, the tile lowered as the forward
    lowers it and one GEMM, the tile's gradient (F x positions) times its
    columns transposed, added in tile order into one (F, C*kt*kh*kw) sum
    that starts from zero.
    """
    outs = _check_backward(x.shape, weight, grad_out, stride, pad, window, taps)
    c = x.shape[1]
    f = weight.shape[0]
    kshape = weight.shape[2:]
    to = outs[0]
    conv_grad = _conv_grads(grad_out, window, taps, outs)

    groups = _channel_groups(f, outs, grad_out.itemsize)
    # a sum from zero: a channel of -0.0 gradients gives +0.0
    grad_bias = np.concatenate([conv_grad(c0, c1, 0, to).sum(axis=1) for c0, c1 in groups]) + 0.0

    runs = _conv_plan(c * math.prod(kshape), f, outs, x.itemsize, window)
    grad_weight = np.zeros((f, weight[0].size), dtype=np.result_type(grad_out, x))
    prod = np.empty_like(grad_weight)
    conv_grad(0, f, *runs[0][:2])  # cached; built first, so it never peaks beside the columns
    columns = _tile_columns(x, kshape, stride, pad, outs, runs)
    for t0, t1, tiles, _ in runs:
        g2 = conv_grad(0, f, t0, t1)
        for positions, frames, rows in tiles:
            np.matmul(g2[:, positions], columns(t0, frames, rows).T, out=prod)
            grad_weight += prod
        del g2  # so that two runs' gradients never coexist
    return grad_weight.reshape(weight.shape), grad_bias


def conv3d_input_grad(weight, grad_out, input_shape, stride: int, pad: int, *, window=None,
                      taps=None):
    """The input half of the adjoints of conv3d_forward: grad_input for an
    input of `input_shape`, which it does not read, so a caller may drop the
    input once conv3d_backward has formed grad_weight.

    Per col2im block of _conv_plan, one GEMM gives every tap's contribution
    (in (kt,kh,kw,C | frames, rows, W') layout), added straight into
    grad_input where the tap meets the input (see _axis_parts). Runs and
    blocks go last frame first, and last row first within a frame: a lower
    tap reads a later output frame or row, so each input element still
    receives its contributions in tap order. Each block adds its taps into
    a view of the input frames they reach.
    """
    input_shape = tuple(input_shape)
    outs = _check_backward(input_shape, weight, grad_out, stride, pad, window, taps)
    c, t, h, w = input_shape[1:]
    f, (kt, kh, kw) = weight.shape[0], weight.shape[2:]
    wo = outs[2]
    conv_grad = _conv_grads(grad_out, window, taps, outs)
    runs = _conv_plan(c * kt * kh * kw, f, outs, np.result_type(weight, grad_out).itemsize,
                      window)
    grad_input = np.zeros(input_shape, dtype=grad_out.dtype)
    w2 = np.ascontiguousarray(weight.transpose(2, 3, 4, 1, 0)).reshape(-1, f)
    col_parts = _axis_parts(kw, stride, pad, w, (0, wo), 0)
    for t0, t1, _, blocks in reversed(runs):
        g2 = conv_grad(0, f, t0, t1)
        for positions, (f0, f1), rows in reversed(blocks):
            a, b = t0 + f0, t0 + f1
            # the input frames the block's taps reach, padding included
            s, e = a * stride - pad, (b - 1) * stride + kt - pad
            frame_parts = _axis_parts(kt, stride, pad, t, (a, b), max(s, 0))
            row_parts = _axis_parts(kh, stride, pad, h, rows, 0)
            held = grad_input[0, :, max(s, 0) : min(e, t)]
            cols = (w2 @ g2[:, positions]).reshape(kt, kh, kw, c, b - a, rows[1] - rows[0], wo)
            for i, out_t, in_t in frame_parts:
                for j, out_h, in_h in row_parts:
                    for k, out_w, in_w in col_parts:
                        held[:, in_t, in_h, in_w] += cols[i, j, k, :, out_t, out_h, out_w]
            del cols  # so that two blocks never coexist
        del g2  # so that two runs' gradients never coexist
    return grad_input


def _axis_parts(kernel, stride, pad, extent, span, first):
    """Where each kernel offset along one axis meets the unpadded input of
    `extent`, for the output positions [a, b) of `span`: in order, each
    offset that meets it for one of them at least, with the slice of the
    positions it meets counted from a and the input slice they read counted
    from index `first`."""
    a, b = span
    parts = []
    for offset in range(kernel):
        # output positions o with 0 <= offset + stride*o - pad < extent
        lo = min(b, max(a, -((offset - pad) // stride)))
        hi = max(lo, min(b, (extent - 1 + pad - offset) // stride + 1))
        if lo < hi:
            start = offset + stride * lo - pad - first
            parts.append((offset, slice(lo - a, hi - a),
                          slice(start, start + stride * (hi - lo), stride)))
    return parts


def _tap_dtype(window):
    """The smallest unsigned dtype that holds every tap index of a `window`."""
    return np.min_scalar_type(math.prod(window) - 1)


def _pool_block(x, window, peak, local):
    """The max over each window of the (C, T, H, W) frames `x` into `peak`, and
    unless `local` is None each window's winning tap into `local` (zeros on entry)."""
    r = x.reshape(x.shape[:1] + sum(((e // p, p) for e, p in zip(x.shape[1:], window)), ()))
    views = [r[:, :, i, :, j, :, k] for i, j, k in np.ndindex(*window)]
    np.copyto(peak, views[0])
    for v in views[1:]:
        np.maximum(peak, v, out=peak)  # keeps the first NaN, payload included
    # np.maximum(-0.0, +0.0) may give either zero, and the winner is the
    # first zero tap: set it last
    zero = peak == 0
    if zero.any():
        for v in reversed(views):
            np.copyto(peak, v, where=zero & (v == 0))
    del zero  # so that it never coexists with the tap index temporaries
    if local is None:
        return
    has_nan = bool(np.isnan(peak).any())
    for idx in reversed(range(len(views))):  # the lowest matching tap is set last
        hit = views[idx] == peak
        if has_nan:
            hit |= np.isnan(views[idx])
        # local = idx where hit; unsigned wrap-around makes this exact
        step = np.subtract(idx, local, dtype=local.dtype)
        step *= hit
        local += step


def maxpool3d(x, window, *, need_winners: bool = True):
    """Non-overlapping max pooling.

    Returns (pooled, taps) where taps holds, per output element, the index in
    (dt, dh, dw) window order of the winning tap: the first maximum, or the
    first NaN if the window has one, as argmax picks. Its dtype is the
    smallest unsigned type that holds every tap index (uint8 up to 256 taps).
    Input extents must be divisible by the window. With need_winners=False
    no index is computed and None stands in its place (for inference, which
    runs no backward); the pooled values keep their bytes.
    """
    _check_one_sample("maxpool3d", x.shape)
    pt = window[0]
    pooled = np.empty(x.shape[:2] + maxpool3d_out_extents(x.shape[2:], window), dtype=x.dtype)
    local = np.zeros(pooled.shape, dtype=_tap_dtype(window)) if need_winners else None
    for t0, t1 in _pool_blocks(pooled.shape[2], x[0, :, :pt].nbytes):
        _pool_block(x[0, :, t0 * pt : t1 * pt], window, pooled[0, :, t0:t1],
                    None if local is None else local[0, :, t0:t1])
    return pooled, local


def maxpool3d_backward(grad_out, taps, input_shape, window):
    """Route each upstream gradient element to its window's winning tap,
    zeros elsewhere."""
    _check_one_sample("maxpool3d_backward", input_shape)
    c = input_shape[1]
    expected = (1, c) + maxpool3d_out_extents(input_shape[2:], window)
    if grad_out.shape != expected or taps.shape != expected:
        raise ShapeError(f"grad_out shape {grad_out.shape} and tap index shape {taps.shape} "
                         f"must both be {expected}")
    return _pool_backward(grad_out, taps, input_shape, window)


def _pool_backward_plan(c, outs, itemsize):
    """_pool_backward's blocks of an `outs` gradient of `c` channels, and what it holds
    for the largest: per pooled frame, the flat index, the int64 copy of the tap
    index that take() makes, the gradient and the origins."""
    frame_bytes = outs[1] * outs[2] * (c * (16 + itemsize) + 8)
    blocks = _even_runs(outs[0], BLOCK_BYTES // max(1, frame_bytes))
    return blocks, _longest(blocks) * frame_bytes


def _pool_backward(grad_out, taps, input_shape, window):
    """maxpool3d_backward, unchecked: both conv backward halves call it for a pool they fuse."""
    pt, ph, pw = window
    c, t, h, w = input_shape[1:]
    to, ho, wo = grad_out.shape[2:]
    grad_input = np.zeros(input_shape, dtype=grad_out.dtype)
    flat = grad_input.reshape(-1)
    # flat index in grad_input: the tap's offset in its window, plus the
    # window's origin (channel, then frame, row and column within the block)
    offsets = np.array([(i * h + j) * w + k for i, j, k in np.ndindex(*window)],
                       dtype=np.int64)
    channels = np.arange(c, dtype=np.int64).reshape(c, 1, 1, 1) * (t * h * w)
    blocks = _pool_backward_plan(c, (to, ho, wo), grad_out.itemsize)[0]
    longest = _longest(blocks)
    origins = (np.arange(longest, dtype=np.int64).reshape(-1, 1, 1) * (pt * h * w)
               + np.arange(ho, dtype=np.int64).reshape(ho, 1) * (ph * w)
               + np.arange(wo, dtype=np.int64) * pw)
    for t0, t1 in blocks:
        # every tap index is in range; mode="clip" only skips the check
        idx = offsets.take(taps[0, :, t0:t1], mode="clip")
        idx += channels + t0 * pt * h * w
        idx += origins[: t1 - t0]
        # add.at, not assignment: 0 + (-0.0) stores +0.0
        np.add.at(flat, idx.ravel(), grad_out[0, :, t0:t1].ravel())
        del idx  # so that two blocks never coexist
    return grad_input


def linear_forward(x, weight, bias):
    """out[n,o] = sum_i x[n,i] * weight[o,i] + bias[o]."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear expects 2-d input/weight, got {x.shape} / {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear inner extents disagree: input {x.shape[1]} vs weight {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"bias shape {bias.shape} does not match {weight.shape[0]} outputs")
    return x @ weight.T + bias


def linear_backward(x, weight, grad_out):
    """(grad_input, grad_bias) of one sample. Its weight gradient,
    grad_out.T * x, is not formed here: `linear_weight_grad` sums it over a
    batch from each sample's (x, grad_out)."""
    if x.ndim != 2 or x.shape[0] != 1:
        raise ShapeError(f"linear_backward takes one sample of shape (1,In), got shape {x.shape}")
    if grad_out.shape != (1, weight.shape[0]):
        raise ShapeError(f"grad_out shape {grad_out.shape} does not match (1, {weight.shape[0]})")
    return grad_out @ weight, grad_out.sum(axis=0)


def _weight_rows(outs, ins, itemsize):
    """linear_weight_grad's blocks of rows, of at most TILE_BYTES (one row at least)."""
    return _even_runs(outs, TILE_BYTES // max(1, ins * itemsize))


def linear_weight_grad(factors):
    """The weight gradient summed over `factors`, the (x, grad_out) pairs of
    one sample each that linear_backward took: a sum that starts from +0.0,
    to which each sample's grad_out.T * x is added in the order given, one
    block of rows of at most TILE_BYTES (one row at least) at a time. Every
    element gets the same additions in the same order as when each sample's
    gradient is added into the sum whole."""
    factors = list(factors)
    if not factors:
        raise ShapeError("linear_weight_grad needs the factors of one sample at least")
    ins, outs = factors[0][0].shape[-1], factors[0][1].shape[-1]
    for x, grad_out in factors:
        if x.shape != (1, ins) or grad_out.shape != (1, outs):
            raise ShapeError(f"factors of shapes {x.shape} and {grad_out.shape} are not "
                             f"one sample's (1, {ins}) and (1, {outs})")
    dtype = np.result_type(*(a for pair in factors for a in pair))
    grad_weight = np.zeros((outs, ins), dtype=dtype)
    runs = _weight_rows(outs, ins, dtype.itemsize)
    block = np.empty((_longest(runs), ins), dtype=dtype)
    # One product per element, as in the K = 1 GEMM grad_out.T @ x, which
    # OpenBLAS runs up to 20x slower. The GEMM adds each product to +0.0, as
    # the sum does: a sum from +0.0 is never -0.0, so each sample adds as its
    # product + 0.0 would, and one sample's sum has the GEMM's bytes.
    for a, b in runs:
        part = block[: b - a]
        for x, grad_out in factors:
            np.multiply(grad_out[0, a:b, None], x, out=part)
            grad_weight[a:b] += part
    return grad_weight


def relu_forward(x, out=None):
    """max(x, 0), into `out` if given (x itself for a relu in place)."""
    return np.maximum(x, 0, out=out)


def relu_backward(mask, grad_out):
    """grad_out * mask for the bool `mask` x > 0 (the gradient is exactly 0
    at x == 0), multiplied in place into `grad_out`, which is returned: the
    caller hands the gradient over (see the module docstring). relu_forward(x)
    > 0 is the same mask, for NaN, +-0 and +-inf too."""
    if mask.dtype != np.bool_:
        raise TypeError(f"relu_backward takes the bool mask x > 0, got dtype {mask.dtype}")
    grad_out *= mask
    return grad_out


def softmax(logits):
    """Stable softmax of one (K,) logit vector."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_cross_entropy(logits, cls: int):
    """Cross entropy of one sample's softmaxed (K,) logits against class `cls`.

    Returns (loss, grad_logits) with grad_logits = softmax(logits) - onehot(cls).
    Max-subtraction keeps arbitrarily large logits finite.
    """
    logits = np.asarray(logits)
    if logits.ndim != 1 or len(logits) < 2:
        raise ShapeError(f"logits must be (K,) with K >= 2, got shape {logits.shape}")
    if not 0 <= cls < len(logits):
        raise ShapeError(f"class index must lie in [0, {len(logits)}), got {cls}")
    z = logits - logits.max()
    e = np.exp(z)
    denom = e.sum()
    grad = e / denom
    grad[cls] -= 1
    return float(np.log(denom) - z[cls]), grad


def conv_bounds(input_shape, weight_shape, stride: int, pad: int, window, itemsize: int):
    """(forward, weight half, input half): the bounds of conv3d_maxpool3d (conv3d_forward
    without a `window`), conv3d_backward and conv3d_input_grad for a weight of
    `weight_shape` over one sample of `input_shape`, `itemsize` bytes a value;
    without a `window`, only while _conv_plan stays within CONV_OBJECTS."""
    c, t, h, w = input_shape[1:]
    f, kdim = weight_shape[0], math.prod(weight_shape[1:])
    outs = conv3d_out_extents((t, h, w), weight_shape[2:], stride, pad)
    runs = _conv_plan(kdim, f, outs, itemsize, window)
    _, positions, held = _tile_buffers(runs, outs[2], weight_shape[2], stride)
    # the padded input frames _tile_columns holds and the largest tile's columns
    tile = (c * held * (h + 2 * pad) * (w + 2 * pad) + kdim * positions) * itemsize
    block = kdim * max(p.stop - p.start for *_, blocks in runs for p, _, _ in blocks) * itemsize
    run, weights = f * _longest(runs) * outs[1] * outs[2] * itemsize, f * kdim * itemsize
    objects, ufunc = CONV_OBJECTS, 3 * np.getbufsize() * itemsize
    forward, weight_half = run + tile + ufunc + objects, tile + 2 * weights + objects
    input_half = c * t * h * w * itemsize + weights + ufunc + objects
    if window is None:
        return forward, weight_half, input_half + block
    pooled = maxpool3d_out_extents(outs, window)
    taps = _tap_dtype(window).itemsize
    frames = _longest(runs) // window[0]  # pooled frames of a run
    run_block = _pool_backward_plan(f, (frames,) + pooled[1:], itemsize)[1]
    group = _longest(_channel_groups(f, outs, itemsize))
    group_block = _pool_backward_plan(group, pooled, itemsize)[1]
    return (forward + f * pooled[1] * pooled[2] * (pooled[0] * (itemsize + taps)
                                                    + frames * (2 + taps)),
            weight_half + max(group * math.prod(outs) * itemsize + group_block, run + run_block),
            input_half + run + max(block, run_block))


def pool_bounds(input_shape, window, itemsize: int):
    """(forward, backward): the bounds of maxpool3d and maxpool3d_backward for one
    sample of `input_shape` and a `window`, `itemsize` bytes a value."""
    c, _, h, w = input_shape[1:]
    pooled = maxpool3d_out_extents(input_shape[2:], window)
    taps = _tap_dtype(window).itemsize
    frame_input = c * window[0] * h * w * itemsize
    return (c * math.prod(pooled) * (itemsize + taps)
            + _longest(_pool_blocks(pooled[0], frame_input)) * frame_input,
            math.prod(input_shape) * itemsize + _pool_backward_plan(c, pooled, itemsize)[1])


def linear_bounds(in_features: int, out_features: int, itemsize: int):
    """(backward, weight sum): the bounds of linear_backward and linear_weight_grad
    for an (`out_features`, `in_features`) weight, `itemsize` bytes a value."""
    rows = _longest(_weight_rows(out_features, in_features, itemsize))
    return ((in_features + out_features) * itemsize + (1 << 10),
            (out_features + rows) * in_features * itemsize + (16 << 10))
