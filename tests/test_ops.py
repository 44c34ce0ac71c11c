import re

import numpy as np
import pytest

from strokebench.errors import ShapeError
from strokebench.nn import ops
from strokebench.nn.gradcheck import max_rel_error, numeric_grad

from oracles import conv3d_naive, cross_entropy_direct


def both_halves(x, w, grad_out, stride, pad):
    """(grad_input, grad_weight, grad_bias) of the two halves of the conv backward."""
    return (ops.conv3d_input_grad(w, grad_out, x.shape, stride, pad),
            *ops.conv3d_backward(x, w, grad_out, stride, pad))


class TestConv3d:
    def test_all_ones_sums_receptive_field(self):
        x = np.ones((1, 1, 3, 3, 3))
        w = np.ones((1, 1, 3, 3, 3))
        out = ops.conv3d_forward(x, w, np.zeros(1), stride=1, pad=0)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.item() == 27.0

    def test_scalar_case_with_bias(self):
        x = np.full((1, 1, 1, 1, 1), 5.0)
        w = np.full((1, 1, 1, 1, 1), 2.0)
        out = ops.conv3d_forward(x, w, np.ones(1), stride=1, pad=0)
        assert out.item() == 11.0

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3, 3))
        b = rng.standard_normal(4)
        for s in range(2):
            out = ops.conv3d_forward(x[s:s + 1], w, b, stride=1, pad=1)
            assert out.shape == (1, 4, 6, 8, 8)
            ref = conv3d_naive(x[s:s + 1], w, b, stride=1, pad=1)
            assert max_rel_error(out, ref) < 1e-10

    def test_matches_naive_loops_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n, c, f = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            kt, kh, kw = rng.integers(1, 4, 3)
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            t, h, w = kt + rng.integers(0, 4), kh + rng.integers(0, 4), kw + rng.integers(0, 4)
            x = rng.standard_normal((n, c, t, h, w))
            wt = rng.standard_normal((f, c, kt, kh, kw))
            b = rng.standard_normal(f)
            for s in range(n):
                got = ops.conv3d_forward(x[s:s + 1], wt, b, stride, pad)
                ref = conv3d_naive(x[s:s + 1], wt, b, stride, pad)
                assert got.shape == ref.shape
                assert max_rel_error(got, ref) < 1e-10

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 3, 3, 3))
        w = np.zeros((1, 3, 3, 3, 3))
        with pytest.raises(ShapeError, match="channels"):
            ops.conv3d_forward(x, w, np.zeros(1), stride=1, pad=0)

    def test_bias_shape_mismatch_rejected(self):
        x = np.zeros((1, 2, 3, 3, 3))
        w = np.zeros((4, 2, 3, 3, 3))
        with pytest.raises(ShapeError, match=r"bias shape \(3,\) does not match 4 filters"):
            ops.conv3d_forward(x, w, np.zeros(3), stride=1, pad=0)

    def test_kernel_larger_than_input_rejected(self):
        x = np.zeros((1, 1, 2, 2, 2))
        w = np.zeros((1, 1, 3, 3, 3))
        with pytest.raises(ShapeError, match="does not fit"):
            ops.conv3d_forward(x, w, np.zeros(1), stride=1, pad=0)

    @pytest.mark.parametrize("run", [
        lambda x, w: ops.conv3d_forward(x, w, np.zeros(2), 1, 0),
        lambda x, w: ops.conv3d_backward(x, w, np.zeros((1, 2, 4, 1, 1)), 1, 0),
    ], ids=["forward", "backward"])
    def test_zero_extent_kernel_rejected(self, run):
        x = np.zeros((1, 1, 3, 3, 3))
        w = np.zeros((2, 1, 0, 3, 3))
        message = "kernel extents must be >= 1, got (0, 3, 3)"
        with pytest.raises(ShapeError, match=re.escape(message)):
            run(x, w)

    def test_backward_zero_grad_out(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3, 3))
        gx, gw, gb = both_halves(x, w, np.zeros((1, 3, 2, 2, 2)), 1, 0)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_scalar_chain_rule(self):
        x = np.full((1, 1, 1, 1, 1), 5.0)
        w = np.full((1, 1, 1, 1, 1), 2.0)
        gx, gw, gb = both_halves(x, w, np.ones((1, 1, 1, 1, 1)), 1, 0)
        assert gx.item() == 2.0 and gw.item() == 5.0 and gb.item() == 1.0

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 2, 4, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        b = rng.standard_normal(2)
        r = rng.standard_normal((1, 2, 2, 3, 3))

        def objective():
            return float(np.sum(ops.conv3d_forward(x, w, b, 2, 1) * r))

        gx, gw, gb = both_halves(x, w, r, 2, 1)
        assert max_rel_error(gx, numeric_grad(objective, x, 1e-5)) < 1e-6
        assert max_rel_error(gw, numeric_grad(objective, w, 1e-5)) < 1e-6
        assert max_rel_error(gb, numeric_grad(objective, b, 1e-5)) < 1e-6

    def test_backward_shape_mismatch_rejected(self):
        x = np.zeros((1, 1, 4, 4, 4))
        w = np.zeros((1, 1, 3, 3, 3))
        with pytest.raises(ShapeError, match="grad_out"):
            ops.conv3d_backward(x, w, np.zeros((1, 1, 4, 4, 4)), stride=1, pad=0)

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 1, 3, 3, 3)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        out = ops.conv3d_forward(x, w, b, 1, 1)
        assert out.dtype == np.float32
        gx, gw, gb = both_halves(x, w, out, 1, 1)
        assert gx.dtype == gw.dtype == gb.dtype == np.float32


class TestMaxPool3d:
    def test_cube_of_one_to_eight(self):
        x = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)
        out, taps = ops.maxpool3d(x, (2, 2, 2))
        assert out.shape == (1, 1, 1, 1, 1)
        assert out.item() == 8.0
        assert taps.dtype == np.uint8
        assert taps.item() == 7  # last tap wins

    def test_constant_input_ties_to_tap_0(self):
        x = np.ones((1, 1, 2, 4, 4))
        out, taps = ops.maxpool3d(x, (2, 2, 2))
        assert np.all(out == 1.0)
        # every window's winner is its first tap, (0, 0, 0) in the window
        assert np.all(taps == 0)
        grad = ops.maxpool3d_backward(np.full(out.shape, 3.0), taps, x.shape, (2, 2, 2))
        expected = np.zeros(x.shape)
        expected[:, :, ::2, ::2, ::2] = 3.0  # each window's first element
        assert np.array_equal(grad, expected)
        assert grad.sum() == 3.0 * out.size

    def test_gradient_mass_is_conserved(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 4, 6, 8))
        g = rng.standard_normal((2, 3, 2, 2, 4))
        for s in range(2):
            xs = x[s:s + 1]
            taps = ops.maxpool3d(xs, (2, 3, 2))[1]
            gx = ops.maxpool3d_backward(g[s:s + 1], taps, xs.shape, (2, 3, 2))
            assert np.isclose(np.abs(gx).sum(), np.abs(g[s]).sum(), rtol=0, atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 4, 4, 4))
        out, taps = ops.maxpool3d(x, (2, 2, 2))
        g = rng.standard_normal(out.shape)

        def objective():
            return float(np.sum(ops.maxpool3d(x, (2, 2, 2))[0] * g))

        gx = ops.maxpool3d_backward(g, taps, x.shape, (2, 2, 2))
        assert max_rel_error(gx, numeric_grad(objective, x, 1e-6)) < 1e-6

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            ops.maxpool3d(np.zeros((1, 1, 3, 4, 4)), (2, 2, 2))


class TestLinear:
    def test_identity_weight(self):
        x = np.array([[3.0, 4.0]])
        out = ops.linear_forward(x, np.eye(2), np.zeros(2))
        assert np.array_equal(out, x)

    def test_zero_input_yields_bias(self):
        b = np.array([1.0, -2.0, 3.0])
        out = ops.linear_forward(np.zeros((4, 5)), np.zeros((3, 5)), b)
        assert np.array_equal(out, np.tile(b, (4, 1)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 10))
        w = rng.standard_normal((5, 10))
        b = rng.standard_normal(5)
        r = rng.standard_normal((4, 5))
        for s in range(4):  # each row alone, the one sample linear_backward takes
            xs, rs = x[s:s + 1], r[s:s + 1]

            def objective():
                return float(np.sum(ops.linear_forward(xs, w, b) * rs))

            gx, gb = ops.linear_backward(xs, w, rs)
            gw = ops.linear_weight_grad([(xs, rs)])
            assert max_rel_error(gx, numeric_grad(objective, xs, 1e-5)) < 1e-6
            assert max_rel_error(gw, numeric_grad(objective, w, 1e-5)) < 1e-6
            assert max_rel_error(gb, numeric_grad(objective, b, 1e-5)) < 1e-6

    @pytest.mark.parametrize("outs,ins,dtype", [
        (64, 4096, np.float32), (2, 64, np.float32), (500, 18000, np.float32),
        (2, 500, np.float32), (64, 4096, np.float64),
    ], ids=["desk fc1", "desk fc2", "paper fc1", "paper fc2", "desk fc1 float64"])
    def test_one_sample_grad_weight_has_the_gemm_bytes(self, outs, ins, dtype):
        """At N = 1 grad_weight is a broadcast product with the bytes of the
        K = 1 GEMM grad_out.T @ x, signed zeros included: relu's +0.0 inputs
        meet negative gradients, as in training."""
        rng = np.random.default_rng(ins)
        x = np.maximum(rng.standard_normal((1, ins)), 0).astype(dtype)
        x[0, :2] = -0.0
        r = rng.standard_normal((1, outs)).astype(dtype)
        r[0, :2] = [0.0, -0.0]
        gw = ops.linear_weight_grad([(x, r)])
        assert np.signbit(r.T * x).any() and not np.signbit(r.T @ x).all()
        assert gw.dtype == dtype and gw.tobytes() == (r.T @ x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("samples", [1, 3])
    def test_summed_weight_gradient_in_blocks_has_the_bytes_of_sample_order_adds(
            self, samples, dtype, monkeypatch):
        """The samples' weight gradients summed in blocks of 3 rows (4 blocks
        of 10 rows) give the bytes of adding grad_out.T * x + 0.0 into a sum
        from +0.0, sample by sample, NaN, +-inf and signed zeros included.
        Where a NaN is added to a NaN, IEEE 754 leaves open whose payload and
        sign the result takes, and numpy's vector and scalar loops differ, so
        there both need only be NaN (training stops before the step on a
        gradient that is not finite). grad_input and grad_bias are the
        sample's own."""
        outs, ins = 10, 7
        monkeypatch.setattr(ops, "TILE_BYTES", 3 * ins * np.dtype(dtype).itemsize)
        assert len(ops._even_runs(outs, 3)) == 4
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0], dtype)
        rng = np.random.default_rng(7)
        w = rng.standard_normal((outs, ins)).astype(dtype)
        factors = [(rng.choice(special, (1, ins)), rng.choice(special, (1, outs)))
                   for _ in range(samples)]
        expected = np.zeros((outs, ins), dtype)
        two_nans = np.zeros(expected.shape, bool)
        with np.errstate(invalid="ignore", over="ignore"):
            for x, r in factors:
                gx, gb = ops.linear_backward(x, w, r)
                assert gx.tobytes() == (r @ w).tobytes()
                assert gb.tobytes() == r.sum(axis=0).tobytes()
                product = r.T * x + 0.0
                two_nans |= np.isnan(expected) & np.isnan(product)
                expected += product
            sums = ops.linear_weight_grad(factors)
        assert sums.dtype == dtype and sums.shape == (outs, ins)
        same = sums.view(f"u{sums.itemsize}") == expected.view(f"u{sums.itemsize}")
        assert (same | two_nans).all() and np.isnan(sums[two_nans]).all()
        assert np.isnan(sums).any() and np.isinf(sums).any() and (sums == 0).any()
        assert not np.signbit(sums[sums == 0]).any()  # -0.0 + (+0.0) is +0.0

    def test_weight_gradient_of_no_sample_rejected(self):
        with pytest.raises(ShapeError, match="one sample at least"):
            ops.linear_weight_grad([])

    @pytest.mark.parametrize("x_shape,r_shape", [((1, 4), (1, 2)), ((1, 3), (1, 3)),
                                                 ((2, 3), (2, 2)), ((3,), (2,))])
    def test_weight_gradient_factors_of_another_shape_rejected(self, x_shape, r_shape):
        """Every pair must be one sample's, of the first pair's extents."""
        first = (np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ShapeError, match=re.escape(
                f"factors of shapes {x_shape} and {r_shape} are not one sample's (1, 3) and "
                f"(1, 2)")):
            ops.linear_weight_grad([first, (np.zeros(x_shape), np.zeros(r_shape))])

    def test_inner_extent_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="inner extents"):
            ops.linear_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))


class TestRelu:
    def test_clamps_negatives(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(ops.relu_forward(x), [0.0, 0.0, 2.0])

    def test_all_negative_blocks_gradient(self):
        x = -np.abs(np.random.default_rng(0).standard_normal((3, 4))) - 0.1
        assert not ops.relu_forward(x).any()
        assert not ops.relu_backward(x > 0, np.ones_like(x)).any()

    def test_gradient_zero_exactly_at_zero(self):
        x = np.array([0.0, 1.0])
        assert np.array_equal(ops.relu_backward(x > 0, np.ones(2)), [0.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_multiplies_in_place_with_the_bytes_of_the_product(self, dtype):
        """relu_backward returns the gradient it was given, multiplied in place,
        with the bytes of grad_out * (x > 0) for every pair of NaN, +-inf,
        signed zeros and finite values, whether the mask is taken of relu's
        input or of its output."""
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-30, -3.5, 2.0], dtype)
        x, grad_out = (a.copy() for a in np.meshgrid(special, special))
        with np.errstate(invalid="ignore"):
            expected = grad_out * (x > 0)
            assert np.array_equal(ops.relu_forward(x) > 0, x > 0)
            got = ops.relu_backward(ops.relu_forward(x) > 0, grad_out)
        assert got is grad_out and got.tobytes() == expected.tobytes()
        assert np.signbit(got).any() and np.isnan(got).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_in_place_has_the_bytes_of_a_copy(self, dtype):
        special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-30, -3.5, 2.0], dtype)
        x = np.tile(special, (3, 5))
        expected = ops.relu_forward(x)
        assert ops.relu_forward(x, out=x) is x and x.tobytes() == expected.tobytes()

    def test_backward_refuses_a_float_mask(self):
        x = np.array([-1.0, 2.0])
        with pytest.raises(TypeError, match="bool mask"):
            ops.relu_backward(x, np.ones(2))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, grad = ops.softmax_cross_entropy(np.array([0.0, 0.0]), 0)
        assert abs(loss - np.log(2)) < 1e-12
        assert np.allclose(grad, [-0.5, 0.5], atol=1e-12)
        for k in (3, 5, 17):
            loss, _ = ops.softmax_cross_entropy(np.zeros(k), k - 1)
            assert abs(loss - np.log(k)) < 1e-12

    def test_huge_logits_stay_finite(self):
        loss, grad = ops.softmax_cross_entropy(np.array([1000.0, 0.0]), 0)
        assert abs(loss) < 1e-12
        assert np.isfinite(grad).all()

    def test_matches_direct_formula(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        classes = np.array([2, 1])
        for i in range(len(logits)):  # each sample alone
            loss, grad = ops.softmax_cross_entropy(logits[i], int(classes[i]))
            ref_loss, ref_grad = cross_entropy_direct(logits[i:i + 1], classes[i:i + 1])
            assert abs(loss - ref_loss) < 1e-10
            assert np.abs(grad - ref_grad[0]).max() < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        logits = rng.standard_normal((3, 6))
        classes = np.array([0, 5, 2])
        for i in range(len(logits)):
            loss_a, grad_a = ops.softmax_cross_entropy(logits[i], int(classes[i]))
            loss_b, grad_b = ops.softmax_cross_entropy(logits[i] + 123.456, int(classes[i]))
            assert abs(loss_a - loss_b) < 1e-9
            assert np.abs(grad_a - grad_b).max() < 1e-9

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(13)
        for row in rng.standard_normal((50, 9)) * 10:
            p = ops.softmax(row)
            assert (p >= 0).all()
            assert abs(p.sum() - 1) < 1e-9

    @pytest.mark.parametrize("cls", [-1, 3])
    def test_class_out_of_range_rejected(self, cls):
        with pytest.raises(ShapeError, match=re.escape(f"in [0, 3), got {cls}")):
            ops.softmax_cross_entropy(np.zeros(3), cls)

    @pytest.mark.parametrize("shape", [(1,), (1, 3), (2, 3)])
    def test_logits_other_than_one_k_vector_rejected(self, shape):
        # one class cannot be softmaxed, and a batch is no longer taken
        with pytest.raises(ShapeError, match=re.escape(f"got shape {shape}")):
            ops.softmax_cross_entropy(np.zeros(shape), 0)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            logits = rng.standard_normal((4, 5)) * 6
            classes = rng.integers(0, 5, 4)
            for row, cls in zip(logits, classes):
                loss, _ = ops.softmax_cross_entropy(row, int(cls))
                assert loss >= 0.0


# one call per kernel that takes one sample, with a batch extent of n
ONE_SAMPLE_KERNELS = {
    "conv3d_forward": lambda n: ops.conv3d_forward(
        np.zeros((n, 2, 4, 4, 4)), np.zeros((3, 2, 3, 3, 3)), np.zeros(3), 1, 0),
    "conv3d_backward": lambda n: ops.conv3d_backward(
        np.zeros((n, 2, 4, 4, 4)), np.zeros((3, 2, 3, 3, 3)), np.zeros((n, 3, 2, 2, 2)),
        1, 0),
    "maxpool3d": lambda n: ops.maxpool3d(np.zeros((n, 2, 4, 4, 4)), (2, 2, 2)),
    "maxpool3d_backward": lambda n: ops.maxpool3d_backward(
        np.zeros((n, 2, 2, 2, 2)), np.zeros((n, 2, 2, 2, 2), np.uint8), (n, 2, 4, 4, 4),
        (2, 2, 2)),
    "linear_backward": lambda n: ops.linear_backward(
        np.zeros((n, 4)), np.zeros((3, 4)), np.zeros((n, 3))),
}


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("kernel", ONE_SAMPLE_KERNELS)
def test_kernels_refuse_a_batch_other_than_one(kernel, n):
    shape = (n, 4) if kernel == "linear_backward" else (n, 2, 4, 4, 4)
    message = r"takes one sample .*, got shape " + re.escape(str(shape))
    with pytest.raises(ShapeError, match=message):
        ONE_SAMPLE_KERNELS[kernel](n)


def test_all_ops_produce_finite_values_on_finite_inputs():
    rng = np.random.default_rng(55)
    x = rng.standard_normal((2, 3, 4, 6, 6)) * 100
    w = rng.standard_normal((4, 3, 3, 3, 3)) * 100
    b = rng.standard_normal(4) * 100
    for s in range(2):
        out = ops.conv3d_forward(x[s:s + 1], w, b, 1, 1)
        assert np.isfinite(out).all()
        gx, gw, gb = both_halves(x[s:s + 1], w, out, 1, 1)
        assert np.isfinite(gx).all() and np.isfinite(gw).all() and np.isfinite(gb).all()
        pooled, taps = ops.maxpool3d(out, (2, 2, 2))
        assert np.isfinite(pooled).all()
        assert np.isfinite(ops.maxpool3d_backward(pooled, taps, out.shape, (2, 2, 2))).all()
