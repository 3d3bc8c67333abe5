import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quag import tensor as T
from quag.tensor import (
    ComputationTape,
    ShapeError,
    Tensor,
    concat_last,
    embed_rows,
    gelu,
    grad_check,
    layer_norm,
    log_clamped,
    log_softmax,
    masked_softmax,
    matmul,
    mean_axis,
    no_grad,
    pick,
    reshape,
    sigmoid,
    slice_rows,
    stack_rows,
    sum_all,
    transpose,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def softmax(x: Tensor) -> Tensor:
    """The unmasked softmax op that ``masked_softmax(x)`` replaced, kept as
    the reference it must equal bit for bit."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        T._accumulate(x, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    return T._node(s, (x,), backward)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2, dtype=np.float32)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(rand((2, 3))), Tensor(rand((2, 3))))

    def test_gradient_against_finite_differences(self):
        a = Tensor(rand((3, 4), seed=1), requires_grad=True)
        b = Tensor(rand((4, 2), seed=2), requires_grad=True)
        err = grad_check(lambda: sum_all(matmul(a, b)), [a, b], h=1e-3)
        assert err < 1e-4

    def test_stacked_matches_per_slice_products(self):
        a, b = rand((3, 2, 4), seed=40), rand((3, 4, 5), seed=41)
        out = matmul(Tensor(a), Tensor(b))
        assert out.shape == (3, 2, 5)
        for i in range(3):
            np.testing.assert_array_equal(out.data[i], a[i] @ b[i])

    def test_stacked_gradient(self):
        a = Tensor(rand((2, 3, 4), seed=42), requires_grad=True)
        b = Tensor(rand((2, 4, 2), seed=43), requires_grad=True)
        w = Tensor(rand((2, 3, 2), seed=44))
        err = grad_check(lambda: sum_all(matmul(a, b) * w), [a, b], h=1e-3)
        assert err < 1e-4

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (3, 4, 5)),   # leading extents differ
        ((2, 3, 4), (4, 5)),      # ranks differ
        ((3, 4), (2, 4, 5)),
        ((2, 3, 4), (2, 3, 5)),   # inner extents differ
        ((4,), (4,)),             # rank 1
    ])
    def test_stacked_shape_mismatch(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="matmul shape mismatch"):
            matmul(Tensor(rand(a_shape)), Tensor(rand(b_shape)))


class TestSoftmax:
    def test_uniform_logits(self):
        out = masked_softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_stability_under_large_logits(self):
        out = masked_softmax(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_closed_form(self):
        out = masked_softmax(Tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_simplex_property(self, logits):
        out = masked_softmax(Tensor(logits)).data
        assert (out >= 0).all()
        assert abs(out.sum() - 1.0) < 1e-6

    def test_gradient(self):
        x = Tensor(rand((2, 5), seed=3), requires_grad=True)
        w = Tensor(rand((2, 5), seed=4))
        err = grad_check(lambda: sum_all(masked_softmax(x) * w), [x], h=1e-3)
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 6)])
    def test_unmasked_matches_reference_bit_for_bit(self, dtype, shape):
        # no mask and an all-False mask both give exactly the old softmax op's
        # values and gradients
        logits = (rand(shape, seed=40) * 30).astype(dtype)
        w = rand(shape, seed=41).astype(dtype)
        outs, grads = [], []
        for op in (softmax, masked_softmax,
                   lambda t: masked_softmax(t, np.zeros(shape, dtype=bool))):
            x = Tensor(logits.copy(), requires_grad=True)
            out = op(x)
            sum_all(out * Tensor(w)).backward()
            outs.append(out.data)
            grads.append(x.grad)
        for out, grad in zip(outs[1:], grads[1:]):
            assert out.dtype == grad.dtype == dtype
            np.testing.assert_array_equal(out, outs[0])
            np.testing.assert_array_equal(grad, grads[0])


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(Tensor([0.0])).data[0] == pytest.approx(0.5)

    def test_negative_saturation(self):
        out = sigmoid(Tensor([-100.0])).data[0]
        assert 0.0 < out <= 1e-10
        assert np.isfinite(out)

    def test_closed_form(self):
        assert sigmoid(Tensor([math.log(3.0)])).data[0] == pytest.approx(0.75, abs=1e-6)

    @given(st.lists(st.floats(-80, 80), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_open_interval(self, values):
        out = sigmoid(Tensor(values)).data
        assert (out > 0).all() and (out < 1).all()

    def test_gradient(self):
        x = Tensor(rand(7, seed=5), requires_grad=True)
        err = grad_check(lambda: sum_all(sigmoid(x) * sigmoid(x)), [x], h=1e-3)
        assert err < 1e-4


class TestMeanAxis:
    def test_constant_rows(self):
        v = np.array([2.0, -1.0, 0.5], dtype=np.float32)
        x = Tensor(np.tile(v, (4, 1)))
        np.testing.assert_allclose(mean_axis(x, 0).data, v, atol=1e-7)

    def test_hand_arithmetic(self):
        out = mean_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), 0)
        np.testing.assert_allclose(out.data, [3.0, 5.0])

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            mean_axis(Tensor([[1.0]]), 2)

    def test_gradient(self):
        x = Tensor(rand((3, 4), seed=6), requires_grad=True)
        w = Tensor(rand(4, seed=7))
        err = grad_check(lambda: sum_all(mean_axis(x, 0) * w), [x], h=1e-3)
        assert err < 1e-4


class TestConcat:
    def test_vectors(self):
        out = concat_last(Tensor([1.0, 2.0]), Tensor([3.0]))
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])

    def test_blocks_preserved(self):
        a, b = rand((2, 2), seed=8), rand((2, 3), seed=9)
        out = concat_last(Tensor(a), Tensor(b))
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data[:, :2], a)
        np.testing.assert_allclose(out.data[:, 2:], b)

    def test_leading_shape_mismatch(self):
        with pytest.raises(ShapeError):
            concat_last(Tensor(rand((2, 2))), Tensor(rand((3, 2))))

    def test_gradient_of_sum_splits_into_ones(self):
        a = Tensor(rand((2, 2), seed=10), requires_grad=True)
        b = Tensor(rand((2, 3), seed=11), requires_grad=True)
        sum_all(concat_last(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))


class TestGradCheck:
    def test_sum_of_squares_closed_form(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = sum_all(x * x)
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-6)
        err = grad_check(lambda: sum_all(x * x), [x], h=1e-3)
        assert err < 1e-6

    def test_softmax_cross_entropy(self):
        x = Tensor(rand(6, seed=12), requires_grad=True)
        onehot = Tensor(np.eye(6, dtype=np.float32)[2])
        err = grad_check(lambda: -sum_all(log_softmax(x) * onehot), [x], h=1e-3)
        assert err < 1e-4

    def test_constant_function(self):
        x = Tensor(rand(3, seed=13), requires_grad=True)
        c = Tensor([5.0])
        err = grad_check(lambda: sum_all(c * c), [x], h=1e-3)
        assert err == 0.0

    def test_rejects_non_scalar(self):
        x = Tensor(rand(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda: x * x, [x])

    def test_rejects_bad_step(self):
        x = Tensor(rand(3), requires_grad=True)
        with pytest.raises(ValueError, match="h="):
            grad_check(lambda: sum_all(x), [x], h=1.0)

    def test_restores_dtype_and_grad(self):
        x = Tensor(rand(3), requires_grad=True)
        grad_check(lambda: sum_all(x * x), [x], h=1e-3)
        assert x.data.dtype == np.float32
        assert x.grad is None


class TestFanOutAndTape:
    def test_first_gradient_is_an_own_c_order_copy(self):
        x = Tensor(rand((3, 4), seed=52), requires_grad=True)
        y = Tensor(rand((3, 4), seed=53), requires_grad=True)
        out = transpose(x + y)
        sum_all(out * Tensor(rand((4, 3), seed=54))).backward()
        assert x.grad.flags.c_contiguous and y.grad.flags.c_contiguous
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, y.grad)

    def test_fanout_sums_contributions(self):
        x = Tensor(rand(4, seed=14), requires_grad=True)
        err = grad_check(lambda: sum_all(x * x + x * x), [x], h=1e-3)
        assert err < 1e-4

    def test_tape_visits_each_node_once(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x
        z = y + y
        tape = ComputationTape.trace(z)
        assert len({id(n) for n in tape.nodes}) == len(tape.nodes)
        z.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * x
        assert not y.requires_grad
        assert y._backward is None


class TestStructuralOps:
    def test_transpose_roundtrip_and_grad(self):
        x = Tensor(rand((3, 2), seed=15), requires_grad=True)
        w = Tensor(rand((2, 3), seed=16))
        err = grad_check(lambda: sum_all(transpose(x) * w), [x], h=1e-3)
        assert err < 1e-4

    @pytest.mark.parametrize("axes", [(1, 0, 2), (1, 2, 0), (2, 0, 1), (0, 1, 2)])
    def test_transpose_axes_values_and_grad(self, axes):
        x = Tensor(rand((2, 3, 4), seed=45), requires_grad=True)
        out = transpose(x, axes)
        np.testing.assert_array_equal(out.data, np.transpose(x.data, axes))
        assert out.data.flags.c_contiguous
        assert not np.shares_memory(out.data, x.data)
        w = Tensor(rand(out.shape, seed=46))
        err = grad_check(lambda: sum_all(transpose(x, axes) * w), [x], h=1e-3)
        assert err < 1e-4

    def test_transpose_rejects_bad_axes(self):
        x = Tensor(rand((2, 3, 4)))
        with pytest.raises(ShapeError, match="rank-2"):
            transpose(x)
        for axes in [(0, 1), (0, 0, 1), (1, 2, 3)]:
            with pytest.raises(ShapeError, match="permutation"):
                transpose(x, axes)

    def test_reshape_grad(self):
        x = Tensor(rand((2, 6), seed=17), requires_grad=True)
        w = Tensor(rand((3, 4), seed=18))
        err = grad_check(lambda: sum_all(reshape(x, (3, 4)) * w), [x], h=1e-3)
        assert err < 1e-4

    def test_stack_rows(self):
        vs = [Tensor(rand(3, seed=s), requires_grad=True) for s in (19, 20)]
        out = stack_rows(vs)
        assert out.shape == (2, 3)
        w = Tensor(rand((2, 3), seed=21))
        err = grad_check(lambda: sum_all(stack_rows(vs) * w), vs, h=1e-3)
        assert err < 1e-4

    def test_slices(self):
        x = Tensor(rand((5, 4), seed=22), requires_grad=True)
        np.testing.assert_allclose(slice_rows(x, 1, 3).data, x.data[1:3])
        w = Tensor(rand((2, 4), seed=23))
        err = grad_check(lambda: sum_all(slice_rows(x, 1, 3) * w), [x], h=1e-3)
        assert err < 1e-4
        with pytest.raises(ShapeError):
            slice_rows(x, 3, 9)

    def test_embed_rows(self):
        table = Tensor(rand((6, 3), seed=25), requires_grad=True)
        ids = [0, 2, 2, 5]
        out = embed_rows(table, ids)
        np.testing.assert_allclose(out.data, table.data[ids])
        sum_all(out).backward()
        expected = np.zeros((6, 3))
        for i in ids:
            expected[i] += 1.0
        np.testing.assert_allclose(table.grad, expected)
        with pytest.raises(IndexError):
            embed_rows(table, [6])


class TestPick:
    def test_values_follow_the_index_order(self):
        a = Tensor(rand(5, seed=40))
        b = Tensor(rand((3, 4), seed=41))
        out = pick([a, b, a], [3, (2, 1), np.array([0, 4])])
        np.testing.assert_array_equal(out.data, [a.data[3], b.data[2, 1], a.data[0], a.data[4]])

    def test_rank1_gradient_with_an_entry_picked_twice(self):
        x = Tensor(rand(6, seed=42), requires_grad=True)
        w = Tensor(rand(4, seed=43))
        err = grad_check(lambda: sum_all(pick([x], [np.array([1, 4, 1, 0])]) * w), [x], h=1e-3)
        assert err < 1e-6

    def test_rank2_gradient_with_a_tensor_listed_twice_and_a_constant(self):
        x = Tensor(rand((3, 5), seed=44), requires_grad=True)
        y = Tensor(rand(4, seed=45), requires_grad=True)
        const = Tensor(rand((2, 2), seed=46))
        rows, cols = np.array([0, 2, 2]), np.array([4, 1, 1])
        w = Tensor(rand(6, seed=47))

        def f():
            picked = pick([x, const, y, x], [(rows, cols), (1, 0), 3, (0, 4)])
            return sum_all(log_softmax(reshape(picked * w, (1, 6))) * w)

        assert grad_check(f, [x, y], h=1e-3) < 1e-6

    def test_gradient_scatter_adds(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        const = Tensor(np.ones(2, dtype=np.float32))
        out = pick([x, const, x], [(np.array([1, 1]), np.array([2, 2])), 0, (0, 0)])
        sum_all(out * Tensor([1.0, 2.0, 5.0, 7.0])).backward()
        np.testing.assert_array_equal(x.grad, [[7.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
        assert const.grad is None

    def test_empty_index_picks_nothing(self):
        x = Tensor(rand((2, 3), seed=48), requires_grad=True)
        out = pick([x], [(np.array([], dtype=int), np.array([], dtype=int))])
        assert out.shape == (0,)
        assert sum_all(out).item() == 0.0

    @pytest.mark.parametrize("index", [5, -1, (0, 3), (np.array([0, 2]), np.array([0, 0]))])
    def test_out_of_range_raises_index_error(self, index):
        x = Tensor(rand(5)) if isinstance(index, int) else Tensor(rand((2, 3)))
        with pytest.raises(IndexError):
            pick([x], [index])

    def test_index_must_address_every_axis(self):
        with pytest.raises(ShapeError):
            pick([Tensor(rand((2, 3)))], [1])
        with pytest.raises(ValueError, match="one index per tensor"):
            pick([Tensor(rand(3))], [0, 1])
        with pytest.raises(ValueError, match="one index per tensor"):
            pick([], [])


class TestFusedOps:
    def test_masked_softmax_zero_probability(self):
        x = Tensor(rand((3, 4), seed=26))
        mask = np.zeros((3, 4), dtype=bool)
        mask[:, 2] = True
        out = masked_softmax(x, mask).data
        assert (out[:, 2] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(3), atol=1e-6)

    def test_masked_softmax_rejects_fully_masked(self):
        with pytest.raises(ValueError, match="masked"):
            masked_softmax(Tensor(rand((2, 3))), np.ones((2, 3), dtype=bool))

    def test_masked_softmax_gradient(self):
        x = Tensor(rand((2, 5), seed=27), requires_grad=True)
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 1] = mask[1, 4] = True
        w = Tensor(rand((2, 5), seed=28))
        err = grad_check(lambda: sum_all(masked_softmax(x, mask) * w), [x], h=1e-3)
        assert err < 1e-4

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rand(7, seed=29))
        np.testing.assert_allclose(
            log_softmax(x).data, np.log(masked_softmax(x).data), atol=1e-6
        )

    def test_log_clamped(self):
        x = Tensor([0.5, 0.0])
        out = log_clamped(x)
        assert out.data[0] == pytest.approx(math.log(0.5), abs=1e-6)
        assert out.data[1] == pytest.approx(math.log(1e-12))
        y = Tensor([0.3, 0.9], requires_grad=True)
        err = grad_check(lambda: sum_all(log_clamped(y)), [y], h=1e-3)
        assert err < 1e-4

    def test_gelu_values_and_gradient(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0
        assert gelu(Tensor([10.0])).data[0] == pytest.approx(10.0, abs=1e-3)
        x = Tensor(rand(9, seed=30), requires_grad=True)
        err = grad_check(lambda: sum_all(gelu(x) * gelu(x)), [x], h=1e-3)
        assert err < 1e-4

    def test_layer_norm_statistics_and_gradient(self):
        x = Tensor(rand((4, 8), seed=31), requires_grad=True)
        gain = Tensor(np.ones(8, dtype=np.float32), requires_grad=True)
        bias = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        out = layer_norm(x, gain, bias).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-5)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)
        w = Tensor(rand((4, 8), seed=32))
        err = grad_check(
            lambda: sum_all(layer_norm(x, gain, bias) * w), [x, gain, bias], h=1e-3
        )
        assert err < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_matches_numpy_var_bit_for_bit(self, dtype):
        v = (rand((5, 16), seed=49) * 3.0 + 1.0).astype(dtype)
        gain, bias = rand(16, seed=50).astype(dtype), rand(16, seed=51).astype(dtype)
        mu = v.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(v.var(axis=-1, keepdims=True) + 1e-5)
        expected = (v - mu) * inv * gain + bias
        out = layer_norm(Tensor(v), Tensor(gain), Tensor(bias)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, expected)

    def test_division_gradient(self):
        a = Tensor(rand(5, seed=33), requires_grad=True)
        b = Tensor(rand(5, seed=34) + 3.0, requires_grad=True)
        err = grad_check(lambda: sum_all(a / b), [a, b], h=1e-3)
        assert err < 1e-4

    def test_broadcast_add_gradient(self):
        x = Tensor(rand((3, 4), seed=35), requires_grad=True)
        b = Tensor(rand(4, seed=36), requires_grad=True)
        err = grad_check(lambda: sum_all((x + b) * (x + b)), [x, b], h=1e-3)
        assert err < 1e-4

    def test_outer_broadcast_mul_gradient(self):
        col = Tensor(rand((3, 1), seed=37), requires_grad=True)
        row = Tensor(rand((1, 4), seed=38), requires_grad=True)
        err = grad_check(lambda: sum_all((col * row) * (col * row)), [col, row], h=1e-3)
        assert err < 1e-4


def test_forward_values_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(39)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32) * 50)
    for out in (masked_softmax(x), sigmoid(x), gelu(x), mean_axis(x, 0)):
        assert np.isfinite(out.data).all()


class TestScalarOperands:
    OPS = {
        "add": (lambda t: t + 2.5, lambda t: 2.5 + t),
        "sub": (lambda t: t - 2.5, lambda t: 2.5 - t),
        "mul": (lambda t: t * 2.5, lambda t: 2.5 * t),
        "div": (lambda t: t / 2.5, lambda t: 2.5 / t),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("order", [0, 1])
    def test_python_scalar_keeps_tensor_dtype(self, dtype, op, order):
        x = Tensor(rand((3, 4), seed=47).astype(dtype) + 4.0, requires_grad=True)
        out = self.OPS[op][order](x)
        assert out.data.dtype == dtype
        sum_all(out).backward()
        assert x.grad.dtype == dtype
        assert all(n.data.dtype == dtype for n in ComputationTape.trace(out).nodes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negation_keeps_tensor_dtype(self, dtype):
        x = Tensor(rand(5, seed=48).astype(dtype))
        out = -x
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, -x.data)
