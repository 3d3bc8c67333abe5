import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import key_masks
from quag import tensor as T
from quag.tensor import (
    ComputationTape,
    ShapeError,
    Tensor,
    attention,
    attention_core,
    concat_last,
    embed_rows,
    gelu,
    grad_check,
    layer_norm,
    log_clamped,
    log_softmax,
    log_softmax_core,
    masked_softmax,
    matmul,
    mean_axis,
    no_grad,
    pick,
    reshape,
    sigmoid,
    slice_rows,
    softmax_core,
    stack_rows,
    sum_all,
    take_episode,
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

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 4), (5, 1)])
    def test_equals_the_numpy_product(self, m, n):
        a, b = rand((m, 3), seed=40), rand((3, n), seed=41)
        out = matmul(Tensor(a), Tensor(b))
        assert out.shape == (m, n)
        np.testing.assert_array_equal(out.data, a @ b)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((2, 3, 4), (2, 4, 5)),   # a stack of products: rank 2 only
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
        for a_shape, b_shape in [((2, 2), (3, 2)), ((3, 2), (2, 2, 2)), ((2, 4, 1), (3, 4, 5))]:
            with pytest.raises(ShapeError, match="do not broadcast"):
                concat_last(Tensor(rand(a_shape)), Tensor(rand(b_shape)))

    def test_row_joins_every_row_of_a_block(self):
        block, row = rand((4, 3), seed=12), rand((2,), seed=13)
        out = concat_last(Tensor(block), Tensor(row))
        assert out.shape == (4, 5)
        np.testing.assert_array_equal(out.data[:, :3], block)
        np.testing.assert_array_equal(out.data[:, 3:], np.tile(row, (4, 1)))

    def test_row_gradient_is_the_column_sum_of_its_slice(self):
        block = Tensor(rand((4, 3), seed=14), requires_grad=True)
        row = Tensor(rand((2,), seed=15), requires_grad=True)
        weight = Tensor(rand((4, 5), seed=16))
        concat = concat_last(row, block)
        sum_all(concat * weight).backward()
        np.testing.assert_allclose(row.grad, weight.data[:, :2].sum(axis=0), rtol=1e-6)
        np.testing.assert_allclose(block.grad, weight.data[:, 2:])
        f = lambda: sum_all(concat_last(block, row) * concat_last(block, row))
        assert grad_check(f, [block, row]) < 1e-4

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
        err = grad_check(lambda: sum_all(log_softmax(x) * onehot) * -1.0, [x], h=1e-3)
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

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1), (1, 5)], ids=str)
    def test_transpose_values_copy_and_grad(self, shape):
        x = Tensor(rand(shape, seed=45), requires_grad=True)
        out = transpose(x)
        np.testing.assert_array_equal(out.data, x.data.T)
        assert out.data.flags.c_contiguous
        assert not np.shares_memory(out.data, x.data)
        w = Tensor(rand(out.shape, seed=46))
        err = grad_check(lambda: sum_all(transpose(x) * w), [x], h=1e-3)
        assert err < 1e-4

    def test_transpose_rejects_rank_3(self):
        with pytest.raises(ShapeError, match="rank-2"):
            transpose(Tensor(rand((2, 3, 4))))

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
        # two overlapping slices of one tensor add into the shared row
        v = Tensor(rand((3, 4), seed=24))
        err = grad_check(lambda: sum_all(slice_rows(x, 1, 3) * w)
                         + sum_all(slice_rows(x, 2, 5) * v), [x], h=1e-3)
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


class TestAttention:
    @staticmethod
    def qkv(n_q, n_k, dim, dtype=np.float64, seed=70):
        g = np.random.default_rng(seed)
        return [Tensor(g.standard_normal((n, dim)).astype(dtype), requires_grad=True)
                for n in (n_q, n_k, n_k)]

    @staticmethod
    def weights(dim, dtype=np.float64, seed=72):
        """wq, wk, wv and wo, scaled so the scores stay near unit size."""
        g = np.random.default_rng(seed)
        return [Tensor((g.standard_normal((dim, dim)) / math.sqrt(dim)).astype(dtype),
                       requires_grad=True) for _ in range(4)]

    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    @pytest.mark.parametrize("mask_kind", ["none", "causal", "padded"])
    def test_gradient(self, n_heads, mask_kind):
        q, k, v = self.qkv(3, 5, 16)
        ws = self.weights(16)
        mask = key_masks(3, 5)[mask_kind]
        w = Tensor(rand((3, 16), seed=71).astype(np.float64))
        err = grad_check(lambda: sum_all(attention(q, k, v, *ws, n_heads, mask) * w),
                         [q, k, v] + ws, h=1e-3, max_coords=40)
        assert err < 1e-6

    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    @pytest.mark.parametrize("mask_kind", ["none", "causal", "padded"])
    @pytest.mark.parametrize("shared", ["key-is-value", "all-same"])
    def test_gradient_shared_inputs(self, shared, mask_kind, n_heads):
        """One tensor as keys and values, or as queries, keys and values:
        the backward adds each use's gradient into it."""
        n_q = 5 if shared == "all-same" else 3
        q, kv, _ = self.qkv(n_q, 5, 16, seed=73)
        q = kv if shared == "all-same" else q
        ws = self.weights(16, seed=74)
        mask = key_masks(n_q, 5)[mask_kind]
        w = Tensor(rand((n_q, 16), seed=75).astype(np.float64))
        inputs = [kv] if shared == "all-same" else [q, kv]
        err = grad_check(lambda: sum_all(attention(q, kv, kv, *ws, n_heads, mask) * w),
                         inputs + ws, h=1e-3, max_coords=40)
        assert err < 1e-5

    def test_fully_masked_padding_row_rejected(self):
        q, k, v = self.qkv(3, 5, 8)
        mask = key_masks(3, 5)["padded"]
        mask[2] = True
        with pytest.raises(ValueError, match="masked"):
            attention(q, k, v, *self.weights(8), 2, mask)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_input_dtype(self, dtype):
        q, k, v = self.qkv(4, 6, 8, dtype)
        ws = self.weights(8, dtype)
        out = attention(q, k, v, *ws, 2, key_masks(4, 6)["causal"])
        assert out.data.dtype == dtype
        sum_all(out).backward()
        assert {t.grad.dtype for t in [q, k, v] + ws} == {np.dtype(dtype)}

    def test_shape_errors(self):
        q, k, v = self.qkv(3, 5, 8)
        ws = self.weights(8)
        with pytest.raises(ShapeError):
            attention(q, k, Tensor(rand((4, 8))), *ws, 2)
        with pytest.raises(ShapeError):
            attention(q, Tensor(rand((5, 6))), Tensor(rand((5, 6))), *ws, 2)
        with pytest.raises(ShapeError):
            attention(q, k, v, *ws, 3)
        with pytest.raises(ShapeError):
            attention(q, k, v, *ws, 2, np.zeros((5, 3), dtype=bool))
        with pytest.raises(ShapeError):
            attention(q, k, v, *ws[:3], Tensor(rand((6, 8))), 2)

    def test_records_one_node(self):
        q, k, v = self.qkv(3, 5, 8)
        ws = self.weights(8)
        out = attention(q, k, v, *ws, 2)
        assert out._parents == (q, k, v, *ws)
        assert len(ComputationTape.trace(out).nodes) == 7 + 1


class TestAffine:
    @pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["rank1", "rank2"])
    def test_gradient(self, shape):
        x = Tensor(rand(shape, seed=80).astype(np.float64), requires_grad=True)
        w = Tensor(rand((4, 3), seed=81).astype(np.float64), requires_grad=True)
        b = Tensor(rand(3, seed=82).astype(np.float64), requires_grad=True)
        out = T.affine(x, w, b)
        assert out.shape == shape[:-1] + (3,)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=1e-12)
        err = grad_check(lambda: sum_all(T.affine(x, w, b) * T.affine(x, w, b)), [x, w, b],
                         h=1e-3)
        assert err < 1e-6

    def test_input_without_grad(self):
        x = Tensor(rand((3, 4), seed=83).astype(np.float64))
        w = Tensor(rand((4, 2), seed=84).astype(np.float64), requires_grad=True)
        b = Tensor(rand(2, seed=85).astype(np.float64), requires_grad=True)
        err = grad_check(lambda: sum_all(T.affine(x, w, b) * T.affine(x, w, b)), [w, b], h=1e-3)
        assert err < 1e-6
        sum_all(T.affine(x, w, b)).backward()
        assert x.grad is None

    @pytest.mark.parametrize("x,w,b", [((2, 5), (4, 3), (3,)), ((2, 4), (4, 3), (2,)),
                                       ((2, 2, 2, 4), (4, 3), (3,)), ((4,), (4,), (1,))])
    def test_shape_errors(self, x, w, b):
        with pytest.raises(ShapeError):
            T.affine(Tensor(rand(x)), Tensor(rand(w)), Tensor(rand(b)))


class TestLeadingEpisodeAxis:
    """A [B x N x ·] input is B episodes in one node: values and gradients
    equal B rank-2 calls bit for bit, each parameter gradient being the
    per-episode gradients added last episode first."""

    B, N, D = 3, 5, 8

    @staticmethod
    def leaves(*arrays):
        return [Tensor(a, requires_grad=True) for a in arrays]

    def per_episode(self, op, stacked_inputs, params, seed):
        """Run ``op`` on the stack and on each episode alone (backward from
        the last episode to the first, with copies of ``params``), and
        require equal outputs, input gradients and parameter gradients."""
        stacked_params = self.leaves(*params)
        xs = self.leaves(*stacked_inputs)
        out = op(*xs, *stacked_params)
        upstream = rand(out.shape, seed=seed).astype(out.data.dtype)
        out.backward(upstream)
        alone_params = self.leaves(*params)
        alone_xs = [self.leaves(*(x[b] for x in stacked_inputs)) for b in range(self.B)]
        outs = [op(*alone_xs[b], *alone_params) for b in range(self.B)]
        for b in range(self.B - 1, -1, -1):
            outs[b].backward(upstream[b])
        for b in range(self.B):
            np.testing.assert_array_equal(out.data[b], outs[b].data)
            for x, x_b in zip(xs, alone_xs[b]):
                np.testing.assert_array_equal(x.grad[b], x_b.grad)
        for p, p_alone in zip(stacked_params, alone_params):
            np.testing.assert_array_equal(p.grad, p_alone.grad)

    @pytest.mark.parametrize("rows", [1, 5], ids=["query-row", "frames"])
    def test_affine_equals_per_episode_calls(self, rows):
        x = rand((self.B, rows, 6), seed=90)
        self.per_episode(T.affine, [x], [rand((6, self.D), seed=91), rand(self.D, seed=92)], 93)

    @pytest.mark.parametrize("mask_kind", ["none", "causal"])
    def test_self_attention_equals_per_episode_calls(self, mask_kind):
        mask = key_masks(self.N, self.N)[mask_kind]
        weights = [rand((self.D, self.D), seed=s) / math.sqrt(self.D) for s in range(94, 98)]
        self.per_episode(lambda x, *ws: attention(x, x, x, *ws, 2, mask),
                         [rand((self.B, self.N, self.D), seed=98)], weights, 99)

    def test_cross_attention_equals_per_episode_calls(self):
        weights = [rand((self.D, self.D), seed=s) / math.sqrt(self.D) for s in range(100, 104)]
        self.per_episode(lambda q, kv, *ws: attention(q, kv, kv, *ws, 4),
                         [rand((self.B, 2, self.D), seed=104),
                          rand((self.B, self.N, self.D), seed=105)], weights, 106)

    def test_layer_norm_equals_per_episode_calls(self):
        self.per_episode(layer_norm, [rand((self.B, self.N, self.D), seed=107)],
                         [rand(self.D, seed=108), rand(self.D, seed=109)], 110)

    def test_repeated_slice_equals_separate_slices(self):
        """``slice_rows`` with ``lead``, as the trunk adds positions to
        every episode: the table's gradient is the B slices' gradients, added
        last episode first."""
        table = Tensor(rand((7, self.D), seed=111), requires_grad=True)
        upstream = rand((self.B, self.N, self.D), seed=112)
        out = slice_rows(table, 0, self.N, (self.B,))
        assert out.shape == (self.B, self.N, self.D)
        out.backward(upstream)
        alone = Tensor(table.data.copy(), requires_grad=True)
        slices = [slice_rows(alone, 0, self.N) for _ in range(self.B)]
        for b in range(self.B - 1, -1, -1):
            np.testing.assert_array_equal(out.data[b], slices[b].data)
            slices[b].backward(upstream[b])
        np.testing.assert_array_equal(table.grad, alone.grad)

    def stacked_layer(self, op):
        """A layer over x [B x N x D], and its parameters' arrays."""
        B, N, D = self.B, self.N, self.D
        if op == "affine":
            return T.affine, [rand((D, D), seed=130), rand(D, seed=131)]
        if op == "attention":
            mask = key_masks(N, N)["causal"]
            return (lambda x, *ws: attention(x, x, x, *ws, 2, mask),
                    [rand((D, D), seed=s) / math.sqrt(D) for s in range(132, 136)])
        if op == "layer_norm":
            return layer_norm, [rand(D, seed=136), rand(D, seed=137)]
        return lambda x, table: x * slice_rows(table, 0, N, (B,)), [rand((7, D), seed=138)]

    @pytest.mark.parametrize("op", ["affine", "attention", "layer_norm", "slice_rows"])
    def test_frozen_parameters_get_no_gradient(self, op):
        """A parameter that does not require grad gets no gradient from a
        stacked backward, and the input's gradient is the one it gets when
        every parameter is trained."""
        layer, params = self.stacked_layer(op)
        x_data = rand((self.B, self.N, self.D), seed=139)
        upstream = rand((self.B, self.N, self.D), seed=140)
        input_grads = []
        for trained in (True, False):
            x = Tensor(x_data, requires_grad=True)
            ps = [Tensor(p, requires_grad=trained) for p in params]
            layer(x, *ps).backward(upstream)
            assert [p.grad is not None for p in ps] == [trained] * len(ps)
            input_grads.append(x.grad)
        np.testing.assert_array_equal(input_grads[0], input_grads[1])

    @pytest.mark.parametrize("op", ["affine", "attention", "layer_norm"])
    def test_gradient(self, op):
        g = np.random.default_rng(113)
        x = Tensor(g.standard_normal((2, 3, 4)), requires_grad=True)
        params = [Tensor(g.standard_normal(shape) / 2, requires_grad=True)
                  for shape in {"affine": [(4, 4), (4,)], "attention": [(4, 4)] * 4,
                                "layer_norm": [(4,), (4,)]}[op]]
        probe = Tensor(g.standard_normal((2, 3, 4)))
        layer = {"affine": T.affine, "layer_norm": layer_norm,
                 "attention": lambda h, *ws: attention(h, h, h, *ws, 2,
                                                       key_masks(3, 3)["causal"])}[op]
        err = grad_check(lambda: sum_all(layer(x, *params) * probe), [x] + params, h=1e-4)
        assert err < 1e-6

    def test_repeated_slice_and_take_gradients(self):
        table = Tensor(rand((6, 3), seed=114).astype(np.float64), requires_grad=True)
        x = Tensor(rand((4, 5, 3), seed=115).astype(np.float64), requires_grad=True)
        probes = [Tensor(rand((5, 3), seed=116 + i).astype(np.float64)) for i in range(4)]

        def f():
            stacked = x * slice_rows(table, 1, 6, (4,))
            return sum_all(take_episode(stacked, 2) * probes[0]) \
                + sum_all(take_episode(stacked, 0) * probes[1]) \
                + sum_all(take_episode(stacked, 2) * probes[2])

        assert grad_check(f, [table, x], h=1e-3) < 1e-6
        f().backward()
        assert not x.grad[[1, 3]].any()

    def test_take_episode_values_and_errors(self):
        x = Tensor(rand((3, 4, 2), seed=120))
        out = take_episode(x, 1)
        np.testing.assert_array_equal(out.data, x.data[1])
        assert not np.shares_memory(out.data, x.data)
        for index in (-1, 3):
            with pytest.raises(ShapeError):
                take_episode(x, index)
        with pytest.raises(ShapeError):
            take_episode(Tensor(np.float32(1.0)), 0)

    def test_shape_errors(self):
        x = Tensor(rand((2, 3, 4), seed=121))
        ws = [Tensor(rand((4, 4), seed=s)) for s in range(122, 126)]
        with pytest.raises(ShapeError):  # keys from another batch size
            attention(x, Tensor(rand((3, 3, 4))), Tensor(rand((3, 3, 4))), *ws, 2)
        with pytest.raises(ShapeError):  # rank-2 keys for rank-3 queries
            attention(x, Tensor(rand((3, 4))), Tensor(rand((3, 4))), *ws, 2)
        with pytest.raises(ShapeError):
            attention(Tensor(rand((1, 2, 3, 4))), *[Tensor(rand((1, 2, 3, 4)))] * 2, *ws, 2)


class TestRepeatedBackward:
    """Each ``backward()`` adds exactly one pass into the leaves, because the
    op nodes' gradients are freed as the pass uses them."""

    @staticmethod
    def chain():
        x = Tensor(rand(3, seed=90), requires_grad=True)
        return [x], sum_all(sigmoid(x * 2.0) * 3.0)

    @staticmethod
    def diamond():
        x = Tensor(rand((2, 3), seed=91), requires_grad=True)
        h = x * 1.5
        return [x], sum_all(gelu(h) * sigmoid(h) + h)

    @staticmethod
    def parameter_used_twice():
        # Small integers, so summing a leaf's two gradients is exact.
        g = np.random.default_rng(92)
        x, w, b = (Tensor(g.integers(-3, 4, shape).astype(np.float32), requires_grad=True)
                   for shape in ((2, 4), (4, 4), (4,)))
        return [x, w, b], sum_all(T.affine(T.affine(x, w, b), w, b))

    @pytest.mark.parametrize("build", ["chain", "diamond", "parameter_used_twice"])
    def test_two_calls_give_twice_one(self, build):
        leaves, out = getattr(self, build)()
        out.backward()
        once = [t.grad.copy() for t in leaves]
        out.backward()
        for t, g in zip(leaves, once):
            assert np.array_equal(t.grad, 2 * g)
        assert all(n.grad is None for n in ComputationTape.trace(out).nodes if n._backward)

    def test_chain_of_scalings_reads_four_not_eight(self):
        x = Tensor(np.float32(1.0), requires_grad=True)
        out = sum_all(x * 2.0)
        out.backward()
        out.backward()
        assert x.grad == 4.0


def special_rows(seed=91):
    """[14 x 6] float32 score rows: random, partly and fully -inf, holding a
    NaN (first, inside, everywhere, beside -inf), and of signed zeros."""
    g = np.random.default_rng(seed)
    rows = (g.standard_normal((14, 6)) * 10).astype(np.float32)
    rows[2, [0, 3]] = -np.inf
    rows[3, 1:] = -np.inf
    rows[4] = -np.inf
    rows[5, 0] = np.nan
    rows[6, 4] = np.nan
    rows[7] = np.nan
    rows[8, [1, 2]] = [np.nan, -np.inf]
    rows[9] = [0.0, -0.0, -1.0, -0.0, -2.0, 0.0]
    rows[10] = -0.0
    rows[11] = [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
    rows[12] = [-0.0, -3.0, -1.0, -4.0, -5.0, -9.0]
    rows[13] = 0.0
    return rows


class TestRowMaxAgainstMax:
    """The softmax-like ops shift each row by ``np.fmax.reduce``, which
    skips NaNs where ``.max`` returns them; a row holding a NaN still comes
    out all NaN, through its sum, so every output equals the ``.max``
    formula's."""

    @staticmethod
    def softmax_ref(v):
        z = v - v.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    @staticmethod
    def log_softmax_ref(v):
        z = v - v.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    @staticmethod
    def attention_core_ref(q, k, v, mask):
        s = q @ k
        s *= s.dtype.type(1.0 / np.sqrt(q.shape[-1]))
        if mask is not None:
            np.copyto(s, -np.inf, where=mask)
        s -= s.max(axis=-1, keepdims=True)
        w = np.exp(s, out=s)
        w /= w.sum(axis=-1, keepdims=True)
        return w @ v, w

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b, equal_nan=True)

    def test_softmax_and_log_softmax(self):
        rows = special_rows()
        mask = np.random.default_rng(92).random(rows.shape) < 0.3
        mask[:, 0] = False
        with np.errstate(invalid="ignore", divide="ignore"):
            assert self.same(masked_softmax(Tensor(rows)).data, self.softmax_ref(rows))
            assert self.same(masked_softmax(Tensor(rows), mask).data,
                             self.softmax_ref(np.where(mask, -np.inf, rows)))
            assert self.same(log_softmax(Tensor(rows)).data, self.log_softmax_ref(rows))
            assert self.same(log_softmax_core(rows), self.log_softmax_ref(rows))
        assert np.isnan(masked_softmax(Tensor(rows[5:9])).data).all()

    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_core_in_place(self, masked):
        rows = special_rows()
        mask = np.random.default_rng(96).random(rows.shape) < 0.3 if masked else None
        with np.errstate(invalid="ignore"):
            want = self.softmax_ref(np.where(mask, -np.inf, rows) if masked else rows)
            got = softmax_core(rows, mask)
        assert got is rows
        assert self.same(got, want)
        if masked:
            finite_rows = np.isfinite(got).all(axis=-1, keepdims=True)
            assert (got[mask & finite_rows] == 0).all()
        else:  # a fully -inf row and the rows holding a NaN
            assert np.isnan(got[4:9]).all()

    @pytest.mark.parametrize("masked", [False, True])
    def test_attention_core(self, masked):
        # One-channel queries of 1 make the scores the rows themselves.
        rows = special_rows()[:, None, :]
        q = np.ones((len(rows), 1, 1), dtype=np.float32)
        v = rand((len(rows), rows.shape[-1], 3), seed=93)
        mask = np.random.default_rng(94).random(rows.shape) < 0.3 if masked else None
        if masked:
            mask[..., 0] = False
        with np.errstate(invalid="ignore"):
            got, want = attention_core(q, rows, v, mask), self.attention_core_ref(q, rows, v, mask)
        assert all(self.same(a, b) for a, b in zip(got, want))
        assert np.isfinite(got[1][[0, 1, 2, 3, 9, 10, 11, 12, 13]]).all()

    def test_random_score_blocks(self):
        g = np.random.default_rng(95)
        for shape in [(8, 32, 32), (2, 8, 1, 12)]:
            q = g.standard_normal(shape[:-1] + (16,)).astype(np.float32)
            k = g.standard_normal(shape[:-2] + (16, shape[-1])).astype(np.float32)
            v = g.standard_normal(shape[:-2] + (shape[-1], 16)).astype(np.float32)
            got, want = attention_core(q, k, v), self.attention_core_ref(q, k, v, None)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_forward_values_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(39)
    x = Tensor(rng.standard_normal((4, 6)).astype(np.float32) * 50)
    for out in (masked_softmax(x), sigmoid(x), gelu(x), mean_axis(x, 0)):
        assert np.isfinite(out.data).all()


class TestScalarOperands:
    OPS = {
        "add": lambda t: t + 2.5,
        "mul": lambda t: t * 2.5,
        "div": lambda t: t / 2.5,
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_python_scalar_keeps_tensor_dtype(self, dtype, op):
        x = Tensor(rand((3, 4), seed=47).astype(dtype) + 4.0, requires_grad=True)
        out = self.OPS[op](x)
        assert out.data.dtype == dtype
        sum_all(out).backward()
        assert x.grad.dtype == dtype
        assert all(n.data.dtype == dtype for n in ComputationTape.trace(out).nodes)

    # Only ``t + x``, ``t * x`` and ``t / x`` are operators; the rest is
    # written with the named ops, so these fail loudly instead of building
    # another graph.
    MISSING = {
        "2.5 + t": lambda t: 2.5 + t,
        "2.5 * t": lambda t: 2.5 * t,
        "2.5 / t": lambda t: 2.5 / t,
        "t - 2.5": lambda t: t - 2.5,
        "2.5 - t": lambda t: 2.5 - t,
        "-t": lambda t: -t,
        "t @ t": lambda t: t @ t,
    }

    @pytest.mark.parametrize("expr", list(MISSING))
    def test_other_operators_raise_type_error(self, expr):
        x = Tensor(rand((3, 3), seed=48), requires_grad=True)
        with pytest.raises(TypeError):
            self.MISSING[expr](x)
