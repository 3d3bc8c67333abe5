import math

import numpy as np
import pytest

from conftest import key_masks
from quag import tensor
from quag.layers import (
    LinearLayer,
    MultiHeadAttention,
    TransformerBlock,
    causal_mask,
    encoder_forward,
)
from quag.tensor import (
    ComputationTape,
    ShapeError,
    Tensor,
    attention_core,
    concat_last,
    grad_check,
    layer_norm,
    masked_softmax,
    matmul,
    reshape,
    slice_rows,
    sum_all,
    transpose,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def identity_attention(dim, n_heads=1):
    mats = [Tensor(np.eye(dim, dtype=np.float32)) for _ in range(4)]
    return MultiHeadAttention(*mats, n_heads=n_heads)


def reference_attention(q, k, v, scale, mask=None):
    """Plain numpy single-head attention used as an independent oracle."""
    scores = (q @ k.T) * scale
    if mask is not None:
        scores = np.where(mask, -np.inf, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ v


def composed_mha(attn, query, key, value, mask=None):
    """Multi-head attention composed of rank-2 graph ops, the reference the
    fused ``tensor.attention`` op is held to: the full-width projections,
    then per head its channels' columns, scaled scores, masked softmax and
    weighted sum, the heads joined in order and projected by ``wo``."""
    q_t, k_t, v_t = (transpose(matmul(x, w)) for x, w in
                     ((query, attn.wq), (key, attn.wk), (value, attn.wv)))
    width = attn.dim // attn.n_heads
    heads = []
    for lo in range(0, attn.dim, width):
        q, v = (transpose(slice_rows(x, lo, lo + width)) for x in (q_t, v_t))
        scores = matmul(q, slice_rows(k_t, lo, lo + width)) * (1.0 / math.sqrt(width))
        heads.append(matmul(masked_softmax(scores, mask), v))
    ctx = concat_last(*heads) if len(heads) > 1 else heads[0]
    return matmul(ctx, attn.wo)


def attention_node(q, k, v, n_heads, mask=None):
    """The attention core as one node over projected [Lq x D] queries and
    [Lk x D] keys and values: the op ``tensor.attention`` was before it took
    the projections in, with the same hand-written backward."""
    dim = q.shape[1]
    split = (-1, n_heads, dim // n_heads)
    qh = np.ascontiguousarray(q.data.reshape(split).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.data.reshape(split).transpose(1, 2, 0))
    vh = np.ascontiguousarray(v.data.reshape(split).transpose(1, 0, 2))
    ctx, w = attention_core(qh, kh, vh, mask)
    scale = w.dtype.type(1.0 / np.sqrt(qh.shape[-1]))

    def merge(heads):
        return heads.transpose(1, 0, 2).reshape(-1, dim)

    def backward(g):
        gh = g.reshape(split).transpose(1, 0, 2)
        tensor._accumulate(v, merge(np.swapaxes(w, -1, -2) @ gh))
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= scale
        tensor._accumulate(q, merge(ds @ np.swapaxes(kh, -1, -2)))
        tensor._accumulate(k, merge(np.swapaxes(ds, -1, -2) @ qh))

    return tensor._node(merge(ctx), (q, k, v), backward)


def five_node_mha(attn, query, key, value, mask=None):
    """Multi-head attention as five graph nodes, as it was before
    ``tensor.attention`` took the projections in: three input projections,
    the attention core and ``wo``. The fused node must equal it bit for bit."""
    ctx = attention_node(matmul(query, attn.wq), matmul(key, attn.wk), matmul(value, attn.wv),
                         attn.n_heads, mask)
    return matmul(ctx, attn.wo)


def two_node_linear(x, layer):
    """A linear layer as it was before ``tensor.affine``: a matmul and a bias add,
    a rank-1 input reshaped to one row and back."""
    if x.ndim == 1:
        out = matmul(reshape(x, (1, x.shape[0])), layer.weight) + layer.bias
        return reshape(out, (layer.out_dim,))
    return matmul(x, layer.weight) + layer.bias


def core_weights(query, key, attn, mask=None):
    """The [h x Lq x Lk] attention weights of ``attn``, read from the numpy
    core that it runs on."""
    split = (-1, attn.n_heads, attn.dim // attn.n_heads)
    q = (query.data @ attn.wq.data).reshape(split).transpose(1, 0, 2)
    k = (key.data @ attn.wk.data).reshape(split).transpose(1, 2, 0)
    v = (key.data @ attn.wv.data).reshape(split).transpose(1, 0, 2)
    return attention_core(q, k, v, mask)[1]


class TestLinear:
    def test_identity(self):
        layer = LinearLayer(Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)))
        x = rng(1).standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_hand_arithmetic(self):
        layer = LinearLayer(Tensor([[1.0], [1.0]]), Tensor([0.5]))
        out = layer(Tensor([1.0, 1.0]))
        np.testing.assert_allclose(out.data, [2.5])

    def test_shape_mismatch(self):
        layer = LinearLayer.create(rng(), 3, 2)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 4), dtype=np.float32)))

    def test_gradient(self):
        layer = LinearLayer.create(rng(2), 4, 3)
        x = Tensor(rng(3).standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        params = [x, layer.weight, layer.bias]
        err = grad_check(lambda: sum_all(layer(x) * layer(x)), params, h=1e-3)
        assert err < 1e-4


class TestMha:
    def test_single_key_weight_is_one(self):
        attn = identity_attention(3)
        q = Tensor(rng(4).standard_normal((5, 3)).astype(np.float32))
        kv = Tensor(rng(5).standard_normal((1, 3)).astype(np.float32))
        out = attn(q, kv, kv)
        np.testing.assert_allclose(core_weights(q, kv, attn)[0], np.ones((5, 1)))
        np.testing.assert_allclose(out.data, np.tile(kv.data, (5, 1)), rtol=1e-6)

    def test_equal_keys_give_mean_of_values(self):
        attn = identity_attention(2)
        q = Tensor(rng(6).standard_normal((3, 2)).astype(np.float32))
        k = Tensor(np.ones((4, 2), dtype=np.float32))
        v = Tensor(rng(7).standard_normal((4, 2)).astype(np.float32))
        out = attn(q, k, v)
        expected = np.tile(v.data.mean(axis=0), (3, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_hand_computed_single_head(self):
        attn = identity_attention(2)
        q = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        k = np.array([[1.0, 1.0], [-1.0, 0.5]], dtype=np.float32)
        v = np.array([[0.5, -0.5], [2.0, 1.0]], dtype=np.float32)
        out = attn(Tensor(q), Tensor(k), Tensor(v))
        expected = reference_attention(q, k, v, scale=1.0 / np.sqrt(2.0))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_permutation_equivariance_over_keys(self):
        attn = MultiHeadAttention.create(rng(8), 8, 2)
        q = Tensor(rng(9).standard_normal((3, 8)).astype(np.float32))
        k = rng(10).standard_normal((6, 8)).astype(np.float32)
        v = rng(11).standard_normal((6, 8)).astype(np.float32)
        perm = np.random.default_rng(12).permutation(6)
        out = attn(q, Tensor(k), Tensor(v))
        out_perm = attn(q, Tensor(k[perm]), Tensor(v[perm]))
        np.testing.assert_allclose(out.data, out_perm.data, atol=1e-6)

    def test_masked_keys_get_zero_weight(self):
        attn = MultiHeadAttention.create(rng(13), 4, 2)
        q = Tensor(rng(14).standard_normal((3, 4)).astype(np.float32))
        kv = Tensor(rng(15).standard_normal((5, 4)).astype(np.float32))
        mask = np.zeros((3, 5), dtype=bool)
        mask[0, 2] = mask[2, 0] = mask[2, 4] = True
        for w in core_weights(q, kv, attn, mask):
            assert (w[mask] == 0.0).all()

    def test_fully_masked_row_errors(self):
        attn = MultiHeadAttention.create(rng(16), 4, 2)
        q = Tensor(rng(17).standard_normal((2, 4)).astype(np.float32))
        kv = Tensor(rng(18).standard_normal((3, 4)).astype(np.float32))
        mask = np.zeros((2, 3), dtype=bool)
        mask[1, :] = True
        with pytest.raises(ValueError, match="masked"):
            attn(q, kv, kv, mask=mask)

    def test_dimension_mismatch(self):
        attn = MultiHeadAttention.create(rng(19), 4, 2)
        with pytest.raises(ShapeError):
            attn(Tensor(np.zeros((2, 6), dtype=np.float32)),
                 Tensor(np.zeros((2, 4), dtype=np.float32)),
                 Tensor(np.zeros((2, 4), dtype=np.float32)))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention.create(rng(20), 6, 4)

    def test_gradient(self):
        attn = MultiHeadAttention.create(rng(21), 4, 2)
        q = Tensor(rng(22).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        kv = Tensor(rng(23).standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        params = [q, kv, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(attn(q, kv, kv) * attn(q, kv, kv)),
                         params, h=1e-3, max_coords=6)
        assert err < 1e-4

    @pytest.mark.parametrize("n_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_per_head_reference(self, n_heads, causal):
        dim, n_q, n_k = 16, 5, 5 if causal else 7
        attn = MultiHeadAttention.create(rng(41), dim, n_heads)
        query = rng(42).standard_normal((n_q, dim)).astype(np.float32)
        key = rng(43).standard_normal((n_k, dim)).astype(np.float32)
        value = rng(44).standard_normal((n_k, dim)).astype(np.float32)
        mask = causal_mask(n_q) if causal else None
        out = attn(Tensor(query), Tensor(key), Tensor(value), mask=mask)
        assert core_weights(Tensor(query), Tensor(key), attn, mask).shape == (n_heads, n_q, n_k)

        wq, wk, wv, wo = (m.data.astype(np.float64) for m in (attn.wq, attn.wk, attn.wv, attn.wo))
        q, k, v = query @ wq, key @ wk, value @ wv
        width = dim // n_heads
        heads = []
        for h in range(n_heads):
            cols = slice(h * width, (h + 1) * width)
            heads.append(reference_attention(q[:, cols], k[:, cols], v[:, cols],
                                             1.0 / np.sqrt(width), mask))
        expected = np.concatenate(heads, axis=-1) @ wo
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_single_query_merges_like_a_row_of_many(self, n_heads):
        attn = MultiHeadAttention.create(rng(48), 8, n_heads)
        query = Tensor(rng(49).standard_normal((3, 8)).astype(np.float32))
        kv = Tensor(rng(50).standard_normal((4, 8)).astype(np.float32))
        rows = attn(query, kv, kv).data
        for i in range(3):
            one = attn(slice_rows(query, i, i + 1), kv, kv).data
            np.testing.assert_allclose(one, rows[i:i + 1], atol=1e-6)

    def test_gradient_single_query(self):
        attn = MultiHeadAttention.create(rng(51), 8, 4)
        q = Tensor(rng(52).standard_normal((1, 8)).astype(np.float32), requires_grad=True)
        kv = Tensor(rng(53).standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(54).standard_normal((1, 8)).astype(np.float32))
        params = [q, kv, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(attn(q, kv, kv) * w), params, h=1e-3,
                         max_coords=12)
        assert err < 1e-4

    def test_gradient_four_heads_causal(self):
        attn = MultiHeadAttention.create(rng(45), 8, 4)
        x = Tensor(rng(46).standard_normal((4, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(47).standard_normal((4, 8)).astype(np.float32))
        params = [x, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(attn(x, x, x, mask=causal_mask(4)) * w),
                         params, h=1e-3, max_coords=12)
        assert err < 1e-4


class TestFusedAgainstComposed:
    """The fused attention against ``composed_mha``: the forward does the
    same float32 arithmetic, so it is bit-equal; the hand-written backward is
    free to sum in another order, so gradients are held to float32 rounding."""

    @pytest.mark.parametrize("dim", [16, 64])
    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    @pytest.mark.parametrize("mask_kind", ["none", "causal", "padded"])
    @pytest.mark.parametrize("n_q,n_k", [(5, 5), (3, 7), (6, 4)])
    def test_values_equal_and_gradients_agree(self, dim, n_heads, mask_kind, n_q, n_k):
        attn = MultiHeadAttention.create(rng(60 + n_heads), dim, n_heads)
        g = rng(61)
        inputs = [Tensor(g.standard_normal((n, dim)).astype(np.float32), requires_grad=True)
                  for n in (n_q, n_k, n_k)]
        mask = key_masks(n_q, n_k)[mask_kind]
        upstream = Tensor(g.standard_normal((n_q, dim)).astype(np.float32))
        params = inputs + [attn.wq, attn.wk, attn.wv, attn.wo]
        outs, grads = [], []
        for f in (MultiHeadAttention.__call__, composed_mha):
            for p in params:
                p.grad = None
            out = f(attn, *inputs, mask=mask)
            sum_all(out * upstream).backward()
            outs.append(out.data)
            grads.append([p.grad for p in params])
        assert np.array_equal(outs[0], outs[1])
        for fused, composed in zip(*grads):
            assert fused.dtype == composed.dtype == np.float32
            assert np.abs(fused - composed).max() <= 1e-5 * np.abs(composed).max()

    def test_records_one_node(self):
        attn = MultiHeadAttention.create(rng(62), 16, 4)
        x = Tensor(rng(63).standard_normal((5, 16)).astype(np.float32), requires_grad=True)
        y = Tensor(rng(64).standard_normal((3, 16)).astype(np.float32), requires_grad=True)
        # x, y and the four weights are the leaves; the fused attention is
        # the one op node, where the five-node form had the three input
        # projections, the attention core and wo, and the composed form has
        # 3 projections, 3 transposes, 9 nodes per head, the join and wo.
        assert len(ComputationTape.trace(attn(x, y, y)).nodes) == 6 + 1
        assert len(ComputationTape.trace(five_node_mha(attn, x, y, y)).nodes) == 6 + 5
        assert len(ComputationTape.trace(composed_mha(attn, x, y, y)).nodes) == 6 + 3 + 3 + 4 * 9 + 2


def forward_and_grads(f, inputs, params, upstream):
    """``f(*inputs)``'s value and, after ``sum_all(f(*inputs) * upstream)``
    runs backward, the gradient of every input and parameter."""
    for p in params:
        p.grad = None
    out = f(*inputs)
    sum_all(out * upstream).backward()
    return out.data, [p.grad for p in params]


class TestOneNodeAgainstParent:
    """The one-node attention and ``LinearLayer`` against the five-node and
    two-node forms they replace: the same float32 arithmetic, added into
    each input in the same order (value, key, query), so the value and
    every gradient are bit-equal, also for inputs shared between roles."""

    @pytest.mark.parametrize("n_heads", [1, 2, 8])
    @pytest.mark.parametrize("mask_kind", ["none", "causal", "padded"])
    @pytest.mark.parametrize("roles", ["distinct", "key-is-value", "all-same"])
    def test_mha_equals_five_nodes(self, roles, mask_kind, n_heads):
        attn = MultiHeadAttention.create(rng(70 + n_heads), 16, n_heads)
        g = rng(71)
        n_q, n_k = (6, 6) if roles == "all-same" else (5, 7)
        q, k, v = (Tensor(g.standard_normal((n, 16)).astype(np.float32), requires_grad=True)
                   for n in (n_q, n_k, n_k))
        inputs = {"distinct": (q, k, v), "key-is-value": (q, k, k), "all-same": (q, q, q)}[roles]
        mask = key_masks(n_q, n_k)[mask_kind]
        upstream = Tensor(g.standard_normal((n_q, 16)).astype(np.float32))
        params = list(dict.fromkeys(inputs)) + [attn.wq, attn.wk, attn.wv, attn.wo]
        got, want = (forward_and_grads(lambda *x: f(attn, *x, mask=mask), inputs, params,
                                       upstream)
                     for f in (MultiHeadAttention.__call__, five_node_mha))
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["rank1", "rank2"])
    def test_linear_equals_two_nodes(self, shape):
        layer = LinearLayer.create(rng(72), 4, 5)
        x = Tensor(rng(73).standard_normal(shape).astype(np.float32), requires_grad=True)
        upstream = Tensor(rng(74).standard_normal(shape[:-1] + (5,)).astype(np.float32))
        params = [x, layer.weight, layer.bias]
        # x enters twice, so each gradient is a sum in tape order
        got, want = (forward_and_grads(lambda x: f(x) * f(x), [x], params, upstream)
                     for f in (layer, lambda x: two_node_linear(x, layer)))
        assert np.array_equal(got[0], want[0])
        for a, b in zip(got[1], want[1]):
            assert np.array_equal(a, b)
        assert len(ComputationTape.trace(layer(x)).nodes) == 3 + 1


class TestEncoder:
    def test_zeroed_projections_leave_normalized_residual(self):
        block = TransformerBlock.create(rng(24), 4, 2)
        block.self_attn.wo.data[:] = 0.0
        block.ffn_out.weight.data[:] = 0.0
        x = Tensor(rng(25).standard_normal((3, 4)).astype(np.float32))
        out = block(x)
        ln1 = layer_norm(x, block.ln_gains[0], block.ln_biases[0])
        expected = layer_norm(ln1, block.ln_gains[1], block.ln_biases[1])
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_single_position(self):
        block = TransformerBlock.create(rng(26), 4, 2)
        out = block(Tensor(rng(27).standard_normal((1, 4)).astype(np.float32)))
        assert out.shape == (1, 4)
        assert np.isfinite(out.data).all()

    def test_attends_to_later_positions(self):
        # only a decoder block masks its self-attention causally
        block = TransformerBlock.create(rng(55), 4, 2)
        x = rng(56).standard_normal((5, 4)).astype(np.float32)
        perturbed = x.copy()
        perturbed[3] += 10.0
        assert not np.allclose(block(Tensor(perturbed)).data[0], block(Tensor(x)).data[0])

    @pytest.mark.parametrize("length", [1, 5, 9])
    def test_shape_preserved(self, length):
        blocks = [TransformerBlock.create(rng(28 + i), 8, 2) for i in range(2)]
        x = Tensor(rng(30).standard_normal((length, 8)).astype(np.float32))
        assert encoder_forward(x, blocks).shape == (length, 8)

    def test_gradient_through_two_blocks(self):
        blocks = [TransformerBlock.create(rng(31 + i), 4, 2) for i in range(2)]
        x = Tensor(rng(33).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        params = [x] + [t for b in blocks for _, t in b.named_params("b")]
        err = grad_check(lambda: sum_all(encoder_forward(x, blocks)), params,
                         h=1e-3, max_coords=4)
        assert err < 1e-4


class TestDecoder:
    def test_causal_mask_shape(self):
        m = causal_mask(4)
        assert m[0, 1] and not m[1, 0] and not m.diagonal().any()

    def test_forward_and_gradient(self):
        block = TransformerBlock.create(rng(34), 4, 2, decoder=True)
        x = Tensor(rng(35).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        memory = Tensor(rng(36).standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        out = block(x, memory)
        assert out.shape == (3, 4)
        params = [x, memory] + [t for _, t in block.named_params("d")]
        err = grad_check(lambda: sum_all(block(x, memory)), params, h=1e-3, max_coords=3)
        assert err < 1e-4

    def test_causality(self):
        block = TransformerBlock.create(rng(37), 4, 2, decoder=True)
        memory = Tensor(rng(38).standard_normal((4, 4)).astype(np.float32))
        x = rng(39).standard_normal((5, 4)).astype(np.float32)
        base = block(Tensor(x), memory).data
        perturbed = x.copy()
        perturbed[3] += 10.0
        out = block(Tensor(perturbed), memory).data
        np.testing.assert_allclose(out[:3], base[:3], atol=1e-6)
        assert not np.allclose(out[3], base[3])


def test_parameter_names_are_unique_and_ordered():
    block = TransformerBlock.create(rng(40), 4, 2, decoder=True)
    names = [n for n, _ in block.named_params("dec")]
    assert len(names) == len(set(names))
    assert names[0] == "dec.self_attn.wq"


@pytest.mark.parametrize("decoder", [False, True], ids=["encoder", "decoder"])
class TestFeedForwardWidth:
    @pytest.mark.parametrize("dim,n_heads", [(8, 2), (4, 1), (12, 3)])
    def test_four_times_dim(self, decoder, dim, n_heads):
        block = TransformerBlock.create(rng(41), dim, n_heads, decoder=decoder)
        assert block.ffn_in.weight.shape == (dim, 4 * dim)
        assert block.ffn_out.weight.shape == (4 * dim, dim)
