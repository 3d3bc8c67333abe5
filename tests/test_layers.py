import numpy as np
import pytest

from quag.layers import (
    DecoderBlock,
    EncoderBlock,
    LinearLayer,
    MultiHeadAttention,
    causal_mask,
    encoder_forward,
    linear,
    mha,
)
from quag.tensor import ShapeError, Tensor, grad_check, layer_norm, slice_rows, sum_all


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


class TestLinear:
    def test_identity(self):
        layer = LinearLayer(Tensor(np.eye(3, dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32)))
        x = rng(1).standard_normal((4, 3)).astype(np.float32)
        np.testing.assert_allclose(linear(Tensor(x), layer).data, x)

    def test_hand_arithmetic(self):
        layer = LinearLayer(Tensor([[1.0], [1.0]]), Tensor([0.5]))
        out = linear(Tensor([1.0, 1.0]), layer)
        np.testing.assert_allclose(out.data, [2.5])

    def test_shape_mismatch(self):
        layer = LinearLayer.create(rng(), 3, 2)
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 4), dtype=np.float32)), layer)

    def test_gradient(self):
        layer = LinearLayer.create(rng(2), 4, 3)
        x = Tensor(rng(3).standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        params = [x, layer.weight, layer.bias]
        err = grad_check(lambda: sum_all(linear(x, layer) * linear(x, layer)), params, h=1e-3)
        assert err < 1e-4


class TestMha:
    def test_single_key_weight_is_one(self):
        attn = identity_attention(3)
        q = Tensor(rng(4).standard_normal((5, 3)).astype(np.float32))
        kv = Tensor(rng(5).standard_normal((1, 3)).astype(np.float32))
        out, weights = mha(q, kv, kv, attn, return_weights=True)
        np.testing.assert_allclose(weights[0], np.ones((5, 1)))
        np.testing.assert_allclose(out.data, np.tile(kv.data, (5, 1)), rtol=1e-6)

    def test_equal_keys_give_mean_of_values(self):
        attn = identity_attention(2)
        q = Tensor(rng(6).standard_normal((3, 2)).astype(np.float32))
        k = Tensor(np.ones((4, 2), dtype=np.float32))
        v = Tensor(rng(7).standard_normal((4, 2)).astype(np.float32))
        out = mha(q, k, v, attn)
        expected = np.tile(v.data.mean(axis=0), (3, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-6)

    def test_hand_computed_single_head(self):
        attn = identity_attention(2)
        q = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=np.float32)
        k = np.array([[1.0, 1.0], [-1.0, 0.5]], dtype=np.float32)
        v = np.array([[0.5, -0.5], [2.0, 1.0]], dtype=np.float32)
        out = mha(Tensor(q), Tensor(k), Tensor(v), attn)
        expected = reference_attention(q, k, v, scale=1.0 / np.sqrt(2.0))
        np.testing.assert_allclose(out.data, expected, atol=1e-5)

    def test_permutation_equivariance_over_keys(self):
        attn = MultiHeadAttention.create(rng(8), 8, 2)
        q = Tensor(rng(9).standard_normal((3, 8)).astype(np.float32))
        k = rng(10).standard_normal((6, 8)).astype(np.float32)
        v = rng(11).standard_normal((6, 8)).astype(np.float32)
        perm = np.random.default_rng(12).permutation(6)
        out = mha(q, Tensor(k), Tensor(v), attn)
        out_perm = mha(q, Tensor(k[perm]), Tensor(v[perm]), attn)
        np.testing.assert_allclose(out.data, out_perm.data, atol=1e-6)

    def test_masked_keys_get_zero_weight(self):
        attn = MultiHeadAttention.create(rng(13), 4, 2)
        q = Tensor(rng(14).standard_normal((3, 4)).astype(np.float32))
        kv = Tensor(rng(15).standard_normal((5, 4)).astype(np.float32))
        mask = np.zeros((3, 5), dtype=bool)
        mask[0, 2] = mask[2, 0] = mask[2, 4] = True
        _, weights = mha(q, kv, kv, attn, mask=mask, return_weights=True)
        for w in weights:
            assert (w[mask] == 0.0).all()

    def test_fully_masked_row_errors(self):
        attn = MultiHeadAttention.create(rng(16), 4, 2)
        q = Tensor(rng(17).standard_normal((2, 4)).astype(np.float32))
        kv = Tensor(rng(18).standard_normal((3, 4)).astype(np.float32))
        mask = np.zeros((2, 3), dtype=bool)
        mask[1, :] = True
        with pytest.raises(ValueError, match="masked"):
            mha(q, kv, kv, attn, mask=mask)

    def test_dimension_mismatch(self):
        attn = MultiHeadAttention.create(rng(19), 4, 2)
        with pytest.raises(ShapeError):
            mha(Tensor(np.zeros((2, 6), dtype=np.float32)),
                Tensor(np.zeros((2, 4), dtype=np.float32)),
                Tensor(np.zeros((2, 4), dtype=np.float32)), attn)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention.create(rng(20), 6, 4)

    def test_gradient(self):
        attn = MultiHeadAttention.create(rng(21), 4, 2)
        q = Tensor(rng(22).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        kv = Tensor(rng(23).standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        params = [q, kv, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(mha(q, kv, kv, attn) * mha(q, kv, kv, attn)),
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
        out, weights = mha(Tensor(query), Tensor(key), Tensor(value), attn, mask=mask,
                           return_weights=True)
        assert weights.shape == (n_heads, n_q, n_k)

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
        rows = mha(query, kv, kv, attn).data
        for i in range(3):
            one = mha(slice_rows(query, i, i + 1), kv, kv, attn).data
            np.testing.assert_allclose(one, rows[i:i + 1], atol=1e-6)

    def test_gradient_single_query(self):
        attn = MultiHeadAttention.create(rng(51), 8, 4)
        q = Tensor(rng(52).standard_normal((1, 8)).astype(np.float32), requires_grad=True)
        kv = Tensor(rng(53).standard_normal((3, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(54).standard_normal((1, 8)).astype(np.float32))
        params = [q, kv, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(mha(q, kv, kv, attn) * w), params, h=1e-3,
                         max_coords=12)
        assert err < 1e-4

    def test_gradient_four_heads_causal(self):
        attn = MultiHeadAttention.create(rng(45), 8, 4)
        x = Tensor(rng(46).standard_normal((4, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng(47).standard_normal((4, 8)).astype(np.float32))
        params = [x, attn.wq, attn.wk, attn.wv, attn.wo]
        err = grad_check(lambda: sum_all(mha(x, x, x, attn, mask=causal_mask(4)) * w),
                         params, h=1e-3, max_coords=12)
        assert err < 1e-4


class TestEncoder:
    def test_zeroed_projections_leave_normalized_residual(self):
        block = EncoderBlock.create(rng(24), 4, 2)
        block.attn.wo.data[:] = 0.0
        block.ffn_out.weight.data[:] = 0.0
        x = Tensor(rng(25).standard_normal((3, 4)).astype(np.float32))
        out = block(x)
        ln1 = layer_norm(x, block.ln1_gain, block.ln1_bias)
        expected = layer_norm(ln1, block.ln2_gain, block.ln2_bias)
        np.testing.assert_allclose(out.data, expected.data, atol=1e-6)

    def test_single_position(self):
        block = EncoderBlock.create(rng(26), 4, 2)
        out = block(Tensor(rng(27).standard_normal((1, 4)).astype(np.float32)))
        assert out.shape == (1, 4)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("length", [1, 5, 9])
    def test_shape_preserved(self, length):
        blocks = [EncoderBlock.create(rng(28 + i), 8, 2) for i in range(2)]
        x = Tensor(rng(30).standard_normal((length, 8)).astype(np.float32))
        assert encoder_forward(x, blocks).shape == (length, 8)

    def test_gradient_through_two_blocks(self):
        blocks = [EncoderBlock.create(rng(31 + i), 4, 2) for i in range(2)]
        x = Tensor(rng(33).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        params = [x] + [t for b in blocks for _, t in b.named_params("b")]
        err = grad_check(lambda: sum_all(encoder_forward(x, blocks)), params,
                         h=1e-3, max_coords=4)
        assert err < 1e-4


class TestDecoderBlock:
    def test_causal_mask_shape(self):
        m = causal_mask(4)
        assert m[0, 1] and not m[1, 0] and not m.diagonal().any()

    def test_forward_and_gradient(self):
        block = DecoderBlock.create(rng(34), 4, 2)
        x = Tensor(rng(35).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        memory = Tensor(rng(36).standard_normal((5, 4)).astype(np.float32), requires_grad=True)
        out = block(x, memory)
        assert out.shape == (3, 4)
        params = [x, memory] + [t for _, t in block.named_params("d")]
        err = grad_check(lambda: sum_all(block(x, memory)), params, h=1e-3, max_coords=3)
        assert err < 1e-4

    def test_causality(self):
        block = DecoderBlock.create(rng(37), 4, 2)
        memory = Tensor(rng(38).standard_normal((4, 4)).astype(np.float32))
        x = rng(39).standard_normal((5, 4)).astype(np.float32)
        base = block(Tensor(x), memory).data
        perturbed = x.copy()
        perturbed[3] += 10.0
        out = block(Tensor(perturbed), memory).data
        np.testing.assert_allclose(out[:3], base[:3], atol=1e-6)
        assert not np.allclose(out[3], base[3])


def test_parameter_names_are_unique_and_ordered():
    block = DecoderBlock.create(rng(40), 4, 2)
    names = [n for n, _ in block.named_params("dec")]
    assert len(names) == len(set(names))
    assert names[0] == "dec.self_attn.wq"


@pytest.mark.parametrize("block_cls", [EncoderBlock, DecoderBlock])
class TestFeedForwardWidth:
    def test_none_means_four_times_dim_and_a_width_is_kept(self, block_cls):
        assert block_cls.create(rng(41), 8, 2).ffn_in.weight.shape == (8, 32)
        block = block_cls.create(rng(41), 8, 2, 3)
        assert block.ffn_in.weight.shape == (8, 3) and block.ffn_out.weight.shape == (3, 8)

    @pytest.mark.parametrize("ffn_dim", [0, -3])
    def test_width_below_one_rejected(self, block_cls, ffn_dim):
        with pytest.raises(ValueError, match="ffn_dim"):
            block_cls.create(rng(42), 8, 2, ffn_dim)
