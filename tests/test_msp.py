import math

import numpy as np
import pytest

from quag.msp import (
    MspParams,
    cross_modal_interact,
    fuse_audio_visual,
    global_pool,
    msp_contrastive_loss,
)
from quag.tensor import ShapeError, Tensor, grad_check, stack_rows, sum_all


def rng(seed=0):
    return np.random.default_rng(seed)


def make_params(dim=4, heads=2, seed=0):
    return MspParams.create(rng(seed), dim, heads)


class TestGlobalPool:
    def test_constant_rows(self):
        v = np.array([1.5, -2.0, 0.25], dtype=np.float32)
        pooled_v, pooled_a = global_pool(Tensor(np.tile(v, (5, 1))), Tensor(np.tile(v, (5, 1))))
        np.testing.assert_allclose(pooled_v.data, v, atol=1e-7)
        np.testing.assert_allclose(pooled_a.data, v, atol=1e-7)

    def test_hand_arithmetic(self):
        pooled_v, _ = global_pool(
            Tensor([[0.0, 2.0], [4.0, 6.0]]), Tensor([[0.0, 0.0], [0.0, 0.0]])
        )
        np.testing.assert_allclose(pooled_v.data, [2.0, 4.0])

    def test_permutation_invariance(self):
        frames = rng(1).standard_normal((6, 3)).astype(np.float32)
        perm = rng(2).permutation(6)
        a, _ = global_pool(Tensor(frames), Tensor(frames))
        b, _ = global_pool(Tensor(frames[perm]), Tensor(frames[perm]))
        np.testing.assert_allclose(a.data, b.data, atol=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            global_pool(Tensor(np.zeros((3, 2), dtype=np.float32)),
                        Tensor(np.zeros((4, 2), dtype=np.float32)))

    def test_stacked_episodes_pool_as_each_alone(self):
        r_v, r_a = (rng(s).standard_normal((3, 5, 4)).astype(np.float32) for s in (3, 4))
        pooled_v, pooled_a = global_pool(Tensor(r_v), Tensor(r_a))
        assert pooled_v.shape == pooled_a.shape == (3, 4)
        for b in range(3):
            alone_v, alone_a = global_pool(Tensor(r_v[b]), Tensor(r_a[b]))
            np.testing.assert_array_equal(pooled_v.data[b], alone_v.data)
            np.testing.assert_array_equal(pooled_a.data[b], alone_a.data)
        with pytest.raises(ShapeError):
            global_pool(Tensor(r_v), Tensor(r_a[:2]))


class TestContrastiveLoss:
    def test_single_pair_is_zero(self):
        v = Tensor(rng(3).standard_normal((1, 4)).astype(np.float32))
        a = Tensor(rng(4).standard_normal((1, 4)).astype(np.float32))
        assert msp_contrastive_loss(v, a, tau=1.0).item() == pytest.approx(0.0, abs=1e-7)

    def test_orthonormal_pairs_closed_form(self):
        basis = np.eye(2, dtype=np.float32)
        loss = msp_contrastive_loss(Tensor(basis), Tensor(basis), tau=1.0)
        expected = -math.log(math.e / (math.e + 1.0))  # 0.3132617
        assert loss.item() == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_all_equal_similarities(self, b):
        v = Tensor(np.tile(np.array([1.0, 2.0], dtype=np.float32), (b, 1)))
        a = Tensor(np.tile(np.array([0.5, -1.0], dtype=np.float32), (b, 1)))
        assert msp_contrastive_loss(v, a, tau=0.7).item() == pytest.approx(math.log(b), abs=1e-5)

    def test_invalid_temperature(self):
        v = Tensor(np.eye(2, dtype=np.float32))
        with pytest.raises(ValueError, match="temperature"):
            msp_contrastive_loss(v, v, tau=0.0)

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            msp_contrastive_loss(Tensor(np.zeros((2, 3), dtype=np.float32)),
                                 Tensor(np.zeros((3, 3), dtype=np.float32)), tau=1.0)

    def test_nonnegative_on_random_batches(self):
        for seed in range(10):
            v = Tensor(rng(seed).standard_normal((4, 6)).astype(np.float32))
            a = Tensor(rng(seed + 100).standard_normal((4, 6)).astype(np.float32))
            assert msp_contrastive_loss(v, a, tau=0.07).item() >= 0.0

    def test_symmetric_under_swap(self):
        v = rng(5).standard_normal((4, 6)).astype(np.float32)
        a = rng(6).standard_normal((4, 6)).astype(np.float32)
        lhs = msp_contrastive_loss(Tensor(v), Tensor(a), tau=0.5).item()
        rhs = msp_contrastive_loss(Tensor(a), Tensor(v), tau=0.5).item()
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_raising_one_diagonal_similarity_strictly_decreases_loss(self):
        # with an orthonormal visual basis, bumping a_k[k] changes exactly
        # the (k, k) similarity and nothing else
        b = 4
        basis = np.eye(b, dtype=np.float32)
        audio = rng(7).standard_normal((b, b)).astype(np.float32)
        base = msp_contrastive_loss(Tensor(basis), Tensor(audio), tau=1.0).item()
        for k in range(b):
            bumped = audio.copy()
            bumped[k, k] += 0.5
            new = msp_contrastive_loss(Tensor(basis), Tensor(bumped), tau=1.0).item()
            assert new < base

    def test_gradient(self):
        v = Tensor(rng(8).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        a = Tensor(rng(9).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        err = grad_check(lambda: msp_contrastive_loss(v, a, tau=0.5), [v, a], h=1e-3)
        assert err < 1e-4

    def test_normalized_gradient(self):
        v = Tensor(rng(10).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        a = Tensor(rng(11).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        err = grad_check(
            lambda: msp_contrastive_loss(v, a, tau=0.5, normalize=True), [v, a], h=1e-3
        )
        assert err < 1e-4

    def test_alignment_emerges_from_optimization(self):
        # optimizing the loss alone on free vectors must pull matched pairs
        # together relative to mismatched ones
        b, d, lr = 4, 8, 0.5
        v = Tensor(rng(12).standard_normal((b, d)).astype(np.float32) * 0.1, requires_grad=True)
        a = Tensor(rng(13).standard_normal((b, d)).astype(np.float32) * 0.1, requires_grad=True)
        for _ in range(200):
            v.grad = a.grad = None
            loss = msp_contrastive_loss(v, a, tau=1.0)
            loss.backward()
            v.data = v.data - lr * v.grad
            a.data = a.data - lr * a.grad
        sims = v.data @ a.data.T
        diag = np.diag(sims).mean()
        off = (sims.sum() - np.trace(sims)) / (b * b - b)
        assert diag > off


class TestCrossModalInteract:
    def test_single_frame_identity_projection(self):
        params = make_params(dim=3, heads=1, seed=20)
        for t in (params.attn_v2a, params.attn_a2v):
            for w in (t.wq, t.wk, t.wv, t.wo):
                w.data = np.eye(3, dtype=np.float32)
        r_v = Tensor(rng(21).standard_normal((1, 3)).astype(np.float32))
        r_a = Tensor(rng(22).standard_normal((1, 3)).astype(np.float32))
        joint_v, joint_a = cross_modal_interact(r_v, r_a, params)
        np.testing.assert_allclose(joint_v.data, r_a.data, atol=1e-6)
        np.testing.assert_allclose(joint_a.data, r_v.data, atol=1e-6)

    def test_identical_streams_give_equal_outputs(self):
        params = make_params(dim=4, heads=2, seed=23)
        shared = [Tensor(w.data.copy()) for w in
                  (params.attn_v2a.wq, params.attn_v2a.wk, params.attn_v2a.wv, params.attn_v2a.wo)]
        params.attn_a2v.wq, params.attn_a2v.wk, params.attn_a2v.wv, params.attn_a2v.wo = shared
        x = Tensor(rng(24).standard_normal((3, 4)).astype(np.float32))
        joint_v, joint_a = cross_modal_interact(x, x, params)
        np.testing.assert_allclose(joint_v.data, joint_a.data, atol=1e-6)

    def test_hand_computed_two_frame_case(self):
        params = make_params(dim=2, heads=1, seed=25)
        for t in (params.attn_v2a, params.attn_a2v):
            for w in (t.wq, t.wk, t.wv, t.wo):
                w.data = np.eye(2, dtype=np.float32)
        q = np.array([[1.0, 0.0], [0.5, -1.0]], dtype=np.float32)
        kv = np.array([[0.0, 1.0], [2.0, 0.5]], dtype=np.float32)
        joint_v, _ = cross_modal_interact(Tensor(q), Tensor(kv), params)
        scores = (q @ kv.T) / np.sqrt(2.0)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(joint_v.data, w @ kv, atol=1e-5)

    def test_dimension_mismatch(self):
        params = make_params(dim=4, heads=2)
        with pytest.raises(ShapeError):
            cross_modal_interact(Tensor(np.zeros((3, 4), dtype=np.float32)),
                                 Tensor(np.zeros((2, 4), dtype=np.float32)), params)


class TestFusion:
    def test_projection_selects_first_block(self):
        params = make_params(dim=3, heads=1, seed=26)
        w = np.zeros((6, 3), dtype=np.float32)
        w[:3] = np.eye(3)
        params.fuse.weight.data = w
        params.fuse.bias.data[:] = 0.0
        joint_v = Tensor(rng(27).standard_normal((4, 3)).astype(np.float32))
        joint_a = Tensor(rng(28).standard_normal((4, 3)).astype(np.float32))
        np.testing.assert_allclose(
            fuse_audio_visual(joint_v, joint_a, params).data, joint_v.data, atol=1e-6
        )

    def test_additive_fusion_special_case(self):
        params = make_params(dim=3, heads=1, seed=29)
        w = np.vstack([np.eye(3), np.eye(3)]).astype(np.float32)
        params.fuse.weight.data = w
        params.fuse.bias.data[:] = 0.0
        joint_v = Tensor(rng(30).standard_normal((4, 3)).astype(np.float32))
        joint_a = Tensor(rng(31).standard_normal((4, 3)).astype(np.float32))
        np.testing.assert_allclose(
            fuse_audio_visual(joint_v, joint_a, params).data,
            joint_v.data + joint_a.data, atol=1e-6,
        )

    @pytest.mark.parametrize("n_frames", [1, 3, 17])
    def test_output_shape(self, n_frames):
        params = make_params(dim=4, heads=2, seed=32)
        joint_v, joint_a = cross_modal_interact(
            Tensor(rng(33).standard_normal((n_frames, 4)).astype(np.float32)),
            Tensor(rng(34).standard_normal((n_frames, 4)).astype(np.float32)),
            params,
        )
        assert joint_v.shape == joint_a.shape == (n_frames, 4)
        assert fuse_audio_visual(joint_v, joint_a, params).shape == (n_frames, 4)

    def test_gradient_through_full_stack(self):
        params = make_params(dim=4, heads=2, seed=35)
        r_v = Tensor(rng(36).standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        r_a = Tensor(rng(37).standard_normal((3, 4)).astype(np.float32), requires_grad=True)

        def f():
            pooled = global_pool(r_v, r_a)
            loss = msp_contrastive_loss(stack_rows([pooled[0]]), stack_rows([pooled[1]]), 0.5)
            joint_v, joint_a = cross_modal_interact(r_v, r_a, params)
            fused = fuse_audio_visual(joint_v, joint_a, params)
            return sum_all(fused * fused) + loss

        tensors = [r_v, r_a] + [t for _, t in params.named_params("msp")]
        err = grad_check(f, tensors, h=1e-3, max_coords=4)
        assert err < 1e-4
