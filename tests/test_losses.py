import math

import numpy as np
import pytest

from quag.data import PAD
from quag.heads import SpanDistribution
from quag.losses import (LossBundle, NonFiniteLossError, caption_loss, retrieval_loss,
                         segmentation_loss, total_loss)
from quag.msp import _normalize_rows, msp_contrastive_loss
from quag.tensor import (
    Tensor,
    grad_check,
    log_clamped,
    log_softmax,
    masked_softmax,
    matmul,
    reshape,
    sum_all,
    transpose,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def dist_from(ps, pe):
    return SpanDistribution(p_start=Tensor(np.asarray(ps, dtype=np.float32)),
                            p_end=Tensor(np.asarray(pe, dtype=np.float32)))


def one_hot(i, n):
    v = np.zeros(n, dtype=np.float32)
    v[i] = 1.0
    return v


class TestRetrievalLoss:
    def test_perfect_prediction_is_zero(self):
        dist = dist_from(one_hot(2, 5), one_hot(4, 5))
        assert retrieval_loss([dist], [(2, 4)]).item() == pytest.approx(0.0, abs=1e-7)

    def test_uniform_closed_form(self):
        n = 10
        dist = dist_from(np.full(n, 1 / n), np.full(n, 1 / n))
        loss = retrieval_loss([dist], [(3, 7)])
        assert loss.item() == pytest.approx(2 * math.log(10), abs=1e-6)

    def test_monotone_in_gt_probability(self):
        def make(p):
            ps = np.full(4, (1 - p) / 3, dtype=np.float32)
            ps[1] = p
            return dist_from(ps, ps)

        lo = retrieval_loss([make(0.4)], [(1, 1)]).item()
        hi = retrieval_loss([make(0.6)], [(1, 1)]).item()
        assert hi < lo

    def test_index_out_of_range(self):
        dist = dist_from(np.full(4, 0.25), np.full(4, 0.25))
        with pytest.raises(IndexError):
            retrieval_loss([dist], [(4, 1)])

    @pytest.mark.parametrize("target", [(-1, 2), (1, -4), (0, 4)])
    def test_negative_or_past_end_index_does_not_wrap(self, target):
        dist = dist_from(np.full(4, 0.25), np.full(4, 0.25))
        with pytest.raises(IndexError):
            retrieval_loss([dist], [target])

    def test_batch_averaging(self):
        n = 5
        uniform = dist_from(np.full(n, 1 / n), np.full(n, 1 / n))
        perfect = dist_from(one_hot(0, n), one_hot(1, n))
        loss = retrieval_loss([uniform, perfect], [(2, 3), (0, 1)])
        assert loss.item() == pytest.approx(math.log(n), abs=1e-6)

    def test_gradient_through_softmax(self):
        logits_s = Tensor(rng(1).standard_normal(6).astype(np.float32), requires_grad=True)
        logits_e = Tensor(rng(2).standard_normal(6).astype(np.float32), requires_grad=True)

        def f():
            dist = SpanDistribution(p_start=masked_softmax(logits_s),
                                    p_end=masked_softmax(logits_e))
            return retrieval_loss([dist], [(2, 5)])

        assert grad_check(f, [logits_s, logits_e], h=1e-3) < 1e-4


class TestSegmentationLoss:
    def test_perfect_prediction_is_zero(self):
        dist = Tensor(one_hot(3, 6))
        loss = segmentation_loss([dist], [3], [np.zeros(6, dtype=bool)])
        assert loss.item() == pytest.approx(0.0, abs=1e-7)

    def test_uniform_over_unmasked(self):
        mask = np.array([True, False, False, False, False, False, True, True])
        probs = np.where(mask, 0.0, 1 / 5).astype(np.float32)
        loss = segmentation_loss([Tensor(probs)], [2], masks=[mask])
        assert loss.item() == pytest.approx(math.log(5), abs=1e-6)

    def test_masked_gt_raises(self):
        mask = np.array([True, False, False])
        probs = np.where(mask, 0.0, 0.5).astype(np.float32)
        with pytest.raises(ValueError, match="masked"):
            segmentation_loss([Tensor(probs)], [0], masks=[mask])

    def test_one_mask_per_instance(self):
        dist = Tensor(np.full(3, 1 / 3, dtype=np.float32))
        with pytest.raises(ValueError, match="matching"):
            segmentation_loss([dist, dist], [0, 1], [np.zeros(3, dtype=bool)])

    @pytest.mark.parametrize("target", [-1, 3])
    def test_index_out_of_range(self, target):
        with pytest.raises(IndexError):
            segmentation_loss([Tensor(np.full(3, 1 / 3, dtype=np.float32))], [target],
                              [np.zeros(3, dtype=bool)])

    def test_gradient_through_masked_softmax(self):
        logits = Tensor(rng(3).standard_normal(7).astype(np.float32), requires_grad=True)
        mask = np.zeros(7, dtype=bool)
        mask[:2] = True

        def f():
            probs = masked_softmax(reshape(logits, (1, 7)), mask[None, :])
            return segmentation_loss([reshape(probs, (7,))], [4], masks=[mask])

        assert grad_check(f, [logits], h=1e-3) < 1e-4


class TestCaptionLoss:
    def test_confident_correct_logits_are_zero(self):
        targets = [4, 5, 6]
        logits = np.zeros((3, 8), dtype=np.float32)
        for i, t in enumerate(targets):
            logits[i, t] = 1e4
        assert caption_loss([Tensor(logits)], [targets]).item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_closed_form(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        loss = caption_loss([logits], [[1, 2, 3]])
        assert loss.item() == pytest.approx(3 * math.log(4), abs=1e-6)

    def test_pad_positions_contribute_exactly_zero(self):
        logits = rng(4).standard_normal((3, 6)).astype(np.float32)
        base = caption_loss([Tensor(logits)], [[2, 3, 4]]).item()
        padded_logits = np.vstack([logits, rng(5).standard_normal((2, 6)).astype(np.float32)])
        padded = caption_loss([Tensor(padded_logits)], [[2, 3, 4, PAD, PAD]]).item()
        assert padded == base

    def test_token_out_of_vocab(self):
        logits = Tensor(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(IndexError):
            caption_loss([logits], [[1, 5]])

    def test_negative_token_does_not_wrap(self):
        logits = Tensor(np.zeros((2, 5), dtype=np.float32))
        with pytest.raises(IndexError):
            caption_loss([logits], [[1, -1]])

    def test_batch_mean_over_captions(self):
        uniform = Tensor(np.zeros((2, 4), dtype=np.float32))
        confident = np.zeros((2, 4), dtype=np.float32)
        confident[0, 1] = confident[1, 2] = 1e4
        loss = caption_loss([uniform, Tensor(confident)], [[1, 2], [1, 2]])
        assert loss.item() == pytest.approx(math.log(4), abs=1e-5)

    def test_gradient(self):
        logits = Tensor(rng(6).standard_normal((3, 5)).astype(np.float32), requires_grad=True)
        assert grad_check(lambda: caption_loss([logits], [[1, 0, 4]]), [logits], h=1e-3) < 1e-4


class TestTotalLoss:
    def test_zero_weight(self):
        bundle = total_loss("ret", Tensor(2.0), Tensor(0.5), 0.0)
        assert bundle.total.item() == pytest.approx(2.0)

    def test_arithmetic(self):
        bundle = total_loss("seg", Tensor(2.0), Tensor(0.5), 0.1)
        assert bundle.total.item() == pytest.approx(2.05, abs=1e-7)
        assert isinstance(bundle, LossBundle)
        assert bundle.task == "seg"

    def test_linear_in_weight(self):
        t, m = Tensor(1.5), Tensor(0.75)
        totals = [total_loss("cap", t, m, lam).total.item() for lam in (0.0, 1.0, 2.0)]
        assert totals[2] - totals[1] == pytest.approx(totals[1] - totals[0], abs=1e-6)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            total_loss("ret", Tensor(1.0), Tensor(1.0), -0.1)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="task"):
            total_loss("foo", Tensor(1.0), Tensor(1.0), 0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteLossError):
            total_loss("ret", Tensor(float("nan")), Tensor(1.0), 0.1)


def test_losses_are_nonnegative_and_finite_on_random_valid_inputs():
    for seed in range(5):
        g = rng(seed)
        probs = masked_softmax(Tensor(g.standard_normal((4,)).astype(np.float32)))
        dist = SpanDistribution(p_start=probs, p_end=probs)
        assert retrieval_loss([dist], [(1, 2)]).item() >= 0.0
        logits = Tensor(g.standard_normal((3, 6)).astype(np.float32))
        value = caption_loss([logits], [[1, 2, 3]]).item()
        assert value >= 0.0 and np.isfinite(value)


# ---------------------------------------------------------------------------
# The one-hot formulation each loss had before it gathered its targets with
# ``pick``, kept as the reference: every target is a dense one-hot or select
# mask multiplied into the log-probabilities, and the terms are chained.

def _chain(terms):
    loss = terms[0]
    for t in terms[1:]:
        loss = loss + t
    return loss


def ref_retrieval_loss(dists, targets):
    terms = []
    for dist, (y_start, y_end) in zip(dists, targets):
        n = dist.p_start.shape[0]
        terms.append(-sum_all(log_clamped(dist.p_start) * Tensor(one_hot(y_start, n))))
        terms.append(-sum_all(log_clamped(dist.p_end) * Tensor(one_hot(y_end, n))))
    return _chain(terms) * (1.0 / len(dists))


def ref_segmentation_loss(step_dists, gt_steps):
    terms = [-sum_all(log_clamped(d) * Tensor(one_hot(y, d.shape[0])))
             for d, y in zip(step_dists, gt_steps)]
    return _chain(terms) * (1.0 / len(terms))


def ref_caption_loss(logit_batch, gt_tokens):
    terms = []
    for logits, targets in zip(logit_batch, gt_tokens):
        select = np.zeros(logits.shape, dtype=np.float32)
        for i, tok in enumerate(targets):
            if tok != PAD:
                select[i, tok] = 1.0
        terms.append(-sum_all(log_softmax(logits) * Tensor(select)))
    return _chain(terms) * (1.0 / len(terms))


def ref_msp_contrastive_loss(batch_v, batch_a, tau, normalize=False):
    if normalize:
        batch_v, batch_a = _normalize_rows(batch_v), _normalize_rows(batch_a)
    b = batch_v.shape[0]
    sims = matmul(batch_v, transpose(batch_a)) * (1.0 / tau)
    diag = Tensor(np.eye(b, dtype=np.float32))
    loss_v2a = -sum_all(log_softmax(sims) * diag) * (1.0 / b)
    loss_a2v = -sum_all(log_softmax(transpose(sims)) * diag) * (1.0 / b)
    return (loss_v2a + loss_a2v) * 0.5


LENGTHS = (5, 9, 7, 12)


def leaf(shape, seed):
    return Tensor((3.0 * rng(seed).standard_normal(shape)).astype(np.float32),
                  requires_grad=True)


def value_and_grads(loss_fn, leaves):
    for t in leaves:
        t.grad = None
    loss = loss_fn()
    loss.backward()
    return loss.item(), [t.grad.copy() for t in leaves]


def assert_same_loss(new_fn, ref_fn, leaves):
    new, new_grads = value_and_grads(new_fn, leaves)
    ref, ref_grads = value_and_grads(ref_fn, leaves)
    assert new == pytest.approx(ref, rel=1e-6)
    for g, r in zip(new_grads, ref_grads):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-5)


class TestAgainstOneHotReference:
    """Each loss against its one-hot formulation, on batches whose
    distributions have different lengths."""

    def test_retrieval(self):
        leaves = [leaf(n, seed) for seed, n in enumerate(LENGTHS * 2)]
        targets = [(0, 4), (3, 8), (6, 2), (11, 11)]

        def dists():
            return [SpanDistribution(p_start=masked_softmax(s), p_end=masked_softmax(e))
                    for s, e in zip(leaves[:4], leaves[4:])]

        assert_same_loss(lambda: retrieval_loss(dists(), targets),
                         lambda: ref_retrieval_loss(dists(), targets), leaves)

    def test_segmentation(self):
        leaves = [leaf(n, 10 + seed) for seed, n in enumerate(LENGTHS)]
        masks = [np.arange(n) < k for n, k in zip(LENGTHS, (1, 3, 0, 6))]
        targets = [4, 3, 0, 11]

        def dists():
            return [reshape(masked_softmax(reshape(x, (1, x.shape[0])), m[None, :]),
                            (x.shape[0],)) for x, m in zip(leaves, masks)]

        assert_same_loss(lambda: segmentation_loss(dists(), targets, masks),
                         lambda: ref_segmentation_loss(dists(), targets), leaves)

    def test_caption_with_pad_targets(self):
        vocab = 9
        leaves = [leaf((m, vocab), 20 + m) for m in (3, 6, 1, 4)]
        targets = [[4, 5, 2], [7, PAD, 8, 3, PAD, 2], [2], [PAD, PAD, PAD, PAD]]
        assert_same_loss(lambda: caption_loss(leaves, targets),
                         lambda: ref_caption_loss(leaves, targets), leaves)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("b", [1, 3, 5])
    def test_msp_contrastive(self, b, normalize):
        v, a = leaf((b, 6), 30 + b), leaf((b, 6), 40 + b)
        assert_same_loss(lambda: msp_contrastive_loss(v, a, 0.5, normalize),
                         lambda: ref_msp_contrastive_loss(v, a, 0.5, normalize), [v, a])
