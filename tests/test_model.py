import numpy as np
import pytest

from quag.data import BOS, EOS, EpisodeRecord, step_frame_spans
from quag.heads import StepBoundaryState, predict_moment_span, step_distribution
from quag.model import FUSION_MODES, ModelConfig, QuagParams, encode_trunk, predict
from quag.tensor import ShapeError, grad_check, log_softmax, slice_rows
from quag.trainer import batch_loss


def tiny_config(**overrides):
    base = dict(d_model=8, n_heads=2, encoder_layers=1, decoder_layers=1,
                visual_dim=6, audio_dim=5, query_dim=4, vocab_size=12,
                max_frames=8, max_caption_len=6, max_steps=4,
                tau=0.5, lam=0.1, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def make_episode(n_frames=6, dv=6, da=5, dt=4, seed=0, moment=(1, 4), steps=(2, 4)):
    rng = np.random.default_rng(seed)
    return EpisodeRecord(
        id=f"ep-{seed}",
        visual=rng.standard_normal((n_frames, dv)).astype(np.float32),
        audio=rng.standard_normal((n_frames, da)).astype(np.float32),
        query=rng.standard_normal(dt).astype(np.float32),
        moment=moment,
        steps=list(steps),
        captions=[[4, 5], [6, 7, 8]][: len(steps)],
        caption_texts=[],
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(d_model=10, n_heads=4).validate()
        with pytest.raises(ValueError, match="fusion"):
            tiny_config(fusion="bogus").validate()
        with pytest.raises(ValueError, match="unknown config fields"):
            ModelConfig.from_dict({"not_a_field": 1})

    @pytest.mark.parametrize("field,value", [
        ("n_heads", 0), ("n_heads", -2), ("beam_width", 0), ("beam_width", -1),
        ("dropout", 1.0), ("dropout", -0.1), ("dropout", float("nan")),
        ("tau", float("nan")), ("lam", float("nan")), ("lr", -1e-3), ("ffn_dim", 0),
        ("encoder_layers", -1), ("decoder_layers", -1),
    ])
    def test_out_of_range_fields_raise_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value}).validate()

    def test_ffn_dim_none_means_four_times_d_model(self):
        assert QuagParams(tiny_config(ffn_dim=None)).encoder[0].ffn_in.weight.shape == (8, 32)
        assert QuagParams(tiny_config(ffn_dim=12)).encoder[0].ffn_in.weight.shape == (8, 12)

    def test_roundtrip_and_digest(self):
        cfg = tiny_config(lam=0.3)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert cfg.digest() != tiny_config(lam=0.4).digest()

    def test_desk_scale_preset(self):
        cfg = ModelConfig.desk_scale()
        assert cfg.d_model == 64 and cfg.lr == 1e-3 and cfg.batch_size == 4
        cfg.validate()

    def test_paper_scale_defaults(self):
        cfg = ModelConfig()
        assert cfg.d_model == 768 and cfg.lr == 1e-5 and cfg.batch_size == 5
        assert cfg.n_heads == 8 and cfg.tau == 0.07


class TestRegistry:
    def test_names_stable_across_runs(self):
        a = QuagParams(tiny_config())
        b = QuagParams(tiny_config())
        assert list(a.named_parameters()) == list(b.named_parameters())

    def test_same_seed_same_values(self):
        a = QuagParams(tiny_config())
        b = QuagParams(tiny_config())
        for (n1, t1), (n2, t2) in zip(a.named_parameters().items(),
                                      b.named_parameters().items()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_different_seed_different_values(self):
        a = QuagParams(tiny_config())
        b = QuagParams(tiny_config(seed=1))
        assert any(not np.array_equal(t1.data, t2.data)
                   for t1, t2 in zip(a.named_parameters().values(),
                                     b.named_parameters().values()))

    def test_every_tensor_exactly_once(self):
        params = QuagParams(tiny_config())
        tensors = list(params.named_parameters().values())
        assert len({id(t) for t in tensors}) == len(tensors)
        assert all(t.requires_grad for t in tensors)

    def test_groups_partition_registry(self):
        params = QuagParams(tiny_config())
        grouped = [name for bucket in params.groups().values() for name in bucket]
        assert sorted(grouped) == sorted(params.named_parameters())


def trunk(episode, params):
    return encode_trunk(episode, params)[0]


class TestForward:
    def test_shape_audit(self):
        cfg = tiny_config(d_model=16, visual_dim=6, audio_dim=5, query_dim=4, max_frames=7)
        params = QuagParams(cfg)
        enhanced, pooled_v, pooled_a = encode_trunk(make_episode(n_frames=7), params)
        assert enhanced.shape == (7, 16)
        assert pooled_v.shape == pooled_a.shape == (16,)
        span = predict_moment_span(enhanced, params.start_head, params.end_head)
        assert span.p_start.shape == (7,)
        assert abs(span.p_start.data.sum() - 1.0) < 1e-6

    def test_purity(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        np.testing.assert_array_equal(trunk(episode, params).data, trunk(episode, params).data)
        for task in ("ret", "seg", "cap"):
            a = batch_loss([episode], params, task, 0.1)
            b = batch_loss([episode], params, task, 0.1)
            assert a.total.item() == b.total.item()

    def test_dim_mismatch(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ShapeError, match="do not match config"):
            batch_loss([make_episode(dv=9)], params, "ret", 0.1)

    def test_too_many_frames(self):
        params = QuagParams(tiny_config(max_frames=4))
        with pytest.raises(ShapeError, match="caps at"):
            batch_loss([make_episode(n_frames=6)], params, "ret", 0.1)

    def test_seg_teacher_forcing_instances(self):
        """One instance per step: step i is predicted with steps[:i] committed."""
        params = QuagParams(tiny_config())
        episode = make_episode(steps=(2, 3, 4))
        enhanced = trunk(episode, params)
        nll = []
        for i, target in enumerate(episode.steps):
            state = StepBoundaryState(span=episode.moment, n_frames=episode.n_frames,
                                      boundaries=list(episode.steps[:i]))
            dist = step_distribution(enhanced, state, params.step_head, params.boundary_marker)
            assert (dist.data[state.frame_mask()] == 0.0).all()
            assert abs(dist.data.sum() - 1.0) < 1e-6
            nll.append(-np.log(dist.data[target]))
        bundle = batch_loss([episode], params, "seg", 0.1)
        assert bundle.task_loss.item() == pytest.approx(np.mean(nll), rel=1e-6)

    def test_seg_requires_annotations(self):
        params = QuagParams(tiny_config())
        episode = make_episode(n_frames=6, moment=(2, 2), steps=(2,))
        episode.captions = [[4]]
        with pytest.raises(ValueError, match="single-frame moment"):
            batch_loss([episode], params, "seg", 0.1)
        with pytest.raises(ValueError, match="no step annotations"):
            batch_loss([make_episode(steps=())], params, "seg", 0.1)

    def test_cap_teacher_forcing_shapes(self):
        """Each step's caption is teacher forced from BOS against the step's
        frames and scored on the caption followed by EOS."""
        cfg = tiny_config()
        params = QuagParams(cfg)
        episode = make_episode()
        enhanced = trunk(episode, params)
        nll = []
        for (lo, hi), caption in zip(step_frame_spans(episode.moment[0], episode.steps),
                                     episode.captions):
            logits = params.decoder.teacher_forced_logits(
                slice_rows(enhanced, lo, hi + 1), [BOS] + caption)
            assert logits.shape == (len(caption) + 1, cfg.vocab_size)
            logp = log_softmax(logits).data
            nll.append(-sum(logp[i, t] for i, t in enumerate(caption + [EOS])))
        bundle = batch_loss([episode], params, "cap", 0.1)
        assert bundle.task_loss.item() == pytest.approx(np.mean(nll), rel=1e-6)

    def test_cap_requires_captions(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        episode.captions = []
        with pytest.raises(ValueError, match="no captions"):
            batch_loss([episode], params, "cap", 0.1)

    def test_unknown_task_rejected(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ValueError, match="unknown task"):
            batch_loss([make_episode()], params, "bogus", 0.1)


class TestFusionModes:
    def test_joint_ignores_msp_and_qc2_params(self):
        cfg = tiny_config(fusion="joint")
        params = QuagParams(cfg)
        episode = make_episode()
        base = trunk(episode, params).data.copy()
        params.msp.fuse.weight.data += 1.0
        params.qc2.fuse.weight.data += 1.0
        after = trunk(episode, params).data
        np.testing.assert_array_equal(base, after)

    def test_quag_uses_msp_params(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        base = trunk(episode, params).data.copy()
        params.msp.fuse.weight.data += 1.0
        after = trunk(episode, params).data
        assert not np.array_equal(base, after)

    def test_msp_only_ignores_qc2(self):
        params = QuagParams(tiny_config(fusion="msp-only"))
        episode = make_episode()
        base = trunk(episode, params).data.copy()
        params.qc2.gate_channel.weight.data += 1.0
        after = trunk(episode, params).data
        np.testing.assert_array_equal(base, after)

    def test_msp_loss_zero_when_alignment_disabled(self):
        for mode in ("joint", "qc2-only"):
            params = QuagParams(tiny_config(fusion=mode))
            episodes = [make_episode(seed=s) for s in range(3)]
            assert batch_loss(episodes, params, "ret", 0.1).msp_loss.item() == 0.0

    def test_modes_produce_distinct_outputs(self):
        episode = make_episode()
        reprs = {}
        for mode in ("quag", "joint", "msp-only", "qc2-only"):
            params = QuagParams(tiny_config(fusion=mode))
            reprs[mode] = trunk(episode, params).data
        assert not np.allclose(reprs["quag"], reprs["joint"])
        assert not np.allclose(reprs["msp-only"], reprs["qc2-only"])


class TestBatchForward:
    def test_batch_msp_loss_positive_and_consistent(self):
        """The alignment loss is the same for every task and enters the total
        with weight lam."""
        params = QuagParams(tiny_config())
        episodes = [make_episode(seed=s) for s in range(3)]
        bundles = [batch_loss(episodes, params, task, 0.1) for task in ("ret", "seg", "cap")]
        assert bundles[0].msp_loss.item() > 0.0
        for bundle in bundles:
            assert bundle.msp_loss.item() == bundles[0].msp_loss.item()
            assert bundle.total.item() == pytest.approx(
                bundle.task_loss.item() + 0.1 * bundle.msp_loss.item(), rel=1e-6)

    def test_empty_batch_rejected(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ValueError, match="at least one episode"):
            batch_loss([], params, "ret", 0.1)


def mixed_length_batch():
    """One 5-frame and one 7-frame episode with two captioned steps each."""
    episodes = [make_episode(n_frames=5, seed=0, moment=(1, 3), steps=(2, 3)),
                make_episode(n_frames=7, seed=1, moment=(2, 6), steps=(4, 6))]
    for ep in episodes:
        ep.captions = [[4, 5], [6, 7]]
    return episodes


class TestEndToEndGradients:
    def run_check(self, task, fusion="quag", every=6):
        cfg = tiny_config(d_model=8, n_heads=2, vocab_size=12, lam=0.1, fusion=fusion)
        params = QuagParams(cfg)
        episodes = mixed_length_batch()
        registry = params.named_parameters()
        sample = [registry[name] for name in list(registry)[::every]]
        return grad_check(lambda: batch_loss(episodes, params, task, cfg.lam).total,
                          sample, h=1e-3, max_coords=2, seed=1)

    def test_retrieval_branch(self):
        assert self.run_check("ret") < 1e-3

    def test_segmentation_branch(self):
        assert self.run_check("seg") < 1e-3

    def test_caption_branch(self):
        assert self.run_check("cap") < 1e-3

    @pytest.mark.parametrize("task", ["ret", "seg", "cap"])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_every_fusion_mode(self, fusion, task):
        """Every parameter, on a batch that mixes episode lengths."""
        assert self.run_check(task, fusion, every=1) < 1e-5


class TestPredict:
    def test_structural_contract(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        pred = predict(episode, params)
        assert len(pred.steps) == len(pred.captions)
        s, e = pred.moment
        assert 0 <= s <= e < episode.n_frames
        assert pred.steps[-1] == e
        assert pred.steps == sorted(set(pred.steps))
        assert pred.episode_id == episode.id

    def test_predict_deterministic(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        a = predict(episode, params)
        b = predict(episode, params)
        assert a == b
