import numpy as np
import pytest

from quag.data import EpisodeRecord
from quag.losses import caption_loss, retrieval_loss, segmentation_loss, total_loss
from quag.model import (
    ForwardOutput,
    ModelConfig,
    QuagParams,
    forward,
    forward_batch,
    predict,
)
from quag.tensor import ShapeError, grad_check


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
    ])
    def test_out_of_range_fields_raise_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value}).validate()

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


class TestForward:
    def test_shape_audit(self):
        cfg = tiny_config(d_model=16, visual_dim=6, audio_dim=5, query_dim=4, max_frames=7)
        params = QuagParams(cfg)
        episode = make_episode(n_frames=7)
        out = forward(episode, params, "ret")
        assert out.repr.shape == (7, 16)
        assert out.span.p_start.shape == (7,)
        assert abs(out.span.p_start.data.sum() - 1.0) < 1e-6

    def test_purity(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        a = forward(episode, params, "ret")
        b = forward(episode, params, "ret")
        np.testing.assert_array_equal(a.repr.data, b.repr.data)
        np.testing.assert_array_equal(a.span.p_start.data, b.span.p_start.data)

    def test_dim_mismatch(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ShapeError, match="do not match config"):
            forward(make_episode(dv=9), params, "ret")

    def test_too_many_frames(self):
        params = QuagParams(tiny_config(max_frames=4))
        with pytest.raises(ShapeError, match="caps at"):
            forward(make_episode(n_frames=6), params, "ret")

    def test_seg_teacher_forcing_instances(self):
        params = QuagParams(tiny_config())
        episode = make_episode(steps=(2, 3, 4))
        out = forward(episode, params, "seg")
        assert len(out.step_dists) == 3
        assert out.step_targets == [2, 3, 4]
        for dist, mask in zip(out.step_dists, out.step_masks):
            assert (dist.data[mask] == 0.0).all()
            assert abs(dist.data.sum() - 1.0) < 1e-6

    def test_seg_requires_annotations(self):
        params = QuagParams(tiny_config())
        episode = make_episode(n_frames=6, moment=(2, 2), steps=(2,))
        episode.captions = [[4]]
        with pytest.raises(ValueError, match="single-frame moment"):
            forward(episode, params, "seg")

    def test_cap_teacher_forcing_shapes(self):
        cfg = tiny_config()
        params = QuagParams(cfg)
        episode = make_episode()
        out = forward(episode, params, "cap")
        assert len(out.caption_logits) == len(episode.captions)
        for logits, targets, caption in zip(out.caption_logits, out.caption_targets,
                                            episode.captions):
            assert logits.shape == (len(caption) + 1, cfg.vocab_size)
            assert targets[:-1] == caption and targets[-1] == 2  # EOS


class TestFusionModes:
    def test_joint_ignores_msp_and_qc2_params(self):
        cfg = tiny_config(fusion="joint")
        params = QuagParams(cfg)
        episode = make_episode()
        base = forward(episode, params, "ret").repr.data.copy()
        params.msp.fuse.weight.data += 1.0
        params.qc2.fuse.weight.data += 1.0
        after = forward(episode, params, "ret").repr.data
        np.testing.assert_array_equal(base, after)

    def test_quag_uses_msp_params(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        base = forward(episode, params, "ret").repr.data.copy()
        params.msp.fuse.weight.data += 1.0
        after = forward(episode, params, "ret").repr.data
        assert not np.array_equal(base, after)

    def test_msp_only_ignores_qc2(self):
        params = QuagParams(tiny_config(fusion="msp-only"))
        episode = make_episode()
        base = forward(episode, params, "ret").repr.data.copy()
        params.qc2.gate_channel.weight.data += 1.0
        after = forward(episode, params, "ret").repr.data
        np.testing.assert_array_equal(base, after)

    def test_msp_loss_zero_when_alignment_disabled(self):
        for mode in ("joint", "qc2-only"):
            params = QuagParams(tiny_config(fusion=mode))
            episodes = [make_episode(seed=s) for s in range(3)]
            _, msp_loss = forward_batch(episodes, params, "ret")
            assert msp_loss.item() == 0.0

    def test_modes_produce_distinct_outputs(self):
        episode = make_episode()
        reprs = {}
        for mode in ("quag", "joint", "msp-only", "qc2-only"):
            params = QuagParams(tiny_config(fusion=mode))
            reprs[mode] = forward(episode, params, "ret").repr.data
        assert not np.allclose(reprs["quag"], reprs["joint"])
        assert not np.allclose(reprs["msp-only"], reprs["qc2-only"])


class TestBatchForward:
    def test_batch_msp_loss_positive_and_consistent(self):
        params = QuagParams(tiny_config())
        episodes = [make_episode(seed=s) for s in range(3)]
        outputs, msp_loss = forward_batch(episodes, params, "ret")
        assert len(outputs) == 3
        assert msp_loss.item() > 0.0

    def test_empty_batch_rejected(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ValueError):
            forward_batch([], params, "ret")


class TestEndToEndGradients:
    def run_check(self, task):
        cfg = tiny_config(d_model=8, n_heads=2, vocab_size=12, lam=0.1)
        params = QuagParams(cfg)
        episodes = [make_episode(n_frames=5, seed=s, moment=(1, 3), steps=(2, 3))
                    for s in range(2)]
        for ep in episodes:
            ep.captions = [[4, 5], [6, 7]]

        def f():
            outputs, msp_loss = forward_batch(episodes, params, task)
            if task == "ret":
                task_l = retrieval_loss([o.span for o in outputs],
                                        [ep.moment for ep in episodes])
            elif task == "seg":
                dists = [d for o in outputs for d in o.step_dists]
                targets = [t for o in outputs for t in o.step_targets]
                masks = [m for o in outputs for m in o.step_masks]
                task_l = segmentation_loss(dists, targets, masks)
            else:
                logits = [l for o in outputs for l in o.caption_logits]
                targets = [t for o in outputs for t in o.caption_targets]
                task_l = caption_loss(logits, targets)
            return total_loss(task, task_l, msp_loss, cfg.lam).total

        registry = params.named_parameters()
        sample = {name: registry[name] for name in list(registry)[::6]}
        err = grad_check(f, sample.values(), h=1e-3, max_coords=2, seed=1)
        assert err < 1e-3, f"task {task}: rel err {err}"

    def test_retrieval_branch(self):
        self.run_check("ret")

    def test_segmentation_branch(self):
        self.run_check("seg")

    def test_caption_branch(self):
        self.run_check("cap")


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
