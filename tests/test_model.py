import dataclasses
import hashlib
import json

import numpy as np
import pytest

from conftest import single_frame_moment_corpus, tiny_config as corpus_config
from quag import layers, tensor
from quag.data import BOS, EOS, EpisodeRecord, step_frame_spans
from quag.heads import (
    StepBoundaryState,
    decode_moment,
    decode_step_caption,
    predict_moment_span,
    predict_step_boundaries,
    step_distribution,
)
from quag.losses import caption_loss, retrieval_loss, segmentation_loss, total_loss
from quag.model import (
    FUSION_MODES,
    ModelConfig,
    PredictionSet,
    QuagParams,
    encode_stacked,
    encode_trunk,
    infer_trunk,
    predict,
)
from quag.msp import msp_contrastive_loss
from quag.tensor import (ComputationTape, ShapeError, Tensor, grad_check, log_softmax, no_grad,
                         slice_rows, stack_rows)
from quag.trainer import batch_loss, train


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
        ("tau", float("nan")), ("lam", float("nan")), ("lr", -1e-3),
        ("encoder_layers", -1), ("decoder_layers", -1),
    ])
    def test_out_of_range_fields_raise_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("d_model", [8, 12])
    def test_feed_forward_width_is_four_times_d_model(self, d_model):
        params = QuagParams(tiny_config(d_model=d_model))
        for block in params.encoder + params.decoder.blocks:
            assert block.ffn_in.weight.shape == (d_model, 4 * d_model)
            assert block.ffn_out.weight.shape == (4 * d_model, d_model)

    def test_roundtrip_and_digest(self):
        cfg = tiny_config(lam=0.3)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert cfg.digest() != tiny_config(lam=0.4).digest()
        # fields that only decoding or the loop's length read are left out
        assert cfg.digest() == cfg.replace(beam_width=3, max_steps=9, epochs=7).digest()

    def test_fields_and_what_the_digest_leaves_out_are_pinned(self):
        # a new knob is a reviewed edit of these lists
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        assert names == [
            "d_model", "n_heads", "encoder_layers", "decoder_layers", "visual_dim",
            "audio_dim", "query_dim", "vocab_size", "max_frames", "max_caption_len",
            "max_steps", "tau", "lam", "normalize_contrastive", "fusion", "beam_width",
            "lr", "batch_size", "weight_decay", "epochs", "seed"]
        cfg = ModelConfig()

        def other(value):
            if isinstance(value, bool):
                return not value
            return value + "x" if isinstance(value, str) else value * 2 + 1

        left_out = [name for name in names
                    if cfg.replace(**{name: other(getattr(cfg, name))}).digest() == cfg.digest()]
        assert left_out == ["max_steps", "beam_width", "epochs"]

    def test_int_for_a_float_field_gives_the_same_config(self):
        as_int, as_float = ModelConfig.desk_scale(lr=1), ModelConfig.desk_scale(lr=1.0)
        assert as_int.digest() == as_float.digest()
        assert type(as_int.lr) is float and as_int == as_float
        assert ModelConfig.from_dict({"weight_decay": 0}).to_dict()["weight_decay"] == 0.0

    def test_desk_scale_preset(self):
        cfg = ModelConfig.desk_scale()
        assert cfg.d_model == 64 and cfg.lr == 1e-3 and cfg.batch_size == 4
        cfg.validate()

    def test_defaults_are_the_desk_scale(self):
        assert ModelConfig() == ModelConfig.desk_scale()

    def test_desk_scale_overrides_replace_the_defaults(self):
        # bench/ builds its configs with desk_scale(**overrides)
        cfg = ModelConfig.desk_scale(d_model=32, n_heads=4, epochs=3)
        assert cfg == ModelConfig(d_model=32, n_heads=4, epochs=3)
        with pytest.raises(ValueError, match="unknown config fields"):
            ModelConfig.desk_scale(beta1=0.9)


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

    def test_block_names_and_initial_weights_are_pinned(self):
        # Checkpoints store entries by these names, and a seed's weights
        # depend on the draw order: renaming or reordering breaks both.
        params = QuagParams(tiny_config())
        names = list(params.named_parameters())
        tail = ["ffn_in.weight", "ffn_in.bias", "ffn_out.weight", "ffn_out.bias",
                "ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias"]
        assert [n for n in names if n.startswith("encoder.0.")] == [
            f"encoder.0.{n}" for n in ["attn.wq", "attn.wk", "attn.wv", "attn.wo"] + tail]
        assert [n for n in names if n.startswith("decoder.blocks.0.")] == [
            f"decoder.blocks.0.{n}" for n in
            ["self_attn.wq", "self_attn.wk", "self_attn.wv", "self_attn.wo",
             "cross_attn.wq", "cross_attn.wk", "cross_attn.wv", "cross_attn.wo"]
            + tail + ["ln3.gain", "ln3.bias"]]
        # Re-recorded when the zero-initialised boundary marker left the
        # registry, and again when the three zero-initialised head biases
        # did: each time the digest equals the old one taken over the tensors
        # that remain, since the removed ones drew nothing from the seed.
        digest = hashlib.sha256()
        for t in params.named_parameters().values():
            digest.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
        assert digest.hexdigest() == \
            "b5cd92dc8c4101c1b0b3b5e13de102db42ba0adb23d5f65458a9edc70b7e6ff6"

    def test_compatibility_names_for_the_benchmark_walk(self):
        # bench/walk.py passes params.boundary_marker and (config.dropout,
        # None), and reads config.caption_context and config.use_positional,
        # until ROADMAP item 1b; these names keep it running, and go once it stops.
        config = tiny_config()
        params = QuagParams(config)
        assert QuagParams.boundary_marker is None and params.boundary_marker is None
        assert not any("marker" in name for name in params.named_parameters())
        assert config.caption_context == "step"
        assert "caption_context" not in config.to_dict()
        with pytest.raises(TypeError):
            ModelConfig(caption_context="moment")
        with pytest.raises(ValueError, match="caption_context"):
            ModelConfig.from_dict({"caption_context": "step"})
        assert config.use_positional is True
        assert "use_positional" not in config.to_dict()
        with pytest.raises(ValueError, match="use_positional"):
            ModelConfig.from_dict({"use_positional": True})
        assert config.dropout == 0.0
        assert "dropout" not in config.to_dict()
        with pytest.raises(ValueError, match="dropout"):
            ModelConfig.from_dict({"dropout": 0.0})
        rep = Tensor(np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32))
        assert np.array_equal(layers.encoder_forward(rep, params.encoder, 0.0, None).data,
                              layers.encoder_forward(rep, params.encoder).data)
        memory = slice_rows(rep, 1, 4)
        assert np.array_equal(
            params.decoder.teacher_forced_logits(memory, [BOS, 4, 5], 0.0, None).data,
            params.decoder.teacher_forced_logits(memory, [BOS, 4, 5]).data)
        frames = trunk(make_episode(), params)
        state = StepBoundaryState(span=(1, 4), n_frames=6, boundaries=[2])
        assert np.array_equal(
            step_distribution(frames, state, params.step_head, params.boundary_marker).data,
            step_distribution(frames, state, params.step_head).data)
        assert predict_step_boundaries(frames, (1, 4), params.step_head,
                                       params.boundary_marker, config.max_steps) \
            == predict_step_boundaries(frames, (1, 4), params.step_head,
                                       max_steps=config.max_steps)


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
            dist = step_distribution(enhanced, state, params.step_head)
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
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_mode_registers_only_the_stacks_it_runs(self, fusion):
        """A skipped core stack is None and has no tensor in the registry, and
        no mode registers a head bias."""
        runs = {"quag": {"msp", "qc2"}, "joint": set(),
                "msp-only": {"msp"}, "qc2-only": {"qc2"}}[fusion]
        params = QuagParams(tiny_config(fusion=fusion))
        names = params.named_parameters()
        assert {name.split(".", 1)[0] for name in names} & {"msp", "qc2"} == runs
        assert {stack for stack in ("msp", "qc2") if getattr(params, stack) is not None} == runs
        assert not any(name.startswith("heads.") and name.endswith(".bias") for name in names)

    def test_quag_uses_msp_params(self):
        params = QuagParams(tiny_config())
        episode = make_episode()
        base = trunk(episode, params).data.copy()
        params.msp.fuse.weight.data += 1.0
        after = trunk(episode, params).data
        assert not np.array_equal(base, after)

    def test_ablation_is_controlled(self):
        """Every mode draws both stacks from the seed, so each name two modes
        share holds the same initial values in both: ``quag`` registers every
        name, and each mode's tensors equal its tensors of that name."""
        full = QuagParams(tiny_config(seed=1)).named_parameters()
        for mode in FUSION_MODES:
            for name, p in QuagParams(tiny_config(fusion=mode, seed=1)).named_parameters().items():
                assert np.array_equal(p.data, full[name].data), (mode, name)

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_every_registered_tensor_can_learn(self, tiny_corpus, fusion):
        """On the tiny corpus every registered tensor gets a nonzero gradient
        from at least one task: none is dead weight to decay and checkpoint."""
        config = corpus_config(tiny_corpus, fusion=fusion)
        params = QuagParams(config)
        reached = set()
        for task in ("ret", "seg", "cap"):
            params.zero_grads()
            batch_loss(tiny_corpus.load_episodes(), params, task, config.lam).total.backward()
            reached |= {name for name, p in params.named_parameters().items()
                        if p.grad is not None and p.grad.any()}
        assert reached == set(params.named_parameters())

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


def per_episode_batch_loss(episodes, model, task, lam):
    """``batch_loss`` as it was before the stacked trunk: one ``encode_trunk``
    graph per episode, its pooled features stacked for the contrastive loss.
    The reference the stacked trunk is held to."""
    config = model.config
    pooled_v, pooled_a, heads_out, targets, masks = [], [], [], [], []
    for ep in episodes:
        enhanced, pv, pa = encode_trunk(ep, model)
        pooled_v.append(pv)
        pooled_a.append(pa)
        if task == "ret":
            heads_out.append(predict_moment_span(enhanced, model.start_head, model.end_head))
            targets.append(ep.moment)
        elif task == "seg":
            for i in range(len(ep.steps)):
                state = StepBoundaryState(span=ep.moment, n_frames=ep.n_frames,
                                          boundaries=list(ep.steps[:i]))
                masks.append(state.frame_mask())
                heads_out.append(step_distribution(enhanced, state, model.step_head))
            targets.extend(ep.steps)
        else:
            for (lo, hi), caption in zip(step_frame_spans(ep.moment[0], ep.steps), ep.captions):
                clipped = list(caption[: config.max_caption_len - 1])
                heads_out.append(model.decoder.teacher_forced_logits(
                    slice_rows(enhanced, lo, hi + 1), [BOS] + clipped))
                targets.append(clipped + [EOS])
    if pooled_v[0] is None:
        msp_loss = Tensor(np.float32(0.0))
    else:
        msp_loss = msp_contrastive_loss(stack_rows(pooled_v), stack_rows(pooled_a), config.tau,
                                        normalize=config.normalize_contrastive)
    if task == "ret":
        task_l = retrieval_loss(heads_out, targets)
    elif task == "seg":
        task_l = segmentation_loss(heads_out, targets, masks)
    else:
        task_l = caption_loss(heads_out, targets)
    return total_loss(task, task_l, msp_loss, lam)


def loss_and_grads(loss_fn, episodes, config, task):
    """The total of a fresh model's ``loss_fn`` batch and every parameter
    gradient, by name (None for a parameter the batch does not reach)."""
    params = QuagParams(config)
    total = loss_fn(episodes, params, task, config.lam).total
    total.backward()
    return total.data, {name: p.grad for name, p in params.named_parameters().items()}


def batch_of_lengths(lengths):
    """Episodes of the given frame counts, two captioned steps each."""
    episodes = [make_episode(n_frames=n, seed=s, moment=(1, n - 2), steps=(2, n - 2))
                for s, n in enumerate(lengths)]
    for ep in episodes:
        ep.captions = [[4, 5], [6, 7, 8]]
    return episodes


class TestBatchedTrunk:
    """``batch_loss`` runs one stacked trunk per group of equal-length
    episodes; ``per_episode_batch_loss`` runs one per episode."""

    @pytest.mark.parametrize("task", ["ret", "seg", "cap"])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    @pytest.mark.parametrize("batch", ["tiny-corpus", "mixed-length", "grouped-lengths"])
    def test_bit_identical_to_one_trunk_per_episode(self, tiny_corpus, batch, fusion, task):
        if batch == "tiny-corpus":
            config = corpus_config(tiny_corpus, fusion=fusion)
            episodes = tiny_corpus.load_episodes()
        else:
            config = tiny_config(fusion=fusion)
            episodes = mixed_length_batch() if batch == "mixed-length" \
                else batch_of_lengths([5, 5, 7, 7])
        got_total, got = loss_and_grads(batch_loss, episodes, config, task)
        want_total, want = loss_and_grads(per_episode_batch_loss, episodes, config, task)
        assert np.array_equal(got_total, want_total)
        for name, grad in want.items():
            if grad is None:
                assert got[name] is None, name
            else:
                assert np.array_equal(got[name], grad), name

    @pytest.mark.parametrize("task", ["ret", "seg", "cap"])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_interleaved_lengths_reorder_only_the_gradient_sums(self, fusion, task):
        """With lengths [5, 7, 5, 7] each group adds its episodes' parameter
        gradients together, so the sums round differently: each gradient stays
        within 1e-5 of its largest entry (entries that nearly cancel can move
        further relative to themselves). The loss does not change."""
        config = tiny_config(fusion=fusion)
        episodes = batch_of_lengths([5, 7, 5, 7])
        got_total, got = loss_and_grads(batch_loss, episodes, config, task)
        want_total, want = loss_and_grads(per_episode_batch_loss, episodes, config, task)
        assert np.array_equal(got_total, want_total)
        for name, grad in want.items():
            if grad is None:
                assert got[name] is None, name
            else:
                np.testing.assert_allclose(got[name], grad, rtol=0,
                                           atol=1e-5 * np.abs(grad).max(), err_msg=name)

    def test_stacked_trunk_is_each_episodes_trunk(self):
        params = QuagParams(tiny_config())
        episodes = batch_of_lengths([6, 6, 6])
        enhanced, pooled_v, pooled_a = encode_stacked(episodes, params)
        assert enhanced.shape == (3, 6, 8) and pooled_v.shape == pooled_a.shape == (3, 8)
        for b, ep in enumerate(episodes):
            for stacked, alone in zip((enhanced, pooled_v, pooled_a), encode_trunk(ep, params)):
                np.testing.assert_array_equal(stacked.data[b], alone.data)

    def test_stacked_trunk_needs_equal_lengths(self):
        params = QuagParams(tiny_config())
        with pytest.raises(ShapeError, match="equal length"):
            encode_stacked(batch_of_lengths([5, 7]), params)
        with pytest.raises(ShapeError, match="equal length"):
            encode_stacked([], params)


class TestGraphSize:
    """Graph nodes, leaves included, of one tiny-corpus batch per task: a
    pure function of the code, unlike a count taken over the batches a timed
    run happens to reach. With the 16-node composed attention the counts were
    516, 505 and 751; the fused attention core (5 nodes per attention) gave 340,
    329 and 465, and a broadcasting ``concat_last`` in QC² 332, 321 and 457.
    One node per layer, ``tensor.attention`` with its projections and
    ``tensor.affine`` for every linear, gave 220, 212 and 298, and dropping
    the boundary marker's injection 220, 209 and 298. One stacked trunk for
    the batch's four equal-length episodes instead of four gave 120, 109 and
    198, and dropping the head biases, which were leaves, gives the pinned
    ones."""

    @pytest.mark.parametrize("task,pinned", [("ret", 118), ("seg", 108), ("cap", 198)],
                             ids=["ret", "seg", "cap"])
    def test_node_count_is_pinned(self, tiny_corpus, task, pinned):
        params = QuagParams(corpus_config(tiny_corpus))
        bundle = batch_loss(tiny_corpus.load_episodes(), params, task, params.config.lam)
        assert len(ComputationTape.trace(bundle.total).nodes) <= pinned


@pytest.mark.parametrize("task", ["ret", "seg", "cap"])
def test_backward_frees_interior_gradients_and_matches_parent_layers(
        tiny_corpus, monkeypatch, task):
    """After one tiny-corpus batch's backward no op node holds a gradient,
    and every parameter gradient equals, bit for bit, the one that one trunk
    per episode gives with the five-node attention and two-node ``linear``."""
    from test_layers import five_node_mha, two_node_linear

    def grads(loss_fn):
        params = QuagParams(corpus_config(tiny_corpus))
        total = loss_fn(tiny_corpus.load_episodes(), params, task, params.config.lam).total
        total.backward()
        return ComputationTape.trace(total).nodes, params.named_parameters()

    nodes, got = grads(batch_loss)
    assert all(n.grad is None for n in nodes if n._backward is not None)
    monkeypatch.setattr(layers.MultiHeadAttention, "__call__", five_node_mha)
    monkeypatch.setattr(layers.LinearLayer, "__call__", lambda self, x: two_node_linear(x, self))
    parent_nodes, want = grads(per_episode_batch_loss)
    assert len(parent_nodes) > len(nodes)
    for name, p in got.items():
        if want[name].grad is None:
            assert p.grad is None, name
        else:
            assert np.array_equal(p.grad, want[name].grad), name


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

    def test_one_frame_episode(self, tmp_path):
        # the loader accepts a one-frame episode; its moment, step and caption are frame 0's
        manifest = single_frame_moment_corpus(tmp_path, 1)
        episode = manifest.load_episodes()[0]
        params = QuagParams(corpus_config(manifest))
        pred = predict(episode, params)
        assert episode.n_frames == 1
        assert (pred.moment, pred.steps, len(pred.captions)) == ((0, 0), [0], 1)
        assert pred == predict_step_by_step(episode, params)


def predict_step_by_step(episode, params):
    """The per-step predict that decoding all captions as rows replaced: one
    single-memory decode per step."""
    config = params.config
    with no_grad():
        enhanced, _, _ = encode_trunk(episode, params)
        span = decode_moment(predict_moment_span(enhanced, params.start_head, params.end_head))
        boundaries = predict_step_boundaries(enhanced, span, params.step_head,
                                             max_steps=config.max_steps)
        captions = [decode_step_caption(enhanced, step_span, params.decoder,
                                        config.max_caption_len, beam_width=config.beam_width)
                    for step_span in step_frame_spans(span[0], boundaries)]
    return PredictionSet(episode.id, span, boundaries, captions)


def graph_predict(episode, params):
    """``predict`` as it ran on the graph ops, kept as its reference: the
    trunk through ``encode_trunk``, the heads through ``predict_moment_span``
    and ``predict_step_boundaries`` on its Tensor, and every step's caption as
    a row of one ``beam_decode`` over ``slice_rows`` memories."""
    config = params.config
    with no_grad():
        enhanced, _, _ = encode_trunk(episode, params)
        span = decode_moment(predict_moment_span(enhanced, params.start_head, params.end_head))
        boundaries = predict_step_boundaries(enhanced, span, params.step_head,
                                             max_steps=config.max_steps)
        captions = params.decoder.beam_decode(
            [slice_rows(enhanced, lo, hi + 1).data
             for lo, hi in step_frame_spans(span[0], boundaries)],
            config.max_caption_len, config.beam_width)
    return PredictionSet(episode.id, span, boundaries, captions)


class TestPredictAgainstStepByStep:
    @pytest.mark.parametrize("beam_width", [1, 3])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_same_prediction(self, tiny_corpus, fusion, beam_width):
        episodes = tiny_corpus.load_episodes()
        predictions = []
        for seed in (0, 1):
            params = QuagParams(corpus_config(tiny_corpus, fusion=fusion, seed=seed,
                                              beam_width=beam_width))
            predicted = [predict(episode, params) for episode in episodes]
            assert predicted == [predict_step_by_step(episode, params) for episode in episodes]
            predictions += predicted
        # rows of several memories of unequal lengths were decoded
        assert any(len({b - a for a, b in zip([p.moment[0] - 1] + p.steps, p.steps)}) > 1
                   for p in predictions)

    @pytest.mark.parametrize("beam_width", [1, 3])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_same_as_graph_path(self, tiny_corpus, fusion, beam_width):
        episodes = tiny_corpus.load_episodes()
        for seed in (1, 3):
            params = QuagParams(corpus_config(tiny_corpus, fusion=fusion, seed=seed,
                                              beam_width=beam_width))
            assert [predict(ep, params) for ep in episodes] == \
                [graph_predict(ep, params) for ep in episodes]


def random_vectors(params, seed):
    """Give every bias and layer-norm gain of the model random values, so no
    gain of 1 or bias of 0 hides a difference in the order of operations."""
    g = np.random.default_rng(seed)
    for p in params.named_parameters().values():
        if p.ndim == 1:
            p.data = g.standard_normal(p.shape).astype(p.data.dtype)
    return params


class TestInferTrunk:
    """The array trunk ``predict`` runs against ``encode_trunk``'s graph: the
    same numpy products in the same order, so equal bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("encoder_layers", [0, 2])
    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_bit_equal_to_encode_trunk(self, fusion, encoder_layers, dtype):
        params = random_vectors(QuagParams(tiny_config(fusion=fusion, n_heads=4,
                                                       encoder_layers=encoder_layers)), 5)
        for p in params.named_parameters().values():
            p.data = p.data.astype(dtype)
        for n_frames in (1, 5, params.config.max_frames):
            episode = make_episode(n_frames=n_frames, seed=n_frames, moment=(0, 0), steps=(0,))
            got = infer_trunk(episode, params)
            with no_grad():
                want = encode_trunk(episode, params)[0].data
            assert type(got) is np.ndarray and got.dtype == dtype
            assert np.array_equal(got, want), n_frames

    def test_checks_episode_dims(self):
        params = QuagParams(tiny_config(max_frames=4))
        with pytest.raises(ShapeError, match="do not match config"):
            predict(make_episode(n_frames=4, dv=9), params)
        with pytest.raises(ShapeError, match="caps at"):
            predict(make_episode(n_frames=5), params)


def test_predict_runs_no_graph_op(tiny_corpus, monkeypatch):
    params = QuagParams(corpus_config(tiny_corpus, beam_width=3))
    episodes = tiny_corpus.load_episodes()
    expected = [predict(ep, params) for ep in episodes]
    made = []
    init, node = Tensor.__init__, tensor._node

    def counted_init(self, *args, **kwargs):
        made.append("Tensor")
        init(self, *args, **kwargs)

    def counted_node(*args):
        made.append("_node")
        return node(*args)

    monkeypatch.setattr(Tensor, "__init__", counted_init)
    monkeypatch.setattr(tensor, "_node", counted_node)
    assert [predict(ep, params) for ep in episodes] == expected
    assert made == []
    with no_grad():
        encode_trunk(episodes[0], params)  # the counters do see the graph trunk's ops
    assert made.count("_node") > 0 and made.count("Tensor") >= made.count("_node")


class TestBehaviourPin:
    """What the tiny corpus gives today, pinned so that a refactor meant to
    be bit-identical is checked here: the ``metrics.jsonl`` totals of one
    round-robin epoch, and the untrained ``predict`` output of every episode
    at beam widths 1 and 3. Model seeds 1 and 3 are used because their
    untrained decoders write long, varied captions and beam search departs
    from greedy; seed 0's mostly stop at once. A change meant to alter
    behaviour re-records these values and says so in its notes."""

    def test_one_epoch_metrics_totals(self, tiny_corpus, tmp_path):
        result = train(corpus_config(tiny_corpus, epochs=1), tiny_corpus, tmp_path / "run")
        lines = [json.loads(line) for line in result.log_path.read_text().splitlines()]
        assert [line["task"] for line in lines] == ["ret", "seg", "cap"]
        np.testing.assert_allclose([line["total"] for line in lines],
                                   [5.118894577026367, 1.2460198402404785, 15.31441593170166],
                                   rtol=1e-6)

    PINNED = {
        (1, 1): [((2, 6), [6], [[3, 3, 15, 10, 3, 3, 10, 5]]),
                 ((2, 6), [5, 6], [[10, 3, 15, 10, 3, 8, 5, 14]] * 2),
                 ((4, 6), [5, 6], [[10, 3, 15, 10, 3, 8, 5, 14]] * 2),
                 ((8, 9), [9], [[3, 3, 15, 10, 3, 3, 10, 5]])],
        (1, 3): [((2, 6), [6], [[10, 3, 15, 10, 3, 3, 10, 5]]),
                 ((2, 6), [5, 6], [[10, 3, 15, 5, 10, 5, 10, 5]] * 2),
                 ((4, 6), [5, 6], [[10, 3, 15, 10, 3, 8, 5, 14]] * 2),
                 ((8, 9), [9], [[10, 3, 15, 10, 3, 3, 10, 5]])],
        (3, 1): [((7, 11), [10, 11], [[13, 14, 14, 14]] * 2),
                 ((1, 2), [2], [[13, 14, 14, 14]]),
                 ((2, 2), [2], [[13, 14, 14, 14]]),
                 ((4, 11), [11], [[13, 14, 8, 8, 9, 9, 0, 14]])],
        (3, 3): [((7, 11), [10, 11], [[13, 11]] * 2),
                 ((1, 2), [2], [[13, 11]]),
                 ((2, 2), [2], [[13, 11]]),
                 ((4, 11), [11], [[13, 11]])],
    }

    @pytest.mark.parametrize("seed,beam_width", sorted(PINNED))
    def test_untrained_predictions(self, tiny_corpus, seed, beam_width):
        params = QuagParams(corpus_config(tiny_corpus, seed=seed, beam_width=beam_width))
        got = [(p.moment, p.steps, p.captions)
               for p in (predict(e, params) for e in tiny_corpus.load_episodes())]
        assert got == self.PINNED[seed, beam_width]
