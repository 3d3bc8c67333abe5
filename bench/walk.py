"""The traced run: per-layer timings taken from outside the program.

``walk_batch_loss`` and ``walk_predict`` call the public functions of each
``quag`` module in the order ``forward_batch``/``batch_loss`` and ``predict``
call them, and record a span around each call. Nothing in ``quag`` is patched
or replaced. Because the walk re-composes the model, every walked result is
compared bit for bit with the model's own ``batch_loss(...).total`` and
``predict()`` output; a mismatch means the walk has drifted from the model
and its per-layer numbers are stale (``trace_matches_model`` = 0).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Sequence

import numpy as np

from quag.data import BOS, EOS, EpisodeRecord, step_frame_spans
from quag.heads import (
    StepBoundaryState,
    decode_moment,
    decode_step_caption,
    predict_moment_span,
    predict_step_boundaries,
    step_distribution,
)
from quag.layers import encoder_forward
from quag.losses import TASKS, LossBundle, caption_loss, retrieval_loss, segmentation_loss, total_loss
from quag.model import PredictionSet, QuagParams, encode_trunk, predict
from quag.msp import cross_modal_interact, fuse_audio_visual, global_pool, msp_contrastive_loss
from quag.qc2 import apply_filtration, build_query_centric_repr, compute_gates, fuse_query_context
from quag.tensor import ComputationTape, Tensor, no_grad, slice_rows, stack_rows
from quag.trainer import AdamW, TaskLoaders, TrainSchedule, batch_loss, save_checkpoint, train_step

from workloads import Setup, Tally, Workload, percentile, prediction_problems

BEAM_WIDTH = 4


class Spans:
    """Spans kept in memory: name, start, end, parent index and group id.

    All spans opened while ``group`` holds a value (one training step, one
    predicted episode) share that id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[str] = []
        self.group = ""
        self._open: list[int] = []

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Duration minus the time covered by direct child spans."""
        own = self.durations()
        out = own.copy()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def per_group(self, name: str) -> list[float]:
        """Milliseconds spent in spans called ``name``, summed per group."""
        sums: dict[str, float] = defaultdict(float)
        for n, g, d in zip(self.names, self.groups, self.durations()):
            if n == name:
                sums[g] += 1000.0 * d
        return list(sums.values())

    def dump(self) -> dict:
        return {
            "fields": ["name", "group", "start_s", "end_s", "parent", "self_ms"],
            "spans": [
                [n, g, s, e, p, 1000.0 * own]
                for n, g, s, e, p, own in zip(self.names, self.groups, self.starts, self.ends,
                                              self.parents, self.self_times())
            ],
        }


class _Span:
    __slots__ = ("spans", "name", "index")

    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self):
        s = self.spans
        self.index = len(s.names)
        s.names.append(self.name)
        s.groups.append(s.group)
        s.parents.append(s._open[-1] if s._open else -1)
        s.ends.append(0.0)
        s._open.append(self.index)
        s.starts.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        s = self.spans
        s.ends[self.index] = time.perf_counter()
        s._open.pop()
        return False

    def duration(self) -> float:
        return self.spans.ends[self.index] - self.spans.starts[self.index]


# ---------------------------------------------------------------------------
# the walk

def walk_trunk(episode: EpisodeRecord, params: QuagParams, span: Spans):
    """``encode_trunk`` for the ``quag`` fusion mode, one span per stage."""
    config = params.config
    with span("model.input_proj"):
        r_v = params.proj_visual(Tensor(episode.visual))
        r_a = params.proj_audio(Tensor(episode.audio))
        r_t = params.proj_query(Tensor(episode.query))
        if config.use_positional:
            pos = slice_rows(params.pos_embed, 0, episode.n_frames)
            r_v = r_v + pos
            r_a = r_a + pos
    with span("msp.pool"):
        pooled_v, pooled_a = global_pool(r_v, r_a)
    with span("msp.cross_attn"):
        joint_v, joint_a = cross_modal_interact(r_v, r_a, params.msp)
    with span("msp.fuse"):
        fused = fuse_audio_visual(joint_v, joint_a, params.msp)
    with span("qc2.fuse"):
        context = fuse_query_context(fused, r_t, params.qc2)
    with span("qc2.gates"):
        gates = compute_gates(context, params.qc2)
    with span("qc2.filter"):
        filtered = apply_filtration(fused, gates)
    with span("qc2.inject"):
        rep = build_query_centric_repr(filtered, context, params.qc2)
    with span("layers.encoder"):
        enhanced = encoder_forward(rep, params.encoder, config.dropout, None)
    return enhanced, pooled_v, pooled_a


def walk_batch_loss(episodes: Sequence[EpisodeRecord], params: QuagParams, task: str,
                    lam: float, span: Spans) -> LossBundle:
    """``batch_loss`` through ``forward_batch`` and ``forward``, with spans."""
    config = params.config
    pooled_v, pooled_a, heads_out, targets, masks = [], [], [], [], []
    for ep in episodes:
        enhanced, pv, pa = walk_trunk(ep, params, span)
        pooled_v.append(pv)
        pooled_a.append(pa)
        if task == "ret":
            with span("heads.ret"):
                heads_out.append(predict_moment_span(enhanced, params.start_head, params.end_head))
            targets.append(ep.moment)
        elif task == "seg":
            with span("heads.seg"):
                for i in range(len(ep.steps)):
                    state = StepBoundaryState(span=ep.moment, n_frames=ep.n_frames,
                                              boundaries=list(ep.steps[:i]))
                    masks.append(state.frame_mask())
                    heads_out.append(step_distribution(enhanced, state, params.step_head,
                                                       params.boundary_marker))
            targets.extend(ep.steps)
        else:
            with span("heads.cap"):
                for step_span, caption in zip(step_frame_spans(ep.moment[0], ep.steps),
                                              ep.captions):
                    lo, hi = step_span if config.caption_context == "step" else ep.moment
                    memory = slice_rows(enhanced, lo, hi + 1)
                    clipped = caption[: config.max_caption_len - 1] \
                        if config.max_caption_len > 1 else []
                    heads_out.append(params.decoder.teacher_forced_logits(
                        memory, [BOS] + list(clipped), config.dropout, None))
                    targets.append(list(clipped) + [EOS])
    with span("msp.contrastive"):
        msp_loss = msp_contrastive_loss(stack_rows(pooled_v), stack_rows(pooled_a), config.tau,
                                        normalize=config.normalize_contrastive)
    with span("losses"):
        if task == "ret":
            task_l = retrieval_loss(heads_out, targets)
        elif task == "seg":
            task_l = segmentation_loss(heads_out, targets, masks)
        else:
            task_l = caption_loss(heads_out, targets)
        return total_loss(task, task_l, msp_loss, lam)


def walk_predict(episode: EpisodeRecord, params: QuagParams, span: Spans):
    """``predict`` with spans; returns the prediction and the enhanced
    representation its step memories are cut from."""
    config = params.config
    with no_grad():
        with span("model.trunk"):
            enhanced, _, _ = encode_trunk(episode, params)
        with span("heads.decode_moment"):
            moment = decode_moment(predict_moment_span(enhanced, params.start_head,
                                                       params.end_head))
        with span("heads.segment"):
            boundaries = predict_step_boundaries(enhanced, moment, params.step_head,
                                                 params.boundary_marker, config.max_steps)
        captions = []
        with span("heads.caption_decode"):
            for step_span in step_frame_spans(moment[0], boundaries):
                captions.append(decode_step_caption(
                    enhanced, step_span if config.caption_context == "step" else moment,
                    params.decoder, config.max_caption_len, restrict_to_step=True,
                    beam_width=config.beam_width))
    return PredictionSet(episode_id=episode.id, moment=moment, steps=boundaries,
                         captions=captions), enhanced


# ---------------------------------------------------------------------------
# traced run

def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _timed_train_step(batch, model: QuagParams, optimizer: AdamW, task: str) -> float:
    t0 = time.perf_counter()
    train_step(batch, model, optimizer, task, model.config.lam)
    return 1000.0 * (time.perf_counter() - t0)


def traced_run(wl: Workload, setup: Setup, seconds: float, work: Path,
               ) -> tuple[dict, Tally, dict, Spans]:
    """Walk training steps, checkpoints, predictions and beam decodes with
    spans for ``seconds``; return the per-layer metrics."""
    config = setup.config
    span = Spans()
    tally = Tally()
    mismatches = 0
    start = time.perf_counter()

    loads = []
    for i in range(5):
        span.group = f"load{i}"
        with span("data.load") as load_span:
            setup.train_manifest.load_episodes()
            setup.heldout_manifest.load_episodes()
        loads.append(1000.0 * load_span.duration() / (len(setup.train_eps) + len(setup.heldout)))

    # Training walk, round robin over the trainer's own batch order.
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    schedule = TrainSchedule.for_dataset(config, len(setup.train_eps))
    loaders = TaskLoaders(setup.train_eps, config.batch_size, config.seed)
    nodes = defaultdict(list)
    grad_frac = defaultdict(list)
    untraced_step_ms, traced_step_ms = [], []
    train_deadline = start + 0.5 * seconds
    step = 0
    epoch_batches = {}
    while step < len(TASKS) or time.perf_counter() < train_deadline:
        epoch, i = divmod(step, schedule.iterations_per_epoch)
        if i == 0:
            epoch_batches = {t: loaders.epoch_batches(t, epoch) for t in TASKS}
        task = schedule.task_at(i)
        batches = epoch_batches[task]
        batch = batches[(i // len(TASKS)) % len(batches)]
        step += 1
        span.group = f"step{step}.{task}"
        try:
            # The untraced step runs before the traced one on every other step,
            # so neither side always finds the caches warm.
            if step % 2:
                untraced_step_ms.append(_timed_train_step(batch, model, optimizer, task))
            with no_grad():
                expected = batch_loss(batch, model, task, config.lam).total.data
            with span(f"trainer.step.{task}") as step_span:
                model.zero_grads()
                with span(f"trainer.forward.{task}"):
                    bundle = walk_batch_loss(batch, model, task, config.lam, span)
                with span(f"trainer.backward.{task}"):
                    with span("tensor.trace"):
                        tape = ComputationTape.trace(bundle.total)
                    with span("tensor.backward"):
                        tape.run_backward(bundle.total, np.ones_like(bundle.total.data))
                with span("trainer.optimizer"):
                    optimizer.step()
            traced_step_ms.append(1000.0 * step_span.duration())
            nodes[task].append(len(tape.nodes))
            params = model.named_parameters().values()
            grad_frac[task].append(
                sum(p.grad is not None and bool(np.any(p.grad)) for p in params) / len(params))
            if not np.array_equal(expected, bundle.total.data):
                mismatches += 1
            if not step % 2:
                untraced_step_ms.append(_timed_train_step(batch, model, optimizer, task))
            tally.add(2)
        except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
            tally.add(2, 2, f"traced {task} step raised {exc!r}")

    checkpoint_bytes = 0
    for i in range(3):
        span.group = f"checkpoint{i}"
        path = work / "trace-checkpoint.qgck"
        with span("trainer.checkpoint"):
            save_checkpoint(path, config, model, optimizer, 1)
        checkpoint_bytes = path.stat().st_size

    # Prediction walk with the seeded, untrained weights the untraced run times.
    pmodel = setup.model
    predict_deadline = start + 0.85 * seconds
    traced_ms, untraced_ms, tokens, memories = [], [], [], []
    for k, episode in enumerate(setup.heldout):
        if k >= 2 and time.perf_counter() >= predict_deadline:
            break
        span.group = f"predict.{episode.id}"
        try:
            # Alternate which runs first, so neither pays the cold start.
            for traced in (k % 2 == 0, k % 2 == 1):
                t0 = time.perf_counter()
                if traced:
                    walked, enhanced = walk_predict(episode, pmodel, span)
                else:
                    expected = predict(episode, pmodel)
                (traced_ms if traced else untraced_ms).append(
                    1000.0 * (time.perf_counter() - t0))
        except Exception as exc:  # noqa: BLE001
            tally.add(1, 1, f"traced predict({episode.id}) raised {exc!r}")
            continue
        if walked != expected:
            mismatches += 1
        problems = prediction_problems(expected, episode, config)
        tally.add(1, 1 if problems else 0,
                  f"predict({episode.id}): {'; '.join(problems)}" if problems else None)
        tokens.append(sum(len(c) for c in walked.captions))
        memories.extend((episode.id, enhanced, s)
                        for s in step_frame_spans(walked.moment[0], walked.steps))

    beam_ms, beam_tokens, beam_decodes = 0.0, 0, 0
    for j, (ep_id, enhanced, step_span) in enumerate(memories):
        if j >= 1 and time.perf_counter() >= start + seconds:
            break
        beam_decodes += 1
        span.group = f"beam.{ep_id}.{j}"
        with span("heads.beam4_decode") as beam_span:
            ids = decode_step_caption(enhanced, step_span, pmodel.decoder,
                                      config.max_caption_len, beam_width=BEAM_WIDTH)
        beam_ms += 1000.0 * beam_span.duration()
        beam_tokens += max(1, len(ids))

    metrics = {}
    for task in TASKS:
        metrics[f"tensor.graph_nodes.{task}"] = (_median(nodes[task]), "count")
    metrics["tensor.trace_ms"] = (_median(span.per_group("tensor.trace")), "ms")
    metrics["tensor.backward_ms"] = (_median(span.per_group("tensor.backward")), "ms")
    for name in ("layers.encoder", "msp.pool", "msp.cross_attn", "msp.fuse",
                 "msp.contrastive", "qc2.fuse", "qc2.gates", "qc2.filter", "qc2.inject",
                 "model.input_proj", "model.trunk", "heads.ret", "heads.seg", "heads.cap",
                 "heads.decode_moment", "heads.segment", "heads.caption_decode"):
        metrics[f"{name}_ms"] = (_median(span.per_group(name)), "ms")
    metrics["heads.caption_tokens"] = (_median(tokens), "count")
    metrics["heads.beam4_decode_ms_per_token"] = (beam_ms / beam_tokens if beam_tokens
                                                  else float("nan"), "ms")
    metrics["losses.ms"] = (_median(span.per_group("losses")), "ms")
    for task in TASKS:
        steps = span.per_group(f"trainer.step.{task}")
        metrics[f"trainer.step_ms.{task}.p50"] = (_median(steps), "ms")
        metrics[f"trainer.step_ms.{task}.p90"] = (percentile(steps, 90), "ms")
    for task in TASKS:
        metrics[f"trainer.forward_ms.{task}"] = (
            _median(span.per_group(f"trainer.forward.{task}")), "ms")
    for task in TASKS:
        metrics[f"trainer.backward_ms.{task}"] = (
            _median(span.per_group(f"trainer.backward.{task}")), "ms")
    metrics["trainer.optimizer_ms"] = (_median(span.per_group("trainer.optimizer")), "ms")
    metrics["trainer.checkpoint_ms"] = (_median(span.per_group("trainer.checkpoint")), "ms")
    metrics["trainer.checkpoint_bytes"] = (float(checkpoint_bytes), "bytes")
    for task in TASKS:
        metrics[f"trainer.params_with_grad_frac.{task}"] = (_median(grad_frac[task]), "ratio")
    metrics["data.load_ms_per_episode"] = (_median(loads), "ms")
    metrics["trace.step_ratio"] = (
        _median(traced_step_ms) / _median(untraced_step_ms), "ratio")
    metrics["trace.predict_ratio"] = (_median(traced_ms) / _median(untraced_ms), "ratio")
    metrics["trace_matches_model"] = (1.0 if mismatches == 0 else 0.0, "bool")

    details = {
        "walked_steps": step,
        "walked_predictions": len(traced_ms),
        "beam_decodes": beam_decodes,
        "trace_mismatches": mismatches,
        "traced_step_ms_p50": _median(traced_step_ms),
        "untraced_step_ms_p50": _median(untraced_step_ms),
        "traced_predict_ms_p50": _median(traced_ms),
        "untraced_predict_ms_p50": _median(untraced_ms),
    }
    return metrics, tally, details, span
