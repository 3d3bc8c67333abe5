"""AdamW optimization, the teacher-forced batch objective, the round-robin
multi-task training loop, and checkpoint persistence.

A training run is deterministic in (config, dataset): parameter init, batch
order, and optimizer arithmetic all derive from the config seed, so identical
runs produce bit-identical checkpoints and a resumed run continues exactly
where the uninterrupted one would be.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from quag.data import BOS, EOS, DatasetManifest, EpisodeRecord, step_frame_spans
from quag.heads import StepBoundaryState, predict_moment_span, step_distribution
from quag.losses import (TASKS, LossBundle, NonFiniteLossError, caption_loss, retrieval_loss,
                         segmentation_loss, total_loss)
from quag.model import ModelConfig, QuagParams, _check_dims, encode_stacked
from quag.msp import msp_contrastive_loss
from quag.tensor import ShapeError, Tensor, slice_rows, stack_rows, take_episode

__all__ = [
    "AdamW",
    "TrainSchedule",
    "TaskLoaders",
    "NonFiniteLossError",
    "CheckpointError",
    "batch_loss",
    "train_step",
    "round_robin_epoch",
    "train",
    "TrainResult",
    "save_checkpoint",
    "load_checkpoint",
    "load_params_for_eval",
]

CHECKPOINT_MAGIC = b"QGCK"
CHECKPOINT_VERSION = 3
_SLICE = 1 << 14  # AdamW elements per slice of its flat buffers: 128 KiB of float64
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class CheckpointError(ValueError):
    pass


class AdamW:
    """Bias-corrected Adam with decoupled weight decay, over flat buffers.

    β1, β2 and ε are the constants ``_BETA1``, ``_BETA2`` and ``_EPS``, Kingma
    & Ba's defaults (arXiv:1412.6980), which AdamW keeps (arXiv:1711.05101).

    Each ``p.data`` is rebound to its view of one float32 buffer,
    ``flat_data``, laid out in the given order, and ``step`` updates it in
    place. The gradients have a float32 buffer and the moments a float64
    pair, ``flat_m`` and ``flat_v``, of the same layout. ``zero_grads``
    points every ``p.grad`` at its slot, so backward adds into the buffer;
    ``step`` copies any other gradient into its slot, ``None`` as zero. The
    moments and update are float64 and only the new parameter is rounded:
    float32 moments drift 1.4e-7 from a float64 Adam in 20 steps on a
    quadratic, against 4.3e-8. The flat arrays are walked in ``_SLICE``
    slices through two float64 scratch buffers that stay in cache, one set
    of ufunc calls per slice. A checkpoint stores the three flat buffers
    as they are.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.01):
        # Every comparison is False for NaN, so NaN fails too.
        for name, value in (("lr", lr), ("weight_decay", weight_decay)):
            if not value >= 0:
                raise ValueError(f"AdamW {name} must be >= 0, got {value}")
        self.lr, self.weight_decay = lr, weight_decay
        size = sum(p.data.size for p in params.values())
        self.flat_data, self.flat_grad = np.empty(size, np.float32), np.zeros(size, np.float32)
        self.flat_m, self.flat_v = np.zeros(size), np.zeros(size)
        self._slots = []  # (name, tensor, data view, grad view)
        lo = 0
        for name, p in params.items():
            data, grad = (flat[lo:lo + p.data.size].reshape(p.shape)
                          for flat in (self.flat_data, self.flat_grad))
            np.copyto(data, p.data, casting="equiv")  # a float64 parameter raises TypeError
            p.data = data
            self._slots.append((name, p, data, grad))
            lo += data.size
        self.t = 0

    @classmethod
    def for_model(cls, model: QuagParams) -> "AdamW":
        cfg = model.config
        return cls(model.named_parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)

    def zero_grads(self) -> None:
        """Zero the gradient buffer and point every ``p.grad`` at its slot."""
        self.flat_grad.fill(0.0)
        for _, p, _, grad in self._slots:
            p.grad = grad

    def step(self) -> None:
        for name, p, data, grad in self._slots:
            if p.data is not data:  # the step would update an array p no longer holds
                raise ValueError(f"parameter {name!r} was rebound after AdamW took it")
            if p.grad is not grad:
                grad[...] = 0.0 if p.grad is None else p.grad
        x, g, m, v = self.flat_data, self.flat_grad, self.flat_m, self.flat_v
        # NaN propagates through max and min, and an infinity becomes one of them.
        if g.size and not (math.isfinite(g.max()) and math.isfinite(g.min())):
            name = next(name for name, _, _, grad in self._slots if not np.isfinite(grad).all())
            raise NonFiniteLossError(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        step_size = self.lr / (1.0 - _BETA1 ** self.t)
        inv_bc2 = 1.0 / (1.0 - _BETA2 ** self.t)
        shrink = 1.0 - self.lr * self.weight_decay
        g64, u64 = np.empty(_SLICE), np.empty(_SLICE)
        for lo in range(0, x.size, _SLICE):
            hi = min(lo + _SLICE, x.size)
            gs, u = g64[:hi - lo], u64[:hi - lo]
            ms, vs = m[lo:hi], v[lo:hi]
            np.copyto(gs, g[lo:hi])
            ms *= _BETA1
            np.multiply(gs, 1.0 - _BETA1, out=u)
            ms += u
            vs *= _BETA2
            np.multiply(gs, gs, out=gs)
            gs *= 1.0 - _BETA2
            vs += gs
            # u = lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(vs, inv_bc2, out=u)
            np.sqrt(u, out=u)
            u += _EPS
            np.divide(ms, u, out=u)
            u *= step_size
            # x = x - lr * update - lr * weight_decay * x
            np.copyto(gs, x[lo:hi])
            gs *= shrink
            gs -= u
            np.copyto(x[lo:hi], gs, casting="same_kind")


@dataclass
class TrainSchedule:
    """Round-robin plan over ``TASKS``: iterations per epoch."""

    iterations_per_epoch: int

    def task_at(self, iteration: int) -> str:
        return TASKS[iteration % len(TASKS)]

    @classmethod
    def for_dataset(cls, config: ModelConfig, n_episodes: int) -> "TrainSchedule":
        n_batches = max(1, -(-n_episodes // config.batch_size))
        return cls(iterations_per_epoch=len(TASKS) * n_batches)


class TaskLoaders:
    """Deterministic per-(epoch, task) batch orders: each epoch's batches
    are one pass over a fresh permutation of the episodes."""

    def __init__(self, episodes: Sequence[EpisodeRecord], batch_size: int, seed: int):
        if not episodes:
            raise ValueError("cannot build loaders from an empty episode list")
        self.episodes = list(episodes)
        self.batch_size = batch_size
        self.seed = seed

    def epoch_batches(self, task: str, epoch: int) -> list[list[EpisodeRecord]]:
        task_idx = TASKS.index(task)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, epoch, task_idx)))
        order = rng.permutation(len(self.episodes))
        return [
            [self.episodes[j] for j in order[i:i + self.batch_size]]
            for i in range(0, len(order), self.batch_size)
        ]


def _check_teacher_forcing(ep: EpisodeRecord, task: str) -> None:
    """Raise ``ValueError`` naming ``ep`` if ``task`` has nothing in it to
    teacher-force; a one-frame episode's moment is single-frame."""
    if task == "seg" and not ep.steps:
        raise ValueError(f"episode {ep.id} has no step annotations for teacher forcing")
    if task == "seg" and ep.moment[0] == ep.moment[1]:
        raise ValueError(f"episode {ep.id}: single-frame moment has no step instances to train on")
    if task == "cap" and not ep.captions:
        raise ValueError(f"episode {ep.id} has no captions for teacher forcing")


def batch_loss(episodes: Sequence[EpisodeRecord], model: QuagParams, task: str,
               lam: float) -> LossBundle:
    """One round-robin iteration's objective on a batch of episodes.

    The trunk runs once per group of equal-length episodes, on stacked
    arrays (``encode_stacked``). Each episode then takes its own slice
    through the task's head with teacher forcing, one decoder graph per
    caption. The batch's pooled features give the contrastive alignment loss
    (zero when the fusion mode has no alignment stack), which ``total_loss``
    adds to the task loss.

    Losses and gradients equal those of one ``encode_trunk`` graph per
    episode bit for bit unless frame counts interleave in the batch: the
    groups' parameter gradients then add in another order.
    """
    if not episodes:
        raise ValueError("batch_loss needs at least one episode")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    config = model.config
    groups: dict[int, list[EpisodeRecord]] = {}  # by frame count
    slots = []  # each episode's index in its group
    for ep in episodes:
        _check_teacher_forcing(ep, task)
        group = groups.setdefault(ep.n_frames, [])
        slots.append(len(group))
        group.append(ep)
    trunks = {n: encode_stacked(group, model) for n, group in groups.items()}
    heads, targets, masks = [], [], []
    for ep, slot in zip(episodes, slots):
        enhanced = take_episode(trunks[ep.n_frames][0], slot)
        if task == "ret":
            heads.append(predict_moment_span(enhanced, model.start_head, model.end_head))
            targets.append(ep.moment)
        elif task == "seg":
            for i in range(len(ep.steps)):
                state = StepBoundaryState(span=ep.moment, n_frames=ep.n_frames,
                                          boundaries=list(ep.steps[:i]))
                masks.append(state.frame_mask())
                heads.append(step_distribution(enhanced, state, model.step_head))
            targets.extend(ep.steps)
        else:
            for (lo, hi), caption in zip(step_frame_spans(ep.moment[0], ep.steps), ep.captions):
                clipped = list(caption[: config.max_caption_len - 1])
                heads.append(model.decoder.teacher_forced_logits(
                    slice_rows(enhanced, lo, hi + 1), [BOS] + clipped))
                targets.append(clipped + [EOS])
    _, pooled_v, pooled_a = trunks[episodes[0].n_frames]
    if pooled_v is None:
        msp_loss = Tensor(np.float32(0.0))
    else:
        if len(trunks) > 1:  # every episode's row, in batch order
            pooled_v, pooled_a = (
                stack_rows([take_episode(trunks[ep.n_frames][k], slot)
                            for ep, slot in zip(episodes, slots)]) for k in (1, 2))
        msp_loss = msp_contrastive_loss(pooled_v, pooled_a, config.tau,
                                        normalize=config.normalize_contrastive)
    if task == "ret":
        task_l = retrieval_loss(heads, targets)
    elif task == "seg":
        task_l = segmentation_loss(heads, targets, masks)
    else:
        task_l = caption_loss(heads, targets)
    return total_loss(task, task_l, msp_loss, lam)


def train_step(episodes: Sequence[EpisodeRecord], model: QuagParams, optimizer: AdamW,
               task: str, lam: float) -> LossBundle:
    """One AdamW step on ``batch_loss``: backward adds every gradient straight
    into its slot of the optimizer's zeroed gradient buffer."""
    optimizer.zero_grads()
    bundle = batch_loss(episodes, model, task, lam)
    bundle.total.backward()
    optimizer.step()
    return bundle


def round_robin_epoch(model: QuagParams, loaders: TaskLoaders, schedule: TrainSchedule,
                      optimizer: AdamW, epoch: int,
                      on_iteration: Optional[Callable[[int, LossBundle], None]] = None,
                      ) -> dict[str, float]:
    """Cycle ret -> seg -> cap, one batch per iteration; returns per-task means.

    Iteration ``i`` trains on batch ``i // len(TASKS)`` of its task's epoch
    batches; ``lam`` comes from ``model.config``.
    """
    streams = {task: loaders.epoch_batches(task, epoch) for task in TASKS}
    losses: dict[str, list[float]] = {task: [] for task in TASKS}
    for i in range(schedule.iterations_per_epoch):
        task = schedule.task_at(i)
        batches = streams[task]
        bundle = train_step(batches[(i // len(TASKS)) % len(batches)], model, optimizer, task,
                            model.config.lam)
        losses[task].append(bundle.task_loss.item())
        if on_iteration is not None:
            on_iteration(i, bundle)
        del bundle  # its graph would otherwise stay alive while the next step builds
    return {task: sum(values) / max(1, len(values)) for task, values in losses.items()}


# ---------------------------------------------------------------------------
# Checkpoint format v3, little-endian throughout: magic b"QGCK", u32 version,
# u32 digest length, the config digest (ascii), then one header of the 32-byte
# layout hash, i8 step (AdamW.t) and i8 epoch, then AdamW's flat buffers: every
# parameter's float32 values in registry order, then flat_m and flat_v as float64.
# The digest binds the config and the layout hash the parameter names and
# shapes, so each array's offset follows from the model. The moments are stored
# as AdamW holds them, so a resumed run stays bit-identical to an uninterrupted one.

_HEADER = struct.Struct("<32sqq")  # layout hash, step, epoch


def _layout_hash(params: dict[str, Tensor]) -> bytes:
    """The sha256 of ``json.dumps([[name, shape], ...])`` over the parameters
    in registry order."""
    layout = json.dumps([[name, list(p.shape)] for name, p in params.items()])
    return hashlib.sha256(layout.encode("utf-8")).digest()


def _check_optimizer(params: dict[str, Tensor], optimizer: AdamW) -> None:
    """Raise ``ValueError`` unless the optimizer's flat buffers hold exactly
    ``params``, in order: then they are laid out as the checkpoint is."""
    held = [(name, id(p), id(data)) for name, p, data, _ in optimizer._slots]
    if held != [(name, id(p), id(p.data)) for name, p in params.items()]:
        raise ValueError("the optimizer does not hold this model's parameters in registry "
                         "order: it was built for another model, or a parameter was rebound")


def save_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: AdamW, epoch: int) -> None:
    """Write a v3 checkpoint atomically.

    ``optimizer`` must be ``AdamW.for_model(model)``; any other raises
    ``ValueError`` before a file is made. The file streams to a temp file
    beside ``path``, which then replaces ``path`` in one rename. If the
    process dies mid-write, ``path`` still holds the previous checkpoint. The
    temp file is fsynced before the rename and the directory after it, so
    after a power loss ``path`` holds either the previous checkpoint or the
    whole new one.
    """
    path = Path(path)
    params = model.named_parameters()
    _check_optimizer(params, optimizer)
    digest = config.digest().encode("ascii")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(digest))
                    + digest + _HEADER.pack(_layout_hash(params), optimizer.t, epoch))
            for flat in (optimizer.flat_data, optimizer.flat_m, optimizer.flat_v):
                f.write(flat.data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)  # makes the rename itself durable
        finally:
            os.close(fd)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: Optional[AdamW] = None) -> int:
    """Restore parameters (and optimizer state); returns completed epochs.

    The magic, version, exact file size, config digest, layout hash and
    counters are checked first, so a malformed, truncated or mismatched
    checkpoint raises ``CheckpointError`` before any parameter, moment or
    ``optimizer.t`` changes. The values are then read straight into each
    parameter's array and, with an optimizer, into ``flat_m`` and ``flat_v``,
    so the arrays keep their objects and the file is never held in memory.
    An optimizer not built over ``model`` raises ``ValueError``, as in
    ``save_checkpoint``.
    """
    params = model.named_parameters()
    if optimizer is not None:
        _check_optimizer(params, optimizer)
    n = sum(p.data.size for p in params.values())
    with open(path, "rb") as f:
        head = f.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad checkpoint magic")
        version, digest_len = struct.unpack("<II", head[4:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        size = os.fstat(f.fileno()).st_size
        expected = len(head) + digest_len + _HEADER.size + (4 + 8 + 8) * n  # values, m, v
        if size < expected:
            raise CheckpointError(f"{path}: truncated checkpoint: {size} of {expected} bytes")
        if size > expected:
            raise CheckpointError(f"{path}: {size - expected} trailing bytes after the moments")
        digest = f.read(digest_len).decode("ascii", "replace")
        if digest != config.digest():
            raise CheckpointError(f"{path}: checkpoint was written for a different config "
                                  f"(digest {digest[:12]}.. != {config.digest()[:12]}..)")
        layout, step, epoch = _HEADER.unpack(f.read(_HEADER.size))
        if layout != _layout_hash(params):
            raise CheckpointError(f"{path}: parameter names or shapes differ from the model's")
        if step < 0 or epoch < 0:
            raise CheckpointError(f"{path}: negative counter: step {step}, epoch {epoch}")
        arrays = [p.data for p in params.values()]
        if optimizer is not None:
            arrays += [optimizer.flat_m, optimizer.flat_v]
        for arr in arrays:
            if f.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: checkpoint shrank while it was read")
    if optimizer is not None:
        optimizer.t = step
    return epoch


def load_params_for_eval(path: Path, config: ModelConfig) -> QuagParams:
    model = QuagParams(config)
    load_checkpoint(path, config, model)
    return model


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    config_path: Path
    epochs_run: int
    final_means: dict[str, float] = field(default_factory=dict)


def _log_lines_before(log_path: Path, epoch: int) -> list[str]:
    """The lines of a metrics log that belong to epochs before ``epoch``.
    A resumed run writes the later epochs again; a line torn by the crash is
    dropped with them."""
    kept = []
    for line in log_path.read_text(encoding="utf-8").splitlines(keepends=True):
        try:
            if json.loads(line)["epoch"] < epoch:
                kept.append(line)
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
    return kept


def train(config: ModelConfig, manifest: DatasetManifest, out_dir: Path,
          resume_from: Optional[Path] = None) -> TrainResult:
    """Initialize from the seed, run scheduled epochs, write checkpoint + log.

    The metrics log holds one JSON object per iteration, and a checkpoint is
    written at the end of every epoch. A non-finite loss or gradient raises
    ``NonFiniteLossError``; the last epoch-end checkpoint then stays on disk
    as the most recent good state. A run resumed into a directory that
    already has a log keeps its lines for the epochs before the checkpoint's
    and writes the rest anew, so the log reads as if the run never stopped.
    A config that does not fit the manifest raises ``ShapeError`` first, and
    an episode some task cannot teacher-force on ``ValueError``.
    """
    config.validate()
    episodes = manifest.load_episodes()
    for episode in episodes:
        _check_dims(episode, config)
        for task in TASKS:
            _check_teacher_forcing(episode, task)
    vocab_size = len(manifest.load_vocabulary())
    if config.vocab_size < vocab_size:
        raise ShapeError(f"config vocab_size {config.vocab_size} < manifest's {vocab_size}")
    schedule = TrainSchedule.for_dataset(config, len(episodes))
    loaders = TaskLoaders(episodes, config.batch_size, config.seed)
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)

    start_epoch = 0
    if resume_from is not None:
        start_epoch = load_checkpoint(resume_from, config, model, optimizer)

    # Only now: a run rejected above leaves no directory behind.
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config.to_dict(), sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    checkpoint_path = out_dir / "checkpoint.qgck"
    log_path = out_dir / "metrics.jsonl"
    mode = "w"
    if resume_from is not None and log_path.exists():
        tmp = log_path.with_name(log_path.name + ".tmp")
        tmp.write_text("".join(_log_lines_before(log_path, start_epoch)), encoding="utf-8")
        os.replace(tmp, log_path)
        mode = "a"

    means: dict[str, float] = {}
    with open(log_path, mode, encoding="utf-8") as log:
        for epoch in range(start_epoch, config.epochs):
            def record(i: int, bundle: LossBundle, _epoch=epoch) -> None:
                line = {
                    "iteration": _epoch * schedule.iterations_per_epoch + i,
                    "epoch": _epoch,
                    "task": bundle.task,
                    "task_loss": bundle.task_loss.item(),
                    "msp_loss": bundle.msp_loss.item(),
                    "total": bundle.total.item(),
                }
                log.write(json.dumps(line) + "\n")

            means = round_robin_epoch(model, loaders, schedule, optimizer, epoch, record)
            log.flush()
            save_checkpoint(checkpoint_path, config, model, optimizer, epoch + 1)
    if not checkpoint_path.exists():
        save_checkpoint(checkpoint_path, config, model, optimizer, start_epoch)
    return TrainResult(
        checkpoint_path=checkpoint_path,
        log_path=log_path,
        config_path=config_path,
        epochs_run=max(0, config.epochs - start_epoch),
        final_means=means,
    )
