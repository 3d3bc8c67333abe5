"""AdamW optimization, the teacher-forced batch objective, the round-robin
multi-task training loop, and checkpoint persistence.

A training run is deterministic in (config, dataset): parameter init, batch
order, and optimizer arithmetic all derive from the config seed, so identical
runs produce bit-identical checkpoints and a resumed run continues exactly
where the uninterrupted one would be.
"""

from __future__ import annotations

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
from quag.model import ModelConfig, QuagParams, encode_trunk
from quag.msp import msp_contrastive_loss
from quag.tensor import Tensor, slice_rows, stack_rows

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
CHECKPOINT_VERSION = 2
_SLICE = 1 << 14  # AdamW elements per slice: 128 KiB of float64


class CheckpointError(ValueError):
    pass


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Parameters without a gradient this step are treated as having a zero
    gradient, so moment decay and weight decay apply uniformly every step.

    Parameters stay float32, the dtype the model computes in. The moments
    ``m`` and ``v`` are float64, and each step computes them and the update
    in float64 from the float32 gradient; only the new parameter is rounded
    to float32. Float32 moments let rounding error build up from step to
    step: after 20 steps on a quadratic they drift 1.4e-7 from a float64
    Adam, against 4.3e-8 this way. Each parameter is walked in slices of
    ``_SLICE`` elements through two float64 scratch buffers that stay in
    cache, so the wider arithmetic adds little memory traffic.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.m = {n: np.zeros(p.data.shape) for n, p in self.params.items()}
        self.v = {n: np.zeros(p.data.shape) for n, p in self.params.items()}
        self.t = 0

    @classmethod
    def for_model(cls, model: QuagParams) -> "AdamW":
        cfg = model.config
        return cls(model.named_parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.eps, weight_decay=cfg.weight_decay)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        step_size = self.lr / (1.0 - b1 ** self.t)
        inv_bc2 = 1.0 / (1.0 - b2 ** self.t)
        shrink = 1.0 - self.lr * self.weight_decay
        g64 = np.empty(_SLICE)
        u64 = np.empty(_SLICE)
        for name, p in self.params.items():
            g = p.grad
            if g is not None:
                if not np.isfinite(g).all():
                    raise NonFiniteLossError(f"non-finite gradient in parameter {name!r}")
                g = g.reshape(-1)
            x = p.data.reshape(-1)
            new = np.empty_like(x)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, x.size, _SLICE):
                hi = min(lo + _SLICE, x.size)
                gs, u = g64[:hi - lo], u64[:hi - lo]
                ms, vs = m[lo:hi], v[lo:hi]
                if g is None:
                    gs.fill(0.0)
                else:
                    np.copyto(gs, g[lo:hi])
                ms *= b1
                np.multiply(gs, 1.0 - b1, out=u)
                ms += u
                vs *= b2
                np.multiply(gs, gs, out=gs)
                gs *= 1.0 - b2
                vs += gs
                # u = lr * m_hat / (sqrt(v_hat) + eps)
                np.multiply(vs, inv_bc2, out=u)
                np.sqrt(u, out=u)
                u += self.eps
                np.divide(ms, u, out=u)
                u *= step_size
                # new = x - lr * update - lr * weight_decay * x
                np.copyto(gs, x[lo:hi])
                gs *= shrink
                gs -= u
                np.copyto(new[lo:hi], gs, casting="same_kind")
            p.data = new.reshape(p.data.shape)


@dataclass
class TrainSchedule:
    """Round-robin plan over ``TASKS``: iterations per epoch and epochs."""

    iterations_per_epoch: int
    epochs: int

    def task_at(self, iteration: int) -> str:
        return TASKS[iteration % len(TASKS)]

    @classmethod
    def for_dataset(cls, config: ModelConfig, n_episodes: int) -> "TrainSchedule":
        n_batches = max(1, -(-n_episodes // config.batch_size))
        return cls(iterations_per_epoch=len(TASKS) * n_batches, epochs=config.epochs)


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


def batch_loss(episodes: Sequence[EpisodeRecord], model: QuagParams, task: str,
               lam: float, rng: Optional[np.random.Generator] = None) -> LossBundle:
    """One round-robin iteration's objective on a batch of episodes.

    Each episode runs through the trunk, then through the task's head with
    teacher forcing. The batch's pooled features then give the contrastive
    alignment loss (zero when the fusion mode has no alignment stack), which
    ``total_loss`` adds to the task loss.
    """
    if not episodes:
        raise ValueError("batch_loss needs at least one episode")
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    config = model.config
    pooled_v, pooled_a, heads, targets, masks = [], [], [], [], []
    for ep in episodes:
        if task == "seg" and not ep.steps:
            raise ValueError(f"episode {ep.id} has no step annotations for teacher forcing")
        if task == "seg" and ep.moment[0] == ep.moment[1]:
            raise ValueError(
                f"episode {ep.id}: single-frame moment has no step instances to train on")
        if task == "cap" and not ep.captions:
            raise ValueError(f"episode {ep.id} has no captions for teacher forcing")
        enhanced, pv, pa = encode_trunk(ep, model, rng)
        pooled_v.append(pv)
        pooled_a.append(pa)
        if task == "ret":
            heads.append(predict_moment_span(enhanced, model.start_head, model.end_head))
            targets.append(ep.moment)
        elif task == "seg":
            for i in range(len(ep.steps)):
                state = StepBoundaryState(span=ep.moment, n_frames=ep.n_frames,
                                          boundaries=list(ep.steps[:i]))
                masks.append(state.frame_mask())
                heads.append(step_distribution(enhanced, state, model.step_head,
                                               model.boundary_marker))
            targets.extend(ep.steps)
        else:
            for span, caption in zip(step_frame_spans(ep.moment[0], ep.steps), ep.captions):
                lo, hi = span if config.caption_context == "step" else ep.moment
                clipped = list(caption[: config.max_caption_len - 1])
                heads.append(model.decoder.teacher_forced_logits(
                    slice_rows(enhanced, lo, hi + 1), [BOS] + clipped, config.dropout, rng))
                targets.append(clipped + [EOS])
    if pooled_v[0] is None:
        msp_loss = Tensor(np.float32(0.0))
    else:
        msp_loss = msp_contrastive_loss(stack_rows(pooled_v), stack_rows(pooled_a), config.tau,
                                        normalize=config.normalize_contrastive)
    if task == "ret":
        task_l = retrieval_loss(heads, targets)
    elif task == "seg":
        task_l = segmentation_loss(heads, targets, masks)
    else:
        task_l = caption_loss(heads, targets)
    return total_loss(task, task_l, msp_loss, lam)


def train_step(episodes: Sequence[EpisodeRecord], model: QuagParams, optimizer: AdamW,
               task: str, lam: float, rng: Optional[np.random.Generator] = None) -> LossBundle:
    model.zero_grads()
    bundle = batch_loss(episodes, model, task, lam, rng)
    bundle.total.backward()
    optimizer.step()
    return bundle


def round_robin_epoch(model: QuagParams, loaders: TaskLoaders, schedule: TrainSchedule,
                      optimizer: AdamW, epoch: int,
                      on_iteration: Optional[Callable[[int, LossBundle], None]] = None,
                      ) -> dict[str, float]:
    """Cycle ret -> seg -> cap, one batch per iteration; returns per-task means.

    Iteration ``i`` trains on batch ``i // len(TASKS)`` of its task's epoch
    batches; ``lam`` and the dropout seed come from ``model.config``.
    """
    config = model.config
    streams = {task: loaders.epoch_batches(task, epoch) for task in TASKS}
    losses: dict[str, list[float]] = {task: [] for task in TASKS}
    drop_rng = np.random.default_rng(np.random.SeedSequence((config.seed, epoch, 997))) \
        if config.dropout > 0 else None
    for i in range(schedule.iterations_per_epoch):
        task = schedule.task_at(i)
        batches = streams[task]
        bundle = train_step(batches[(i // len(TASKS)) % len(batches)], model, optimizer, task,
                            config.lam, drop_rng)
        losses[task].append(bundle.task_loss.item())
        if on_iteration is not None:
            on_iteration(i, bundle)
    return {task: sum(values) / max(1, len(values)) for task, values in losses.items()}


# ---------------------------------------------------------------------------
# Checkpoint format v2, little-endian throughout:
#   magic b"QGCK", u32 version, u32 digest length, the config digest (ascii),
#   u32 entry count, then for each entry: u32 name length, the name (utf-8),
#   a 3-byte dtype tag, u32 rank, one u32 per extent, and the raw values.
# Tags: "<f4" for parameters, "<f8" for the AdamW moments opt.m.* / opt.v.*,
# "<i8" for trainer.step and trainer.epoch. Storing each entry in its own
# dtype makes the optimizer state round-trip exactly, so a resumed run stays
# bit-identical to an uninterrupted one.
# Version 1 had no tag and stored every entry, step and epoch included, as
# "<f4"; it is still read, and load_checkpoint upcasts its moments to float64.

_DTYPE_TAGS = {tag: np.dtype(tag.decode("ascii")) for tag in (b"<f4", b"<f8", b"<i8")}


def _checkpoint_entries(model: QuagParams, optimizer: AdamW, epoch: int,
                        ) -> list[tuple[str, np.ndarray]]:
    params = model.named_parameters()
    entries = [(name, np.ascontiguousarray(p.data, dtype="<f4")) for name, p in params.items()]
    for name in params:
        entries.append((f"opt.m.{name}", np.ascontiguousarray(optimizer.m[name], dtype="<f8")))
        entries.append((f"opt.v.{name}", np.ascontiguousarray(optimizer.v[name], dtype="<f8")))
    entries.append(("trainer.step", np.asarray([optimizer.t], dtype="<i8")))
    entries.append(("trainer.epoch", np.asarray([epoch], dtype="<i8")))
    return entries


def save_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: AdamW, epoch: int) -> None:
    """Write a v2 checkpoint atomically.

    The entries stream to a temp file beside ``path``, which then replaces
    ``path`` in one rename. If the process dies mid-write, ``path`` still
    holds the previous checkpoint.
    """
    path = Path(path)
    digest = config.digest().encode("ascii")
    entries = _checkpoint_entries(model, optimizer, epoch)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(digest))
                    + digest + struct.pack("<I", len(entries)))
            for name, arr in entries:
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)) + encoded + arr.dtype.str.encode("ascii")
                        + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
                f.write(arr.data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read_checkpoint(path: Path) -> tuple[str, dict[str, np.ndarray]]:
    """The config digest and every entry of a v1 or v2 checkpoint, each
    entry a read-only view of the file's bytes in its stored dtype.

    Any malformed input raises ``CheckpointError``.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    version, digest_len = struct.unpack("<II", raw[4:12])
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    try:
        digest = raw[offset:offset + digest_len].decode("ascii")
        offset += digest_len
        (count,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        entries: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            name = raw[offset:offset + name_len].decode("utf-8")
            offset += name_len
            dtype = _DTYPE_TAGS[b"<f4"]  # v1 has no tags
            if version > 1:
                tag = raw[offset:offset + 3]
                offset += 3
                if tag not in _DTYPE_TAGS:
                    raise CheckpointError(f"{path}: entry {name!r} has unknown dtype tag {tag!r}")
                dtype = _DTYPE_TAGS[tag]
            (rank,) = struct.unpack_from("<I", raw, offset)
            offset += 4
            shape = struct.unpack_from(f"<{rank}I", raw, offset)
            offset += 4 * rank
            n_values = math.prod(shape)
            if offset + n_values * dtype.itemsize > len(raw):
                raise CheckpointError(f"{path}: truncated checkpoint: entry {name!r} runs past the end")
            arr = np.frombuffer(raw, dtype=dtype, count=n_values, offset=offset)
            offset += n_values * dtype.itemsize
            entries[name] = arr.reshape(shape)
    except CheckpointError:
        raise
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        # ValueError: numpy refusing a corrupt rank or extent
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after the last entry")
    return digest, entries


def _entry(entries: dict[str, np.ndarray], name: str, shape: tuple[int, ...],
           path: Path) -> np.ndarray:
    if name not in entries:
        raise CheckpointError(f"{path}: missing entry {name!r}")
    if entries[name].shape != shape:
        raise CheckpointError(
            f"{path}: entry {name!r} has shape {entries[name].shape}, expected {shape}"
        )
    return entries[name]


def _counter(entries: dict[str, np.ndarray], name: str, path: Path) -> int:
    value = _entry(entries, name, (1,), path)[0]
    if not (np.isfinite(value) and value >= 0 and value == int(value)):
        raise CheckpointError(f"{path}: entry {name!r} is {value}, not a count")
    return int(value)


def load_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: Optional[AdamW] = None) -> int:
    """Restore parameters (and optimizer state); returns completed epochs.

    Everything is checked before anything is restored, and a malformed or
    mismatched checkpoint raises ``CheckpointError``.
    """
    digest, entries = _read_checkpoint(path)
    if digest != config.digest():
        raise CheckpointError(
            f"{path}: checkpoint was written for a different config "
            f"(digest {digest[:12]}.. != {config.digest()[:12]}..)"
        )
    registry = model.named_parameters()
    params = {name: _entry(entries, name, p.data.shape, path) for name, p in registry.items()}
    epoch = _counter(entries, "trainer.epoch", path)
    if optimizer is not None:
        moments = {name: (_entry(entries, f"opt.m.{name}", p.data.shape, path),
                          _entry(entries, f"opt.v.{name}", p.data.shape, path))
                   for name, p in registry.items()}
        optimizer.t = _counter(entries, "trainer.step", path)
        for name, (m, v) in moments.items():
            optimizer.m[name] = m.astype(np.float64)
            optimizer.v[name] = v.astype(np.float64)
    for name, p in registry.items():
        p.data = params[name].astype(np.float32)
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
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes = manifest.load_episodes()
    schedule = TrainSchedule.for_dataset(config, len(episodes))
    loaders = TaskLoaders(episodes, config.batch_size, config.seed)
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)

    start_epoch = 0
    if resume_from is not None:
        start_epoch = load_checkpoint(resume_from, config, model, optimizer)

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
        for epoch in range(start_epoch, schedule.epochs):
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
        epochs_run=max(0, schedule.epochs - start_epoch),
        final_means=means,
    )
