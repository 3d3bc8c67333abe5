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
CHECKPOINT_VERSION = 2
_SLICE = 1 << 14  # AdamW elements per slice of its flat buffers: 128 KiB of float64


class CheckpointError(ValueError):
    pass


class AdamW:
    """Bias-corrected Adam with decoupled weight decay, over flat buffers.

    Each ``p.data`` is rebound to its view of one float32 buffer, laid out in
    the given order, and ``step`` updates it in place. The gradients have a
    float32 buffer and the moments a float64 pair of the same layout, viewed
    per name as ``m[name]`` and ``v[name]``. ``zero_grads`` points every
    ``p.grad`` at its slot, so backward adds into the buffer; ``step`` copies
    any other gradient into its slot, ``None`` as zero. The moments and update
    are float64 and only the new parameter is rounded: float32 moments drift
    1.4e-7 from a float64 Adam in 20 steps on a quadratic, against 4.3e-8.
    The flat arrays are walked in ``_SLICE`` slices through two float64
    scratch buffers that stay in cache, one set of ufunc calls per slice.
    """

    def __init__(self, params: dict[str, Tensor], lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.01):
        # Every comparison is False for NaN, so NaN fails too. A beta of 1
        # zeroes the bias correction's divisor; eps 0 makes 0/0 of a zero gradient.
        for name, value, ok, allowed in (
                ("lr", lr, lr >= 0, ">= 0"),
                ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                ("eps", eps, eps > 0, "> 0"),
                ("weight_decay", weight_decay, weight_decay >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"AdamW {name} must be {allowed}, got {value}")
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.beta1, self.beta2 = beta1, beta2
        size = sum(p.data.size for p in params.values())
        self.flat_data, self.flat_grad = np.empty(size, np.float32), np.zeros(size, np.float32)
        self.flat_m, self.flat_v = np.zeros(size), np.zeros(size)
        self.m, self.v, self._slots = {}, {}, []  # slots: (name, tensor, data view, grad view)
        lo = 0
        for name, p in params.items():
            data, grad, self.m[name], self.v[name] = (
                flat[lo:lo + p.data.size].reshape(p.shape)
                for flat in (self.flat_data, self.flat_grad, self.flat_m, self.flat_v))
            np.copyto(data, p.data, casting="equiv")  # a float64 parameter raises TypeError
            p.data = data
            self._slots.append((name, p, data, grad))
            lo += data.size
        self.t = 0

    @classmethod
    def for_model(cls, model: QuagParams) -> "AdamW":
        cfg = model.config
        return cls(model.named_parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.eps, weight_decay=cfg.weight_decay)

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
        b1, b2 = self.beta1, self.beta2
        step_size = self.lr / (1.0 - b1 ** self.t)
        inv_bc2 = 1.0 / (1.0 - b2 ** self.t)
        shrink = 1.0 - self.lr * self.weight_decay
        g64, u64 = np.empty(_SLICE), np.empty(_SLICE)
        for lo in range(0, x.size, _SLICE):
            hi = min(lo + _SLICE, x.size)
            gs, u = g64[:hi - lo], u64[:hi - lo]
            ms, vs = m[lo:hi], v[lo:hi]
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
            # x = x - lr * update - lr * weight_decay * x
            np.copyto(gs, x[lo:hi])
            gs *= shrink
            gs -= u
            np.copyto(x[lo:hi], gs, casting="same_kind")


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
# Checkpoint format v2, little-endian throughout:
#   magic b"QGCK", u32 version, u32 digest length, the config digest (ascii),
#   u32 entry count, then for each entry: u32 name length, the name (utf-8),
#   a 3-byte dtype tag, u32 rank, one u32 per extent, and the raw values.
# Each entry is stored in the dtype of the array it holds: "<f4" for the
# parameters, "<f8" for the AdamW moments opt.m.* / opt.v.*, "<i8" for
# trainer.step and trainer.epoch. So the optimizer state round-trips exactly,
# and a resumed run stays bit-identical to an uninterrupted one.

_DTYPE_TAGS = {tag: np.dtype(tag.decode("ascii")) for tag in (b"<f4", b"<f8", b"<i8")}
_MAX_RANK = 32  # NumPy 1's array rank limit; no entry comes near it


def _checkpoint_arrays(model: QuagParams, optimizer: Optional[AdamW]) -> dict[str, np.ndarray]:
    """Each array entry's name and the live array it holds, in file order:
    every parameter, then, with an optimizer, each parameter's moments."""
    params = model.named_parameters()
    arrays = {name: p.data for name, p in params.items()}
    if optimizer is not None:
        for name in params:
            arrays[f"opt.m.{name}"] = optimizer.m[name]
            arrays[f"opt.v.{name}"] = optimizer.v[name]
    return arrays


def save_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: AdamW, epoch: int) -> None:
    """Write a v2 checkpoint atomically.

    The entries stream to a temp file beside ``path``, which then replaces
    ``path`` in one rename. If the process dies mid-write, ``path`` still
    holds the previous checkpoint. The temp file is fsynced before the rename
    and the directory after it, so after a power loss ``path`` holds either
    the previous checkpoint or the whole new one.
    """
    path = Path(path)
    digest = config.digest().encode("ascii")
    entries = list(_checkpoint_arrays(model, optimizer).items()) + [
        ("trainer.step", np.array([optimizer.t], dtype="<i8")),
        ("trainer.epoch", np.array([epoch], dtype="<i8")),
    ]
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(digest))
                    + digest + struct.pack("<I", len(entries)))
            for name, arr in entries:
                arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)) + encoded + arr.dtype.str.encode("ascii")
                        + struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape))
                f.write(arr.data)
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


def _index_checkpoint(f, path: Path) -> tuple[str, dict[str, tuple[np.dtype, tuple, int]]]:
    """The config digest and each entry's dtype, shape and value offset in
    the open v2 checkpoint ``f``: every header is read and checked, every
    payload skipped. Any malformed input raises ``CheckpointError``."""
    size = os.fstat(f.fileno()).st_size

    def take(n: int) -> bytes:
        if n > size - f.tell():
            raise CheckpointError(f"{path}: truncated checkpoint: a header runs past the end")
        return f.read(n)

    head = f.read(12)
    if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    version, digest_len = struct.unpack("<II", head[4:])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        digest = take(digest_len).decode("ascii")
        index = {}
        for _ in range(struct.unpack("<I", take(4))[0]):
            name = take(struct.unpack("<I", take(4))[0]).decode("utf-8")
            tag = take(3)
            if tag not in _DTYPE_TAGS:
                raise CheckpointError(f"{path}: entry {name!r} has unknown dtype tag {tag!r}")
            (rank,) = struct.unpack("<I", take(4))
            if rank > _MAX_RANK:
                raise CheckpointError(f"{path}: corrupt checkpoint: entry {name!r} has rank {rank}")
            shape = struct.unpack(f"<{rank}I", take(4 * rank))
            index[name] = (_DTYPE_TAGS[tag], shape, f.tell())
            end = f.tell() + math.prod(shape) * _DTYPE_TAGS[tag].itemsize
            if end > size:
                raise CheckpointError(f"{path}: truncated checkpoint: entry {name!r} runs past the end")
            f.seek(end)
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc
    if f.tell() != size:
        raise CheckpointError(f"{path}: {size - f.tell()} trailing bytes after the last entry")
    return digest, index


def _entry(index: dict, name: str, shape: tuple[int, ...], path: Path,
           dtype: Optional[np.dtype] = None) -> tuple:
    """The indexed entry ``name``, checked to have ``shape`` and, if given,
    ``dtype``: an entry is read into its live array as it is stored."""
    if name not in index:
        raise CheckpointError(f"{path}: missing entry {name!r}")
    if index[name][1] != shape:
        raise CheckpointError(f"{path}: entry {name!r} has shape {index[name][1]}, expected {shape}")
    if dtype is not None and index[name][0] != dtype:
        raise CheckpointError(
            f"{path}: entry {name!r} has dtype {index[name][0].str}, expected {dtype.str}")
    return index[name]


def _read_into(f, entry: tuple, out: np.ndarray, path: Path) -> None:
    """Read an indexed entry's values straight into ``out``, an array of its
    shape and dtype."""
    f.seek(entry[2])
    if f.readinto(out) != out.nbytes:
        raise CheckpointError(f"{path}: checkpoint shrank while it was read")


def _counter(f, index: dict, name: str, path: Path) -> int:
    entry = _entry(index, name, (1,), path)
    value = np.empty(1, entry[0])
    _read_into(f, entry, value, path)
    if entry[0] != _DTYPE_TAGS[b"<i8"] or value[0] < 0:
        raise CheckpointError(f"{path}: entry {name!r} is {entry[0].str} {value[0]}, not a count")
    return int(value[0])


def load_checkpoint(path: Path, config: ModelConfig, model: QuagParams,
                    optimizer: Optional[AdamW] = None) -> int:
    """Restore parameters (and optimizer state); returns completed epochs.

    A first pass reads and checks every header and the counters, so a
    malformed, truncated or mismatched checkpoint raises ``CheckpointError``
    before anything is restored. A second pass reads each entry's values
    straight into its array, so the arrays keep their objects and dtypes and
    the file is never held in memory.
    """
    with open(path, "rb") as f:
        digest, index = _index_checkpoint(f, path)
        if digest != config.digest():
            raise CheckpointError(
                f"{path}: checkpoint was written for a different config "
                f"(digest {digest[:12]}.. != {config.digest()[:12]}..)"
            )
        arrays = _checkpoint_arrays(model, optimizer)
        saved = [_entry(index, name, arr.shape, path, arr.dtype) for name, arr in arrays.items()]
        epoch = _counter(f, index, "trainer.epoch", path)
        step = _counter(f, index, "trainer.step", path) if optimizer is not None else 0
        for arr, entry in zip(arrays.values(), saved):
            _read_into(f, entry, arr, path)
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
