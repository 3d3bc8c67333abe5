"""Training objectives.

Every task is trained with the negative log-likelihood of target indices:
retrieval of the start and end frames, segmentation of the next step
boundary, captioning of the next token. Each loss gathers the target entries
of all its distributions with one ``pick`` and sums their logs.
Probabilities are clamped at 1e-12 before the log so the losses stay finite,
and a padding token as a caption target adds exactly zero. The per-iteration
objective adds the contrastive alignment loss scaled by a nonnegative
trade-off weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from quag.data import PAD
from quag.heads import SpanDistribution
from quag.tensor import Tensor, log_clamped, log_softmax, pick, sum_all

__all__ = [
    "TASKS",
    "NonFiniteLossError",
    "LossBundle",
    "retrieval_loss",
    "segmentation_loss",
    "caption_loss",
    "total_loss",
]

TASKS = ("ret", "seg", "cap")


class NonFiniteLossError(ValueError):
    """A loss or gradient stopped being finite; training aborts."""


@dataclass
class LossBundle:
    task: str
    task_loss: Tensor
    msp_loss: Tensor
    total: Tensor


def retrieval_loss(dists: Sequence[SpanDistribution],
                   targets: Sequence[tuple[int, int]]) -> Tensor:
    """Batch-mean NLL of the ground-truth start and end indices."""
    if len(dists) != len(targets) or not dists:
        raise ValueError("retrieval_loss needs matching, non-empty batches")
    probs = [p for dist in dists for p in (dist.p_start, dist.p_end)]
    index = [y for target in targets for y in target]
    return sum_all(log_clamped(pick(probs, index))) * (-1.0 / len(dists))


def segmentation_loss(step_dists: Sequence[Tensor], gt_steps: Sequence[int],
                      masks: Sequence[np.ndarray]) -> Tensor:
    """Batch-mean NLL over step-prediction instances.

    ``masks[i]`` marks the frames excluded from instance ``i``'s
    distribution. A ground-truth index that is masked signals an
    inconsistency between the mask and the annotations and raises instead of
    silently producing a clamped log.
    """
    if not (len(step_dists) == len(gt_steps) == len(masks)) or not step_dists:
        raise ValueError("segmentation_loss needs matching, non-empty batches")
    for i, (dist, y, mask) in enumerate(zip(step_dists, gt_steps, masks)):
        n = dist.shape[0]
        if not (0 <= y < n):
            raise IndexError(f"step index {y} out of range for {n} frames")
        if mask[y]:
            raise ValueError(f"instance {i}: ground-truth step {y} is masked out")
    return sum_all(log_clamped(pick(step_dists, gt_steps))) * (-1.0 / len(step_dists))


def caption_loss(logit_batch: Sequence[Tensor], gt_tokens: Sequence[Sequence[int]]) -> Tensor:
    """Token-level NLL summed per caption, averaged over the batch.

    Positions whose target is the padding token contribute exactly zero.
    """
    if len(logit_batch) != len(gt_tokens) or not logit_batch:
        raise ValueError("caption_loss needs matching, non-empty batches")
    log_probs, index = [], []
    for logits, targets in zip(logit_batch, gt_tokens):
        if len(targets) != logits.shape[0]:
            raise ValueError(f"{len(targets)} targets for {logits.shape[0]} logit rows")
        tokens = np.asarray(targets, dtype=np.intp)
        rows = np.flatnonzero(tokens != PAD)
        log_probs.append(log_softmax(logits))
        index.append((rows, tokens[rows]))
    return sum_all(pick(log_probs, index)) * (-1.0 / len(log_probs))


def total_loss(task: str, task_loss: Tensor, msp_loss: Tensor, lam: float) -> LossBundle:
    """Weighted combination of one task loss with the alignment loss."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
    if lam < 0:
        raise ValueError(f"trade-off weight must be nonnegative, got {lam}")
    total = task_loss + msp_loss * lam
    for name, value in (("task", task_loss), ("msp", msp_loss), ("total", total)):
        if not np.isfinite(value.data).all():
            raise NonFiniteLossError(f"{name} loss is not finite")
    return LossBundle(task=task, task_loss=task_loss, msp_loss=msp_loss, total=total)
