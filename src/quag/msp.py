"""Modality-synergistic perception.

Aligns the visual and audio streams globally with a symmetric in-batch
contrastive objective over mean-pooled features (the log-likelihood of the
matched pair, read off the diagonal of both softmax directions), then fuses them locally via
bidirectional cross-attention and a fully-connected projection into a single
audio-visual representation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from quag.layers import LinearLayer, MultiHeadAttention
from quag.tensor import (
    ShapeError,
    Tensor,
    concat_last,
    concat_last_core,
    log_softmax,
    matmul,
    mean_axis,
    pick,
    reshape,
    sqrt,
    sum_all,
    transpose,
)

__all__ = [
    "MspParams",
    "global_pool",
    "msp_contrastive_loss",
    "cross_modal_interact",
    "fuse_audio_visual",
]


class MspParams:
    """Cross-attention blocks for each direction and the fusion projection."""

    def __init__(self, attn_v2a: MultiHeadAttention, attn_a2v: MultiHeadAttention,
                 fuse: LinearLayer):
        self.attn_v2a = attn_v2a
        self.attn_a2v = attn_a2v
        self.fuse = fuse

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_heads: int) -> "MspParams":
        return cls(
            MultiHeadAttention.create(rng, dim, n_heads),
            MultiHeadAttention.create(rng, dim, n_heads),
            LinearLayer.create(rng, 2 * dim, dim),
        )

    def infer(self, r_v: np.ndarray, r_a: np.ndarray) -> np.ndarray:
        """``cross_modal_interact`` then ``fuse_audio_visual`` on one
        episode's [N x D] arrays: the fused [N x D] stream."""
        joint_v = self.attn_v2a.infer(r_v, r_a, r_a)
        joint_a = self.attn_a2v.infer(r_a, r_v, r_v)
        return self.fuse.infer(concat_last_core(joint_v, joint_a))

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.attn_v2a.named_params(f"{prefix}.attn_v2a")
        yield from self.attn_a2v.named_params(f"{prefix}.attn_a2v")
        yield from self.fuse.named_params(f"{prefix}.fuse")


def global_pool(r_v: Tensor, r_a: Tensor) -> tuple[Tensor, Tensor]:
    """Mean-pool both streams over the frame axis: [..., N, D] -> [..., D]."""
    if r_v.ndim < 2 or r_v.shape[:-1] != r_a.shape[:-1]:
        raise ShapeError(
            f"global_pool expects equal-length streams, got {r_v.shape} vs {r_a.shape}"
        )
    return mean_axis(r_v, -2), mean_axis(r_a, -2)


def _normalize_rows(x: Tensor) -> Tensor:
    sq = mean_axis(x * x, 1) * float(x.shape[1])
    norm = sqrt(reshape(sq, (x.shape[0], 1)) + 1e-12)
    return x / norm


def msp_contrastive_loss(batch_v: Tensor, batch_a: Tensor, tau: float,
                         normalize: bool = False) -> Tensor:
    """Symmetric InfoNCE over the BxB dot-product similarity matrix.

    Matched rows are positives; every other pairing in the batch is a
    negative. Both softmax directions (rows and columns, each read at the
    diagonal) are averaged.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if batch_v.ndim != 2 or batch_v.shape != batch_a.shape:
        raise ShapeError(
            f"msp_contrastive_loss batch mismatch: {batch_v.shape} vs {batch_a.shape}"
        )
    if normalize:
        batch_v = _normalize_rows(batch_v)
        batch_a = _normalize_rows(batch_a)
    b = batch_v.shape[0]
    sims = matmul(batch_v, transpose(batch_a)) * (1.0 / tau)
    diag = (np.arange(b), np.arange(b))
    positives = pick([log_softmax(sims), log_softmax(transpose(sims))], [diag, diag])
    return sum_all(positives) * (-0.5 / b)


def cross_modal_interact(r_v: Tensor, r_a: Tensor, params: MspParams) -> tuple[Tensor, Tensor]:
    """Attend each stream over the other, unmasked, one block per direction;
    [..., N, D] streams, each episode of a stacked batch within itself."""
    if r_v.shape != r_a.shape:
        raise ShapeError(f"cross_modal_interact shape mismatch: {r_v.shape} vs {r_a.shape}")
    joint_v = params.attn_v2a(r_v, r_a, r_a)
    joint_a = params.attn_a2v(r_a, r_v, r_v)
    return joint_v, joint_a


def fuse_audio_visual(joint_v: Tensor, joint_a: Tensor, params: MspParams) -> Tensor:
    """Concatenate the joint streams channel-wise and project 2D -> D."""
    if joint_v.shape != joint_a.shape:
        raise ShapeError(f"fuse_audio_visual shape mismatch: {joint_v.shape} vs {joint_a.shape}")
    return params.fuse(concat_last(joint_v, joint_a))
