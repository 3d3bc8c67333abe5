"""Query-centric cognition.

Fuses the query vector into every frame of the audio-visual stream, derives
temporal and channel relevance gates from the fused context, filters the
audio-visual representation by their outer product, and injects the
self-attended query context back in through a residual sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from quag.layers import LinearLayer, MultiHeadAttention
from quag.tensor import (
    ShapeError,
    Tensor,
    concat_last,
    concat_last_core,
    mean_axis,
    reshape,
    sigmoid,
    sigmoid_core,
)

__all__ = [
    "Qc2Params",
    "GatePair",
    "fuse_query_context",
    "compute_gates",
    "apply_filtration",
    "build_query_centric_repr",
]


class Qc2Params:
    """Fusion projection, the two gate linears, and the injection attention."""

    def __init__(self, fuse: LinearLayer, gate_temporal: LinearLayer,
                 gate_channel: LinearLayer, inject: MultiHeadAttention):
        if gate_temporal.in_dim != 1 or gate_temporal.out_dim != 1:
            raise ShapeError("temporal gate must map one scalar per frame to one scalar")
        self.fuse = fuse
        self.gate_temporal = gate_temporal
        self.gate_channel = gate_channel
        self.inject = inject

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_heads: int) -> "Qc2Params":
        return cls(
            LinearLayer.create(rng, 2 * dim, dim),
            LinearLayer.create(rng, 1, 1),
            LinearLayer.create(rng, dim, dim),
            MultiHeadAttention.create(rng, dim, n_heads),
        )

    def infer(self, fused_av: np.ndarray, query: np.ndarray) -> np.ndarray:
        """``fuse_query_context``, ``compute_gates``, ``apply_filtration`` and
        ``build_query_centric_repr`` on one episode's [N x D] stream and [D]
        query: the query-centric [N x D] representation."""
        context = self.fuse.infer(concat_last_core(fused_av, query))
        n_frames, dim = context.shape
        temporal_in = context.mean(axis=1).reshape(n_frames, 1)
        temporal = sigmoid_core(self.gate_temporal.infer(temporal_in))
        channel = sigmoid_core(self.gate_channel.infer(context.mean(axis=0).reshape(1, dim)))
        return temporal * channel * fused_av + self.inject.infer(context, context, context)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.fuse.named_params(f"{prefix}.fuse")
        yield from self.gate_temporal.named_params(f"{prefix}.gate_temporal")
        yield from self.gate_channel.named_params(f"{prefix}.gate_channel")
        yield from self.inject.named_params(f"{prefix}.inject")


@dataclass
class GatePair:
    temporal: Tensor  # [..., N_v x 1]
    channel: Tensor   # [..., 1 x D]
    combined: Tensor  # [..., N_v x D], outer broadcast product


def fuse_query_context(fused_av: Tensor, query: Tensor, params: Qc2Params) -> Tensor:
    """Join the query to every frame (``concat_last`` broadcasts it), project
    2D -> D. The query of an [N, D] stream is [D]; that of a stacked
    [B, N, D] stream is [B, 1, D], one per episode."""
    dim = fused_av.shape[-1]
    if query.shape not in ((dim,), fused_av.shape[:-2] + (1, dim)):
        raise ShapeError(
            f"query shape {query.shape} does not fit stream shape {fused_av.shape}"
        )
    return params.fuse(concat_last(fused_av, query))


def compute_gates(query_context: Tensor, params: Qc2Params) -> GatePair:
    """Per-frame and per-channel relevance gates from the [..., N, D] fused
    context.

    The temporal gate squeezes channels to one scalar per frame and passes it
    through the 1x1 linear; the channel gate squeezes frames to one vector and
    passes it through the DxD linear. Both end in a sigmoid, so every entry of
    the combined outer product lies strictly inside (0, 1).
    """
    *lead, n_frames, dim = query_context.shape
    temporal_in = reshape(mean_axis(query_context, -1), (*lead, n_frames, 1))
    temporal = sigmoid(params.gate_temporal(temporal_in))
    channel_in = reshape(mean_axis(query_context, -2), (*lead, 1, dim))
    channel = sigmoid(params.gate_channel(channel_in))
    return GatePair(temporal=temporal, channel=channel, combined=temporal * channel)


def apply_filtration(fused_av: Tensor, gates: GatePair) -> Tensor:
    """Scale the stream elementwise by the combined gate."""
    if gates.combined.shape != fused_av.shape:
        raise ShapeError(
            f"filtration gate shape {gates.combined.shape} != stream shape {fused_av.shape}"
        )
    return gates.combined * fused_av


def build_query_centric_repr(filtered_av: Tensor, query_context: Tensor,
                             params: Qc2Params) -> Tensor:
    """Residual sum of the filtered stream and the self-attended context."""
    if filtered_av.shape != query_context.shape:
        raise ShapeError(
            f"shape mismatch: {filtered_av.shape} vs {query_context.shape}"
        )
    return filtered_av + params.inject(query_context, query_context, query_context)
