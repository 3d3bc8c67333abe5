"""Reusable neural building blocks: linear layers, multi-head attention, and
one post-norm transformer block class, whose decoder form adds causal
masking and cross-attention to the encoder form.

A linear layer is one autodiff graph node, ``tensor.affine``, and so is
multi-head attention, ``tensor.attention``: input projections, head split,
scaled scores, mask, softmax, weighted sum, head merge and output
projection. Each layer's ``infer`` and the cached decoder ``step`` are
their array forms for inference: plain numpy on the same ops' forward cores
(``tensor.affine_core``, ``multihead_core``, ``attention_core``,
``layer_norm_core``, ``gelu_core``), so they equal the graph forms bit for
bit.

All parameters are created from a caller-supplied numpy Generator with
Xavier-uniform weights and zero biases, in a fixed draw order, so a fixed seed
yields a reproducible model.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from quag.tensor import (
    ShapeError,
    Tensor,
    affine,
    affine_core,
    attention,
    attention_core,
    gelu,
    gelu_core,
    layer_norm,
    layer_norm_core,
    multihead_core,
)

__all__ = [
    "LinearLayer",
    "MultiHeadAttention",
    "TransformerBlock",
    "encoder_forward",
    "xavier_uniform",
    "causal_mask",
]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


class LinearLayer:
    """Affine map x -> xW + b with W of shape [IN, OUT]."""

    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    @classmethod
    def create(cls, rng: np.random.Generator, in_dim: int, out_dim: int) -> "LinearLayer":
        return cls(
            Tensor(xavier_uniform(rng, in_dim, out_dim), requires_grad=True),
            Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True),
        )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def __call__(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """``__call__`` on an array."""
        return affine_core(x, self.weight.data, self.bias.data)[0]

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


class MultiHeadAttention:
    """Scaled dot-product attention with h heads of D/h channels each."""

    def __init__(self, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, n_heads: int):
        dim = wq.shape[0]
        if dim % n_heads != 0:
            raise ShapeError(f"model dim {dim} not divisible by {n_heads} heads")
        self.wq, self.wk, self.wv, self.wo = wq, wk, wv, wo
        self.n_heads = n_heads

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_heads: int) -> "MultiHeadAttention":
        mats = [Tensor(xavier_uniform(rng, dim, dim), requires_grad=True) for _ in range(4)]
        return cls(*mats, n_heads=n_heads)

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    def __call__(self, query: Tensor, key: Tensor, value: Tensor,
                 mask: Optional[np.ndarray] = None) -> Tensor:
        """One ``tensor.attention`` node over [Lq x D] queries and [Lk x D]
        keys and values. Head i attends with channels [i*D/h, (i+1)*D/h) of
        the projections. ``mask``, boolean [Lq x Lk] and shared by every head,
        is True at keys a query must not attend to: they get exactly zero
        weight, and a query row with every key masked is an error."""
        return attention(query, key, value, self.wq, self.wk, self.wv, self.wo,
                         self.n_heads, mask)

    def infer(self, query: np.ndarray, key: np.ndarray, value: np.ndarray) -> np.ndarray:
        """Unmasked ``__call__`` on arrays."""
        return multihead_core(query, key, value, self.wq.data, self.wk.data, self.wv.data,
                              self.wo.data, self.n_heads)[0]

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.wq", self.wq
        yield f"{prefix}.wk", self.wk
        yield f"{prefix}.wv", self.wv
        yield f"{prefix}.wo", self.wo


def causal_mask(length: int) -> np.ndarray:
    """Boolean [L x L] mask excluding positions after each query index."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


class TransformerBlock:
    """Post-norm transformer block (Vaswani et al., arXiv:1706.03762): self-
    attention and a GELU feed-forward of width 4 * D, each wrapped in
    residual + layer norm. A decoder block also has ``cross_attn`` over an
    encoder memory between the two, and only a decoder block masks its
    self-attention causally."""

    def __init__(self, self_attn: MultiHeadAttention, cross_attn: Optional[MultiHeadAttention],
                 ffn_in: LinearLayer, ffn_out: LinearLayer,
                 ln_gains: Sequence[Tensor], ln_biases: Sequence[Tensor]):
        self.self_attn = self_attn
        self.cross_attn = cross_attn
        self.ffn_in = ffn_in
        self.ffn_out = ffn_out
        self.ln_gains = list(ln_gains)
        self.ln_biases = list(ln_biases)

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_heads: int,
               decoder: bool = False) -> "TransformerBlock":
        # The arguments draw from ``rng`` in this order, which fixes the weights.
        return cls(
            MultiHeadAttention.create(rng, dim, n_heads),
            MultiHeadAttention.create(rng, dim, n_heads) if decoder else None,
            LinearLayer.create(rng, dim, 4 * dim),
            LinearLayer.create(rng, 4 * dim, dim),
            [Tensor(np.ones(dim, dtype=np.float32), requires_grad=True) for _ in range(2 + decoder)],
            [Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True) for _ in range(2 + decoder)],
        )

    def _sublayer(self, i: int, x: Tensor, y: Tensor) -> Tensor:
        """Residual and layer norm i around sublayer output ``y``."""
        return layer_norm(x + y, self.ln_gains[i], self.ln_biases[i])

    def __call__(self, x: Tensor, memory: Optional[Tensor] = None) -> Tensor:
        """The block over [L x D] rows; a decoder block also needs the
        ``memory`` [M x D] it cross-attends to."""
        decoder = self.cross_attn is not None
        mask = causal_mask(x.shape[0]) if decoder else None
        h = self._sublayer(0, x, self.self_attn(x, x, x, mask=mask))
        if decoder:
            h = self._sublayer(1, h, self.cross_attn(h, memory, memory))
        return self._sublayer(-1, h, self.ffn_out(gelu(self.ffn_in(h))))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """An encoder block's ``__call__`` on an [L x D] array."""
        h = self._step_norm(0, x, self.self_attn.infer(x, x, x))
        return self._step_norm(-1, h, self.ffn_out.infer(gelu_core(self.ffn_in.infer(h))[0]))

    def start_cache(self, memory: np.ndarray, rows: int) -> tuple[np.ndarray, ...]:
        """The ``step`` cache of a decoder block for R = ``rows`` rows, row r
        decoding against rows [r*M, (r+1)*M) of the array ``memory`` [R*M x D].

        It holds the self-attention keys [R, h, D/h, t] and values
        [R, h, t, D/h] of the t positions decoded so far (none yet), then the
        cross-attention keys [R, h, D/h, M] and values [R, h, M, D/h] of the
        memories, projected once here. Axis 0 indexes the R rows throughout,
        so indexing every array alike reorders, repeats or drops rows.
        """
        attn = self.cross_attn
        heads = attn.n_heads
        head_dim = attn.dim // heads
        split = (rows, -1, heads, head_dim)
        mem_k = (memory @ attn.wk.data).reshape(split).transpose(0, 2, 3, 1)
        mem_v = (memory @ attn.wv.data).reshape(split).transpose(0, 2, 1, 3)
        mem_k, mem_v = np.ascontiguousarray(mem_k), np.ascontiguousarray(mem_v)
        return (np.zeros((rows, heads, head_dim, 0), mem_k.dtype),
                np.zeros((rows, heads, 0, head_dim), mem_v.dtype), mem_k, mem_v)

    def step(self, x: np.ndarray, cache: tuple[np.ndarray, ...],
             memory_mask: Optional[np.ndarray]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Run one new position of R rows through a decoder block against a
        ``start_cache`` cache, in plain numpy: arrays in and out, no graph.

        ``x`` is [R x D], each row the newest position of its own sequence.
        ``memory_mask``, boolean [R, 1, 1, M] or None, marks the padded
        memory positions a row must not attend to; it is not checked here, so
        every row must keep a memory position. Both attentions run on
        ``tensor.attention_core``, the core of the training-path
        ``tensor.attention``, with [R, h, 1, D/h] queries; one query position
        merges its heads by a reshape alone; layer norm and GELU run
        ``layer_norm_core`` and ``gelu_core``. Returns the block output for
        those positions, equal to the last row of ``__call__`` over each
        whole sequence and its own memory, and the cache with
        their self-attention keys and values appended.
        """
        past_k, past_v, mem_k, mem_v = cache
        attn = self.self_attn
        split = (x.shape[0], attn.n_heads)
        keys = np.concatenate([past_k, (x @ attn.wk.data).reshape(*split, -1, 1)], axis=-1)
        values = np.concatenate([past_v, (x @ attn.wv.data).reshape(*split, 1, -1)], axis=-2)
        h = self._step_norm(0, x, _cached_attention(attn, x, keys, values, None))
        h = self._step_norm(1, h, _cached_attention(self.cross_attn, h, mem_k, mem_v, memory_mask))
        ffn = gelu_core(h @ self.ffn_in.weight.data + self.ffn_in.bias.data)[0]
        h = self._step_norm(2, h, ffn @ self.ffn_out.weight.data + self.ffn_out.bias.data)
        return h, (keys, values, mem_k, mem_v)

    def _step_norm(self, i: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``_sublayer`` on arrays."""
        return layer_norm_core(x + y, self.ln_gains[i].data, self.ln_biases[i].data)[0]

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        # An encoder block's self-attention keeps its registry name "attn".
        attn_name = "attn" if self.cross_attn is None else "self_attn"
        yield from self.self_attn.named_params(f"{prefix}.{attn_name}")
        if self.cross_attn is not None:
            yield from self.cross_attn.named_params(f"{prefix}.cross_attn")
        yield from self.ffn_in.named_params(f"{prefix}.ffn_in")
        yield from self.ffn_out.named_params(f"{prefix}.ffn_out")
        for i, (g, b) in enumerate(zip(self.ln_gains, self.ln_biases), start=1):
            yield f"{prefix}.ln{i}.gain", g
            yield f"{prefix}.ln{i}.bias", b


def _cached_attention(attn: MultiHeadAttention, x: np.ndarray, keys: np.ndarray,
                      values: np.ndarray, mask: Optional[np.ndarray]) -> np.ndarray:
    """``attn`` for R rows ``x`` [R x D] of one query position each, over
    cached keys [R, h, D/h, t] and values [R, h, t, D/h]: arrays, no graph."""
    rows = x.shape[0]
    q = (x @ attn.wq.data).reshape(rows, attn.n_heads, 1, -1)
    ctx = attention_core(q, keys, values, mask)[0]
    return ctx.reshape(rows, -1) @ attn.wo.data


def encoder_forward(x: Tensor, blocks: Sequence[TransformerBlock],
                    _rate=None, _rng=None,  # ignored: for bench/walk.py until ROADMAP 1b
                    ) -> Tensor:
    """Apply encoder blocks in sequence; shape is preserved."""
    for block in blocks:
        x = block(x)
    return x
