"""Reusable neural building blocks: linear layers, multi-head attention, and
one post-norm transformer block class, whose decoder form adds causal
masking and cross-attention to the encoder form.

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
    gelu,
    layer_norm,
    masked_softmax,
    matmul,
    mul,
    reshape,
    transpose,
)

__all__ = [
    "LinearLayer",
    "MultiHeadAttention",
    "TransformerBlock",
    "linear",
    "mha",
    "project_heads",
    "attend",
    "encoder_forward",
    "xavier_uniform",
    "causal_mask",
    "dropout",
]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no generator is supplied."""
    if rate <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / (1.0 - rate)
    return mul(x, Tensor(keep))


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
        return linear(x, self)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight
        yield f"{prefix}.bias", self.bias


def linear(x: Tensor, layer: LinearLayer) -> Tensor:
    """Apply an affine layer to a rank-1 or rank-2 input."""
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"linear expects last extent {layer.in_dim}, got input shape {x.shape}"
        )
    if x.ndim == 1:
        out = matmul(reshape(x, (1, x.shape[0])), layer.weight) + layer.bias
        return reshape(out, (layer.out_dim,))
    return matmul(x, layer.weight) + layer.bias


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
        return mha(query, key, value, self, mask=mask)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.wq", self.wq
        yield f"{prefix}.wk", self.wk
        yield f"{prefix}.wv", self.wv
        yield f"{prefix}.wo", self.wo


def mha(query: Tensor, key: Tensor, value: Tensor, attn: MultiHeadAttention,
        mask: Optional[np.ndarray] = None, return_weights: bool = False):
    """Multi-head attention over [Lq x D] queries and [Lk x D] keys/values.

    Head i attends with channels [i*D/h, (i+1)*D/h) of the projections; all h
    heads run as one stacked [h x Lq x Lk] product. ``mask`` is boolean
    [Lq x Lk] with True marking keys a query must not attend to, shared by
    every head; masked keys receive exactly zero weight, and a fully-masked
    query row is an error. With ``return_weights`` the attention weights are
    returned too, as an [h x Lq x Lk] array.
    """
    dim = attn.dim
    if query.ndim != 2 or query.shape[1] != dim:
        raise ShapeError(f"mha query shape {query.shape} incompatible with dim {dim}")
    if key.ndim != 2 or key.shape[1] != dim or value.shape != key.shape:
        raise ShapeError(
            f"mha key/value shapes {key.shape}/{value.shape} incompatible with dim {dim}"
        )
    n_q, n_k = query.shape[0], key.shape[0]
    if mask is not None and mask.shape != (n_q, n_k):
        raise ShapeError(f"mha mask shape {mask.shape} != ({n_q}, {n_k})")
    q = project_heads(query, attn.wq, attn.n_heads, (1, 0, 2))
    k = project_heads(key, attn.wk, attn.n_heads, (1, 2, 0))
    v = project_heads(value, attn.wv, attn.n_heads, (1, 0, 2))
    out, w = attend(q, k, v, attn, mask)
    if return_weights:
        return out, w.data
    return out


def project_heads(x: Tensor, weight: Tensor, n_heads: int, axes: Sequence[int]) -> Tensor:
    """Project [L x D] rows through ``weight`` and split the channels into
    heads: [L x h x D/h], permuted by ``axes``."""
    n = x.shape[0]
    return transpose(reshape(matmul(x, weight), (n, n_heads, -1)), axes)


def attend(q: Tensor, k: Tensor, v: Tensor, attn: MultiHeadAttention,
           mask: Optional[np.ndarray] = None) -> tuple[Tensor, Tensor]:
    """Scores, softmax, head merge and ``wo``: the attention core shared by
    ``mha`` and the cached decoder step.

    Either ``q`` is [h, Lq, D/h], ``k`` [h, D/h, Lk] and ``v`` [h, Lk, D/h],
    giving an [Lq x D] output, or each carries one more leading axis of R
    rows with a single query position each (``q`` [R, h, 1, D/h]), giving
    [R x D]. A single query position merges the heads back into head-major
    channels by a reshape alone. Also returns the weights,
    [..., h, Lq, Lk].
    """
    scores = matmul(q, k) * (1.0 / math.sqrt(q.shape[-1]))
    w = masked_softmax(scores, mask)
    ctx = matmul(w, v)
    if ctx.shape[-2] > 1:
        ctx = transpose(ctx, (1, 0, 2))
    return matmul(reshape(ctx, (-1, attn.dim)), attn.wo), w


def causal_mask(length: int) -> np.ndarray:
    """Boolean [L x L] mask excluding positions after each query index."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


def _ffn_width(dim: int, ffn_dim: Optional[int]) -> int:
    """The feed-forward width: ``ffn_dim``, or ``4 * dim`` when it is None."""
    if ffn_dim is None:
        return 4 * dim
    if ffn_dim < 1:
        raise ValueError(f"ffn_dim must be >= 1, or None for 4 * dim, got {ffn_dim}")
    return ffn_dim


class TransformerBlock:
    """Post-norm transformer block (Vaswani et al., arXiv:1706.03762): self-
    attention and a GELU feed-forward, each wrapped in residual + layer norm.
    A decoder block also has ``cross_attn`` over an encoder memory between
    the two, and only a decoder block masks its self-attention causally."""

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
               ffn_dim: Optional[int] = None, decoder: bool = False) -> "TransformerBlock":
        ffn_dim = _ffn_width(dim, ffn_dim)
        # The arguments draw from ``rng`` in this order, which fixes the weights.
        return cls(
            MultiHeadAttention.create(rng, dim, n_heads),
            MultiHeadAttention.create(rng, dim, n_heads) if decoder else None,
            LinearLayer.create(rng, dim, ffn_dim),
            LinearLayer.create(rng, ffn_dim, dim),
            [Tensor(np.ones(dim, dtype=np.float32), requires_grad=True) for _ in range(2 + decoder)],
            [Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True) for _ in range(2 + decoder)],
        )

    def _sublayer(self, i: int, x: Tensor, y: Tensor, drop_rate: float = 0.0,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
        """Residual, dropout and layer norm i around sublayer output ``y``."""
        return layer_norm(x + dropout(y, drop_rate, rng), self.ln_gains[i], self.ln_biases[i])

    def __call__(self, x: Tensor, memory: Optional[Tensor] = None, *,
                 drop_rate: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
        """The block over [L x D] rows; a decoder block also needs the
        ``memory`` [M x D] it cross-attends to."""
        decoder = self.cross_attn is not None
        mask = causal_mask(x.shape[0]) if decoder else None
        h = self._sublayer(0, x, self.self_attn(x, x, x, mask=mask), drop_rate, rng)
        if decoder:
            h = self._sublayer(1, h, self.cross_attn(h, memory, memory), drop_rate, rng)
        return self._sublayer(-1, h, self.ffn_out(gelu(self.ffn_in(h))), drop_rate, rng)

    def start_cache(self, memory: Tensor, rows: int) -> tuple[np.ndarray, ...]:
        """The ``step`` cache of a decoder block for R = ``rows`` rows, row r
        decoding against rows [r*M, (r+1)*M) of ``memory`` [R*M x D].

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
        mem_k = transpose(reshape(matmul(memory, attn.wk), split), (0, 2, 3, 1)).data
        mem_v = transpose(reshape(matmul(memory, attn.wv), split), (0, 2, 1, 3)).data
        return (np.zeros((rows, heads, head_dim, 0), mem_k.dtype),
                np.zeros((rows, heads, 0, head_dim), mem_v.dtype), mem_k, mem_v)

    def step(self, x: Tensor, cache: tuple[np.ndarray, ...], memory_mask: Optional[np.ndarray]
             ) -> tuple[Tensor, tuple[np.ndarray, ...]]:
        """Run one new position of R rows through a decoder block against a
        ``start_cache`` cache.

        ``x`` is [R x D], each row the newest position of its own sequence.
        ``memory_mask``, boolean [R, 1, 1, M] or None, marks the padded
        memory positions a row must not attend to. Returns the block output for
        those positions, equal to the last row of ``__call__`` over each
        whole sequence and its own memory without dropout, and the cache
        with their self-attention keys and values appended.
        """
        past_k, past_v, mem_k, mem_v = cache
        rows = x.shape[0]
        attn = self.self_attn
        heads = attn.n_heads
        keys = np.concatenate(
            [past_k, (x.data @ attn.wk.data).reshape(rows, heads, -1, 1)], axis=-1)
        values = np.concatenate(
            [past_v, (x.data @ attn.wv.data).reshape(rows, heads, 1, -1)], axis=-2)
        q = reshape(matmul(x, attn.wq), (rows, heads, 1, -1))
        h = self._sublayer(0, x, attend(q, Tensor(keys), Tensor(values), attn)[0])
        attn = self.cross_attn
        q = reshape(matmul(h, attn.wq), (rows, attn.n_heads, 1, -1))
        h = self._sublayer(1, h, attend(q, Tensor(mem_k), Tensor(mem_v), attn, memory_mask)[0])
        h = self._sublayer(2, h, self.ffn_out(gelu(self.ffn_in(h))))
        return h, (keys, values, mem_k, mem_v)

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


def encoder_forward(x: Tensor, blocks: Sequence[TransformerBlock], drop_rate: float = 0.0,
                    rng: Optional[np.random.Generator] = None) -> Tensor:
    """Apply encoder blocks in sequence; shape is preserved."""
    for block in blocks:
        x = block(x, drop_rate=drop_rate, rng=rng)
    return x
