"""Reusable neural building blocks: linear layers, multi-head attention, and
post-norm transformer encoder/decoder blocks.

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
    "EncoderBlock",
    "DecoderBlock",
    "linear",
    "mha",
    "project_heads",
    "attend",
    "encoder_forward",
    "xavier_uniform",
    "causal_mask",
    "dropout",
]


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


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


class EncoderBlock:
    """Post-norm transformer block: self-attention and a GELU feed-forward,
    each wrapped in residual + layer normalization."""

    def __init__(self, attn: MultiHeadAttention, ffn_in: LinearLayer, ffn_out: LinearLayer,
                 ln1_gain: Tensor, ln1_bias: Tensor, ln2_gain: Tensor, ln2_bias: Tensor):
        self.attn = attn
        self.ffn_in = ffn_in
        self.ffn_out = ffn_out
        self.ln1_gain, self.ln1_bias = ln1_gain, ln1_bias
        self.ln2_gain, self.ln2_bias = ln2_gain, ln2_bias

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, n_heads: int,
               ffn_dim: Optional[int] = None) -> "EncoderBlock":
        ffn_dim = _ffn_width(dim, ffn_dim)
        return cls(
            MultiHeadAttention.create(rng, dim, n_heads),
            LinearLayer.create(rng, dim, ffn_dim),
            LinearLayer.create(rng, ffn_dim, dim),
            Tensor(np.ones(dim, dtype=np.float32), requires_grad=True),
            Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True),
            Tensor(np.ones(dim, dtype=np.float32), requires_grad=True),
            Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True),
        )

    def __call__(self, x: Tensor, drop_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
        h = layer_norm(x + dropout(self.attn(x, x, x), drop_rate, rng),
                       self.ln1_gain, self.ln1_bias)
        f = self.ffn_out(gelu(self.ffn_in(h)))
        return layer_norm(h + dropout(f, drop_rate, rng), self.ln2_gain, self.ln2_bias)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.attn.named_params(f"{prefix}.attn")
        yield from self.ffn_in.named_params(f"{prefix}.ffn_in")
        yield from self.ffn_out.named_params(f"{prefix}.ffn_out")
        yield f"{prefix}.ln1.gain", self.ln1_gain
        yield f"{prefix}.ln1.bias", self.ln1_bias
        yield f"{prefix}.ln2.gain", self.ln2_gain
        yield f"{prefix}.ln2.bias", self.ln2_bias


def encoder_forward(x: Tensor, blocks: Sequence[EncoderBlock], drop_rate: float = 0.0,
                    rng: Optional[np.random.Generator] = None) -> Tensor:
    """Apply encoder blocks in sequence; shape is preserved."""
    for block in blocks:
        x = block(x, drop_rate, rng)
    return x


class DecoderBlock:
    """Post-norm decoder block: causal self-attention, cross-attention over an
    encoder memory, then a GELU feed-forward."""

    def __init__(self, self_attn: MultiHeadAttention, cross_attn: MultiHeadAttention,
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
               ffn_dim: Optional[int] = None) -> "DecoderBlock":
        ffn_dim = _ffn_width(dim, ffn_dim)
        return cls(
            MultiHeadAttention.create(rng, dim, n_heads),
            MultiHeadAttention.create(rng, dim, n_heads),
            LinearLayer.create(rng, dim, ffn_dim),
            LinearLayer.create(rng, ffn_dim, dim),
            [Tensor(np.ones(dim, dtype=np.float32), requires_grad=True) for _ in range(3)],
            [Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True) for _ in range(3)],
        )

    def __call__(self, x: Tensor, memory: Tensor, drop_rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
        mask = causal_mask(x.shape[0])
        h = layer_norm(x + dropout(self.self_attn(x, x, x, mask=mask), drop_rate, rng),
                       self.ln_gains[0], self.ln_biases[0])
        h = layer_norm(h + dropout(self.cross_attn(h, memory, memory), drop_rate, rng),
                       self.ln_gains[1], self.ln_biases[1])
        return self._feed_forward(h, drop_rate, rng)

    def _feed_forward(self, h: Tensor, drop_rate: float,
                      rng: Optional[np.random.Generator]) -> Tensor:
        f = self.ffn_out(gelu(self.ffn_in(h)))
        return layer_norm(h + dropout(f, drop_rate, rng), self.ln_gains[2], self.ln_biases[2])

    def start_cache(self, memory: Tensor) -> tuple[np.ndarray, ...]:
        """The ``step`` cache of one row decoding against ``memory``.

        It holds the self-attention keys [R, h, D/h, t] and values
        [R, h, t, D/h] of the t positions decoded so far (none yet), then the
        memory's cross-attention keys [R, h, D/h, M] and values [R, h, M, D/h],
        projected once here. Axis 0 indexes the R rows throughout, so
        indexing every array with the same rows reorders, repeats or drops
        rows.
        """
        attn = self.cross_attn
        heads = attn.n_heads
        mem_k = project_heads(memory, attn.wk, heads, (1, 2, 0)).data[None]
        mem_v = project_heads(memory, attn.wv, heads, (1, 0, 2)).data[None]
        head_dim = attn.dim // heads
        return (np.zeros((1, heads, head_dim, 0), mem_k.dtype),
                np.zeros((1, heads, 0, head_dim), mem_v.dtype), mem_k, mem_v)

    def step(self, x: Tensor, cache: tuple[np.ndarray, ...]
             ) -> tuple[Tensor, tuple[np.ndarray, ...]]:
        """Run one new position of R rows against a ``start_cache`` cache.

        ``x`` is [R x D], each row the newest position of its own sequence.
        Returns the block output for those positions, equal to the last row
        of ``__call__`` over each whole sequence without dropout, and the
        cache with their self-attention keys and values appended.
        """
        past_k, past_v, mem_k, mem_v = cache
        rows = x.shape[0]
        attn = self.self_attn
        heads = attn.n_heads
        keys = np.concatenate(
            [past_k, reshape(matmul(x, attn.wk), (rows, heads, -1, 1)).data], axis=-1)
        values = np.concatenate(
            [past_v, reshape(matmul(x, attn.wv), (rows, heads, 1, -1)).data], axis=-2)
        q = reshape(matmul(x, attn.wq), (rows, heads, 1, -1))
        h = layer_norm(x + attend(q, Tensor(keys), Tensor(values), attn)[0],
                       self.ln_gains[0], self.ln_biases[0])
        attn = self.cross_attn
        q = reshape(matmul(h, attn.wq), (rows, attn.n_heads, 1, -1))
        h = layer_norm(h + attend(q, Tensor(mem_k), Tensor(mem_v), attn)[0],
                       self.ln_gains[1], self.ln_biases[1])
        return self._feed_forward(h, 0.0, None), (keys, values, mem_k, mem_v)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.self_attn.named_params(f"{prefix}.self_attn")
        yield from self.cross_attn.named_params(f"{prefix}.cross_attn")
        yield from self.ffn_in.named_params(f"{prefix}.ffn_in")
        yield from self.ffn_out.named_params(f"{prefix}.ffn_out")
        for i, (g, b) in enumerate(zip(self.ln_gains, self.ln_biases), start=1):
            yield f"{prefix}.ln{i}.gain", g
            yield f"{prefix}.ln{i}.bias", b
