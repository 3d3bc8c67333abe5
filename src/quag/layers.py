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
    softmax,
    transpose,
)

__all__ = [
    "LinearLayer",
    "MultiHeadAttention",
    "EncoderBlock",
    "DecoderBlock",
    "linear",
    "mha",
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
    heads = attn.n_heads
    head_dim = dim // heads
    scale = 1.0 / math.sqrt(head_dim)
    q = transpose(reshape(matmul(query, attn.wq), (n_q, heads, head_dim)), (1, 0, 2))
    k = transpose(reshape(matmul(key, attn.wk), (n_k, heads, head_dim)), (1, 2, 0))
    v = transpose(reshape(matmul(value, attn.wv), (n_k, heads, head_dim)), (1, 0, 2))
    scores = matmul(q, k) * scale
    w = softmax(scores) if mask is None else masked_softmax(scores, mask)
    merged = reshape(transpose(matmul(w, v), (1, 0, 2)), (n_q, dim))
    out = matmul(merged, attn.wo)
    if return_weights:
        return out, w.data
    return out


def causal_mask(length: int) -> np.ndarray:
    """Boolean [L x L] mask excluding positions after each query index."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


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
        ffn_dim = ffn_dim or 4 * dim
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
        ffn_dim = ffn_dim or 4 * dim
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
        f = self.ffn_out(gelu(self.ffn_in(h)))
        return layer_norm(h + dropout(f, drop_rate, rng), self.ln_gains[2], self.ln_biases[2])

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield from self.self_attn.named_params(f"{prefix}.self_attn")
        yield from self.cross_attn.named_params(f"{prefix}.cross_attn")
        yield from self.ffn_in.named_params(f"{prefix}.ffn_in")
        yield from self.ffn_out.named_params(f"{prefix}.ffn_out")
        for i, (g, b) in enumerate(zip(self.ln_gains, self.ln_biases), start=1):
            yield f"{prefix}.ln{i}.gain", g
            yield f"{prefix}.ln{i}.bias", b
