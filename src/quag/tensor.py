"""Dense tensors with reverse-mode automatic differentiation.

Values are stored as row-major numpy arrays (float32 by default; float64 is
preserved when supplied, which the gradient checker uses internally). Every
differentiable operation records its inputs and a backward rule on the output
tensor; ``Tensor.backward`` replays them once in reverse topological order,
summing gradients into shared inputs and freeing each op node's gradient as
soon as its rule has used it. The elementwise ops and ``concat_last``
broadcast as numpy does; backward sums each gradient back to its operand's
shape. Inference is graph-free: ``model.predict`` runs the trunk, the task
heads and caption decoding on the ops' numpy forward cores (``affine_core``,
``multihead_core``, ``sigmoid_core``, ``layer_norm_core``, ...), which the
ops call too, so no formula is written twice.

Leading-axis rule: ``affine``, ``attention`` and ``layer_norm`` also take a
leading episode axis B, so a batch of equal-length episodes runs as one
stacked [B, N, D] graph. They multiply with numpy's stacked matmul, one
product per episode, and never fold B into the row axis: a row of a wider
gemm can round differently. Each parameter gradient is the sum of the
per-episode products, added last episode first (``_accumulate_episodes``):
the order in which the tape adds B separate per-episode graphs' gradients.
So the stacked graph's values and gradients equal those graphs' bit for bit.
``slice_rows`` with ``lead`` repeats a shared slice along B with the same
backward rule, and ``take_episode`` hands one episode to a per-episode head.

Dtype rule: an op's result has the dtype numpy gives its operands' arrays, and
a Python scalar or array met by an operator takes the dtype of the tensor it
meets (``_coerce``). So float32 parameters give float32 activations and
gradients, and float64 ones stay float64. Under NumPy 2's scalar promotion
(NEP 50) a 0-d float64 array is not cast by value, so wrapping ``x * 0.5`` as
a float64 tensor would turn every later op into float64 arithmetic.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ComputationTape",
    "ShapeError",
    "no_grad",
    "matmul",
    "affine_core",
    "affine",
    "transpose",
    "reshape",
    "take_episode",
    "concat_last_core",
    "concat_last",
    "stack_rows",
    "slice_rows",
    "mean_axis",
    "sum_all",
    "softmax_core",
    "masked_softmax",
    "attention_core",
    "multihead_core",
    "attention",
    "log_softmax_core",
    "log_softmax",
    "log_clamped",
    "sigmoid_core",
    "sigmoid",
    "sqrt",
    "gelu_core",
    "gelu",
    "layer_norm_core",
    "layer_norm",
    "embed_rows",
    "pick",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; the message names both."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    return arr if arr.dtype.char in "fd" else arr.astype(np.float32)


class Tensor:
    """A dense array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run one reverse traversal, adding this call's gradients into the
        leaves. Every op node's ``.grad`` is None afterwards: it is freed as
        soon as its backward has used it."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        ComputationTape.trace(self).run_backward(self, np.asarray(grad, dtype=self.data.dtype))

    # Operator sugar: ``+`` and ``*``, which the model uses, and ``/``, which
    # normalize_contrastive uses. A non-tensor operand takes this tensor's dtype.
    def __add__(self, other):
        return add(self, _coerce(other, self))

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    def __truediv__(self, other):
        return div(self, _coerce(other, self))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class ComputationTape:
    """Topologically ordered op nodes consumed by a single backward pass."""

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationTape":
        """Collect the graph below ``root`` so every node's inputs precede it."""
        nodes: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, int]] = [(root, 0)]
        while stack:
            node, child_idx = stack.pop()
            if child_idx == 0:
                if id(node) in visited:
                    continue
                visited.add(id(node))
            if child_idx < len(node._parents):
                stack.append((node, child_idx + 1))
                child = node._parents[child_idx]
                if id(child) not in visited:
                    stack.append((child, 0))
            else:
                nodes.append(node)
        return cls(nodes)

    def run_backward(self, root: Tensor, seed_grad: np.ndarray) -> None:
        """Run each op node's backward once, outputs first. An op node's
        gradient is dropped as soon as its backward has used it, so the pass
        holds only the gradients still pending and each pass adds exactly one
        gradient into the leaves."""
        root.grad = seed_grad if root.grad is None else root.grad + seed_grad
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # One C-order copy: ``g`` may be another node's buffer, and a
        # transposed layout would make later matmuls round differently.
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _grad_buffer(t: Tensor) -> np.ndarray:
    """``t.grad``, made a C-order zero array first if there is none."""
    if t.grad is None:
        t.grad = np.zeros(t.shape, dtype=t.data.dtype)
    return t.grad


def _accumulate_episodes(t: Tensor, grads: np.ndarray, rows: Optional[slice] = None) -> None:
    """Add the per-episode gradients ``grads`` [B, ...] into ``t``, or into its
    ``rows`` only, last episode first: the order in which the tape adds the
    gradients of B per-episode graphs."""
    if not t.requires_grad:
        return
    for g in grads[::-1]:
        if rows is None:
            _accumulate(t, g)
        else:
            _grad_buffer(t)[rows] += g


def _stacked(a: np.ndarray) -> np.ndarray:
    """View an array as [B, N, C]: a rank-1 array is one row of one episode,
    a rank-2 array one episode."""
    return a.reshape((-1,) + a.shape[-2:]) if a.ndim > 1 else a.reshape(1, 1, -1)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, ext in enumerate(shape) if ext == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting, gradients summed back)

def _elementwise(data: np.ndarray, a: Tensor, b: Tensor,
                 grad_a: Callable, grad_b: Callable) -> Tensor:
    """The node of a broadcasting binary op: ``grad_a(g)`` and ``grad_b(g)``
    give each operand's gradient at the broadcast shape, summed back here."""
    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad_a(g), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(grad_b(g), b.shape))

    return _node(data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data + b.data, a, b, lambda g: g, lambda g: g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data / b.data, a, b, lambda g: g / b.data,
                        lambda g: -g * a.data / (b.data * b.data))


# ---------------------------------------------------------------------------
# structural ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two rank-2 tensors, [M x K] @ [K x N]."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(data, (a, b), backward)


def affine_core(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward of ``affine`` on arrays, unchecked: ``x @ w + b``, shaped
    ``x.shape[:-1] + b.shape``, each episode's rows as one product, and the
    stacked rows [B, N, IN] its backward reads."""
    rows = _stacked(x)
    return (rows @ w + b).reshape(x.shape[:-1] + b.shape), rows


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, for ``x`` [IN], [N x IN] or [B x N x IN],
    ``w`` [IN x OUT] and ``b`` [OUT]. A rank-1 ``x`` is multiplied as a
    one-row matrix, so it rounds as the [1 x IN] product does; a rank-3 ``x``
    as B stacked products (see the leading-axis rule)."""
    if not 1 <= x.ndim <= 3 or w.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != w.shape[1:]:
        raise ShapeError(f"affine shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    data, rows = affine_core(x.data, w.data, b.data)

    def backward(g):
        g = _stacked(g)
        _accumulate_episodes(b, g.sum(axis=1))
        if x.requires_grad:
            _accumulate(x, (g @ w.data.T).reshape(x.shape))
        _accumulate_episodes(w, np.matmul(rows.transpose(0, 2, 1), g))

    return _node(data, (x, w, b), backward)


def transpose(x: Tensor) -> Tensor:
    """The transpose of a rank-2 tensor, as a contiguous copy."""
    if x.ndim != 2:
        raise ShapeError(f"transpose expects a rank-2 tensor, got {x.shape}")
    data = x.data.T.copy()

    def backward(g):
        _accumulate(x, g.T)

    return _node(data, (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(data, (x,), backward)


def take_episode(x: Tensor, index: int) -> Tensor:
    """Entry ``index`` of the leading axis, ``x[index]``, as a copy; backward
    adds into that entry only."""
    if x.ndim < 1 or not 0 <= index < x.shape[0]:
        raise ShapeError(f"take_episode {index} out of range for shape {x.shape}")
    data = x.data[index].copy()

    def backward(g):
        _grad_buffer(x)[index] += g

    return _node(data, (x,), backward)


def concat_last_core(*arrays: np.ndarray) -> np.ndarray:
    """Concatenate arrays along the last axis, their leading axes broadcast;
    leading shapes that do not broadcast raise numpy's ``ValueError``."""
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate([a if a.shape[:-1] == lead else
                           np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays], -1)


def concat_last(*tensors: Tensor) -> Tensor:
    """Concatenate along the last axis. The leading axes broadcast as in the
    elementwise ops, so a [D] row joins every row of an [N x D'] block; each
    input's slice of the gradient is summed back to its shape."""
    if len(tensors) < 2:
        raise ValueError("concat_last needs at least two tensors")
    try:
        data = concat_last_core(*(t.data for t in tensors))
    except ValueError:
        raise ShapeError("concat_last leading shapes do not broadcast: "
                         + " vs ".join(str(t.shape) for t in tensors)) from None
    widths = [t.shape[-1] for t in tensors]

    def backward(g):
        offset = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                _accumulate(t, _unbroadcast(g[..., offset:offset + w], t.shape))
            offset += w

    return _node(data, tensors, backward)


def stack_rows(vectors: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors of equal length into a rank-2 tensor."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("stack_rows needs at least one vector")
    width = vectors[0].shape
    for v in vectors:
        if v.ndim != 1 or v.shape != width:
            raise ShapeError(f"stack_rows expects equal-length vectors, got {width} vs {v.shape}")
    data = np.stack([v.data for v in vectors], axis=0)

    def backward(g):
        for i, v in enumerate(vectors):
            _accumulate(v, g[i])

    return _node(data, vectors, backward)


def slice_rows(x: Tensor, lo: int, hi: int, lead: Sequence[int] = ()) -> Tensor:
    """Rows [lo, hi) of ``x`` as a copy, repeated along the leading axes
    ``lead`` when given. Backward adds each copy's gradient into those rows,
    last copy first, as separate slices would (the leading-axis rule)."""
    if not (0 <= lo < hi <= x.shape[0]):
        raise ShapeError(f"slice_rows [{lo}:{hi}] out of range for shape {x.shape}")
    rows = x.data[lo:hi].copy()
    data = np.broadcast_to(rows, tuple(lead) + rows.shape) if lead else rows

    def backward(g):
        g = g.reshape((-1,) + rows.shape)
        _accumulate_episodes(x, g, slice(lo, hi))

    return _node(data, (x,), backward)


def embed_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of ``table``; gradients scatter-add back into those rows."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"embed_rows expects a flat id list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(f"embed_rows id out of range for table with {table.shape[0]} rows")
    data = table.data[idx]

    def backward(g):
        if table.requires_grad:
            np.add.at(_grad_buffer(table), idx, g)

    return _node(data, (table,), backward)


def pick(tensors: Sequence[Tensor], index: Sequence) -> Tensor:
    """The entries ``tensors[k][index[k]]`` of every k, concatenated into
    one vector.

    ``index[k]`` addresses every axis of ``tensors[k]``: an int or an int
    array for a rank-1 tensor, a tuple of them for higher ranks, so one
    tensor can give any number of entries. Backward scatter-adds, so an entry
    may be picked twice and a tensor may be listed twice. An index outside
    its axis raises ``IndexError``; negative indices do not wrap.
    """
    tensors = list(tensors)
    if not tensors or len(index) != len(tensors):
        raise ValueError(f"pick needs one index per tensor, got {len(index)} for "
                         f"{len(tensors)} tensors")
    where = []
    for t, ix in zip(tensors, index):
        ix = tuple(np.asarray(a, dtype=np.intp) for a in (ix if isinstance(ix, tuple) else (ix,)))
        if len(ix) != t.ndim:
            raise ShapeError(f"pick: {len(ix)} index arrays for a tensor of shape {t.shape}")
        for axis, a in enumerate(ix):
            if a.size and (a.min() < 0 or a.max() >= t.shape[axis]):
                raise IndexError(f"pick: index out of range for axis {axis} of shape {t.shape}")
        where.append(ix)
    picked = [t.data[ix] for t, ix in zip(tensors, where)]
    bounds = np.cumsum([0] + [p.size for p in picked])
    data = np.concatenate([p.reshape(-1) for p in picked])

    def backward(g):
        for t, ix, p, lo, hi in zip(tensors, where, picked, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                np.add.at(_grad_buffer(t), ix, g[lo:hi].reshape(p.shape))

    return _node(data, list({id(t): t for t in tensors}.values()), backward)


# ---------------------------------------------------------------------------
# reductions

def mean_axis(x: Tensor, axis: int) -> Tensor:
    if not (-x.ndim <= axis < x.ndim):
        raise ShapeError(f"mean_axis axis {axis} invalid for shape {x.shape}")
    axis = axis % x.ndim
    extent = x.shape[axis]
    data = x.data.mean(axis=axis)

    def backward(g):
        _accumulate(x, np.broadcast_to(np.expand_dims(g, axis), x.shape) / extent)

    return _node(data, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.shape).astype(x.data.dtype))

    return _node(data, (x,), backward)


# ---------------------------------------------------------------------------
# nonlinearities

def softmax_core(s: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis of an array, in place, shifted by the row
    max; returns ``s``. Where ``mask``, boolean and broadcastable to ``s``, is
    True the entry is set to -inf first and gets exactly zero weight. The mask
    is not checked here, so every row must keep an entry."""
    if mask is not None:
        np.copyto(s, -np.inf, where=mask)
    s -= np.fmax.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def masked_softmax(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction. Entries
    where ``mask`` is True are excluded and get exactly zero probability;
    every slice must keep at least one entry."""
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if np.broadcast_to(mask, x.shape).all(axis=-1).any():
            raise ValueError("masked_softmax: a slice has every position masked")
    s = softmax_core(x.data.copy(), mask)

    def backward(g):
        _accumulate(x, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    return _node(s, (x,), backward)


def attention_core(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                   mask: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(q @ k * scale) @ v`` in numpy over any matching leading axes:
    q [..., Lq, d], k [..., d, Lk] (keys transposed), v [..., Lk, d], and
    scale = 1/sqrt(d). ``mask``, boolean and broadcastable to [..., Lq, Lk],
    is True at keys a query must not attend to; it is not checked here, so
    every query row must keep a key. Returns the context [..., Lq, d] and the
    weights [..., Lq, Lk]."""
    s = q @ k
    s *= s.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    w = softmax_core(s, mask)
    return w @ v, w


def _split_heads(rows: np.ndarray, n_heads: int) -> np.ndarray:
    """[B, L, D] rows as [B, h, L, D/h] per-head rows, head i on channels
    [i*D/h, (i+1)*D/h); a view."""
    return rows.reshape(rows.shape[:2] + (n_heads, -1)).transpose(0, 2, 1, 3)


def _merge_heads(heads: np.ndarray) -> np.ndarray:
    """[B, h, L, D/h] per-head rows as [B, L, D], heads in channel order."""
    return heads.transpose(0, 2, 1, 3).reshape(heads.shape[0], heads.shape[2], -1)


def multihead_core(xq: np.ndarray, xk: np.ndarray, xv: np.ndarray, wq: np.ndarray,
                   wk: np.ndarray, wv: np.ndarray, wo: np.ndarray, n_heads: int,
                   mask: Optional[np.ndarray] = None,
                   ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The forward of ``attention`` on arrays, unchecked: the output, shaped
    ``xq.shape[:-1] + wo.shape[1:]``, and what its backward reads, the
    stacked query, key and value rows [B, L, IN], the head-major queries
    [B, h, Lq, D/h], keys [B, h, D/h, Lk] and values [B, h, Lk, D/h], the
    weights [B, h, Lq, Lk] and the merged context [B, Lq, D]."""
    rq, rk, rv = _stacked(xq), _stacked(xk), _stacked(xv)
    # Contiguous head-major copies: the products then round as the
    # per-head matmuls of stacked [B, h, L, D/h] tensors do.
    qh = np.ascontiguousarray(_split_heads(rq @ wq, n_heads))
    kh = np.ascontiguousarray(np.swapaxes(_split_heads(rk @ wk, n_heads), -1, -2))
    vh = np.ascontiguousarray(_split_heads(rv @ wv, n_heads))
    heads, w = attention_core(qh, kh, vh, mask)
    ctx = _merge_heads(heads)
    return (ctx @ wo).reshape(xq.shape[:-1] + wo.shape[1:]), (rq, rk, rv, qh, kh, vh, w, ctx)


def attention(xq: Tensor, xk: Tensor, xv: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
              wo: Tensor, n_heads: int, mask: Optional[np.ndarray] = None) -> Tensor:
    """A multi-head attention layer as one graph node: [Lq x IN] queries
    ``xq`` and [Lk x IN] keys ``xk`` and values ``xv``, projected by ``wq``,
    ``wk`` and ``wv`` [IN x D], attended per head (``attention_core``; head i
    uses channels [i*D/h, (i+1)*D/h)), merged back in that head-major order
    and projected by ``wo`` [D x D']. ``mask``, boolean [Lq x Lk] and shared
    by every head, is True at keys a query must not attend to; those get
    exactly zero weight, and a query row with every key masked is an error.
    With a leading episode axis, [B x Lq x IN] and [B x Lk x IN], each
    episode attends within itself (see the leading-axis rule).

    The backward is the softmax Jacobian-vector product written out per head
    (dv = wᵀg, ds = (g vᵀ − Σ(g vᵀ ⊙ w)) ⊙ w · scale, dq = ds k, dk = dsᵀ q)
    between the projections' matmul gradients. It adds into the values, then
    the keys, then the queries, as the five nodes it replaces did, so an input
    in several roles (self-attention's) gets the same float sums.
    """
    if (any(x.ndim not in (2, 3) or x.shape[:-2] != xq.shape[:-2]
            or p.shape != (x.shape[-1], wq.shape[1])
            for x, p in ((xq, wq), (xk, wk), (xv, wv)))
            or xk.shape[-2] != xv.shape[-2] or wo.ndim != 2 or wo.shape[0] != wq.shape[1]):
        raise ShapeError(f"attention inputs {xq.shape}, {xk.shape}, {xv.shape} do not fit "
                         f"weights {wq.shape}, {wk.shape}, {wv.shape}, {wo.shape}")
    n_q, n_k, dim = xq.shape[-2], xk.shape[-2], wq.shape[1]
    if dim % n_heads != 0:
        raise ShapeError(f"attention dim {dim} not divisible by {n_heads} heads")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (n_q, n_k):
            raise ShapeError(f"attention mask shape {mask.shape} != ({n_q}, {n_k})")
        if mask.all(axis=-1).any():
            raise ValueError("attention: a query row has every key masked")
    data, (rq, rk, rv, qh, kh, vh, w, ctx) = multihead_core(
        xq.data, xk.data, xv.data, wq.data, wk.data, wv.data, wo.data, n_heads, mask)
    scale = w.dtype.type(1.0 / np.sqrt(qh.shape[-1]))

    def backward(g):
        g = _stacked(g)
        _accumulate_episodes(wo, np.matmul(ctx.transpose(0, 2, 1), g))
        gh = _split_heads(g @ wo.data.T, n_heads)
        dv = _merge_heads(np.swapaxes(w, -1, -2) @ gh)
        ds = gh @ np.swapaxes(vh, -1, -2)
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= scale
        dq = _merge_heads(ds @ np.swapaxes(kh, -1, -2))
        dk = _merge_heads(np.swapaxes(ds, -1, -2) @ qh)
        for x, rows, p, dp in ((xv, rv, wv, dv), (xk, rk, wk, dk), (xq, rq, wq, dq)):
            if x.requires_grad:
                _accumulate(x, (dp @ p.data.T).reshape(x.shape))
            _accumulate_episodes(p, np.matmul(rows.transpose(0, 2, 1), dp))

    return _node(data, (xq, xk, xv, wq, wk, wv, wo), backward)


def log_softmax_core(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of an array, shifted by the row max."""
    z = x - np.fmax.reduce(x, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def log_softmax(x: Tensor) -> Tensor:
    out = log_softmax_core(x.data)

    def backward(g):
        _accumulate(x, g - np.exp(out) * g.sum(axis=-1, keepdims=True))

    return _node(out, (x,), backward)


def log_clamped(x: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(x, floor)); the clamp region contributes zero gradient."""
    clamped = np.maximum(x.data, floor)
    data = np.log(clamped)
    inside = x.data > floor

    def backward(g):
        _accumulate(x, np.where(inside, g / clamped, 0.0))

    return _node(data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    data = np.sqrt(x.data)

    def backward(g):
        _accumulate(x, g * 0.5 / data)

    return _node(data, (x,), backward)


def sigmoid_core(v: np.ndarray) -> np.ndarray:
    """The logistic function of an array, as ``sigmoid`` computes it."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    info = np.finfo(v.dtype)
    np.clip(out, info.tiny, np.nextafter(v.dtype.type(1.0), v.dtype.type(0.0)), out=out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function via the stable branch per sign.

    Saturated values are nudged to the nearest representable number inside
    (0, 1) so the open-interval contract survives rounding.
    """
    out = sigmoid_core(x.data)

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu_core(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU of an array; returns it and the tanh term."""
    t = np.tanh(_GELU_C * (v + 0.044715 * (v * v * v)))
    return 0.5 * v * (1.0 + t), t


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate gaussian error linear unit."""
    v = x.data
    out, t = gelu_core(v)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (v * v))
        deriv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * d_inner
        _accumulate(x, g * deriv)

    return _node(out, (x,), backward)


def layer_norm_core(v: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                    eps: float = 1e-5) -> tuple[np.ndarray, ...]:
    """Layer norm of an array's last axis: the output, rows y and 1/std."""
    n = v.shape[-1]  # means as sums / n: ndarray.mean's float math, without its Python wrapper
    centred = v - np.add.reduce(v, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / n + eps)
    y = centred * inv
    return y * gain + bias, y, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.
    The gain and bias gradients of a [B x N x D] input are summed per
    episode (see the leading-axis rule)."""
    out, y, inv = layer_norm_core(x.data, gain.data, bias.data, eps)
    n = y.shape[-1]

    def backward(g):
        _accumulate_episodes(gain, _stacked(g * y).sum(axis=1))
        _accumulate_episodes(bias, _stacked(g).sum(axis=1))
        gy = g * gain.data
        dx = inv * (gy - np.add.reduce(gy, axis=-1, keepdims=True) / n
                    - y * (np.add.reduce(gy * y, axis=-1, keepdims=True) / n))
        _accumulate(x, dx)

    return _node(out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# verification oracle

def grad_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-3,
    *,
    max_coords: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Compare analytic gradients of the scalar ``f()`` against central
    finite differences.

    Parameters are temporarily promoted to float64 so the comparison is not
    polluted by single-precision rounding. Returns the max over sampled
    coordinates of ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    if not (1e-4 <= h <= 1e-2):
        raise ValueError(f"grad_check step h={h} outside [1e-4, 1e-2]")
    params = list(params)
    originals = [p.data for p in params]
    saved_grads = [p.grad for p in params]
    rng = np.random.default_rng(seed)
    try:
        for p in params:
            p.data = p.data.astype(np.float64)
            p.grad = None
        out = f()
        if out.data.size != 1:
            raise ValueError(f"grad_check requires a scalar output, got shape {out.shape}")
        if out.requires_grad:
            out.backward()
        analytic = [
            p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
        ]
        worst = 0.0
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            if max_coords is None or flat.size <= max_coords:
                coords = np.arange(flat.size)
            else:
                coords = rng.choice(flat.size, size=max_coords, replace=False)
            for i in coords:
                orig = flat[i]
                with no_grad():
                    flat[i] = orig + h
                    f_plus = float(f().data)
                    flat[i] = orig - h
                    f_minus = float(f().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * h)
                an = float(a.reshape(-1)[i])
                rel = abs(an - numeric) / max(1.0, abs(an), abs(numeric))
                worst = max(worst, rel)
        return worst
    finally:
        for p, data, g in zip(params, originals, saved_grads):
            p.data = data
            p.grad = g
