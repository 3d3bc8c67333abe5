"""Dense tensors with reverse-mode automatic differentiation.

Values are stored as row-major numpy arrays (float32 by default; float64 is
preserved when supplied, which the gradient checker uses internally). Every
differentiable operation records its inputs and a backward rule on the output
tensor; ``Tensor.backward`` replays them once in reverse topological order,
summing gradients into shared inputs.

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
    "ones",
    "matmul",
    "transpose",
    "reshape",
    "concat_last",
    "stack_rows",
    "slice_rows",
    "mean_axis",
    "sum_all",
    "masked_softmax",
    "log_softmax",
    "log_clamped",
    "sigmoid",
    "sqrt",
    "gelu",
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
    if arr.dtype == np.float64:
        return arr
    if arr.dtype != np.float32:
        arr = arr.astype(np.float32)
    return arr


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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run one reverse traversal, accumulating gradients into leaves."""
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        ComputationTape.trace(self).run_backward(self, np.asarray(grad, dtype=self.data.dtype))

    # Operator sugar; a non-tensor operand takes this tensor's dtype.
    def __add__(self, other):
        return add(self, _coerce(other, self))

    def __radd__(self, other):
        return add(_coerce(other, self), self)

    def __sub__(self, other):
        return sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, _coerce(other, self))

    def __rmul__(self, other):
        return mul(_coerce(other, self), self)

    def __truediv__(self, other):
        return div(self, _coerce(other, self))

    def __rtruediv__(self, other):
        return div(_coerce(other, self), self)

    def __neg__(self):
        return mul(self, _coerce(-1.0, self))

    def __matmul__(self, other):
        return matmul(self, other)

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
        root.grad = seed_grad if root.grad is None else root.grad + seed_grad
        for node in reversed(self.nodes):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _node(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g / b.data, a.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(data, (a, b), backward)


# ---------------------------------------------------------------------------
# structural ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; any leading axes must match."""
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] \
            or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _node(data, (a, b), backward)


def transpose(x: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute the axes of ``x`` into a contiguous copy.

    Without ``axes`` the input must be rank-2 and its two axes are swapped.
    """
    if axes is None:
        if x.ndim != 2:
            raise ShapeError(f"transpose expects a rank-2 tensor, got {x.shape}")
        axes = (1, 0)
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes {axes} are not a permutation for shape {x.shape}")
    data = x.data.transpose(axes).copy()
    inverse = tuple(np.argsort(axes))

    def backward(g):
        _accumulate(x, g.transpose(inverse))

    return _node(data, (x,), backward)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(data, (x,), backward)


def concat_last(*tensors: Tensor) -> Tensor:
    """Concatenate along the last axis; leading extents must match."""
    if len(tensors) < 2:
        raise ValueError("concat_last needs at least two tensors")
    lead = tensors[0].shape[:-1]
    for t in tensors[1:]:
        if t.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last leading-shape mismatch: {tensors[0].shape} vs {t.shape}"
            )
    data = np.concatenate([t.data for t in tensors], axis=-1)
    widths = [t.shape[-1] for t in tensors]

    def backward(g):
        offset = 0
        for t, w in zip(tensors, widths):
            _accumulate(t, g[..., offset:offset + w])
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


def slice_rows(x: Tensor, lo: int, hi: int) -> Tensor:
    if not (0 <= lo < hi <= x.shape[0]):
        raise ShapeError(f"slice_rows [{lo}:{hi}] out of range for shape {x.shape}")
    data = x.data[lo:hi].copy()

    def backward(g):
        buf = np.zeros_like(x.data)
        buf[lo:hi] = g
        _accumulate(x, buf)

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
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

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
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                np.add.at(t.grad, ix, g[lo:hi].reshape(p.shape))

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

def masked_softmax(x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """Softmax over the last axis, computed with max-subtraction. Entries
    where ``mask`` is True are excluded and get exactly zero probability;
    every slice must keep at least one entry."""
    v = x.data
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if m.all(axis=-1).any():
            raise ValueError("masked_softmax: a slice has every position masked")
        v = np.where(m, -np.inf, v)
    z = v - v.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        _accumulate(x, (g - (g * s).sum(axis=-1, keepdims=True)) * s)

    return _node(s, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    s = np.exp(out)

    def backward(g):
        _accumulate(x, g - s * g.sum(axis=-1, keepdims=True))

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


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function via the stable branch per sign.

    Saturated values are nudged to the nearest representable number inside
    (0, 1) so the open-interval contract survives rounding.
    """
    v = x.data
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    info = np.finfo(v.dtype)
    np.clip(out, info.tiny, np.nextafter(v.dtype.type(1.0), v.dtype.type(0.0)), out=out)

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _node(out, (x,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximate gaussian error linear unit."""
    v = x.data
    inner = _GELU_C * (v + 0.044715 * (v * v * v))
    t = np.tanh(inner)
    out = 0.5 * v * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * (v * v))
        deriv = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * d_inner
        _accumulate(x, g * deriv)

    return _node(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    v = x.data
    centred = v - v.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    y = centred * inv
    out = y * gain.data + bias.data

    def backward(g):
        _accumulate(gain, _unbroadcast(g * y, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))
        gy = g * gain.data
        dx = inv * (
            gy
            - gy.mean(axis=-1, keepdims=True)
            - y * (gy * y).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx)

    return _node(out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# creation helpers

def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


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
        if out.size != 1:
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
