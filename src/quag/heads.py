"""Task heads over the encoder-enhanced frame representation.

The start, end and step heads are bare [D, 1] weights: each feeds a softmax
over frames, which ignores a shift shared by every frame, so a bias could not
learn. Moment retrieval predicts start/end simultaneously over unmasked frames.
Moment segmentation predicts one boundary at a time: frames outside the
moment or at/before the last committed boundary are masked out, and
generation stops when a boundary reaches the span end. The step logits of a
frame do not depend on the committed boundaries, only the mask does, so
decoding scores the frames once and runs one masked softmax per boundary.

All of inference is graph-free: ``model.predict`` runs every head on the
encoder output's array, with no ``Tensor``. ``moment_probabilities`` is
``predict_moment_span`` on ``tensor.softmax_core``, the core of its masked
softmax; ``decode_span`` decodes the moment and ``segment_span`` the step
boundaries (``decode_moment`` and ``predict_step_boundaries`` are their
forms for a ``Tensor``); a ``DecodeState`` decodes the captions.

Step captions are decoded on a ``DecodeState``, one row per caption, so the
captions of an episode decode together, each against its own step's frames:
the memories are padded to the longest and a key mask hides the padding.
Each decoder-form ``layers.TransformerBlock`` projects its cross-attention
keys and values once per decode (``start_cache``), its self-attention keys and
values grow by one position per token, and each ``step`` feeds only the
newest token of every row, in plain numpy on the forward cores of the graph
ops: no ``Tensor``, no graph. Greedy decoding drops a row at EOS; beam search
steps captions x live beams as rows. Training keeps the full-prefix
``teacher_forced_logits``; every row is held to the same ids as recomputing
that whole prefix on its own memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from quag.data import BOS, EOS
from quag.layers import LinearLayer, TransformerBlock, xavier_uniform
from quag.tensor import (
    ShapeError,
    Tensor,
    embed_rows,
    log_softmax_core,
    masked_softmax,
    matmul,
    reshape,
    slice_rows,
    softmax_core,
)

__all__ = [
    "SpanDistribution",
    "StepBoundaryState",
    "CaptionDecoder",
    "DecodeState",
    "predict_moment_span",
    "moment_probabilities",
    "decode_moment",
    "decode_span",
    "step_distribution",
    "predict_step_boundaries",
    "segment_span",
    "decode_step_caption",
]


@dataclass
class SpanDistribution:
    p_start: Tensor  # [N_v], probability simplex
    p_end: Tensor    # [N_v]


def predict_moment_span(frames: Tensor, start_head: Tensor,
                        end_head: Tensor) -> SpanDistribution:
    """Softmax distributions over frames from two independent [D, 1] heads."""
    n = frames.shape[0]
    p_start = masked_softmax(reshape(matmul(frames, start_head), (n,)))
    p_end = masked_softmax(reshape(matmul(frames, end_head), (n,)))
    return SpanDistribution(p_start=p_start, p_end=p_end)


def moment_probabilities(frames: np.ndarray, start_head: Tensor,
                         end_head: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """``predict_moment_span`` on an [N x D] array: the start and end
    probability arrays."""
    return (softmax_core((frames @ start_head.data).reshape(-1)),
            softmax_core((frames @ end_head.data).reshape(-1)))


def decode_moment(dist: SpanDistribution) -> tuple[int, int]:
    """``decode_span`` of the distribution's arrays."""
    return decode_span(dist.p_start.data, dist.p_end.data)


def decode_span(ps: np.ndarray, pe: np.ndarray) -> tuple[int, int]:
    """Argmax decoding of the start and end probabilities ``ps`` and ``pe``
    over frames, with a joint-probability fallback.

    Argmax ties break toward the earliest start and the latest end. When the
    argmax end lands before the argmax start, the span maximizing
    p_start[s] * p_end[e] over s <= e is taken instead, ties broken toward
    the widest then earliest span.
    """
    start = int(np.argmax(ps))
    end = len(pe) - 1 - int(np.argmax(pe[::-1]))
    if end >= start:
        return start, end
    # Probabilities are nonnegative, so a zeroed s > e entry can at most tie,
    # and every tie goes to a wider span, which has s <= e.
    joint = np.triu(np.outer(ps, pe))
    starts, ends = np.nonzero(joint == joint.max())
    best = np.lexsort((starts, starts - ends))[0]
    return int(starts[best]), int(ends[best])


@dataclass
class StepBoundaryState:
    """Committed boundaries of a segmentation in progress.

    The span start acts as the implicit zeroth boundary, so the first step can
    never end on the start frame itself.
    """

    span: tuple[int, int]
    n_frames: int
    boundaries: list[int] = field(default_factory=list)

    def __post_init__(self):
        start, end = self.span
        if not (0 <= start <= end < self.n_frames):
            raise ValueError(f"span ({start}, {end}) invalid for {self.n_frames} frames")

    @property
    def last_boundary(self) -> int:
        return self.boundaries[-1] if self.boundaries else self.span[0]

    def frame_mask(self) -> np.ndarray:
        """True for frames outside the moment or at/before the last boundary."""
        idx = np.arange(self.n_frames)
        return (idx <= self.last_boundary) | (idx > self.span[1])

    def commit(self, boundary: int) -> None:
        if not (self.last_boundary < boundary <= self.span[1]):
            raise ValueError(
                f"boundary {boundary} not in ({self.last_boundary}, {self.span[1]}]"
            )
        self.boundaries.append(boundary)


def step_distribution(frames: Tensor, state: StepBoundaryState, step_head: Tensor,
                      marker: object = None,  # ignored: for bench/walk.py until ROADMAP 1b
                      ) -> Tensor:
    """Masked softmax over frames for the next step boundary."""
    logits = reshape(matmul(frames, step_head), (frames.shape[0],))
    return masked_softmax(logits, state.frame_mask())


def predict_step_boundaries(frames: Tensor, span: tuple[int, int], step_head: Tensor,
                            marker: object = None,  # ignored: for bench/walk.py until ROADMAP 1b
                            max_steps: int = 16) -> list[int]:
    """``segment_span`` of the frames' array."""
    return segment_span(frames.data, span, step_head, max_steps)


def segment_span(frames: np.ndarray, span: tuple[int, int], step_head: Tensor,
                 max_steps: int = 16) -> list[int]:
    """Greedy autoregressive segmentation of the span into step boundaries,
    on an [N x D] array.

    The frames are scored once; each boundary is the argmax of the masked
    softmax of those logits, the probabilities ``step_distribution`` gives.
    Each committed boundary masks everything at or before it, so the output is
    strictly ascending and bounded by the span for any parameter values; the
    final boundary always equals the span end.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    state = StepBoundaryState(span=span, n_frames=frames.shape[0])
    logits = (frames @ step_head.data).reshape(-1)
    end = span[1]
    for _ in range(max_steps):
        if state.last_boundary == end:
            break
        probs = softmax_core(logits.copy(), state.frame_mask())
        state.commit(int(np.argmax(probs)))
    bounds = state.boundaries
    if not bounds or bounds[-1] != end:
        if len(bounds) < max_steps:
            bounds.append(end)
        else:
            bounds[-1] = end
    return bounds


class CaptionDecoder:
    """Autoregressive transformer decoder over a frame memory: token and
    position embeddings, decoder-form ``TransformerBlock``s (causal
    self-attention, cross-attention, feed-forward), then the vocabulary
    projection."""

    def __init__(self, embed: Tensor, pos: Tensor, blocks: Sequence[TransformerBlock],
                 out: LinearLayer):
        self.embed = embed
        self.pos = pos
        self.blocks = list(blocks)
        self.out = out

    @classmethod
    def create(cls, rng: np.random.Generator, vocab_size: int, dim: int, n_heads: int,
               n_layers: int, max_positions: int) -> "CaptionDecoder":
        return cls(
            Tensor(xavier_uniform(rng, vocab_size, dim), requires_grad=True),
            Tensor(xavier_uniform(rng, max_positions, dim), requires_grad=True),
            [TransformerBlock.create(rng, dim, n_heads, decoder=True)
             for _ in range(n_layers)],
            LinearLayer.create(rng, dim, vocab_size),
        )

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def max_positions(self) -> int:
        return self.pos.shape[0]

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.embed", self.embed
        yield f"{prefix}.pos", self.pos
        for i, block in enumerate(self.blocks):
            yield from block.named_params(f"{prefix}.blocks.{i}")
        yield from self.out.named_params(f"{prefix}.out")

    def teacher_forced_logits(self, memory: Tensor, input_ids: Sequence[int],
                              _rate=None, _rng=None,  # ignored: for bench/walk.py until ROADMAP 1b
                              ) -> Tensor:
        """Causal forward over the given input ids; returns [len x V] logits."""
        ids = list(input_ids)
        if not ids:
            raise ValueError("teacher_forced_logits needs at least one input token")
        if len(ids) > self.max_positions:
            raise ShapeError(
                f"sequence of {len(ids)} tokens exceeds {self.max_positions} positions"
            )
        if max(ids) >= self.vocab_size or min(ids) < 0:
            raise IndexError(f"token id outside vocabulary of size {self.vocab_size}")
        x = embed_rows(self.embed, ids) + slice_rows(self.pos, 0, len(ids))
        for block in self.blocks:
            x = block(x, memory)
        return self.out(x)

    def greedy_decode(self, memories: Sequence[np.ndarray], max_len: int) -> list[list[int]]:
        """Greedy decode from BOS, one caption per memory, as the rows of one
        ``DecodeState``; a caption ends at EOS (its row is dropped), after
        max_len tokens, or after max_positions - 1 tokens."""
        state = DecodeState(self, memories)
        out: list[list[int]] = [[] for _ in memories]
        live = list(range(len(memories)))  # the caption of each row
        tokens = [BOS] * len(memories)
        for _ in range(min(max_len, self.max_positions - 1)):
            picked = np.argmax(state.step(tokens), axis=-1)
            rows = [r for r, tok in enumerate(picked) if tok != EOS]
            if not rows:
                break
            if len(rows) < len(live):
                state.select(rows)
                live = [live[r] for r in rows]
            tokens = [int(picked[r]) for r in rows]
            for caption, token in zip(live, tokens):
                out[caption].append(token)
        return out

    def beam_decode(self, memories: Sequence[np.ndarray], max_len: int,
                    beam_width: int) -> list[list[int]]:
        """Beam search over summed token log-probabilities, one caption per
        memory; width 1 is greedy.

        The live beams of every caption step together as the rows of one
        ``DecodeState``; each caption keeps its own top ``beam_width``. A
        beam that ends in EOS keeps its score and gives up its row.
        """
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        if beam_width == 1:
            return self.greedy_decode(memories, max_len)
        state = DecodeState(self, memories)
        searches: list[list[tuple[float, list[int], bool]]] = \
            [[(0.0, [BOS], False)] for _ in memories]
        for _ in range(min(max_len, self.max_positions - 1)):
            tokens = [ids[-1] for beams in searches for _, ids, done in beams if not done]
            if not tokens:
                break
            logp = log_softmax_core(state.step(tokens))
            top = np.argsort(logp, axis=-1)[:, :-beam_width - 1:-1]
            top, top_logp = top.tolist(), logp[np.arange(len(top))[:, None], top].tolist()
            row = 0
            kept: list[int] = []
            for c, beams in enumerate(searches):
                grown: list[tuple[float, list[int], bool, int]] = []
                for score, ids, done in beams:
                    if done:
                        grown.append((score, ids, done, -1))
                        continue
                    for tok, lp in zip(top[row], top_logp[row]):
                        grown.append((score + lp, ids + [tok], tok == EOS, row))
                    row += 1
                grown.sort(key=lambda b: b[0], reverse=True)
                searches[c] = [b[:3] for b in grown[:beam_width]]
                kept.extend(b[3] for b in grown[:beam_width] if not b[2])
            state.select(kept)
        captions = []
        for beams in searches:
            ids = max(beams, key=lambda b: b[0])[1][1:]
            captions.append(ids[:-1] if ids and ids[-1] == EOS else ids)
        return captions


class DecodeState:
    """Incremental decoding of R rows, each against its own memory, on the
    arrays of the memories and parameters: numpy caches and logits, no graph.

    The memories, one [M_r x D] array per caption, are padded once to the
    longest (M positions); per decoder block their cross-attention keys and
    values are projected once for all rows, and the self-attention keys and
    values of the positions decoded so far grow by one per ``step``. A boolean key mask
    [R, 1, 1, M] marks padded positions; memories of one length get none. Every
    memory must have a position, so no row is fully masked: that is checked
    once here, and ``step`` hands the mask to the attention core unchecked.
    ``select`` reorders, repeats or drops rows, indexing caches and mask alike,
    so each row keeps its memory as greedy drops finished captions and beam
    search follows the surviving beams. Invariant: row r's ``step`` logits
    equal the last row of ``teacher_forced_logits`` over row r's memory and
    tokens up to float rounding, so decoding picks the same ids as recomputing
    the whole prefix for every token.
    """

    def __init__(self, decoder: CaptionDecoder, memories: Sequence[np.ndarray]):
        if not memories:
            raise ShapeError("DecodeState needs at least one memory")
        lengths = np.array([m.shape[0] for m in memories])
        if lengths.min() < 1:
            raise ShapeError("DecodeState got a memory with no positions")
        width = int(lengths.max())
        self.decoder = decoder
        self.rows = len(memories)
        self.length = 0
        self.mask: Optional[np.ndarray] = None
        if (lengths < width).any():
            self.mask = (np.arange(width) >= lengths[:, None])[:, None, None, :]
        memory = memories[0] if self.rows == 1 else np.concatenate(
            [np.pad(m, ((0, width - m.shape[0]), (0, 0))) for m in memories])
        self.caches = [block.start_cache(memory, self.rows) for block in decoder.blocks]

    def step(self, tokens: Sequence[int]) -> np.ndarray:
        """Feed one token per row at the next position; returns the [R x V]
        logits array for the token after it."""
        dec = self.decoder
        if len(tokens) != self.rows:
            raise ShapeError(f"step got {len(tokens)} tokens for {self.rows} rows")
        if self.length >= dec.max_positions:
            raise ShapeError(f"decoding past {dec.max_positions} positions")
        x = dec.embed.data[np.asarray(tokens, np.intp)] + dec.pos.data[self.length:self.length + 1]
        for i, block in enumerate(dec.blocks):
            x, self.caches[i] = block.step(x, self.caches[i], self.mask)
        self.length += 1
        return x @ dec.out.weight.data + dec.out.bias.data

    def select(self, rows: Sequence[int]) -> None:
        """Keep the given rows, in the given order; a row may repeat."""
        idx = np.asarray(rows, dtype=np.intp)
        self.caches = [tuple(a[idx] for a in cache) for cache in self.caches]
        if self.mask is not None:
            self.mask = self.mask[idx]
        self.rows = len(idx)


def decode_step_caption(frames: Tensor, step_span: tuple[int, int],
                        decoder: CaptionDecoder, max_len: int,
                        restrict_to_step: bool = True,
                        beam_width: int = 1) -> list[int]:
    """Decode one caption for a step, cross-attending to the step's frames
    (or the whole representation when restriction is disabled): the
    one-memory call of ``CaptionDecoder.beam_decode``."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    lo, hi = step_span
    if restrict_to_step and not 0 <= lo <= hi < frames.shape[0]:
        raise ShapeError(f"step span {step_span} out of range for shape {frames.shape}")
    memory = frames.data[lo:hi + 1] if restrict_to_step else frames.data
    return decoder.beam_decode([memory], max_len, beam_width)[0]
