"""Task heads over the encoder-enhanced frame representation.

Moment retrieval predicts start/end simultaneously over unmasked frames.
Moment segmentation predicts one boundary at a time: frames outside the
moment or at/before the last committed boundary are masked out, and
generation stops when a boundary reaches the span end. A learned marker
vector is added at the rows of the committed boundaries, but every such row
is at or before the last boundary, so ``frame_mask`` masks every row the
marker touches: the marker changes no probability and gets exactly zero
gradient. Step captions are decoded autoregressively against the step's
frames.

Decoding runs on a ``DecodeState``: each block's cross-attention keys and
values are projected from the memory once per decode, the self-attention keys
and values grow by one position per token, and greedy decoding (one row) and
beam search (one row per live beam) feed only the newest token at each step.
Training keeps the full-prefix ``teacher_forced_logits``; the state is held
to the same ids as recomputing that whole prefix for every token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from quag.data import BOS, EOS
from quag.layers import DecoderBlock, LinearLayer, linear
from quag.tensor import (
    ShapeError,
    Tensor,
    embed_rows,
    log_softmax,
    masked_softmax,
    no_grad,
    reshape,
    slice_rows,
)

__all__ = [
    "SpanDistribution",
    "StepBoundaryState",
    "CaptionDecoder",
    "DecodeState",
    "predict_moment_span",
    "decode_moment",
    "inject_boundary_markers",
    "step_distribution",
    "predict_step_boundaries",
    "decode_step_caption",
]


@dataclass
class SpanDistribution:
    p_start: Tensor  # [N_v], probability simplex
    p_end: Tensor    # [N_v]


def predict_moment_span(frames: Tensor, start_head: LinearLayer,
                        end_head: LinearLayer) -> SpanDistribution:
    """Softmax distributions over frames from two independent linear heads."""
    n = frames.shape[0]
    if n < 2:
        raise ShapeError(f"moment span prediction needs >= 2 frames, got {n}")
    p_start = masked_softmax(reshape(linear(frames, start_head), (n,)))
    p_end = masked_softmax(reshape(linear(frames, end_head), (n,)))
    return SpanDistribution(p_start=p_start, p_end=p_end)


def decode_moment(dist: SpanDistribution) -> tuple[int, int]:
    """Argmax decoding with a joint-probability fallback.

    Argmax ties break toward the earliest start and the latest end. When the
    argmax end lands before the argmax start, the span maximizing
    p_start[s] * p_end[e] over s <= e is taken instead, ties broken toward
    the widest then earliest span.
    """
    ps = dist.p_start.data
    pe = dist.p_end.data
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

    def candidates_remain(self) -> bool:
        return self.last_boundary < self.span[1]

    def commit(self, boundary: int) -> None:
        if not (self.last_boundary < boundary <= self.span[1]):
            raise ValueError(
                f"boundary {boundary} not in ({self.last_boundary}, {self.span[1]}]"
            )
        self.boundaries.append(boundary)


def inject_boundary_markers(frames: Tensor, marker: Tensor,
                            boundary_frames: Sequence[int]) -> Tensor:
    """Add the marker vector to the rows at committed boundary frames."""
    if not boundary_frames:
        return frames
    flags = np.zeros((frames.shape[0], 1), dtype=np.float32)
    flags[list(boundary_frames)] = 1.0
    return frames + Tensor(flags) * marker


def step_distribution(frames: Tensor, state: StepBoundaryState,
                      step_head: LinearLayer, marker: Tensor) -> Tensor:
    """Masked softmax over frames for the next step boundary."""
    marked = inject_boundary_markers(frames, marker, state.boundaries)
    logits = reshape(linear(marked, step_head), (frames.shape[0],))
    return masked_softmax(logits, state.frame_mask())


def predict_step_boundaries(frames: Tensor, span: tuple[int, int],
                            step_head: LinearLayer, marker: Tensor,
                            max_steps: int = 16) -> list[int]:
    """Greedy autoregressive segmentation of the span into step boundaries.

    Each committed boundary masks everything at or before it, so the output is
    strictly ascending and bounded by the span for any parameter values; the
    final boundary always equals the span end.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    state = StepBoundaryState(span=span, n_frames=frames.shape[0])
    end = span[1]
    for _ in range(max_steps):
        if not state.candidates_remain():
            break
        probs = step_distribution(frames, state, step_head, marker)
        state.commit(int(np.argmax(probs.data)))
        if state.last_boundary == end:
            break
    bounds = state.boundaries
    if not bounds or bounds[-1] != end:
        if len(bounds) < max_steps:
            bounds.append(end)
        else:
            bounds[-1] = end
    return bounds


class CaptionDecoder:
    """Autoregressive transformer decoder over a frame memory."""

    def __init__(self, embed: Tensor, pos: Tensor, blocks: Sequence[DecoderBlock],
                 out: LinearLayer):
        self.embed = embed
        self.pos = pos
        self.blocks = list(blocks)
        self.out = out

    @classmethod
    def create(cls, rng: np.random.Generator, vocab_size: int, dim: int, n_heads: int,
               n_layers: int, max_positions: int,
               ffn_dim: Optional[int] = None) -> "CaptionDecoder":
        from quag.layers import xavier_uniform

        return cls(
            Tensor(xavier_uniform(rng, vocab_size, dim), requires_grad=True),
            Tensor(xavier_uniform(rng, max_positions, dim), requires_grad=True),
            [DecoderBlock.create(rng, dim, n_heads, ffn_dim) for _ in range(n_layers)],
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
                              drop_rate: float = 0.0,
                              rng: Optional[np.random.Generator] = None) -> Tensor:
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
            x = block(x, memory, drop_rate, rng)
        return linear(x, self.out)

    def greedy_decode(self, memory: Tensor, max_len: int) -> list[int]:
        """Greedy decode from BOS; stops at EOS, after max_len tokens, or
        after max_positions - 1 tokens."""
        state = DecodeState(self, memory)
        out: list[int] = []
        token = BOS
        for _ in range(min(max_len, self.max_positions - 1)):
            token = int(np.argmax(state.step([token]).data[0]))
            if token == EOS:
                break
            out.append(token)
        return out

    def beam_decode(self, memory: Tensor, max_len: int, beam_width: int) -> list[int]:
        """Beam search over summed token log-probabilities; width 1 is greedy.

        The live beams step together as the rows of one ``DecodeState``. A
        beam that ends in EOS keeps its score and gives up its row.
        """
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        if beam_width == 1:
            return self.greedy_decode(memory, max_len)
        state = DecodeState(self, memory)
        beams: list[tuple[float, list[int], bool]] = [(0.0, [BOS], False)]
        for _ in range(min(max_len, self.max_positions - 1)):
            if all(done for _, _, done in beams):
                break
            logp = log_softmax(state.step([ids[-1] for _, ids, done in beams
                                           if not done])).data
            grown: list[tuple[float, list[int], bool, int]] = []
            row = 0
            for score, ids, done in beams:
                if done:
                    grown.append((score, ids, done, -1))
                    continue
                for tok in np.argsort(logp[row])[::-1][:beam_width]:
                    tok = int(tok)
                    grown.append((score + float(logp[row, tok]), ids + [tok], tok == EOS, row))
                row += 1
            grown.sort(key=lambda b: b[0], reverse=True)
            beams = [b[:3] for b in grown[:beam_width]]
            state.select([b[3] for b in grown[:beam_width] if not b[2]])
        best = max(beams, key=lambda b: b[0])
        ids = best[1][1:]
        return ids[:-1] if ids and ids[-1] == EOS else ids


class DecodeState:
    """Incremental decoding of R rows against one memory.

    Per decoder block it caches the memory's cross-attention keys and values,
    projected once, and the self-attention keys and values of every position
    decoded so far, one position more per ``step``. The rows step together:
    one row for greedy decoding, the live beams for beam search; ``select``
    reorders, repeats or drops rows to follow the surviving beams. Invariant:
    row r's ``step`` logits equal the last row of ``teacher_forced_logits``
    over row r's tokens up to float rounding, so decoding picks the same ids
    as recomputing the whole prefix for every token.
    """

    def __init__(self, decoder: CaptionDecoder, memory: Tensor):
        self.decoder = decoder
        self.rows = 1
        self.length = 0
        with no_grad():
            self.caches = [block.start_cache(memory) for block in decoder.blocks]

    def step(self, tokens: Sequence[int]) -> Tensor:
        """Feed one token per row at the next position; returns [R x V] logits
        for the token after it."""
        dec = self.decoder
        if len(tokens) != self.rows:
            raise ShapeError(f"step got {len(tokens)} tokens for {self.rows} rows")
        if self.length >= dec.max_positions:
            raise ShapeError(f"decoding past {dec.max_positions} positions")
        with no_grad():
            x = embed_rows(dec.embed, tokens) + slice_rows(dec.pos, self.length,
                                                           self.length + 1)
            for i, block in enumerate(dec.blocks):
                x, self.caches[i] = block.step(x, self.caches[i])
            self.length += 1
            return linear(x, dec.out)

    def select(self, rows: Sequence[int]) -> None:
        """Keep the given rows, in the given order; a row may repeat."""
        idx = np.asarray(rows, dtype=np.intp)
        self.caches = [tuple(a[idx] for a in cache) for cache in self.caches]
        self.rows = len(idx)


def decode_step_caption(frames: Tensor, step_span: tuple[int, int],
                        decoder: CaptionDecoder, max_len: int,
                        restrict_to_step: bool = True,
                        beam_width: int = 1) -> list[int]:
    """Decode one caption for a step, cross-attending to the step's frames
    (or the whole representation when restriction is disabled)."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    lo, hi = step_span
    memory = slice_rows(frames, lo, hi + 1) if restrict_to_step else frames
    return decoder.beam_decode(memory, max_len, beam_width)
