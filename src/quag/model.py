"""Composition root.

Wires the three input projections, the audio-visual fusion stack, the query
gating stack, the multi-modal encoder, and the task heads into one model with
a stable named parameter registry. Ablation fusion modes swap the two core
stacks for the elementwise sum / broadcast product of the baseline fusion.

``encode_trunk`` runs one episode through everything up to the heads as an
autodiff graph. ``encode_stacked`` runs the same trunk body once for a batch
of equal-length episodes stacked along a leading axis; the teacher-forced
training objective, ``trainer.batch_loss``, builds the heads of a whole batch
on it. Inference is graph-free: ``predict`` runs ``infer_trunk``, the trunk
on plain arrays through each layer's ``infer`` form, equal to
``encode_trunk``'s representation bit for bit, then decodes the moment, the
steps and their captions from that array.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Iterator, Optional, Sequence

import numpy as np

from quag.data import DatasetManifest, EpisodeRecord, step_frame_spans
from quag.heads import CaptionDecoder, decode_span, moment_probabilities, segment_span
from quag.layers import LinearLayer, TransformerBlock, encoder_forward, xavier_uniform
from quag.msp import MspParams, cross_modal_interact, fuse_audio_visual, global_pool
from quag.qc2 import Qc2Params, apply_filtration, build_query_centric_repr, compute_gates, fuse_query_context
from quag.tensor import ShapeError, Tensor, slice_rows

__all__ = [
    "FUSION_MODES",
    "ModelConfig",
    "QuagParams",
    "PredictionSet",
    "encode_trunk",
    "encode_stacked",
    "infer_trunk",
    "predict",
]

FUSION_MODES = ("quag", "joint", "msp-only", "qc2-only")


@dataclass
class ModelConfig:
    """Dimensions and hyperparameters; fully serializable. The defaults are
    the desk scale, for single-core training and overfit checks, that every
    command starts from."""

    d_model: int = 64
    n_heads: int = 8
    encoder_layers: int = 2
    decoder_layers: int = 1
    visual_dim: int = 40
    audio_dim: int = 24
    query_dim: int = 16
    vocab_size: int = 40
    max_frames: int = 32
    max_caption_len: int = 12
    max_steps: int = 16
    tau: float = 0.07
    lam: float = 0.1
    normalize_contrastive: bool = False
    # Not fields, fixed: bench/walk.py reads these names until ROADMAP 1b.
    use_positional: ClassVar[bool] = True
    caption_context: ClassVar[str] = "step"
    dropout: ClassVar[float] = 0.0
    fusion: str = "quag"
    beam_width: int = 1
    lr: float = 1e-3
    batch_size: int = 4
    weight_decay: float = 0.01
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        # Store an int given for a float as a float: "lr": 1 and 1.0 hash alike.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and isinstance(value, int) and not isinstance(value, bool):
                setattr(self, f.name, float(value))

    def validate(self) -> None:
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        # Written as `not x > 0` so that NaN fails too.
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.lr >= 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        for name in ("d_model", "visual_dim", "audio_dim", "query_dim", "vocab_size",
                     "max_frames", "max_caption_len", "max_steps", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**doc)

    def digest(self) -> str:
        """SHA-256 of the canonical config less ``epochs``, ``beam_width``, ``max_steps``.

        A checkpoint only loads into a config with the same digest. ``epochs``
        only sets how long the loop runs: batch order is seeded by (seed,
        epoch, task), so epoch k does the same work whatever the total, and a
        checkpoint may resume into a longer run. Only ``predict`` reads the
        other two; every other field changes what training computes."""
        doc = self.to_dict()
        for name in ("epochs", "beam_width", "max_steps"):
            del doc[name]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self, **overrides) -> "ModelConfig":
        doc = self.to_dict()
        doc.update(overrides)
        return ModelConfig.from_dict(doc)

    @classmethod
    def desk_scale(cls, **overrides) -> "ModelConfig":
        """The defaults with ``overrides``; ``bench/`` builds its configs here."""
        return cls().replace(**overrides)

    @classmethod
    def for_manifest(cls, manifest: DatasetManifest, **overrides) -> "ModelConfig":
        base = overrides.pop("base", None) or cls.desk_scale()
        vocab_size = len(manifest.load_vocabulary())
        return base.replace(
            visual_dim=manifest.visual_dim,
            audio_dim=manifest.audio_dim,
            query_dim=manifest.query_dim,
            vocab_size=vocab_size,
            max_frames=max(base.max_frames, manifest.n_frames),
            **overrides,
        )


class QuagParams:
    """Every trainable tensor of the model, reachable by a stable name: a fusion
    mode holds None for each core stack it does not run, so every tensor it registers can learn."""

    boundary_marker = None  # no parameter: for bench/walk.py until ROADMAP 1b

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        d = config.d_model
        self.proj_visual = LinearLayer.create(rng, config.visual_dim, d)
        self.proj_audio = LinearLayer.create(rng, config.audio_dim, d)
        self.proj_query = LinearLayer.create(rng, config.query_dim, d)
        self.pos_embed = Tensor(xavier_uniform(rng, config.max_frames, d), requires_grad=True)
        # Every mode draws both stacks, so all four start from the same encoder,
        # head and decoder weights: that is what makes the ablation controlled.
        msp = MspParams.create(rng, d, config.n_heads)
        qc2 = Qc2Params.create(rng, d, config.n_heads)
        self.msp: Optional[MspParams] = msp if config.fusion in ("quag", "msp-only") else None
        self.qc2: Optional[Qc2Params] = qc2 if config.fusion in ("quag", "qc2-only") else None
        self.encoder = [TransformerBlock.create(rng, d, config.n_heads)
                        for _ in range(config.encoder_layers)]
        self.start_head, self.end_head, self.step_head = (
            Tensor(xavier_uniform(rng, d, 1), requires_grad=True) for _ in range(3))
        self.decoder = CaptionDecoder.create(rng, config.vocab_size, d, config.n_heads,
                                             config.decoder_layers, config.max_caption_len + 1)

    def _named(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.proj_visual.named_params("proj_visual")
        yield from self.proj_audio.named_params("proj_audio")
        yield from self.proj_query.named_params("proj_query")
        yield "pos_embed", self.pos_embed
        for prefix, stack in (("msp", self.msp), ("qc2", self.qc2)):
            if stack is not None:
                yield from stack.named_params(prefix)
        for i, block in enumerate(self.encoder):
            yield from block.named_params(f"encoder.{i}")
        yield "heads.start.weight", self.start_head
        yield "heads.end.weight", self.end_head
        yield "heads.step.weight", self.step_head
        yield from self.decoder.named_params("decoder")

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, t in self._named():
            if name in out:
                raise ValueError(f"duplicate parameter name {name}")
            out[name] = t
        return out

    def groups(self) -> dict[str, dict[str, Tensor]]:
        """Parameters bucketed by subsystem, for targeted gradient checks."""
        buckets: dict[str, dict[str, Tensor]] = {
            "input_proj": {}, "msp": {}, "qc2": {}, "encoder": {}, "heads": {}, "decoder": {},
        }
        for name, t in self.named_parameters().items():
            if name.startswith(("proj_", "pos_embed")):
                buckets["input_proj"][name] = t
            else:
                buckets[name.split(".", 1)[0]][name] = t
        return buckets

    def zero_grads(self) -> None:
        for t in self.named_parameters().values():
            t.grad = None


@dataclass
class PredictionSet:
    episode_id: str
    moment: tuple[int, int]
    steps: list[int]
    captions: list[list[int]]


def _check_dims(episode: EpisodeRecord, config: ModelConfig) -> None:
    if episode.visual.shape[1] != config.visual_dim \
            or episode.audio.shape[1] != config.audio_dim \
            or episode.query.shape[0] != config.query_dim:
        raise ShapeError(
            f"episode dims (v={episode.visual.shape[1]}, a={episode.audio.shape[1]}, "
            f"q={episode.query.shape[0]}) do not match config "
            f"(v={config.visual_dim}, a={config.audio_dim}, q={config.query_dim})"
        )
    if episode.n_frames > config.max_frames:
        raise ShapeError(
            f"episode has {episode.n_frames} frames, config caps at {config.max_frames}"
        )


def encode_trunk(episode: EpisodeRecord, params: QuagParams,
                 ) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """Project, fuse, gate and encode one episode.

    Returns the [N, D] enhanced representation plus the [D] pooled
    visual/audio features (None when the alignment stack is ablated away).
    """
    _check_dims(episode, params.config)
    return _trunk(episode.visual, episode.audio, episode.query, params)


def encode_stacked(episodes: Sequence[EpisodeRecord], params: QuagParams,
                   ) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """``encode_trunk`` of B equal-length episodes as one graph over stacked
    arrays: [B, N, D] enhanced and [B, D] pooled features. Episode b's values
    and every parameter gradient equal those of B ``encode_trunk`` calls bit
    for bit (``tensor``'s leading-axis rule)."""
    if len({ep.n_frames for ep in episodes}) != 1:
        raise ShapeError("encode_stacked needs one or more episodes of equal length")
    for ep in episodes:
        _check_dims(ep, params.config)
    return _trunk(np.stack([ep.visual for ep in episodes]),
                  np.stack([ep.audio for ep in episodes]),
                  np.stack([ep.query for ep in episodes])[:, None, :], params)


def _trunk(visual: np.ndarray, audio: np.ndarray, query: np.ndarray, params: QuagParams,
           ) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """The trunk over one episode's [N, ·] frames and [Dq] query, or over
    [B, N, ·] frames and [B, 1, Dq] queries."""
    r_v = params.proj_visual(Tensor(visual))
    r_a = params.proj_audio(Tensor(audio))
    r_t = params.proj_query(Tensor(query))
    pos = slice_rows(params.pos_embed, 0, r_v.shape[-2], r_v.shape[:-2])
    r_v, r_a = r_v + pos, r_a + pos

    pooled_v = pooled_a = None
    if params.msp is not None:
        pooled_v, pooled_a = global_pool(r_v, r_a)
        joint_v, joint_a = cross_modal_interact(r_v, r_a, params.msp)
        fused = fuse_audio_visual(joint_v, joint_a, params.msp)
    else:
        fused = r_v + r_a

    if params.qc2 is not None:
        context = fuse_query_context(fused, r_t, params.qc2)
        gates = compute_gates(context, params.qc2)
        filtered = apply_filtration(fused, gates)
        rep = build_query_centric_repr(filtered, context, params.qc2)
    else:
        rep = fused * r_t

    enhanced = encoder_forward(rep, params.encoder)
    return enhanced, pooled_v, pooled_a


def infer_trunk(episode: EpisodeRecord, params: QuagParams) -> np.ndarray:
    """``encode_trunk``'s [N, D] enhanced representation, computed on arrays
    with no graph and no pooled features."""
    _check_dims(episode, params.config)
    r_v = params.proj_visual.infer(episode.visual)
    r_a = params.proj_audio.infer(episode.audio)
    r_t = params.proj_query.infer(episode.query)
    pos = params.pos_embed.data[:episode.n_frames]
    r_v, r_a = r_v + pos, r_a + pos
    fused = r_v + r_a if params.msp is None else params.msp.infer(r_v, r_a)
    rep = fused * r_t if params.qc2 is None else params.qc2.infer(fused, r_t)
    for block in params.encoder:
        rep = block.infer(rep)
    return rep


def predict(episode: EpisodeRecord, params: QuagParams) -> PredictionSet:
    """Decode the moment, segment it, and caption every step from its own
    frames, the steps' captions decoding together as rows of one batch; all
    on arrays, with no graph."""
    config = params.config
    enhanced = infer_trunk(episode, params)
    span = decode_span(*moment_probabilities(enhanced, params.start_head, params.end_head))
    boundaries = segment_span(enhanced, span, params.step_head, config.max_steps)
    captions = params.decoder.beam_decode(
        [enhanced[lo:hi + 1] for lo, hi in step_frame_spans(span[0], boundaries)],
        config.max_caption_len, config.beam_width)
    return PredictionSet(episode_id=episode.id, moment=span, steps=boundaries,
                         captions=captions)
