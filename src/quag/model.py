"""Composition root.

Wires the three input projections, the audio-visual fusion stack, the query
gating stack, the multi-modal encoder, and the task heads into one model with
a stable named parameter registry. Ablation fusion modes swap the two core
stacks for the elementwise sum / broadcast product of the baseline fusion.

``encode_trunk`` runs one episode through everything up to the heads.
``predict`` decodes with it; the teacher-forced training objective, which
builds the heads of a whole batch, is ``trainer.batch_loss``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

import numpy as np

from quag.data import DatasetManifest, EpisodeRecord, step_frame_spans
from quag.heads import (
    CaptionDecoder,
    decode_moment,
    decode_step_caption,
    predict_moment_span,
    predict_step_boundaries,
)
from quag.layers import EncoderBlock, LinearLayer, encoder_forward
from quag.msp import MspParams, cross_modal_interact, fuse_audio_visual, global_pool
from quag.qc2 import Qc2Params, apply_filtration, build_query_centric_repr, compute_gates, fuse_query_context
from quag.tensor import ShapeError, Tensor, no_grad, slice_rows

__all__ = [
    "FUSION_MODES",
    "ModelConfig",
    "QuagParams",
    "PredictionSet",
    "encode_trunk",
    "predict",
]

FUSION_MODES = ("quag", "joint", "msp-only", "qc2-only")


@dataclass
class ModelConfig:
    """Dimensions and hyperparameters; fully serializable."""

    d_model: int = 768
    n_heads: int = 8
    encoder_layers: int = 2
    decoder_layers: int = 2
    ffn_dim: Optional[int] = None
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
    use_positional: bool = True
    caption_context: str = "step"  # or "moment"
    fusion: str = "quag"
    beam_width: int = 1
    lr: float = 1e-5
    batch_size: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    epochs: int = 50
    dropout: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        if self.caption_context not in ("step", "moment"):
            raise ValueError(f"caption_context must be 'step' or 'moment', got {self.caption_context!r}")
        # Written as `not x > 0` so that NaN fails too.
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not self.lr >= 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        if self.ffn_dim is not None and self.ffn_dim < 1:
            raise ValueError(f"ffn_dim must be >= 1, or None for 4 * d_model, got {self.ffn_dim}")
        for name in ("encoder_layers", "decoder_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
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
        """SHA-256 of the canonical config, leaving out ``epochs``.

        A checkpoint only loads into a config with the same digest. ``epochs``
        only sets how long the loop runs: batch order, dropout streams and
        AdamW steps are seeded by (seed, epoch, task), so epoch k does the
        same work whatever the total, and a checkpoint may resume into a
        longer run. Every other field changes what a run computes.
        """
        doc = self.to_dict()
        del doc["epochs"]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def replace(self, **overrides) -> "ModelConfig":
        doc = self.to_dict()
        doc.update(overrides)
        return ModelConfig.from_dict(doc)

    @classmethod
    def desk_scale(cls, **overrides) -> "ModelConfig":
        """Small preset for single-core training and overfit checks."""
        base = cls(d_model=64, encoder_layers=2, decoder_layers=1, lr=1e-3,
                   batch_size=4, max_frames=32, epochs=200)
        return base.replace(**overrides)

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
    """Every trainable tensor of the model, reachable by a stable name."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        d = config.d_model
        from quag.layers import xavier_uniform

        self.proj_visual = LinearLayer.create(rng, config.visual_dim, d)
        self.proj_audio = LinearLayer.create(rng, config.audio_dim, d)
        self.proj_query = LinearLayer.create(rng, config.query_dim, d)
        self.pos_embed = Tensor(xavier_uniform(rng, config.max_frames, d), requires_grad=True)
        self.msp = MspParams.create(rng, d, config.n_heads, config.tau)
        self.qc2 = Qc2Params.create(rng, d, config.n_heads)
        self.encoder = [EncoderBlock.create(rng, d, config.n_heads, config.ffn_dim)
                        for _ in range(config.encoder_layers)]
        self.start_head = LinearLayer.create(rng, d, 1)
        self.end_head = LinearLayer.create(rng, d, 1)
        self.step_head = LinearLayer.create(rng, d, 1)
        self.boundary_marker = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)
        self.decoder = CaptionDecoder.create(
            rng, config.vocab_size, d, config.n_heads, config.decoder_layers,
            config.max_caption_len + 1, config.ffn_dim,
        )

    def _named(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.proj_visual.named_params("proj_visual")
        yield from self.proj_audio.named_params("proj_audio")
        yield from self.proj_query.named_params("proj_query")
        yield "pos_embed", self.pos_embed
        yield from self.msp.named_params("msp")
        yield from self.qc2.named_params("qc2")
        for i, block in enumerate(self.encoder):
            yield from block.named_params(f"encoder.{i}")
        yield from self.start_head.named_params("heads.start")
        yield from self.end_head.named_params("heads.end")
        yield from self.step_head.named_params("heads.step")
        yield "heads.boundary_marker", self.boundary_marker
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
                 rng: Optional[np.random.Generator] = None,
                 ) -> tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
    """Project, fuse, gate and encode one episode.

    Returns the enhanced representation plus the pooled visual/audio features
    (None when the alignment stack is ablated away).
    """
    config = params.config
    _check_dims(episode, config)
    n = episode.n_frames
    drop = config.dropout

    r_v = params.proj_visual(Tensor(episode.visual))
    r_a = params.proj_audio(Tensor(episode.audio))
    r_t = params.proj_query(Tensor(episode.query))
    if config.use_positional:
        pos = slice_rows(params.pos_embed, 0, n)
        r_v = r_v + pos
        r_a = r_a + pos

    msp_on = config.fusion in ("quag", "msp-only")
    qc2_on = config.fusion in ("quag", "qc2-only")

    pooled_v = pooled_a = None
    if msp_on:
        pooled_v, pooled_a = global_pool(r_v, r_a)
        joint_v, joint_a = cross_modal_interact(r_v, r_a, params.msp)
        fused = fuse_audio_visual(joint_v, joint_a, params.msp)
    else:
        fused = r_v + r_a

    if qc2_on:
        context = fuse_query_context(fused, r_t, params.qc2)
        gates = compute_gates(context, params.qc2)
        filtered = apply_filtration(fused, gates)
        rep = build_query_centric_repr(filtered, context, params.qc2)
    else:
        rep = fused * r_t

    enhanced = encoder_forward(rep, params.encoder, drop, rng)
    return enhanced, pooled_v, pooled_a


def predict(episode: EpisodeRecord, params: QuagParams) -> PredictionSet:
    """Decode the moment, segment it, and caption each step."""
    config = params.config
    with no_grad():
        enhanced, _, _ = encode_trunk(episode, params)
        span = decode_moment(predict_moment_span(enhanced, params.start_head, params.end_head))
        boundaries = predict_step_boundaries(enhanced, span, params.step_head,
                                             params.boundary_marker, config.max_steps)
        captions = []
        for step_span in step_frame_spans(span[0], boundaries):
            captions.append(decode_step_caption(
                enhanced,
                step_span if config.caption_context == "step" else span,
                params.decoder,
                config.max_caption_len,
                restrict_to_step=True,
                beam_width=config.beam_width,
            ))
    return PredictionSet(episode_id=episode.id, moment=span, steps=boundaries,
                         captions=captions)
