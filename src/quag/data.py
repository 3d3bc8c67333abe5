"""Episode persistence, dataset manifests, and the synthetic-episode generator.

Episode files are little-endian and versioned: magic, version, a JSON metadata
segment, then raw float32 blocks for the visual, audio and query features.
The synthetic generator plants a query-correlated signal inside each episode's
moment (visual and audio carry the same topic's signal with independent
noise), partitions the moment into typed steps, and captions each step with a
deterministic token template of its type. Generation is a pure function of
the seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PAD", "BOS", "EOS", "UNK",
    "EpisodeIOError", "CorruptHeaderError", "TruncatedPayloadError",
    "InvariantViolationError",
    "Vocabulary", "EpisodeRecord", "DatasetManifest", "SyntheticSpec",
    "step_frame_spans",
    "write_episode", "load_episode",
    "write_manifest", "load_manifest",
    "generate_synthetic_dataset", "planted_structure", "matched_filter_span",
]

MAGIC = b"QGEP"
FORMAT_VERSION = 1

PAD, BOS, EOS, UNK = 0, 1, 2, 3
_SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]


class EpisodeIOError(ValueError):
    """Base class for episode file problems."""


class CorruptHeaderError(EpisodeIOError):
    pass


class TruncatedPayloadError(EpisodeIOError):
    pass


class InvariantViolationError(EpisodeIOError):
    pass


class Vocabulary:
    """Newline-delimited token list where the line number is the token id."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        if self.tokens[: len(_SPECIALS)] != _SPECIALS:
            raise ValueError(f"vocabulary must start with the special tokens {_SPECIALS}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_words(cls, words: Sequence[str]) -> "Vocabulary":
        return cls(_SPECIALS + list(words))

    def save(self, path: Path) -> None:
        Path(path).write_text("\n".join(self.tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls(lines)


def step_frame_spans(moment_start: int, boundaries: Sequence[int]) -> list[tuple[int, int]]:
    """Inclusive frame ranges of each step.

    A boundary is the last frame of its step, so the spans partition the
    moment: the first step starts at the moment start, each later one right
    after the previous boundary.
    """
    spans = []
    lo = moment_start
    for b in boundaries:
        spans.append((lo, b))
        lo = b + 1
    return spans


@dataclass
class EpisodeRecord:
    """One video-query pair with its annotations."""

    id: str
    visual: np.ndarray   # [N_v x D_in_v]
    audio: np.ndarray    # [N_v x D_in_a]
    query: np.ndarray    # [D_in_t]
    moment: tuple[int, int]          # (start, end) frame indices, inclusive
    steps: list[int]                 # ascending boundary frames, last == end
    captions: list[list[int]]        # per-step token ids
    caption_texts: list[str] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return self.visual.shape[0]

    def validate(self) -> None:
        if self.visual.ndim != 2 or self.audio.ndim != 2 or self.query.ndim != 1:
            raise InvariantViolationError("features: visual/audio must be rank-2, query rank-1")
        if self.audio.shape[0] != self.visual.shape[0]:
            raise InvariantViolationError(
                f"audio: length {self.audio.shape[0]} != visual length {self.visual.shape[0]}"
            )
        start, end = self.moment
        n = self.n_frames
        if not (0 <= start <= end < n):
            raise InvariantViolationError(f"moment: ({start}, {end}) outside [0, {n})")
        if start == end:
            if self.steps != [end]:
                raise InvariantViolationError(
                    "steps: a single-frame moment must have exactly the boundary [end]"
                )
        else:
            if not self.steps or self.steps[-1] != end:
                raise InvariantViolationError("steps: last boundary must equal the moment end")
            prev = start
            for b in self.steps:
                if not (prev < b <= end):
                    raise InvariantViolationError(
                        f"steps: boundary {b} not strictly ascending within ({start}, {end}]"
                    )
                prev = b
        if len(self.captions) != len(self.steps):
            raise InvariantViolationError(
                f"captions: {len(self.captions)} captions for {len(self.steps)} steps"
            )
        for cap in self.captions:
            if any(t < 0 for t in cap):
                raise InvariantViolationError("captions: negative token id")
        for name, arr in (("visual", self.visual), ("audio", self.audio), ("query", self.query)):
            if not np.isfinite(arr).all():
                raise InvariantViolationError(f"{name}: non-finite feature values")


def _meta_dict(record: EpisodeRecord) -> dict:
    return {
        "id": record.id,
        "n_frames": int(record.n_frames),
        "visual_dim": int(record.visual.shape[1]),
        "audio_dim": int(record.audio.shape[1]),
        "query_dim": int(record.query.shape[0]),
        "moment": [int(record.moment[0]), int(record.moment[1])],
        "steps": [int(b) for b in record.steps],
        "captions": [[int(t) for t in cap] for cap in record.captions],
        "caption_texts": list(record.caption_texts),
    }


def write_episode(record: EpisodeRecord, path: Path) -> None:
    """Serialize a validated record; the byte stream is a pure function of it."""
    record.validate()
    meta = json.dumps(_meta_dict(record), sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(meta))
    blob += meta
    for arr in (record.visual, record.audio, record.query):
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


def _json_list(value) -> list:
    """A list-valued metadata field; a string or an object in its place is
    malformed, not a sequence to iterate."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {type(value).__name__}")
    return value


def load_episode(path: Path) -> EpisodeRecord:
    """Parse and fully validate an episode file."""
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic bytes")
    version, meta_len = struct.unpack("<II", raw[4:12])
    if version != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unsupported version {version}")
    if len(raw) < 12 + meta_len:
        raise TruncatedPayloadError(f"{path}: metadata segment truncated")
    try:
        meta = json.loads(raw[12:12 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeaderError(f"{path}: metadata is not valid JSON: {exc}") from exc
    try:
        episode_id = str(meta["id"])
        n = int(meta["n_frames"])
        dims = (int(meta["visual_dim"]), int(meta["audio_dim"]), int(meta["query_dim"]))
        if n < 0 or min(dims) < 0:
            raise ValueError(f"negative extent n_frames={n}, dims={dims}")
        moment = [int(v) for v in _json_list(meta["moment"])]
        if len(moment) != 2:
            raise ValueError(f"moment has {len(moment)} entries, expected 2")
        steps = [int(b) for b in _json_list(meta["steps"])]
        captions = [[int(t) for t in _json_list(cap)] for cap in _json_list(meta["captions"])]
        caption_texts = [str(t) for t in _json_list(meta.get("caption_texts", []))]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptHeaderError(f"{path}: metadata missing or malformed field: {exc!r}") from exc
    counts = (n * dims[0], n * dims[1], dims[2])
    payload = raw[12 + meta_len:]
    if len(payload) != 4 * sum(counts):
        raise TruncatedPayloadError(
            f"{path}: payload is {len(payload)} bytes, expected {4 * sum(counts)}"
        )
    offset = 0
    arrays = []
    for count in counts:
        arrays.append(np.frombuffer(payload, dtype="<f4", count=count, offset=offset).copy())
        offset += 4 * count
    record = EpisodeRecord(
        id=episode_id,
        visual=arrays[0].reshape(n, dims[0]),
        audio=arrays[1].reshape(n, dims[1]),
        query=arrays[2],
        moment=(moment[0], moment[1]),
        steps=steps,
        captions=captions,
        caption_texts=caption_texts,
    )
    record.validate()
    return record


@dataclass
class DatasetManifest:
    """Split description: episode files, vocabulary, feature dimensions."""

    split: str
    episode_paths: list[str]
    vocab_path: str
    visual_dim: int
    audio_dim: int
    query_dim: int
    n_frames: int
    generator: Optional[dict] = None
    root: Path = field(default=Path("."), compare=False)

    def resolve(self, rel: str) -> Path:
        return Path(self.root) / rel

    def load_episodes(self) -> list[EpisodeRecord]:
        records = []
        for rel in self.episode_paths:
            rec = load_episode(self.resolve(rel))
            if rec.visual.shape[1] != self.visual_dim or rec.audio.shape[1] != self.audio_dim \
                    or rec.query.shape[0] != self.query_dim:
                raise InvariantViolationError(
                    f"{rel}: feature dims disagree with manifest"
                )
            records.append(rec)
        return records

    def load_vocabulary(self) -> Vocabulary:
        return Vocabulary.load(self.resolve(self.vocab_path))


def write_manifest(manifest: DatasetManifest, path: Path) -> None:
    doc = {k: v for k, v in asdict(manifest).items() if k != "root"}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: Path) -> DatasetManifest:
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    manifest = DatasetManifest(root=path.parent, **doc)
    for rel in manifest.episode_paths:
        if not manifest.resolve(rel).exists():
            raise EpisodeIOError(f"manifest references missing file {rel}")
    if not manifest.resolve(manifest.vocab_path).exists():
        raise EpisodeIOError(f"manifest references missing vocabulary {manifest.vocab_path}")
    return manifest


# ---------------------------------------------------------------------------
# synthetic data

@dataclass
class SyntheticSpec:
    """Knobs of the generator; everything downstream is derived from these."""

    seed: int = 0
    n_episodes: int = 4
    n_frames: int = 32
    visual_dim: int = 40
    audio_dim: int = 24
    query_dim: int = 16
    vocab_size: int = 40
    noise_sigma: float = 0.1
    n_topics: int = 4
    n_step_types: int = 5
    max_steps: int = 3
    split: str = "train"

    def validate(self) -> None:
        if self.n_frames < 4:
            raise ValueError(f"n_frames must be >= 4, got {self.n_frames}")
        if self.vocab_size < 8:
            raise ValueError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.n_episodes < 1:
            raise ValueError("n_episodes must be positive")
        # The step vectors are what is left of random vectors once the topics'
        # visual signals are projected out; with no dimension left, that is
        # rounding noise, and normalising it breaks the orthogonality.
        if self.visual_dim <= self.n_topics:
            raise ValueError(f"visual_dim must exceed n_topics ({self.n_topics}), "
                             f"got {self.visual_dim}")


def _child_rngs(spec: SyntheticSpec) -> list[np.random.Generator]:
    children = np.random.SeedSequence(spec.seed).spawn(2 + spec.n_episodes)
    return [np.random.default_rng(c) for c in children]


def planted_structure(spec: SyntheticSpec) -> dict:
    """Topic and step-type vectors plus caption templates, all seed-derived.

    Step-type vectors are orthogonalized against every topic's visual signal
    so the matched-filter oracle sees a flat correlation across the moment.
    """
    spec.validate()
    rngs = _child_rngs(spec)
    rng_topics, rng_caps = rngs[0], rngs[1]
    k, s = spec.n_topics, spec.n_step_types
    queries = rng_topics.standard_normal((k, spec.query_dim)).astype(np.float32)
    visual = rng_topics.standard_normal((k, spec.visual_dim)).astype(np.float32)
    visual /= np.linalg.norm(visual, axis=1, keepdims=True)
    audio = rng_topics.standard_normal((k, spec.audio_dim)).astype(np.float32)
    audio /= np.linalg.norm(audio, axis=1, keepdims=True)
    step_vecs = rng_topics.standard_normal((s, spec.visual_dim)).astype(np.float32)
    basis = np.linalg.qr(visual.T)[0][:, :k]
    step_vecs -= (step_vecs @ basis) @ basis.T
    step_vecs /= np.linalg.norm(step_vecs, axis=1, keepdims=True)

    n_words = spec.vocab_size - len(_SPECIALS)
    words = [f"w{i:02d}" for i in range(n_words)]
    templates: list[list[int]] = []
    seen = set()
    for _ in range(s):
        while True:
            length = int(rng_caps.integers(3, 6))
            ids = [len(_SPECIALS) + int(w) for w in rng_caps.integers(0, n_words, size=length)]
            key = tuple(ids)
            if key not in seen:
                seen.add(key)
                templates.append(ids)
                break
    return {
        "queries": queries,
        "visual_signals": visual,
        "audio_signals": audio,
        "step_vectors": step_vecs,
        "caption_templates": templates,
        "words": words,
    }


def _plan_boundaries(rng: np.random.Generator, start: int, end: int, max_steps: int) -> list[int]:
    width = end - start + 1
    n_steps = int(rng.integers(1, max_steps + 1))
    n_steps = max(1, min(n_steps, width // 2))
    extras = width - 2 * n_steps
    sizes = 2 + rng.multinomial(extras, np.full(n_steps, 1.0 / n_steps))
    return list(start - 1 + np.cumsum(sizes))


def _make_episode(spec: SyntheticSpec, planted: dict, index: int,
                  rng: np.random.Generator) -> EpisodeRecord:
    n = spec.n_frames
    topic = int(rng.integers(0, spec.n_topics))
    min_w = max(2, n // 4)
    max_w = max(min_w, (3 * n) // 4)
    width = int(rng.integers(min_w, max_w + 1))
    start = int(rng.integers(0, n - width + 1))
    end = start + width - 1
    boundaries = _plan_boundaries(rng, start, end, spec.max_steps)
    step_types = [int(t) for t in rng.integers(0, spec.n_step_types, size=len(boundaries))]

    visual = (spec.noise_sigma * rng.standard_normal((n, spec.visual_dim))).astype(np.float32)
    audio = (spec.noise_sigma * rng.standard_normal((n, spec.audio_dim))).astype(np.float32)
    visual[start:end + 1] += planted["visual_signals"][topic]
    audio[start:end + 1] += planted["audio_signals"][topic]
    for (lo, hi), st in zip(step_frame_spans(start, boundaries), step_types):
        visual[lo:hi + 1] += 0.8 * planted["step_vectors"][st]
    query = planted["queries"][topic].copy()

    captions = [list(planted["caption_templates"][st]) for st in step_types]
    words = planted["words"]
    texts = [" ".join(words[t - len(_SPECIALS)] for t in cap) for cap in captions]
    return EpisodeRecord(
        id=f"{spec.split}-{index:04d}",
        visual=visual,
        audio=audio,
        query=query,
        moment=(start, end),
        steps=boundaries,
        captions=captions,
        caption_texts=texts,
    )


def generate_synthetic_dataset(out_dir: Path, spec: SyntheticSpec) -> DatasetManifest:
    """Write episodes, vocabulary and manifest under ``out_dir``."""
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    planted = planted_structure(spec)
    rngs = _child_rngs(spec)

    vocab = Vocabulary.from_words(planted["words"])
    vocab_rel = "vocab.txt"
    vocab.save(out_dir / vocab_rel)

    episode_paths = []
    for i in range(spec.n_episodes):
        record = _make_episode(spec, planted, i, rngs[2 + i])
        rel = f"{record.id}.qgep"
        write_episode(record, out_dir / rel)
        episode_paths.append(rel)

    manifest = DatasetManifest(
        split=spec.split,
        episode_paths=episode_paths,
        vocab_path=vocab_rel,
        visual_dim=spec.visual_dim,
        audio_dim=spec.audio_dim,
        query_dim=spec.query_dim,
        n_frames=spec.n_frames,
        generator=asdict(spec),
        root=out_dir,
    )
    write_manifest(manifest, out_dir / "manifest.json")
    return manifest


def matched_filter_span(visual: np.ndarray, signal: np.ndarray) -> tuple[int, int]:
    """Model-free recovery of a planted moment: the contiguous run of frames
    whose correlation with the signal clears half the peak correlation."""
    corr = visual @ signal
    peak = corr.max()
    above = corr > 0.5 * peak
    best = int(np.argmax(corr))
    lo = hi = best
    while lo > 0 and above[lo - 1]:
        lo -= 1
    while hi + 1 < len(corr) and above[hi + 1]:
        hi += 1
    return lo, hi
