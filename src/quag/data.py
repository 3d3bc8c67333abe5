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
import math
import struct
from dataclasses import MISSING, dataclass, field, fields, asdict
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "PAD", "BOS", "EOS", "UNK",
    "EpisodeIOError", "CorruptHeaderError", "TruncatedPayloadError",
    "InvariantViolationError",
    "Vocabulary", "EpisodeRecord", "DatasetManifest", "SyntheticSpec",
    "step_frame_spans",
    "write_episode", "load_episode",
    "write_manifest", "load_manifest", "load_json_fields",
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
        try:
            return cls(Path(path).read_text(encoding="utf-8").splitlines())
        except ValueError as exc:  # UnicodeDecodeError is a ValueError too
            raise EpisodeIOError(f"{path}: {exc}") from exc


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
    blob = bytearray(MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta)) + meta)
    for arr in (record.visual, record.audio, record.query):
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))


# The JSON type of each episode metadata field, checked by ``_fits``.
_META_TYPES = {"id": str, "n_frames": int, "visual_dim": int, "audio_dim": int,
               "query_dim": int, "moment": list[int], "steps": list[int],
               "captions": list[list[int]], "caption_texts": list[str]}


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
    if not isinstance(meta, dict):
        raise CorruptHeaderError(f"{path}: metadata is not a JSON object")
    meta.setdefault("caption_texts", [])
    for name, hint in _META_TYPES.items():
        if name not in meta or not _fits(meta[name], hint):
            raise CorruptHeaderError(
                f"{path}: metadata field {name!r} is missing or of the wrong type")
    n = meta["n_frames"]
    dims = (meta["visual_dim"], meta["audio_dim"], meta["query_dim"])
    moment = meta["moment"]
    if n < 1 or min(dims) < 1 or len(moment) != 2:
        raise CorruptHeaderError(
            f"{path}: metadata has an extent below 1 or a moment of {len(moment)} entries")
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
        id=meta["id"],
        visual=arrays[0].reshape(n, dims[0]),
        audio=arrays[1].reshape(n, dims[1]),
        query=arrays[2],
        moment=(moment[0], moment[1]),
        steps=meta["steps"],
        captions=meta["captions"],
        caption_texts=meta["caption_texts"],
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
        vocab_size = len(self.load_vocabulary())
        records = []
        for rel in self.episode_paths:
            rec = load_episode(self.resolve(rel))
            if rec.visual.shape[1] != self.visual_dim or rec.audio.shape[1] != self.audio_dim \
                    or rec.query.shape[0] != self.query_dim:
                raise InvariantViolationError(f"{rel}: feature dims disagree with manifest")
            if rec.n_frames > self.n_frames:
                raise InvariantViolationError(f"{rel}: over the manifest's {self.n_frames} frames")
            if any(t >= vocab_size for cap in rec.captions for t in cap):
                raise InvariantViolationError(
                    f"{rel}: caption token id outside the vocabulary of size {vocab_size}")
            records.append(rec)
        return records

    def load_vocabulary(self) -> Vocabulary:
        return Vocabulary.load(self.resolve(self.vocab_path))


def write_manifest(manifest: DatasetManifest, path: Path) -> None:
    doc = {k: v for k, v in asdict(manifest).items() if k != "root"}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type hint; an int fits a float."""
    if get_origin(hint) is Union:
        return any(_fits(value, arg) for arg in get_args(hint))
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    kinds = (int, float) if hint is float else hint
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))


def load_json_fields(path: Path, cls, error: type[ValueError] = ValueError) -> dict:
    """The JSON object in the file at ``path``, checked to fit the dataclass
    ``cls``: known names, every field without a default, values of the
    fields' types. ``Path`` fields are not read. A misfit raises ``error``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object of {cls.__name__} fields")
    hints = get_type_hints(cls)
    unknown = set(doc) - {f.name for f in fields(cls) if hints[f.name] is not Path}
    missing = {f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING} - set(doc)
    if unknown or missing:
        raise error(f"{path}: {cls.__name__} fields unknown {sorted(unknown)}, "
                    f"missing {sorted(missing)}")
    for name, value in doc.items():
        if not _fits(value, hints[name]):
            raise error(f"{path}: {cls.__name__} field {name!r} cannot be {value!r}")
    return doc


def load_manifest(path: Path) -> DatasetManifest:
    path = Path(path)
    doc = load_json_fields(path, DatasetManifest, EpisodeIOError)
    manifest = DatasetManifest(root=path.parent, **doc)
    if manifest.n_frames < 1:
        raise EpisodeIOError(f"{path}: manifest n_frames must be >= 1, got {manifest.n_frames}")
    for rel in [*manifest.episode_paths, manifest.vocab_path]:
        if not manifest.resolve(rel).exists():
            raise EpisodeIOError(f"manifest references missing file {rel}")
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
        for name in ("n_episodes", "visual_dim", "audio_dim", "query_dim", "n_topics",
                     "n_step_types", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Written as `not 0 <= x < inf` so that NaN fails too.
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        # The split names the episode files: a separator would put them outside out_dir.
        if not self.split or "/" in self.split or "\\" in self.split:
            raise ValueError(f"split must be a nonempty name without / or \\, got {self.split!r}")
        # Each step type needs its own caption template of 3 to 5 words.
        words = self.vocab_size - len(_SPECIALS)
        templates = words**3 + words**4 + words**5
        if self.n_step_types > templates:
            raise ValueError(f"n_step_types must be <= {templates}, the number of distinct "
                             f"caption templates, got {self.n_step_types}")
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
