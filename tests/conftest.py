import dataclasses

import numpy as np
import pytest

from quag.data import SyntheticSpec, generate_synthetic_dataset, load_episode, write_episode
from quag.model import ModelConfig


TINY_SPEC = SyntheticSpec(
    seed=42, n_episodes=4, n_frames=12, visual_dim=10, audio_dim=8,
    query_dim=6, vocab_size=16, noise_sigma=0.1, n_topics=3, n_step_types=4,
    max_steps=2,
)


TINY_MODEL = dict(
    d_model=16, n_heads=2, encoder_layers=1, decoder_layers=1,
    max_caption_len=8, max_steps=6, epochs=5, tau=0.5,
)


def key_masks(n_q, n_k):
    """No mask, a causal mask (query i sees keys up to i + max(Lk - Lq, 0))
    and a key-padding mask keeping 1 + (3i mod Lk) keys of query row i."""
    lengths = 1 + (np.arange(n_q) * 3) % n_k
    return {
        "none": None,
        "causal": np.triu(np.ones((n_q, n_k), dtype=bool), k=1 + max(n_k - n_q, 0)),
        "padded": np.arange(n_k) >= lengths[:, None],
    }


def tiny_config(manifest, **overrides):
    base = ModelConfig.desk_scale(**TINY_MODEL)
    return ModelConfig.for_manifest(manifest, base=base, **overrides)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-corpus")
    manifest = generate_synthetic_dataset(out, TINY_SPEC)
    return manifest


def single_frame_moment_corpus(out, n_frames=TINY_SPEC.n_frames):
    """The tiny corpus with episode 0 cut to ``n_frames`` frames and a
    single-frame moment, at frame 3 or the last: the loader accepts it, but
    there is no step to teacher-force."""
    manifest = generate_synthetic_dataset(out, TINY_SPEC)
    path = manifest.resolve(manifest.episode_paths[0])
    ep = load_episode(path)
    end = min(3, n_frames - 1)
    write_episode(dataclasses.replace(
        ep, visual=ep.visual[:n_frames], audio=ep.audio[:n_frames], moment=(end, end),
        steps=[end], captions=ep.captions[:1], caption_texts=ep.caption_texts[:1]), path)
    return manifest
