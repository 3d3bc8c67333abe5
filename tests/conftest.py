import pytest

from quag.data import SyntheticSpec, generate_synthetic_dataset
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


def tiny_config(manifest, **overrides):
    base = ModelConfig.desk_scale(**TINY_MODEL)
    return ModelConfig.for_manifest(manifest, base=base, **overrides)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny-corpus")
    manifest = generate_synthetic_dataset(out, TINY_SPEC)
    return manifest
