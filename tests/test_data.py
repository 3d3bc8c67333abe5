import filecmp
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quag.data import (
    BOS,
    EOS,
    PAD,
    UNK,
    CorruptHeaderError,
    DatasetManifest,
    EpisodeIOError,
    EpisodeRecord,
    InvariantViolationError,
    SyntheticSpec,
    TruncatedPayloadError,
    Vocabulary,
    generate_synthetic_dataset,
    load_episode,
    load_manifest,
    matched_filter_span,
    planted_structure,
    step_frame_spans,
    write_episode,
)


def sample_record(n_frames=6, dv=5, da=3, dt=4, seed=0):
    rng = np.random.default_rng(seed)
    return EpisodeRecord(
        id="ep-0",
        visual=rng.standard_normal((n_frames, dv)).astype(np.float32),
        audio=rng.standard_normal((n_frames, da)).astype(np.float32),
        query=rng.standard_normal(dt).astype(np.float32),
        moment=(1, 4),
        steps=[2, 4],
        captions=[[4, 5], [6, 7, 8]],
        caption_texts=["w00 w01", "w02 w03 w04"],
    )


class TestVocabulary:
    def test_specials_and_roundtrip(self, tmp_path):
        vocab = Vocabulary.from_words(["cat", "dog"])
        assert vocab.tokens[PAD] == "<pad>"
        assert vocab.tokens[BOS] == "<bos>"
        assert vocab.tokens[EOS] == "<eos>"
        assert vocab.tokens[UNK] == "<unk>"
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.tokens == vocab.tokens


class TestStepSpans:
    def test_partition(self):
        assert step_frame_spans(3, [5, 8, 10]) == [(3, 5), (6, 8), (9, 10)]

    def test_single_step(self):
        assert step_frame_spans(0, [4]) == [(0, 4)]


class TestEpisodeRoundTrip:
    def test_field_for_field_equality(self, tmp_path):
        record = sample_record()
        path = tmp_path / "ep.qgep"
        write_episode(record, path)
        loaded = load_episode(path)
        assert loaded.id == record.id
        assert loaded.moment == record.moment
        assert loaded.steps == record.steps
        assert loaded.captions == record.captions
        assert loaded.caption_texts == record.caption_texts
        assert loaded.visual.tobytes() == record.visual.astype("<f4").tobytes()
        assert loaded.audio.tobytes() == record.audio.astype("<f4").tobytes()
        assert loaded.query.tobytes() == record.query.astype("<f4").tobytes()

    def test_single_frame_minimal_episode(self, tmp_path):
        rng = np.random.default_rng(1)
        record = EpisodeRecord(
            id="tiny",
            visual=rng.standard_normal((1, 3)).astype(np.float32),
            audio=rng.standard_normal((1, 2)).astype(np.float32),
            query=rng.standard_normal(2).astype(np.float32),
            moment=(0, 0),
            steps=[0],
            captions=[[4]],
        )
        path = tmp_path / "tiny.qgep"
        write_episode(record, path)
        loaded = load_episode(path)
        assert loaded.moment == (0, 0)
        assert loaded.steps == [0]

    def test_write_determinism(self, tmp_path):
        record = sample_record()
        write_episode(record, tmp_path / "a.qgep")
        write_episode(record, tmp_path / "b.qgep")
        assert (tmp_path / "a.qgep").read_bytes() == (tmp_path / "b.qgep").read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "ep.qgep"
        write_episode(sample_record(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(TruncatedPayloadError):
            load_episode(path)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "ep.qgep"
        write_episode(sample_record(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError):
            load_episode(path)

    def test_descending_steps_in_file(self, tmp_path):
        path = tmp_path / "ep.qgep"
        write_episode(sample_record(), path)
        path.write_bytes(_with_meta(path.read_bytes(), lambda meta: meta.update(steps=[4, 2])))
        with pytest.raises(InvariantViolationError, match="steps"):
            load_episode(path)

    def test_invalid_record_rejected_before_write(self, tmp_path):
        record = sample_record()
        record.moment = (4, 1)
        path = tmp_path / "bad.qgep"
        with pytest.raises(InvariantViolationError, match="moment"):
            write_episode(record, path)
        assert not path.exists()

    def test_caption_count_mismatch(self):
        record = sample_record()
        record.captions = [[4]]
        with pytest.raises(InvariantViolationError, match="captions"):
            record.validate()


def _with_meta(blob: bytes, edit) -> bytes:
    """Rewrite the metadata segment of an episode file through ``edit``."""
    meta_len = int.from_bytes(blob[8:12], "little")
    meta = json.loads(blob[12:12 + meta_len])
    edit(meta)
    new_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + len(new_meta).to_bytes(4, "little") + new_meta + blob[12 + meta_len:]


_META_FIELDS = ("id", "n_frames", "visual_dim", "audio_dim", "query_dim", "moment", "steps",
                "captions", "caption_texts")
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def episode_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "ep.qgep"
    write_episode(sample_record(), path)
    return path.read_bytes(), path


class TestCorruptEpisodes:
    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("id"),
        lambda meta: meta.update(moment=[1]),
        lambda meta: meta.update(caption_texts=7),
        lambda meta: meta.update(caption_texts="w00 w01"),
        lambda meta: meta.update(n_frames=float("inf")),
        lambda meta: meta.update(visual_dim=-1, audio_dim=9),  # extents still sum to the payload
        lambda meta: meta.update(moment={"1": 0, "4": 0}),
        lambda meta: meta.update(steps="24"),
    ])
    def test_malformed_metadata_raises_corrupt_header(self, episode_blob, tmp_path, edit):
        good, _ = episode_blob
        path = tmp_path / "ep.qgep"
        path.write_bytes(_with_meta(good, edit))
        with pytest.raises(CorruptHeaderError, match="metadata"):
            load_episode(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.update(moment=[1.9, 4]),  # was truncated to (1, 4)
        lambda meta: meta.update(n_frames="6"),
        lambda meta: meta.update(id=123),
        lambda meta: meta.update(captions=[[4, True], [6, 7, 8]]),  # was read as token 1
    ], ids=["float-moment", "string-n_frames", "int-id", "bool-token"])
    def test_mistyped_metadata_raises_corrupt_header(self, episode_blob, tmp_path, edit):
        good, _ = episode_blob
        path = tmp_path / "ep.qgep"
        path.write_bytes(_with_meta(good, edit))
        with pytest.raises(CorruptHeaderError, match="metadata field"):
            load_episode(path)

    def test_zero_feature_dims_raise_corrupt_header(self, episode_blob, tmp_path):
        # 2**70 frames of no features fit a payload of the query alone
        good, _ = episode_blob
        meta_len = int.from_bytes(good[8:12], "little")
        edited = _with_meta(good[:12 + meta_len], lambda meta: meta.update(
            n_frames=2**70, visual_dim=0, audio_dim=0)) + good[-4 * 4:]
        path = tmp_path / "ep.qgep"
        path.write_bytes(edited)
        with pytest.raises(CorruptHeaderError, match="metadata"):
            load_episode(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_corrupt_bytes_raise_only_episode_io_error(self, episode_blob, data):
        good, path = episode_blob
        kind = data.draw(st.sampled_from(["truncate", "flip", "field"]), label="kind")
        if kind == "truncate":
            raw = good[:data.draw(st.integers(0, len(good) - 1), label="length")]
        elif kind == "flip":
            meta_end = 12 + int.from_bytes(good[8:12], "little")
            position = st.one_of(st.integers(0, meta_end - 1), st.integers(0, len(good) - 1))
            raw = bytearray(good)
            for at in data.draw(st.lists(position, min_size=1, max_size=4), label="flips"):
                raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            raw = bytes(raw)
        else:
            name = data.draw(st.sampled_from(_META_FIELDS), label="field")
            if data.draw(st.booleans(), label="drop"):
                raw = _with_meta(good, lambda meta: meta.pop(name))
            else:
                value = data.draw(_JSON_VALUES, label="value")
                raw = _with_meta(good, lambda meta: meta.update({name: value}))
        path.write_bytes(raw)
        try:
            load_episode(path)
        except EpisodeIOError:
            pass


class TestSyntheticGenerator:
    def test_same_seed_gives_identical_trees(self, tmp_path):
        spec = SyntheticSpec(seed=7, n_episodes=4, n_frames=32)
        m1 = generate_synthetic_dataset(tmp_path / "a", spec)
        m2 = generate_synthetic_dataset(tmp_path / "b", spec)
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", files, shallow=False
        )
        assert not mismatch and not errors
        assert m1.episode_paths == m2.episode_paths

    def test_manifest_contents(self, tmp_path):
        spec = SyntheticSpec(seed=3, n_episodes=4)
        manifest = generate_synthetic_dataset(tmp_path, spec)
        assert len(manifest.episode_paths) == 4
        loaded = load_manifest(tmp_path / "manifest.json")
        assert loaded.episode_paths == manifest.episode_paths
        records = loaded.load_episodes()
        assert len(records) == 4
        vocab = loaded.load_vocabulary()
        for rec in records:
            for cap in rec.captions:
                assert all(0 <= t < len(vocab) for t in cap)
            # caption texts round-trip through the vocabulary
            for cap, text in zip(rec.captions, rec.caption_texts):
                assert [vocab.tokens.index(word) for word in text.split()] == cap

    def test_matched_filter_recovers_noiseless_moments(self, tmp_path):
        spec = SyntheticSpec(seed=11, n_episodes=6, noise_sigma=0.0)
        manifest = generate_synthetic_dataset(tmp_path, spec)
        planted = planted_structure(spec)
        records = manifest.load_episodes()
        for rec in records:
            corr = rec.visual @ planted["visual_signals"].T
            topic = int(np.argmax(np.abs(corr).max(axis=0)))
            span = matched_filter_span(rec.visual, planted["visual_signals"][topic])
            assert span == rec.moment

    def test_episode_invariants_hold(self, tmp_path):
        spec = SyntheticSpec(seed=13, n_episodes=10, n_frames=16)
        manifest = generate_synthetic_dataset(tmp_path, spec)
        for rec in manifest.load_episodes():
            rec.validate()
            s, e = rec.moment
            assert 0 <= s < e < rec.n_frames
            assert rec.steps[-1] == e
            spans = step_frame_spans(s, rec.steps)
            assert spans[0][0] == s and spans[-1][1] == e

    def test_size_preconditions(self, tmp_path):
        with pytest.raises(ValueError, match="n_frames"):
            generate_synthetic_dataset(tmp_path, SyntheticSpec(n_frames=2))
        with pytest.raises(ValueError, match="vocab_size"):
            generate_synthetic_dataset(tmp_path, SyntheticSpec(vocab_size=4))

    @pytest.mark.parametrize("field", ["visual_dim", "audio_dim", "query_dim", "n_topics",
                                       "n_step_types", "max_steps"])
    def test_extent_or_count_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            SyntheticSpec(**{field: 0}).validate()

    def test_more_step_types_than_caption_templates_rejected(self):
        # 4 words give 4**3 + 4**4 + 4**5 = 1344 distinct templates of 3 to 5
        # words; the generator would search forever for the 1345th.
        SyntheticSpec(vocab_size=8, n_step_types=1344).validate()
        with pytest.raises(ValueError, match="n_step_types"):
            SyntheticSpec(vocab_size=8, n_step_types=1345).validate()

    @pytest.mark.parametrize("visual_dim", [3, 4])
    def test_visual_dim_must_exceed_topics(self, tmp_path, visual_dim):
        spec = SyntheticSpec(seed=0, visual_dim=visual_dim, n_topics=4)
        with pytest.raises(ValueError, match="visual_dim"):
            generate_synthetic_dataset(tmp_path, spec)
        with pytest.raises(ValueError, match="visual_dim"):
            planted_structure(spec)

    @pytest.mark.parametrize("visual_dim", [5, 40])
    def test_step_vectors_orthogonal_to_topic_signals(self, visual_dim):
        planted = planted_structure(SyntheticSpec(seed=0, visual_dim=visual_dim, n_topics=4))
        steps = planted["step_vectors"]
        np.testing.assert_allclose(np.linalg.norm(steps, axis=1), 1.0, atol=1e-5)
        assert np.abs(steps @ planted["visual_signals"].T).max() < 1e-5

    @pytest.mark.parametrize("edit,match", [
        (lambda doc: {**doc, "episode_count": 2}, "unknown"),
        (lambda doc: {k: v for k, v in doc.items() if k != "vocab_path"}, "missing"),
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {**doc, "episode_paths": "abc"}, "episode_paths"),
        (lambda doc: {**doc, "root": "/"}, "unknown"),
        (lambda doc: {**doc, "n_frames": -1}, "n_frames must be >= 1"),
        (lambda doc: {**doc, "n_frames": 0}, "n_frames must be >= 1"),
    ])
    def test_malformed_manifest_rejected(self, tmp_path, edit, match):
        generate_synthetic_dataset(tmp_path, SyntheticSpec(seed=5, n_episodes=2))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(EpisodeIOError, match=match):
            load_manifest(path)

    def test_episode_longer_than_the_manifest_rejected(self, tmp_path):
        generate_synthetic_dataset(tmp_path, SyntheticSpec(seed=5, n_episodes=2, n_frames=12))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_frames": 4}))
        with pytest.raises(InvariantViolationError, match="over the manifest's 4 frames"):
            load_manifest(path).load_episodes()
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_frames": 13}))
        assert len(load_manifest(path).load_episodes()) == 2  # a bound, not an exact length

    def test_caption_id_outside_vocabulary_rejected(self, tmp_path):
        generate_synthetic_dataset(tmp_path, SyntheticSpec(seed=5, n_episodes=2))
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(vocab.read_text().splitlines()[:10]) + "\n")
        with pytest.raises(InvariantViolationError, match="vocabulary of size 10"):
            load_manifest(tmp_path / "manifest.json").load_episodes()

    @pytest.mark.parametrize("corrupt,match", [
        (lambda text: b"\xff\xfe" + text, "utf-8"),
        (lambda text: text.split(b"\n", 1)[1], "special tokens"),
        (lambda text: text + text.splitlines(keepends=True)[-1], "duplicate"),
    ], ids=["not-utf8", "no-specials", "repeated-token"])
    def test_corrupt_vocabulary_raises_episode_io_error(self, tmp_path, corrupt, match):
        generate_synthetic_dataset(tmp_path, SyntheticSpec(seed=5, n_episodes=2))
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(corrupt(vocab.read_bytes()))
        manifest = load_manifest(tmp_path / "manifest.json")
        with pytest.raises(EpisodeIOError, match=match) as info:
            manifest.load_episodes()
        assert str(vocab) in str(info.value)

    def test_manifest_missing_file_detected(self, tmp_path):
        spec = SyntheticSpec(seed=5, n_episodes=2)
        generate_synthetic_dataset(tmp_path, spec)
        (tmp_path / "train-0001.qgep").unlink()
        with pytest.raises(EpisodeIOError, match="missing"):
            load_manifest(tmp_path / "manifest.json")
