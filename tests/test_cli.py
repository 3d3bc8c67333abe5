import json
from dataclasses import asdict

import pytest

from conftest import TINY_MODEL, TINY_SPEC, single_frame_moment_corpus, tiny_config
from quag.cli import main
from quag.data import load_manifest
from quag.model import ModelConfig, QuagParams, predict
from quag.trainer import AdamW, load_params_for_eval, save_checkpoint


def test_gen_train_predict_end_to_end(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(asdict(TINY_SPEC)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 2}))
    corpus, run = tmp_path / "corpus", tmp_path / "run"

    assert main(["gen", str(corpus), "--spec", str(spec)]) == 0
    manifest_path = corpus / "manifest.json"
    assert capsys.readouterr().out.strip() == str(manifest_path)

    assert main(["train", str(manifest_path), str(run), "--config", str(config)]) == 0
    assert capsys.readouterr().out.strip() == str(run / "checkpoint.qgck")
    trained = ModelConfig.from_dict(json.loads((run / "config.json").read_text()))
    assert trained.d_model == 16 and trained.epochs == 2
    assert len((run / "metrics.jsonl").read_text().splitlines()) == 2 * 3

    assert main(["predict", str(manifest_path), str(run)]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    model = load_params_for_eval(run / "checkpoint.qgck", trained)
    episodes = load_manifest(manifest_path).load_episodes()
    assert len(lines) == len(episodes) == TINY_SPEC.n_episodes
    for line, episode in zip(lines, episodes):
        expected = predict(episode, model)
        assert line == {"episode_id": expected.episode_id, "moment": list(expected.moment),
                        "steps": expected.steps, "captions": expected.captions}

    assert main(["train", str(manifest_path), str(tmp_path / "resumed"), "--config",
                 str(config), "--resume", str(run / "checkpoint.qgck")]) == 0
    assert (tmp_path / "resumed" / "metrics.jsonl").read_text() == ""


def test_predict_decodes_at_an_edited_beam_width(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(asdict(TINY_SPEC)))
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert main(["gen", str(corpus), "--spec", str(spec)]) == 0
    manifest_path = str(corpus / "manifest.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1}))
    assert main(["train", manifest_path, str(run), "--config", str(config)]) == 0
    saved = json.loads((run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps({**saved, "beam_width": 3}))
    capsys.readouterr()
    assert main(["predict", manifest_path, str(run)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    wide = ModelConfig.from_dict({**saved, "beam_width": 3})
    model = load_params_for_eval(run / "checkpoint.qgck", wide)
    episodes = load_manifest(manifest_path).load_episodes()
    assert [json.loads(line)["captions"] for line in out.out.splitlines()] == \
        [predict(episode, model).captions for episode in episodes]


def test_resume_accepts_an_int_written_for_a_float_field(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(asdict(TINY_SPEC)))
    corpus, run = tmp_path / "corpus", tmp_path / "run"
    assert main(["gen", str(corpus), "--spec", str(spec)]) == 0
    manifest_path = str(corpus / "manifest.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1, "lr": 1.0}))
    assert main(["train", manifest_path, str(run), "--config", str(config)]) == 0
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 2, "lr": 1}))
    assert main(["train", manifest_path, str(tmp_path / "resumed"), "--config", str(config),
                 "--resume", str(run / "checkpoint.qgck")]) == 0
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()) == 3


def test_bad_input_is_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text(json.dumps({"d_modle": 16}))
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    manifest_path = tmp_path / "corpus" / "manifest.json"
    capsys.readouterr()
    assert main(["train", str(manifest_path), str(tmp_path / "run"), "--config", str(bad)]) == 1
    assert "ModelConfig fields" in capsys.readouterr().err
    assert main(["predict", str(manifest_path), str(tmp_path / "missing-run")]) == 1
    assert "missing-run" in capsys.readouterr().err


@pytest.mark.parametrize("n_frames,message", [
    (-1, "n_frames must be >= 1"), (4, "over the manifest's 4 frames")])
def test_wrong_manifest_frame_count_refused_before_the_run_dir(tmp_path, capsys, n_frames,
                                                               message):
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    path = tmp_path / "corpus" / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "n_frames": n_frames}))
    capsys.readouterr()
    assert main(["train", str(path), str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_episode_it_cannot_train_on_exits_1(tmp_path, capsys):
    corpus = single_frame_moment_corpus(tmp_path / "corpus")
    assert main(["train", str(tmp_path / "corpus" / "manifest.json"), str(tmp_path / "run")]) == 1
    assert f"episode {corpus.load_episodes()[0].id}: single-frame moment" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_predict_on_a_one_frame_episode_exits_0(tmp_path, capsys):
    corpus = single_frame_moment_corpus(tmp_path / "corpus", 1)
    config, run = tiny_config(corpus), tmp_path / "run"
    run.mkdir()
    (run / "config.json").write_text(json.dumps(config.to_dict()))
    model = QuagParams(config)
    save_checkpoint(run / "checkpoint.qgck", config, model, AdamW.for_model(model), 0)
    assert main(["predict", str(tmp_path / "corpus" / "manifest.json"), str(run)]) == 0
    out = capsys.readouterr()
    lines = [json.loads(line) for line in out.out.splitlines()]
    assert out.err == "" and len(lines) == TINY_SPEC.n_episodes
    assert (lines[0]["moment"], lines[0]["steps"], len(lines[0]["captions"])) == ([0, 0], [0], 1)


def test_zero_heads_config_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_heads": 0}))
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    assert main(["train", str(tmp_path / "corpus" / "manifest.json"), str(tmp_path / "run"),
                 "--config", str(config)]) == 1
    assert "n_heads" in capsys.readouterr().err


def test_diverging_run_exits_1(tmp_path, capsys):
    # lr=1e30 overflows the weights after the first step; the non-finite loss
    # is reported, not raised, and numpy's overflow warnings stay quiet
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(asdict(TINY_SPEC)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1, "lr": 1e30}))
    corpus = tmp_path / "corpus"
    assert main(["gen", str(corpus), "--spec", str(spec)]) == 0
    capsys.readouterr()
    assert main(["train", str(corpus / "manifest.json"), str(tmp_path / "run"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == "quag train: task loss is not finite\n"


@pytest.mark.parametrize("command,flag,doc,field", [
    ("train", "--config", {"d_model": "64"}, "d_model"),
    ("train", "--config", {"normalize_contrastive": 1}, "normalize_contrastive"),
    ("gen", "--spec", {"n_frames": "8"}, "n_frames"),
    ("gen", "--spec", {"noise_sigma": True}, "noise_sigma"),
])
def test_mistyped_field_exits_1(tmp_path, capsys, command, flag, doc, field):
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    fields = tmp_path / "fields.json"
    fields.write_text(json.dumps(doc))
    args = [str(tmp_path / "corpus" / "manifest.json"), str(tmp_path / "run")] \
        if command == "train" else [str(tmp_path / "out")]
    assert main([command, *args, flag, str(fields)]) == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("split", "../escaped"), ("split", "a\\b"), ("split", ""),
    ("noise_sigma", float("nan")), ("noise_sigma", float("inf")), ("noise_sigma", -0.1),
])
def test_bad_spec_value_exits_1_before_anything_is_written(tmp_path, capsys, field, value):
    # a split is part of each episode's file name, so "../escaped" wrote
    # c2/escaped-0000.qgep beside OUT_DIR; a NaN sigma failed after vocab.txt
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({field: value}))
    assert main(["gen", str(tmp_path / "c2" / "inner"), "--spec", str(spec)]) == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "c2").exists()


def test_mistyped_run_config_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1}))
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    manifest = str(tmp_path / "corpus" / "manifest.json")
    assert main(["train", manifest, str(tmp_path / "run"), "--config", str(config)]) == 0
    run_config = tmp_path / "run" / "config.json"
    run_config.write_text(json.dumps({**json.loads(run_config.read_text()), "n_heads": 2.0}))
    capsys.readouterr()
    assert main(["predict", manifest, str(tmp_path / "run")]) == 1
    assert "n_heads" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("caption_context", "step"), ("ffn_dim", None), ("use_positional", True), ("dropout", 0.0),
    ("beta1", 0.9), ("beta2", 0.999), ("eps", 1e-8)])
def test_run_config_with_a_dropped_field_exits_1(tmp_path, capsys, field, value):
    # these are no longer config fields: a --config or a run written while
    # one was is refused by name, not half loaded
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    manifest = str(tmp_path / "corpus" / "manifest.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1, field: value}))
    capsys.readouterr()
    assert main(["train", manifest, str(tmp_path / "run"), "--config", str(config)]) == 1
    assert f"unknown [{field!r}]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # refused before the run directory is made
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1}))
    assert main(["train", manifest, str(tmp_path / "run"), "--config", str(config)]) == 0
    run_config = tmp_path / "run" / "config.json"
    run_config.write_text(json.dumps({**json.loads(run_config.read_text()), field: value}))
    capsys.readouterr()
    assert main(["predict", manifest, str(tmp_path / "run")]) == 1
    assert f"unknown [{field!r}]" in capsys.readouterr().err
