import json
from dataclasses import asdict

import pytest

from conftest import TINY_MODEL, TINY_SPEC
from quag.cli import main
from quag.data import load_manifest
from quag.model import ModelConfig, predict
from quag.trainer import load_params_for_eval


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


def test_zero_heads_config_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_heads": 0}))
    assert main(["gen", str(tmp_path / "corpus")]) == 0
    capsys.readouterr()
    assert main(["train", str(tmp_path / "corpus" / "manifest.json"), str(tmp_path / "run"),
                 "--config", str(config)]) == 1
    assert "n_heads" in capsys.readouterr().err


def test_diverging_run_exits_1(tmp_path, capsys):
    # lr=1e30 overflows the weights after the first step; numpy warns on the
    # way, and the non-finite loss is reported, not raised
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(asdict(TINY_SPEC)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_MODEL, "epochs": 1, "lr": 1e30}))
    corpus = tmp_path / "corpus"
    assert main(["gen", str(corpus), "--spec", str(spec)]) == 0
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        assert main(["train", str(corpus / "manifest.json"), str(tmp_path / "run"),
                     "--config", str(config)]) == 1
    assert "not finite" in capsys.readouterr().err
