"""The model computes in the dtype of its parameters: float32 parameters give
float32 activations and gradients everywhere, and a float64 copy of the same
model (the precision ``grad_check`` uses) gives the same losses and
predictions."""

import numpy as np
import pytest

from conftest import tiny_config
from quag import model as model_module
from quag.heads import DecodeState
from quag.losses import TASKS
from quag.model import FUSION_MODES, QuagParams, predict
from quag.tensor import ComputationTape
from quag.trainer import batch_loss


def _model(manifest, fusion, dtype=np.float32):
    model = QuagParams(tiny_config(manifest, fusion=fusion))
    for p in model.named_parameters().values():
        p.data = p.data.astype(dtype)
    return model


@pytest.mark.parametrize("fusion", FUSION_MODES)
@pytest.mark.parametrize("task", TASKS)
def test_training_graph_is_float32(tiny_corpus, fusion, task):
    model = _model(tiny_corpus, fusion)
    bundle = batch_loss(tiny_corpus.load_episodes(), model, task, model.config.lam)
    wide = [n for n in ComputationTape.trace(bundle.total).nodes if n.data.dtype != np.float32]
    assert not wide, f"{len(wide)} graph nodes are not float32, e.g. {wide[0].data.dtype}"
    bundle.total.backward()
    grads = {name: p.grad.dtype for name, p in model.named_parameters().items()
             if p.grad is not None}
    assert grads
    assert set(grads.values()) == {np.dtype(np.float32)}, grads


def test_predict_computes_in_float32(tiny_corpus, monkeypatch):
    # predict builds no graph: record the arrays it computes, the trunk's
    # output, the moment probabilities, and each decode step's logits and caches
    seen = {"trunk": set(), "moment": set(), "decode": set()}
    trunk = model_module.infer_trunk
    probabilities = model_module.moment_probabilities
    step = DecodeState.step

    def recording_trunk(episode, params):
        out = trunk(episode, params)
        seen["trunk"].add(out.dtype)
        return out

    def recording_probabilities(frames, start_head, end_head):
        out = probabilities(frames, start_head, end_head)
        seen["moment"].update(p.dtype for p in out)
        return out

    def recording_step(self, tokens):
        logits = step(self, tokens)
        seen["decode"].add(logits.dtype)
        seen["decode"].update(a.dtype for cache in self.caches for a in cache)
        return logits

    monkeypatch.setattr(model_module, "infer_trunk", recording_trunk)
    monkeypatch.setattr(model_module, "moment_probabilities", recording_probabilities)
    monkeypatch.setattr(DecodeState, "step", recording_step)
    model = _model(tiny_corpus, "quag")
    for episode in tiny_corpus.load_episodes():
        predict(episode, model)
    assert seen == {key: {np.dtype(np.float32)} for key in seen}


@pytest.mark.parametrize("fusion", FUSION_MODES)
def test_float32_matches_float64_path(tiny_corpus, fusion):
    episodes = tiny_corpus.load_episodes()
    narrow = _model(tiny_corpus, fusion)
    wide = _model(tiny_corpus, fusion, np.float64)
    lam = narrow.config.lam
    for task in TASKS:
        a = batch_loss(episodes, narrow, task, lam).total
        b = batch_loss(episodes, wide, task, lam).total
        assert (a.data.dtype, b.data.dtype) == (np.float32, np.float64)
        assert a.item() == pytest.approx(b.item(), rel=1e-5), task
    for episode in episodes:
        assert predict(episode, narrow) == predict(episode, wide)
