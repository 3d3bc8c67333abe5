import dataclasses
import json
import signal
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config
from quag import trainer
from quag.losses import TASKS, total_loss
from quag.model import QuagParams, predict
from quag.tensor import Tensor, sum_all
from quag.trainer import (
    AdamW,
    CheckpointError,
    NonFiniteLossError,
    TaskLoaders,
    TrainSchedule,
    load_checkpoint,
    load_params_for_eval,
    round_robin_epoch,
    save_checkpoint,
    train,
)


class TestAdamW:
    def test_zero_gradients_no_decay_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2, dtype=np.float32)
        before = p.data.copy()
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_hand_trace(self):
        # f(x) = x^2/2 at x=1: g=1, bias-corrected m=g and v=g^2, so the
        # update is lr * 1/(1 + eps)
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_with_zero_gradients(self):
        p = Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
        factor = 1.0 - 0.1 * 0.5
        for step in range(3):
            p.grad = np.zeros(1, dtype=np.float32)
            opt.step()
            assert p.data[0] == pytest.approx(2.0 * factor ** (step + 1), rel=1e-6)

    def test_matches_reference_adam_when_decay_is_zero(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(5).astype(np.float32)
        p = Tensor(x0.copy(), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.05, weight_decay=0.0)

        # independent Adam implementation on the same quadratic
        theta = x0.astype(np.float64).copy()
        m = np.zeros(5)
        v = np.zeros(5)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
        for t in range(1, 21):
            p.grad = None
            loss = sum_all(p * p) * 0.5
            loss.backward()
            opt.step()

            g = theta.copy()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            np.testing.assert_allclose(p.data, theta, atol=1e-7)

    def test_moments_are_float64_and_params_stay_float32(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p}, lr=0.1)
        p.grad = np.array([0.5, 0.25], dtype=np.float32)
        opt.step()
        assert opt.m["p"].dtype == np.float64 and opt.v["p"].dtype == np.float64
        assert p.data.dtype == np.float32

    def test_slices_update_every_element_once(self):
        # a parameter spanning several slices, with a ragged last one, must
        # see exactly the update a one-slice parameter gets, element for element
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(7).astype(np.float32)
        reps = -(-2 * trainer._SLICE // 7) + 1
        small = Tensor(x0.copy(), requires_grad=True)
        big = Tensor(np.tile(x0, reps), requires_grad=True)
        assert big.size > 2 * trainer._SLICE and big.size % trainer._SLICE
        opt = AdamW({"small": small, "big": big}, lr=0.05, weight_decay=0.1)
        for _ in range(3):
            g = rng.standard_normal(7).astype(np.float32)
            small.grad, big.grad = g, np.tile(g, reps)
            opt.step()
            np.testing.assert_array_equal(big.data, np.tile(small.data, reps))

    def test_nan_gradient_aborts_with_parameter_name(self):
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"heads.start.weight": p}, lr=0.1)
        p.grad = np.array([np.nan], dtype=np.float32)
        with pytest.raises(NonFiniteLossError, match="heads.start.weight"):
            opt.step()

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW({}, lr=-1.0)


class TestSchedule:
    def test_cycle_order(self):
        schedule = TrainSchedule(iterations_per_epoch=6, epochs=1)
        assert [schedule.task_at(i) for i in range(6)] == \
            ["ret", "seg", "cap", "ret", "seg", "cap"]

    def test_every_window_of_three_touches_each_task_once(self):
        schedule = TrainSchedule(iterations_per_epoch=12, epochs=1)
        tasks = [schedule.task_at(i) for i in range(12)]
        for i in range(0, 12, 3):
            assert sorted(tasks[i:i + 3]) == ["cap", "ret", "seg"]

    def test_loader_batches_are_deterministic_and_wrap(self, tiny_corpus):
        episodes = tiny_corpus.load_episodes()
        loaders = TaskLoaders(episodes, batch_size=3, seed=5)
        a = loaders.epoch_batches("ret", epoch=2)
        b = loaders.epoch_batches("ret", epoch=2)
        assert [[e.id for e in batch] for batch in a] == \
            [[e.id for e in batch] for batch in b]
        c = loaders.epoch_batches("ret", epoch=3)
        assert [[e.id for e in batch] for batch in a] != \
            [[e.id for e in batch] for batch in c]
        assert sum(len(batch) for batch in a) == len(episodes)

    def test_empty_loader_rejected(self):
        with pytest.raises(ValueError):
            TaskLoaders([], batch_size=2, seed=0)


class TestRoundRobin:
    @pytest.mark.parametrize("batch_size", [2, 4])
    def test_each_task_gets_each_epoch_batch_once(self, tiny_corpus, monkeypatch, batch_size):
        # 6 episodes: a batch size of 2 divides them, 4 leaves a short batch
        episodes = [dataclasses.replace(ep, id=f"{ep.id}.{k}")
                    for k in range(2) for ep in tiny_corpus.load_episodes()][:6]
        config = tiny_config(tiny_corpus, batch_size=batch_size)
        schedule = TrainSchedule.for_dataset(config, len(episodes))
        loaders = TaskLoaders(episodes, config.batch_size, config.seed)
        seen = []

        def record(batch, model, optimizer, task, lam, rng=None):
            seen.append((task, tuple(ep.id for ep in batch)))
            return total_loss(task, Tensor(np.float32(1.0)), Tensor(np.float32(0.0)), lam)

        monkeypatch.setattr(trainer, "train_step", record)
        model = QuagParams(config)
        for epoch in range(2):
            seen.clear()
            round_robin_epoch(model, loaders, schedule, AdamW.for_model(model), epoch)
            assert len(seen) == schedule.iterations_per_epoch
            for task in TASKS:
                expected = [tuple(ep.id for ep in b) for b in loaders.epoch_batches(task, epoch)]
                assert sorted(ids for t, ids in seen if t == task) == sorted(expected)
                assert len(set(expected)) == len(expected) == -(-len(episodes) // batch_size)

    def test_frozen_optimizer_leaves_params_bit_identical(self, tiny_corpus):
        config = tiny_config(tiny_corpus, lr=0.0, epochs=1)
        episodes = tiny_corpus.load_episodes()
        model = QuagParams(config)
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        schedule = TrainSchedule.for_dataset(config, len(episodes))
        loaders = TaskLoaders(episodes, config.batch_size, config.seed)
        optimizer = AdamW.for_model(model)
        round_robin_epoch(model, loaders, schedule, optimizer, epoch=0)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_losses_decrease_under_training(self, tiny_corpus):
        config = tiny_config(tiny_corpus, epochs=25, lam=0.1)
        episodes = tiny_corpus.load_episodes()
        model = QuagParams(config)
        schedule = TrainSchedule.for_dataset(config, len(episodes))
        loaders = TaskLoaders(episodes, config.batch_size, config.seed)
        optimizer = AdamW.for_model(model)
        first = round_robin_epoch(model, loaders, schedule, optimizer, epoch=0)
        last = {}
        for epoch in range(1, config.epochs):
            last = round_robin_epoch(model, loaders, schedule, optimizer, epoch)
        for task in ("ret", "seg", "cap"):
            assert last[task] < first[task], f"{task} did not improve"


class TestCheckpointIO:
    def test_roundtrip_restores_exact_state(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model = QuagParams(config)
        optimizer = AdamW.for_model(model)
        for p in model.named_parameters().values():
            p.grad = np.ones_like(p.data)
        optimizer.step()
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=3)

        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        epoch = load_checkpoint(path, config, restored, opt2)
        assert epoch == 3
        assert opt2.t == 1
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, restored.named_parameters()[name].data)
            np.testing.assert_array_equal(optimizer.m[name], opt2.m[name])
            np.testing.assert_array_equal(optimizer.v[name], opt2.v[name])

    def test_digest_mismatch_rejected(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model = QuagParams(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, AdamW.for_model(model), epoch=0)
        other = config.replace(lam=0.9)
        with pytest.raises(CheckpointError, match="different config"):
            load_checkpoint(path, other, QuagParams(other))

    def test_truncated_checkpoint_rejected(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model = QuagParams(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, AdamW.for_model(model), epoch=0)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, config, QuagParams(config))


def _trained_state(config):
    """A model and optimizer after one step, so every moment is nonzero."""
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    for p in model.named_parameters().values():
        p.grad = np.ones_like(p.data)
    optimizer.step()
    return model, optimizer


def _checkpoint_bytes(version, digest, entries):
    """A checkpoint laid out by hand: v1 stores every entry as <f4 with no
    tag, v2 puts each entry's dtype tag before its shape."""
    blob = b"QGCK" + struct.pack("<II", version, len(digest)) + digest.encode("ascii")
    blob += struct.pack("<I", len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded
        if version == 1:
            arr = arr.astype("<f4")
        else:
            blob += arr.dtype.str.encode("ascii")
        blob += struct.pack(f"<{1 + arr.ndim}I", arr.ndim, *arr.shape) + arr.tobytes()
    return blob


def _v2_entries(model, optimizer, epoch):
    entries = [(n, p.data.astype("<f4")) for n, p in model.named_parameters().items()]
    for n in model.named_parameters():
        entries += [(f"opt.m.{n}", optimizer.m[n]), (f"opt.v.{n}", optimizer.v[n])]
    return entries + [("trainer.step", np.array([optimizer.t], dtype="<i8")),
                      ("trainer.epoch", np.array([epoch], dtype="<i8"))]


@pytest.fixture(scope="module")
def fuzz_target(tiny_corpus, tmp_path_factory):
    config = tiny_config(tiny_corpus)
    model, optimizer = _trained_state(config)
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.qgck"
    save_checkpoint(path, config, model, optimizer, epoch=2)
    return config, path.read_bytes(), path


class TestCheckpointFormat:
    def test_writer_matches_hand_laid_v2(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=2)
        assert path.read_bytes() == _checkpoint_bytes(
            2, config.digest(), _v2_entries(model, optimizer, 2))

    def test_v1_checkpoint_still_loads(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        entries = [(n, p.data) for n, p in model.named_parameters().items()]
        for n in model.named_parameters():
            entries += [(f"opt.m.{n}", optimizer.m[n]), (f"opt.v.{n}", optimizer.v[n])]
        entries += [("trainer.step", np.array([1.0])), ("trainer.epoch", np.array([3.0]))]
        path = tmp_path / "v1.qgck"
        path.write_bytes(_checkpoint_bytes(1, config.digest(), entries))

        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        assert load_checkpoint(path, config, restored, opt2) == 3
        assert opt2.t == 1
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(restored.named_parameters()[name].data, p.data)
            assert restored.named_parameters()[name].data.dtype == np.float32
            for saved, loaded in ((optimizer.m[name], opt2.m[name]),
                                  (optimizer.v[name], opt2.v[name])):
                assert loaded.dtype == np.float64
                np.testing.assert_array_equal(loaded, saved.astype(np.float32))

    @pytest.mark.parametrize("dropped", [
        "proj_visual.weight", "opt.m.proj_visual.weight", "opt.v.proj_visual.weight",
        "trainer.step", "trainer.epoch",
    ])
    def test_missing_entry_raises_checkpoint_error(self, tiny_corpus, tmp_path, dropped):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        entries = _v2_entries(model, optimizer, 1)
        kept = [e for e in entries if e[0] != dropped]
        assert len(kept) == len(entries) - 1
        path = tmp_path / "ckpt.qgck"
        path.write_bytes(_checkpoint_bytes(2, config.digest(), kept))
        with pytest.raises(CheckpointError, match="missing entry"):
            load_checkpoint(path, config, QuagParams(config), AdamW.for_model(model))

    @pytest.mark.parametrize("version,at,value,match", [
        (2, 0, lambda arr: arr.astype("<f2"), "unknown dtype tag"),
        (2, -2, lambda arr: np.array([-1], dtype="<i8"), "not a count"),
        (1, -1, lambda arr: np.array([np.nan]), "not a count"),
    ])
    def test_malformed_entry_rejected(self, tiny_corpus, tmp_path, version, at, value, match):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        entries = _v2_entries(model, optimizer, 1)
        name, arr = entries[at]
        entries[at] = (name, value(arr))
        path = tmp_path / "ckpt.qgck"
        path.write_bytes(_checkpoint_bytes(version, config.digest(), entries))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, config, QuagParams(config), AdamW.for_model(model))

    @pytest.mark.parametrize("corrupt,match", [
        (lambda good, digest: good + b"\0", "trailing bytes"),
        # one entry of rank 100 with zero-length extents: more dims than numpy allows
        (lambda good, digest: _checkpoint_bytes(2, digest, [])[:-4] + struct.pack("<II", 1, 1)
         + b"x<f4" + struct.pack("<I", 100) + bytes(400), "corrupt"),
    ])
    def test_malformed_layout_rejected(self, fuzz_target, tmp_path, corrupt, match):
        config, good, _ = fuzz_target
        path = tmp_path / "ckpt.qgck"
        path.write_bytes(corrupt(good, config.digest()))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path, config, QuagParams(config))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupt_bytes_raise_only_checkpoint_error(self, fuzz_target, data):
        config, good, path = fuzz_target
        position = st.one_of(st.integers(0, 255), st.integers(0, len(good) - 1))
        if data.draw(st.booleans(), label="truncate"):
            raw = good[:data.draw(st.integers(0, len(good) - 1), label="length")]
        else:
            raw = bytearray(good)
            for at in data.draw(st.lists(position, min_size=1, max_size=4), label="flips"):
                raw[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
            raw = bytes(raw)
        path.write_bytes(raw)
        model = QuagParams(config)
        try:  # load_checkpoint parses with _read_checkpoint, then validates
            load_checkpoint(path, config, model, AdamW.for_model(model))
        except CheckpointError:
            pass

    @pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="needs RLIMIT_FSIZE")
    def test_failed_write_keeps_previous_checkpoint(self, tiny_corpus, tmp_path):
        import resource

        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=1)
        before = path.read_bytes()
        # a file-size limit makes the write stop part-way, as a full disk would
        soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, hard))
        try:
            with pytest.raises(OSError):
                save_checkpoint(path, config, model, optimizer, epoch=2)
        finally:
            resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
            signal.signal(signal.SIGXFSZ, handler)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestTrainEntryPoint:
    def test_identical_seeds_give_bit_identical_checkpoints(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=3)
        r1 = train(config, tiny_corpus, tmp_path / "run1")
        r2 = train(config, tiny_corpus, tmp_path / "run2")
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()

    def test_metrics_log_shape(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=3)
        result = train(config, tiny_corpus, tmp_path / "run")
        lines = result.log_path.read_text().splitlines()
        schedule = TrainSchedule.for_dataset(config, 4)
        assert len(lines) == config.epochs * schedule.iterations_per_epoch
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"iteration", "epoch", "task", "task_loss",
                                  "msp_loss", "total"}
            assert entry["total"] == pytest.approx(
                entry["task_loss"] + config.lam * entry["msp_loss"], abs=1e-5
            )

    def test_resume_matches_uninterrupted_run(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=4)
        full = train(config, tiny_corpus, tmp_path / "full")

        half_config = config.replace(epochs=2)
        half = train(half_config, tiny_corpus, tmp_path / "half")
        resumed = train(config, tiny_corpus, tmp_path / "resumed",
                        resume_from=half.checkpoint_path)
        assert resumed.epochs_run == 2
        assert full.checkpoint_path.read_bytes() == resumed.checkpoint_path.read_bytes()

        full_lines = [json.loads(l) for l in full.log_path.read_text().splitlines()]
        resumed_lines = [json.loads(l) for l in resumed.log_path.read_text().splitlines()]
        tail = [l for l in full_lines if l["epoch"] >= 2]
        assert len(resumed_lines) == len(tail)
        for a, b in zip(tail, resumed_lines):
            assert a["total"] == pytest.approx(b["total"], abs=1e-7)

    def test_eval_params_load_from_training_output(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=2)
        result = train(config, tiny_corpus, tmp_path / "run")
        model = load_params_for_eval(result.checkpoint_path, config)
        pred = predict(tiny_corpus.load_episodes()[0], model)
        assert pred.steps[-1] == pred.moment[1]

    def test_resume_into_crashed_run_dir_rewrites_log(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=4)
        full = train(config, tiny_corpus, tmp_path / "full")
        run = train(config.replace(epochs=2), tiny_corpus, tmp_path / "run")
        # a crash in epoch 2: some of its lines are logged, the last one torn,
        # and the checkpoint still holds epoch 2's start
        full_lines = full.log_path.read_text().splitlines(keepends=True)
        epoch2 = [l for l in full_lines if json.loads(l)["epoch"] == 2]
        with open(run.log_path, "a") as log:
            log.writelines(epoch2[:2])
            log.write(epoch2[2][:15])
        resumed = train(config, tiny_corpus, tmp_path / "run", resume_from=run.checkpoint_path)
        assert resumed.log_path.read_text() == full.log_path.read_text()
        assert resumed.checkpoint_path.read_bytes() == full.checkpoint_path.read_bytes()

    def test_resume_past_the_last_epoch_runs_nothing(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus, epochs=3)
        done = train(config, tiny_corpus, tmp_path / "done")
        again = train(config.replace(epochs=2), tiny_corpus, tmp_path / "again",
                      resume_from=done.checkpoint_path)
        assert again.epochs_run == 0
        assert again.checkpoint_path.read_bytes() == done.checkpoint_path.read_bytes()
