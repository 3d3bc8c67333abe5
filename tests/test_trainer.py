import dataclasses
import hashlib
import json
import os
import signal
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY_SPEC, single_frame_moment_corpus, tiny_config
from quag import trainer
from quag.data import generate_synthetic_dataset
from quag.losses import TASKS, total_loss
from quag.model import FUSION_MODES, QuagParams, predict
from quag.tensor import ShapeError, Tensor, sum_all
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
    train_step,
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
        assert opt.flat_m.dtype == np.float64 and opt.flat_v.dtype == np.float64
        assert p.data.dtype == np.float32

    def test_slices_update_every_element_once(self):
        # a parameter spanning several slices, with a ragged last one, must
        # see exactly the update a one-slice parameter gets, element for element
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(7).astype(np.float32)
        reps = -(-2 * trainer._SLICE // 7) + 1
        small = Tensor(x0.copy(), requires_grad=True)
        big = Tensor(np.tile(x0, reps), requires_grad=True)
        assert big.data.size > 2 * trainer._SLICE and big.data.size % trainer._SLICE
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

    @pytest.mark.parametrize("field,value", [
        ("weight_decay", -0.01), ("weight_decay", float("nan")), ("lr", float("nan")),
    ])
    def test_out_of_range_hyperparameter_rejected_before_any_step(self, field, value):
        p = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match=field):
            AdamW({"p": p}, **{"lr": 0.1, field: value})


class SlowAdamW:
    """The per-parameter AdamW step that the flat-buffer step replaced, kept
    as its reference: every parameter has its own float64 moments, a None
    gradient is a zero one, and the new float32 values go into a fresh array."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01):
        self.params = dict(params)
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.m = {n: np.zeros(p.data.shape) for n, p in self.params.items()}
        self.v = {n: np.zeros(p.data.shape) for n, p in self.params.items()}
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        step_size = self.lr / (1.0 - b1 ** self.t)
        inv_bc2 = 1.0 / (1.0 - b2 ** self.t)
        shrink = 1.0 - self.lr * self.weight_decay
        g64 = np.empty(trainer._SLICE)
        u64 = np.empty(trainer._SLICE)
        for name, p in self.params.items():
            g = p.grad
            if g is not None:
                if not np.isfinite(g).all():
                    raise NonFiniteLossError(f"non-finite gradient in parameter {name!r}")
                g = g.reshape(-1)
            x = p.data.reshape(-1)
            new = np.empty_like(x)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, x.size, trainer._SLICE):
                hi = min(lo + trainer._SLICE, x.size)
                gs, u = g64[:hi - lo], u64[:hi - lo]
                ms, vs = m[lo:hi], v[lo:hi]
                if g is None:
                    gs.fill(0.0)
                else:
                    np.copyto(gs, g[lo:hi])
                ms *= b1
                np.multiply(gs, 1.0 - b1, out=u)
                ms += u
                vs *= b2
                np.multiply(gs, gs, out=gs)
                gs *= 1.0 - b2
                vs += gs
                np.multiply(vs, inv_bc2, out=u)
                np.sqrt(u, out=u)
                u += self.eps
                np.divide(ms, u, out=u)
                u *= step_size
                np.copyto(gs, x[lo:hi])
                gs *= shrink
                gs -= u
                np.copyto(new[lo:hi], gs, casting="same_kind")
            p.data = new.reshape(p.data.shape)


def _twin_params(shapes, seed):
    """Two dicts of equal float32 parameters, one for each optimizer."""
    rng = np.random.default_rng(seed)
    values = {f"p{i}": rng.standard_normal(shape).astype(np.float32)
              for i, shape in enumerate(shapes)}
    return tuple({n: Tensor(a.copy(), requires_grad=True) for n, a in values.items()}
                 for _ in range(2))


def _random_gradients(fast, slow, optimizer, rng):
    """Give both sides the same random gradients. Each parameter's gradient
    of the fast side comes through backward, is assigned as a fresh array,
    or is None, by a draw per parameter. Every other step or so the
    gradients are cleared instead of zeroed in place, as ``bench/walk.py``
    does: backward then makes fresh arrays, and the slots keep the last
    step's values."""
    if rng.integers(2):
        optimizer.zero_grads()
    else:
        for p in fast.values():
            p.grad = None
    landed = []
    for name, p in fast.items():
        how = rng.integers(3)
        g = (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 2)).astype(np.float32)
        slow[name].grad = None if how == 2 else g.copy()
        if how == 0:
            landed.append(sum_all(p * Tensor(g)))
        else:
            p.grad = None if how == 2 else g
    if landed:
        sum(landed[1:], landed[0]).backward()


def _assert_same_state(fast, slow, optimizer, reference):
    for name, p in fast.items():
        assert np.array_equal(p.data, slow[name].data), name
    for flat, moments in ((optimizer.flat_m, reference.m), (optimizer.flat_v, reference.v)):
        assert np.array_equal(flat, np.concatenate([moments[n].reshape(-1) for n in fast]))


class TestFlatAgainstSlowAdamW:
    """The flat-buffer step does the per-parameter step's float64 arithmetic
    element for element, so parameters and moments are equal bit for bit."""

    def test_thirty_steps_match_the_per_parameter_step(self):
        # size 1, several slices with a ragged tail, and ordinary matrices
        shapes = [(1,), (2 * trainer._SLICE + 123,), (7, 5), (3, 4, 2), (trainer._SLICE,)]
        fast, slow = _twin_params(shapes, seed=0)
        optimizer = AdamW(fast, lr=0.01, weight_decay=0.1)
        reference = SlowAdamW(slow, lr=0.01, weight_decay=0.1)
        rng = np.random.default_rng(1)
        for _ in range(30):
            _random_gradients(fast, slow, optimizer, rng)
            optimizer.step()
            reference.step()
            _assert_same_state(fast, slow, optimizer, reference)

    def test_restored_optimizer_keeps_matching(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, twin = QuagParams(config), QuagParams(config)
        fast, slow = model.named_parameters(), twin.named_parameters()
        optimizer = AdamW.for_model(model)
        reference = SlowAdamW(slow, lr=config.lr, weight_decay=config.weight_decay)
        rng = np.random.default_rng(2)
        for step in range(30):
            if step == 15:
                save_checkpoint(tmp_path / "ckpt.qgck", config, model, optimizer, epoch=1)
                model = QuagParams(config)
                optimizer = AdamW.for_model(model)
                load_checkpoint(tmp_path / "ckpt.qgck", config, model, optimizer)
                fast = model.named_parameters()
            _random_gradients(fast, slow, optimizer, rng)
            optimizer.step()
            reference.step()
            _assert_same_state(fast, slow, optimizer, reference)
        assert optimizer.t == reference.t == 30

    def test_nan_gradient_raises_before_any_update(self):
        fast, slow = _twin_params([(3,), (2, 2)], seed=3)
        optimizer = AdamW(fast, lr=0.1)
        before = optimizer.flat_data.copy()
        fast["p0"].grad = np.ones(3, dtype=np.float32)
        fast["p1"].grad = np.array([[1.0, -np.inf], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(NonFiniteLossError, match="'p1'"):
            optimizer.step()
        assert np.array_equal(optimizer.flat_data, before) and optimizer.t == 0


class TestFlatBuffers:
    def test_parameters_become_views_of_one_buffer(self, tiny_corpus):
        model = QuagParams(tiny_config(tiny_corpus))
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        optimizer = AdamW.for_model(model)
        for name, p in model.named_parameters().items():
            assert np.array_equal(p.data, before[name]) and p.data.dtype == np.float32
            assert np.shares_memory(p.data, optimizer.flat_data) and p.data.flags.c_contiguous
        assert optimizer.flat_data.size == sum(a.size for a in before.values())

    def test_rebound_parameter_raises(self):
        fast, _ = _twin_params([(4,), (2, 3)], seed=4)
        optimizer = AdamW(fast, lr=0.1)
        fast["p1"].data = fast["p1"].data.copy()
        with pytest.raises(ValueError, match="'p1' was rebound after AdamW"):
            optimizer.step()

    def test_float64_parameter_rejected(self):
        with pytest.raises(TypeError, match="float64"):
            AdamW({"p": Tensor(np.zeros(2, dtype=np.float64), requires_grad=True)}, lr=0.1)

    def test_load_checkpoint_reads_into_the_flat_buffers(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        save_checkpoint(tmp_path / "ckpt.qgck", config, model, optimizer, epoch=1)
        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        moments = opt2.flat_m, opt2.flat_v
        load_checkpoint(tmp_path / "ckpt.qgck", config, restored, opt2)
        assert np.array_equal(opt2.flat_data, optimizer.flat_data)
        assert np.array_equal(opt2.flat_m, optimizer.flat_m)
        assert np.array_equal(opt2.flat_v, optimizer.flat_v)
        assert opt2.flat_m is moments[0] and opt2.flat_v is moments[1]
        for p in restored.named_parameters().values():
            assert np.shares_memory(p.data, opt2.flat_data)
        opt2.zero_grads()
        opt2.step()  # the restored parameters are still the ones the step updates

    def test_train_step_lands_every_gradient_in_the_buffer(self, tiny_corpus):
        config = tiny_config(tiny_corpus)
        model = QuagParams(config)
        optimizer = AdamW.for_model(model)
        for task in TASKS:
            train_step(tiny_corpus.load_episodes(), model, optimizer, task, config.lam)
            for name, p in model.named_parameters().items():
                assert p.grad is not None and np.shares_memory(p.grad, optimizer.flat_grad), name

    def test_step_allocates_only_its_scratch(self):
        # The per-parameter step allocated a 4 MB result for this parameter.
        fast, _ = _twin_params([(1 << 20,), (3,)], seed=5)
        optimizer = AdamW(fast, lr=0.1)
        optimizer.zero_grads()
        optimizer.flat_grad[:] = 0.5
        tracemalloc.start()
        try:
            optimizer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * trainer._SLICE * 8 + 64 * 1024, peak


class TestSchedule:
    def test_cycle_order(self):
        schedule = TrainSchedule(iterations_per_epoch=6)
        assert [schedule.task_at(i) for i in range(6)] == \
            ["ret", "seg", "cap", "ret", "seg", "cap"]

    def test_every_window_of_three_touches_each_task_once(self):
        schedule = TrainSchedule(iterations_per_epoch=12)
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


class TestTrainStep:
    @pytest.mark.parametrize("task", TASKS)
    def test_a_step_draws_no_random_numbers(self, tiny_corpus, monkeypatch, task):
        # training draws only for parameter initialisation and batch order
        config = tiny_config(tiny_corpus)
        model = QuagParams(config)
        optimizer = AdamW.for_model(model)

        def refuse(*args, **kwargs):
            raise AssertionError("a training step made a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        train_step(tiny_corpus.load_episodes(), model, optimizer, task, config.lam)
        assert optimizer.t == 1


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

        def record(batch, model, optimizer, task, lam):
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

    def test_each_step_releases_the_previous_steps_graph(self, tiny_corpus, monkeypatch):
        config = tiny_config(tiny_corpus, epochs=1)
        episodes = tiny_corpus.load_episodes()
        model = QuagParams(config)
        schedule = TrainSchedule.for_dataset(config, len(episodes))
        loaders = TaskLoaders(episodes, config.batch_size, config.seed)
        step, bundles = trainer.train_step, []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in bundles)
            bundle = step(*args, **kwargs)
            bundles.append(weakref.ref(bundle))
            return bundle

        monkeypatch.setattr(trainer, "train_step", tracked)
        round_robin_epoch(model, loaders, schedule, AdamW.for_model(model), epoch=0,
                          on_iteration=lambda i, bundle: None)
        assert len(bundles) == schedule.iterations_per_epoch

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

    # Each task's last-epoch mean loss over its first-epoch mean is below
    # these shares in every fusion mode. Measured: ret 0.26, seg 0.64, cap
    # 0.063 in quag; at most 0.005, 0.022 and 0.010 in the other three.
    SHARES = {"ret": 0.4, "seg": 0.8, "cap": 0.15}

    @pytest.mark.parametrize("fusion", FUSION_MODES)
    def test_every_task_learns(self, tmp_path, fusion):
        manifest = generate_synthetic_dataset(tmp_path, dataclasses.replace(TINY_SPEC,
                                                                            n_episodes=8))
        episodes = manifest.load_episodes()
        config = tiny_config(manifest, fusion=fusion, lr=3e-3)
        model = QuagParams(config)
        schedule = TrainSchedule.for_dataset(config, len(episodes))
        loaders = TaskLoaders(episodes, config.batch_size, config.seed)
        optimizer = AdamW.for_model(model)
        means = [round_robin_epoch(model, loaders, schedule, optimizer, epoch)
                 for epoch in range(40)]
        shares = {task: means[-1][task] / means[0][task] for task in TASKS}
        assert all(shares[task] < self.SHARES[task] for task in TASKS), shares


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
        np.testing.assert_array_equal(optimizer.flat_m, opt2.flat_m)
        np.testing.assert_array_equal(optimizer.flat_v, opt2.flat_v)

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

    def test_truncated_checkpoint_leaves_arrays_untouched(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=2)
        raw = path.read_bytes()
        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        arrays = [p.data for p in restored.named_parameters().values()]
        arrays += [opt2.flat_m, opt2.flat_v]
        before = [arr.copy() for arr in arrays]
        digest_at = 12
        header_at = digest_at + len(config.digest())
        params_at = header_at + 48
        moments_at = params_at + 4 * optimizer.flat_data.size
        # inside the digest, the header, the parameters, flat_m and flat_v
        # (one byte short of the end), and one trailing byte
        for cut in (digest_at + 5, header_at + 40, (params_at + moments_at) // 2,
                    moments_at + 8, len(raw) - 1, len(raw) + 1):
            path.write_bytes((raw + b"\0")[:cut])
            with pytest.raises(CheckpointError, match="truncated|trailing bytes"):
                load_checkpoint(path, config, restored, opt2)
            assert all(np.array_equal(arr, old) for arr, old in zip(arrays, before))
            assert opt2.t == 0

    def test_load_without_an_optimizer_restores_the_parameters_only(self, tiny_corpus,
                                                                     tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=4)
        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        assert load_checkpoint(path, config, restored) == 4
        assert np.array_equal(opt2.flat_data, optimizer.flat_data)
        assert not opt2.flat_m.any() and not opt2.flat_v.any() and opt2.t == 0

    @pytest.mark.parametrize("other", [
        # the parent's writer raised a bare KeyError for a joint model's optimizer
        lambda config, model: AdamW.for_model(QuagParams(config.replace(fusion="joint"))),
        lambda config, model: AdamW.for_model(QuagParams(config)),
        lambda config, model: AdamW(dict(reversed(model.named_parameters().items())), lr=0.1),
    ], ids=["other-fusion", "twin-model", "reversed"])
    def test_optimizer_not_over_the_model_rejected(self, tiny_corpus, tmp_path, other):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=1)
        saved = path.read_bytes()
        with pytest.raises(ValueError, match="registry order"):
            save_checkpoint(path, config, model, other(config, model), epoch=2)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == saved
        target = QuagParams(config)
        before = [p.data.copy() for p in target.named_parameters().values()]
        with pytest.raises(ValueError, match="registry order"):
            load_checkpoint(path, config, target, other(config, target))
        for p, old in zip(target.named_parameters().values(), before):
            assert np.array_equal(p.data, old)


def _trained_state(config):
    """A model and optimizer after one step, so every moment is nonzero."""
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    for p in model.named_parameters().values():
        p.grad = np.ones_like(p.data)
    optimizer.step()
    return model, optimizer


def _v3_bytes(digest, model, optimizer, epoch, layout=None, step=None):
    """A v3 checkpoint laid out by hand, as the format comment in trainer.py
    describes it: ``layout`` overrides the [[name, shape], ...] list hashed
    into the header, ``step`` the optimizer's counter."""
    params = model.named_parameters()
    if layout is None:
        layout = [[name, list(p.shape)] for name, p in params.items()]
    blob = b"QGCK" + struct.pack("<II", 3, len(digest)) + digest.encode("ascii")
    blob += hashlib.sha256(json.dumps(layout).encode("utf-8")).digest()
    blob += struct.pack("<qq", optimizer.t if step is None else step, epoch)
    blob += b"".join(p.data.astype("<f4").tobytes() for p in params.values())
    return blob + optimizer.flat_m.astype("<f8").tobytes() + optimizer.flat_v.astype("<f8").tobytes()


def _table_bytes(version, digest, model, optimizer, epoch):
    """A v1 or v2 checkpoint laid out by hand: a table of named entries, each
    with its shape; v2 stored each in its array's dtype behind a 3-byte tag,
    v1 all as <f4 with no tag."""
    params, lo = model.named_parameters(), 0
    entries = [(n, p.data) for n, p in params.items()]
    for n, p in params.items():
        entries += [(f"opt.{k}.{n}", flat[lo:lo + p.data.size].reshape(p.shape))
                    for k, flat in (("m", optimizer.flat_m), ("v", optimizer.flat_v))]
        lo += p.data.size
    entries += [("trainer.step", np.array([optimizer.t], dtype="<i8")),
                ("trainer.epoch", np.array([epoch], dtype="<i8"))]
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


@pytest.fixture(scope="module")
def fuzz_target(tiny_corpus, tmp_path_factory):
    config = tiny_config(tiny_corpus)
    model, optimizer = _trained_state(config)
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.qgck"
    save_checkpoint(path, config, model, optimizer, epoch=2)
    return config, path.read_bytes(), path


class TestCheckpointFormat:
    def test_writer_matches_hand_laid_v3(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=2)
        assert path.read_bytes() == _v3_bytes(config.digest(), model, optimizer, 2)

    @pytest.mark.parametrize("version", [1, 2])
    def test_earlier_version_rejected(self, tiny_corpus, tmp_path, version):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "old.qgck"
        path.write_bytes(_table_bytes(version, config.digest(), model, optimizer, 3))
        target = QuagParams(config)
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path, config, target, AdamW.for_model(target))

    def test_load_keeps_every_array_object(self, tiny_corpus, tmp_path):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=1)
        restored = QuagParams(config)
        opt2 = AdamW.for_model(restored)
        params = restored.named_parameters()
        before = [p.data for p in params.values()] + [opt2.flat_m, opt2.flat_v]
        load_checkpoint(path, config, restored, opt2)
        after = [p.data for p in params.values()] + [opt2.flat_m, opt2.flat_v]
        assert all(now is kept for now, kept in zip(after, before))
        for n, p in params.items():
            np.testing.assert_array_equal(p.data, model.named_parameters()[n].data)
        np.testing.assert_array_equal(opt2.flat_v, optimizer.flat_v)

    @pytest.mark.parametrize("edit", [
        lambda layout: [["proj_visual.renamed", layout[0][1]]] + layout[1:],
        lambda layout: [[layout[0][0], layout[0][1][::-1]]] + layout[1:],
        lambda layout: layout[1:] + layout[:1],
    ], ids=["renamed", "reshaped", "reordered"])
    def test_layout_mismatch_rejected(self, tiny_corpus, tmp_path, edit):
        # the same digest and size: only the layout hash tells the files apart
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        layout = [[n, list(p.shape)] for n, p in model.named_parameters().items()]
        assert layout[0][0] == "proj_visual.weight" and len(set(layout[0][1])) == 2
        path = tmp_path / "ckpt.qgck"
        path.write_bytes(_v3_bytes(config.digest(), model, optimizer, 1, layout=edit(layout)))
        target = QuagParams(config)
        opt2 = AdamW.for_model(target)
        before = opt2.flat_data.copy()
        with pytest.raises(CheckpointError, match="names or shapes differ"):
            load_checkpoint(path, config, target, opt2)
        assert np.array_equal(opt2.flat_data, before) and not opt2.flat_m.any()

    @pytest.mark.parametrize("step,epoch", [(-1, 1), (1, -1)], ids=["step", "epoch"])
    def test_negative_counter_rejected(self, tiny_corpus, tmp_path, step, epoch):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        path = tmp_path / "ckpt.qgck"
        path.write_bytes(_v3_bytes(config.digest(), model, optimizer, epoch, step=step))
        target = QuagParams(config)
        opt2 = AdamW.for_model(target)
        before = opt2.flat_data.copy()
        with pytest.raises(CheckpointError, match="negative counter"):
            load_checkpoint(path, config, target, opt2)
        assert np.array_equal(opt2.flat_data, before) and opt2.t == 0

    @pytest.mark.parametrize("corrupt,match", [
        (lambda good, digest: good + b"\0", "trailing bytes"),
        # a digest length that runs past the end of the file
        (lambda good, digest: good[:8] + struct.pack("<I", 2**32 - 1) + good[12:], "truncated"),
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
        try:  # load_checkpoint's checks, then its reads
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

    def test_file_is_fsynced_before_the_rename_and_directory_after(
            self, tiny_corpus, tmp_path, monkeypatch):
        config = tiny_config(tiny_corpus)
        model, optimizer = _trained_state(config)
        calls = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(trainer.os, "fsync", recording_fsync)
        monkeypatch.setattr(trainer.os, "replace", recording_replace)
        path = tmp_path / "ckpt.qgck"
        save_checkpoint(path, config, model, optimizer, epoch=1)
        written, directory = path.stat().st_ino, tmp_path.stat().st_ino
        assert calls == [("fsync", written), ("replace", written), ("fsync", directory)]


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

    @pytest.mark.parametrize("field,value", [
        ("vocab_size", 10), ("max_frames", 8), ("visual_dim", 11)])
    def test_config_that_does_not_fit_the_manifest_leaves_no_run_dir(
            self, tiny_corpus, tmp_path, field, value):
        # the tiny corpus has 16 tokens, 12 frames and visual dim 10
        config = tiny_config(tiny_corpus).replace(**{field: value})
        with pytest.raises(ShapeError):
            train(config, tiny_corpus, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n_frames", [12, 1])
    def test_episode_it_cannot_train_on_is_refused_before_the_run_dir(self, tmp_path, n_frames):
        # a one-frame episode's moment is (0, 0); ret could not train on it either
        corpus = single_frame_moment_corpus(tmp_path / "corpus", n_frames)
        episodes = corpus.load_episodes()  # the loader accepts it
        assert episodes[0].n_frames == n_frames and episodes[0].moment[0] == episodes[0].moment[1]
        with pytest.raises(ValueError, match=f"episode {episodes[0].id}: single-frame moment"):
            train(tiny_config(corpus, epochs=1), corpus, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_resume_matches_uninterrupted_run(self, tiny_corpus, tmp_path):
        self.check_resume(tiny_config(tiny_corpus, epochs=4), tiny_corpus, tmp_path)

    @staticmethod
    def check_resume(config, tiny_corpus, tmp_path):
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

    def test_decoding_fields_do_not_bind_a_checkpoint(self, tiny_corpus, tmp_path):
        """``beam_width`` and ``max_steps`` are read only by ``predict``, so a
        trained run decodes at any width and step cap; a field training reads
        still refuses the checkpoint."""
        config = tiny_config(tiny_corpus, epochs=1)
        result = train(config, tiny_corpus, tmp_path / "run")
        episode = tiny_corpus.load_episodes()[0]
        for overrides in [{"beam_width": w} for w in (1, 2, 3, 4)] + [{"max_steps": 1}]:
            model = load_params_for_eval(result.checkpoint_path, config.replace(**overrides))
            pred = predict(episode, model)
            assert len(pred.steps) <= model.config.max_steps
        with pytest.raises(CheckpointError, match="different config"):
            train(config.replace(epochs=2, lr=2 * config.lr), tiny_corpus, tmp_path / "resumed",
                  resume_from=result.checkpoint_path)

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
