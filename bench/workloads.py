"""Workload definitions, set-up, the untraced end-to-end measurement and the
output checks.

Every workload generates its corpus from the benchmark seed and splits each
part of it into training episodes for ``train()`` and held-out episodes for
``predict()``. The generator derives episode ``i`` from its seed and ``i``
alone, so the held-out episodes are unseen data drawn from the same planted
topics and caption templates. Model weights come from the fixed
``MODEL_SEED``; only the corpus changes with the benchmark seed.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from quag.data import DatasetManifest, EpisodeRecord, SyntheticSpec, generate_synthetic_dataset
from quag.losses import TASKS
from quag.model import ModelConfig, PredictionSet, QuagParams, predict
from quag.trainer import (
    AdamW,
    TaskLoaders,
    TrainSchedule,
    load_params_for_eval,
    round_robin_epoch,
    train,
    train_step,
)

MODEL_SEED = 0
SETUP_REPEATS = 7
CORPUS_PARTS = 4
TRAINED_CHECK_EPISODES = 4

# The shape of the tiny corpus and model in tests/conftest.py, for the self-test.
TINY_SPEC = SyntheticSpec(n_frames=12, visual_dim=10, audio_dim=8, query_dim=6,
                          vocab_size=16, n_topics=3, n_step_types=4, max_steps=2)
TINY_BASE = ModelConfig.desk_scale(d_model=16, n_heads=2, encoder_layers=1, decoder_layers=1,
                                   max_caption_len=8, max_steps=6, tau=0.5)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpus shape, model size and how the measured
    seconds are shared between ``train()`` calls and ``predict()`` calls."""

    name: str
    spec: SyntheticSpec          # shape of the corpus; seed and size are set per run
    base: ModelConfig            # model preset before ``for_manifest`` fills the dims
    train_episodes: int
    heldout_episodes: int
    train_share: float           # share of the measured seconds spent in train()

    def tiny(self) -> "Workload":
        """The same workload at the tiny test shape, for the self-test."""
        return dataclasses.replace(
            self, spec=TINY_SPEC, base=TINY_BASE.replace(epochs=self.base.epochs),
            train_episodes=4, heldout_episodes=4)


def _desk(**overrides) -> ModelConfig:
    # max_steps=2: untrained weights cut a moment into 1 to 8 steps, and where
    # the median episode falls between those step counts changes with the
    # corpus; at most two steps keeps p50 and p90 on two-step episodes.
    return ModelConfig.desk_scale(n_heads=8, batch_size=4, max_steps=2, seed=MODEL_SEED,
                                  **overrides)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-desk",
            spec=SyntheticSpec(n_frames=32),
            base=_desk(d_model=64, max_frames=32, epochs=2),
            train_episodes=16, heldout_episodes=32,
            train_share=0.7,
        ),
        Workload(
            name="train-wide",
            spec=SyntheticSpec(n_frames=64),
            base=_desk(d_model=256, max_frames=64, epochs=1),
            train_episodes=16, heldout_episodes=32,
            train_share=0.4,
        ),
        Workload(
            name="predict",
            spec=SyntheticSpec(n_frames=32),
            base=_desk(d_model=64, max_frames=32, epochs=1),
            train_episodes=8, heldout_episodes=128,
            train_share=0.3,
        ),
    )
}


@dataclass
class Setup:
    config: ModelConfig
    specs: list[SyntheticSpec]   # one per corpus part
    train_manifest: DatasetManifest
    heldout_manifest: DatasetManifest
    train_eps: list[EpisodeRecord]
    heldout: list[EpisodeRecord]
    model: QuagParams            # seeded, untrained
    seconds: list[float]         # wall time of each set-up repeat


def generate_corpus(wl: Workload, seed: int, out: Path,
                    ) -> tuple[DatasetManifest, DatasetManifest, list[SyntheticSpec]]:
    """Generate the corpus in ``CORPUS_PARTS`` parts, each from its own seed
    drawn from ``seed``, and split every part into train and held-out
    episodes. Several parts keep one seed's planted topics and caption
    template lengths from deciding the loss and the decode lengths."""
    train_per_part, held_per_part = (n // CORPUS_PARTS for n in (wl.train_episodes,
                                                                 wl.heldout_episodes))
    specs, train_paths, held_paths = [], [], []
    for k, part_seed in enumerate(np.random.SeedSequence(seed).generate_state(CORPUS_PARTS)):
        spec = dataclasses.replace(wl.spec, seed=int(part_seed), split=f"part{k}",
                                   n_episodes=train_per_part + held_per_part)
        part = generate_synthetic_dataset(out / spec.split, spec)
        paths = [f"{spec.split}/{rel}" for rel in part.episode_paths]
        train_paths += paths[:train_per_part]
        held_paths += paths[train_per_part:]
        specs.append(spec)
    # Every part has the same vocabulary: it depends on vocab_size alone.
    base = dataclasses.replace(part, vocab_path=f"{spec.split}/{part.vocab_path}",
                               generator=None, root=out)
    return (dataclasses.replace(base, split="train", episode_paths=train_paths),
            dataclasses.replace(base, split="heldout", episode_paths=held_paths), specs)


def _set_up_once(wl: Workload, seed: int, out: Path) -> tuple[Setup, float]:
    t0 = time.perf_counter()
    train_m, held_m, specs = generate_corpus(wl, seed, out)
    train_eps = train_m.load_episodes()
    heldout = held_m.load_episodes()
    config = ModelConfig.for_manifest(train_m, base=wl.base)
    model = QuagParams(config)
    # Warm-up: one step of each task on a throwaway model, one prediction.
    scratch = QuagParams(config)
    opt = AdamW.for_model(scratch)
    for task in TASKS:
        train_step(train_eps[:config.batch_size], scratch, opt, task, config.lam)
    predict(heldout[0], model)
    elapsed = time.perf_counter() - t0
    return Setup(config, specs, train_m, held_m, train_eps, heldout, model, []), elapsed


def set_up(wl: Workload, seed: int, work: Path, repeats: int = SETUP_REPEATS) -> Setup:
    """Generate, load, initialise and warm up ``repeats`` times; the last
    repeat's corpus and model are used by the run."""
    seconds = []
    for i in range(repeats):
        setup, elapsed = _set_up_once(wl, seed, work / f"corpus{i}")
        seconds.append(elapsed)
    setup.seconds = seconds
    return setup


# ---------------------------------------------------------------------------
# checks

def prediction_problems(pred: PredictionSet, episode: EpisodeRecord,
                        config: ModelConfig) -> list[str]:
    """Every way ``pred`` breaks the output contract of ``predict()``."""
    problems = []
    start, end = pred.moment
    if not (0 <= start <= end < episode.n_frames):
        problems.append(f"moment {pred.moment} outside {episode.n_frames} frames")
    steps = list(pred.steps)
    if not steps or steps[-1] != end:
        problems.append(f"boundaries {steps} do not end at the moment end {end}")
    if any(b < start or b > end for b in steps):
        problems.append(f"boundaries {steps} leave the moment {pred.moment}")
    if any(b >= c for b, c in zip(steps, steps[1:])):
        problems.append(f"boundaries {steps} do not ascend")
    if len(steps) > config.max_steps:
        problems.append(f"{len(steps)} boundaries exceed max_steps={config.max_steps}")
    if len(pred.captions) != len(steps):
        problems.append(f"{len(pred.captions)} captions for {len(steps)} steps")
    for cap in pred.captions:
        if len(cap) > config.max_caption_len:
            problems.append(f"caption of {len(cap)} tokens exceeds {config.max_caption_len}")
        if any(not (0 <= t < config.vocab_size) for t in cap):
            problems.append(f"caption {cap} leaves the vocabulary of {config.vocab_size}")
    return problems


def replay_training(config: ModelConfig, episodes: Sequence[EpisodeRecord],
                    ) -> tuple[QuagParams, dict[str, float]]:
    """The parameters and last-epoch task means ``train()`` should produce,
    rebuilt from the trainer's public pieces without any file I/O."""
    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    schedule = TrainSchedule.for_dataset(config, len(episodes))
    loaders = TaskLoaders(episodes, config.batch_size, config.seed)
    means: dict[str, float] = {}
    for epoch in range(config.epochs):
        means = round_robin_epoch(model, loaders, schedule, optimizer, epoch)
    return model, means


def params_equal(a: QuagParams, b: QuagParams) -> bool:
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(
        pa[n].data.dtype == pb[n].data.dtype and np.array_equal(pa[n].data, pb[n].data)
        for n in pa)


# ---------------------------------------------------------------------------
# untraced run

@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, problem: Optional[str] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def _completed_iterations(log_path: Path) -> int:
    if not log_path.exists():
        return 0
    with open(log_path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


class PredictLoop:
    """``predict()`` round robin over episodes, one caller. Checks every
    output, and that every repeat of an episode equals its first prediction."""

    def __init__(self, model: QuagParams, episodes: Sequence[EpisodeRecord],
                 config: ModelConfig, tally: Tally):
        self.model, self.episodes, self.config, self.tally = model, episodes, config, tally
        self.calls = 0
        self.latencies_ms: dict[str, list[float]] = defaultdict(list)
        self.first: dict[str, PredictionSet] = {}

    def run(self, deadline: float, min_calls: int = 0) -> None:
        """Predict until ``deadline`` and until ``min_calls`` calls in all."""
        while self.calls < min_calls or time.perf_counter() < deadline:
            episode = self.episodes[self.calls % len(self.episodes)]
            self.calls += 1
            t0 = time.perf_counter()
            try:
                pred = predict(episode, self.model)
            except Exception as exc:  # noqa: BLE001 - a raising prediction is a failed one
                self.tally.add(1, 1, f"predict({episode.id}) raised {exc!r}")
                continue
            self.latencies_ms[episode.id].append(1000.0 * (time.perf_counter() - t0))
            problems = prediction_problems(pred, episode, self.config)
            if self.first.setdefault(episode.id, pred) != pred:
                problems.append("differs from the first prediction of the same episode")
            self.tally.add(1, 1 if problems else 0,
                           f"predict({episode.id}): {'; '.join(problems)}" if problems else None)

    def tokens(self) -> dict[str, int]:
        return {ep: sum(len(c) for c in pred.captions) for ep, pred in self.first.items()}


def measure(wl: Workload, setup: Setup, seconds: float, work: Path) -> tuple[dict, Tally, dict]:
    """Alternate ``train()`` calls with spells of ``predict()`` calls on the
    untrained weights for ``seconds``, then check the outputs. Returns the
    end-to-end metrics, the tally and details for the result record.

    The spells keep each phase to its share of the time and spread both
    phases' samples over the whole run, so that a slow spell of a shared
    machine does not fall on one phase alone."""
    config = setup.config
    tally = Tally()
    schedule = TrainSchedule.for_dataset(config, len(setup.train_eps))
    iterations = schedule.iterations_per_epoch * config.epochs
    episodes_per_call = len(setup.train_eps) * config.epochs
    predict_per_train_s = (1.0 - wl.train_share) / wl.train_share
    loop = PredictLoop(setup.model, setup.heldout, config, tally)

    deadline = time.perf_counter() + seconds
    rates, losses = [], []
    result = None
    out_dir = work / "train"
    while not rates or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            result = train(config, setup.train_manifest, out_dir)
        except Exception as exc:  # noqa: BLE001 - an aborted call counts as failed work
            done = _completed_iterations(out_dir / "metrics.jsonl")
            tally.add(iterations, iterations - done, f"train() aborted: {exc!r}")
            result = None
            break
        elapsed = time.perf_counter() - t0
        rates.append(episodes_per_call / elapsed)
        losses.append(sum(result.final_means.values()))
        tally.add(iterations)
        loop.run(min(deadline, time.perf_counter() + predict_per_train_s * elapsed))
    # Every held-out episode is predicted at least twice.
    loop.run(deadline, min_calls=2 * len(setup.heldout))
    latencies_ms, tokens = loop.latencies_ms, loop.tokens()
    # Every train() call, and every repeat of an episode's prediction, does
    # identical work; each is timed by the median over the run, which the
    # slow spells of a shared machine move least (see README.md).
    episode_ms = {ep_id: statistics.median(v) for ep_id, v in latencies_ms.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # After the clock stops: training is deterministic, the checkpoint reloads
    # into exactly the trained parameters, and the trained model's outputs
    # pass the same checks (its captions can stop at EOS; untrained ones do not).
    if result is not None:
        reference, ref_means = replay_training(config, setup.train_eps)
        reloaded = load_params_for_eval(result.checkpoint_path, config)
        ok = params_equal(reloaded, reference)
        tally.add(1, 0 if ok else 1,
                  None if ok else "checkpoint does not reload into the trained parameters")
        ok = ref_means == result.final_means and len(set(losses)) == 1
        tally.add(1, 0 if ok else 1,
                  None if ok else f"train losses not reproducible: {set(losses)} vs {ref_means}")
        trained = setup.heldout[:TRAINED_CHECK_EPISODES]
        PredictLoop(reloaded, trained, config, tally).run(0.0, min_calls=2 * len(trained))

    metrics = {
        "setup_s": (statistics.median(setup.seconds), "s"),
        "train_episodes_per_s": (statistics.median(rates) if rates else float("nan"), "1/s"),
        "train_loss": (losses[-1] if losses else float("nan"), "nats"),
        "predict_ms_p50": (percentile(list(episode_ms.values()), 50), "ms"),
        "predict_ms_p90": (percentile(list(episode_ms.values()), 90), "ms"),
        "caption_tokens_per_s": (1000.0 * sum(tokens[ep] for ep in episode_ms)
                                 / sum(episode_ms.values()) if episode_ms else float("nan"),
                                 "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "train_calls": len(rates),
        "train_episodes_per_call": episodes_per_call,
        "train_final_means": result.final_means if result is not None else None,
        "predictions": sum(map(len, latencies_ms.values())),
        "train_call_rates": rates,
        "predict_latencies_ms": latencies_ms,
        "caption_tokens": sum(tokens[ep] * len(v) for ep, v in latencies_ms.items()),
        "episode_tokens": tokens,
    }
    return metrics, tally, details


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")
