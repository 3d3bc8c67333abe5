"""Print a fingerprint of what a checkout computes, to check that a change
is bit-identical to its parent.

    python3 scripts/fingerprint.py CHECKOUT

For each benchmark workload it builds the seed-1 corpus (as ``bench/run.py``
does), trains the workload's config once and prints the sha256 of:
- ``metrics.jsonl``;
- the state the checkpoint restores: ``load_checkpoint`` into a fresh model
  and ``AdamW.for_model``, then its ``flat_data``, ``flat_m``, ``flat_v``,
  ``t`` and the epoch. So two checkouts compare equal whenever they train
  the same, even if they lay the checkpoint out or digest the config
  differently;
- ``predict`` on every held-out episode, untrained and trained, at beam
  widths 1 and 3; for train-desk also untrained in each ablation fusion
  mode (``joint``, ``msp-only``, ``qc2-only``), so every trunk the array
  path of ``predict`` runs is covered.

The benchmark corpora each have one frame count. The ``mixed`` group trains
train-desk's config on 16 episodes of 24 and 32 frames under one manifest,
and predicts on those same episodes, so batches that hold both lengths are
covered too.

``quag`` and ``bench/workloads.py`` are imported from CHECKOUT, so run it
once on each checkout and compare the two outputs line by line. CHECKOUT's
``AdamW`` must keep its moments in ``flat_m`` and ``flat_v``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

SEED = 1
BEAM_WIDTHS = (1, 3)
MIXED_FRAMES = (24, 32)  # one corpus part of 8 episodes per frame count
ABLATIONS = ("joint", "msp-only", "qc2-only")  # the workloads' configs run "quag"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def restored_state(checkpoint: Path, config) -> str:
    """The sha256 of what ``checkpoint`` restores: AdamW's flat parameter and
    moment buffers, then its step count and the epoch as two i8."""
    from quag.model import QuagParams
    from quag.trainer import AdamW, load_checkpoint

    model = QuagParams(config)
    optimizer = AdamW.for_model(model)
    epoch = load_checkpoint(checkpoint, config, model, optimizer)
    state = hashlib.sha256()
    for flat in (optimizer.flat_data, optimizer.flat_m, optimizer.flat_v):
        state.update(flat.tobytes())
    state.update(struct.pack("<qq", optimizer.t, epoch))
    return state.hexdigest()


def predictions(model, episodes) -> bytes:
    from quag.model import predict

    return json.dumps([dataclasses.asdict(predict(ep, model)) for ep in episodes]).encode()


def mixed_corpus(out: Path):
    """One manifest over 8 episodes of each ``MIXED_FRAMES`` length, each
    length's part generated from its own seed drawn from ``SEED``."""
    import numpy as np

    from quag.data import SyntheticSpec, generate_synthetic_dataset

    parts = [generate_synthetic_dataset(out / f"len{n}", SyntheticSpec(
                 seed=int(seed), n_episodes=8, n_frames=n, split=f"len{n}"))
             for n, seed in zip(MIXED_FRAMES,
                                np.random.SeedSequence(SEED).generate_state(len(MIXED_FRAMES)))]
    # Every part has the same vocabulary: it depends on vocab_size alone.
    manifest = dataclasses.replace(
        parts[-1], split="train", generator=None, root=out, n_frames=max(MIXED_FRAMES),
        vocab_path=f"{parts[-1].split}/{parts[-1].vocab_path}",
        episode_paths=[f"{m.split}/{rel}" for m in parts for rel in m.episode_paths])
    return manifest


def fingerprint(name: str, work: Path) -> list[tuple[str, str]]:
    from quag.model import ModelConfig, QuagParams
    from quag.trainer import load_params_for_eval, train
    from workloads import WORKLOADS, generate_corpus

    if name == "mixed":
        wl = WORKLOADS["train-desk"]
        train_m = held_m = mixed_corpus(work / "corpus")
    else:
        wl = WORKLOADS[name]
        train_m, held_m, _ = generate_corpus(wl, SEED, work / "corpus")
    config = ModelConfig.for_manifest(train_m, base=wl.base)
    heldout = held_m.load_episodes()
    rows = [(f"predict.untrained.beam{w}",
             sha256(predictions(QuagParams(config.replace(beam_width=w)), heldout)))
            for w in BEAM_WIDTHS]
    rows += [(f"predict.untrained.{mode}.beam{w}",
              sha256(predictions(QuagParams(config.replace(fusion=mode, beam_width=w)), heldout)))
             for mode in (ABLATIONS if name == "train-desk" else ()) for w in BEAM_WIDTHS]
    result = train(config, train_m, work / "run")
    rows.append(("metrics.jsonl", sha256(result.log_path.read_bytes())))
    rows.append(("checkpoint.state", restored_state(result.checkpoint_path, config)))
    rows += [(f"predict.trained.beam{w}",
              sha256(predictions(load_params_for_eval(result.checkpoint_path,
                                                      config.replace(beam_width=w)), heldout)))
             for w in BEAM_WIDTHS]
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # One BLAS thread, as in bench/run.py: the sums then do not depend on the
    # host. Set before quag imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    checkout = Path(argv[0]).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from workloads import WORKLOADS

    for name in [*WORKLOADS, "mixed"]:
        with tempfile.TemporaryDirectory(prefix="quag-fingerprint-") as tmp:
            for label, digest in fingerprint(name, Path(tmp)):
                print(f"{name} {label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
