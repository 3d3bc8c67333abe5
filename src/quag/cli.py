"""Command line: generate a synthetic corpus, train on it, predict with the
trained checkpoint.

    quag gen OUT_DIR [--spec SPEC.json]
    quag train MANIFEST RUN_DIR [--config CONFIG.json] [--resume CHECKPOINT]
    quag predict MANIFEST RUN_DIR

``--spec`` holds ``SyntheticSpec`` fields; ``--config`` holds ``ModelConfig``
fields laid over the desk-scale preset, and the corpus fills in the feature
dims and vocabulary size. ``predict`` prints one JSON object per episode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from quag.data import SyntheticSpec, generate_synthetic_dataset, load_json_fields, load_manifest
from quag.model import ModelConfig, predict
from quag.trainer import load_params_for_eval, train

__all__ = ["main"]


def _gen(args) -> None:
    spec = SyntheticSpec(**(load_json_fields(args.spec, SyntheticSpec) if args.spec else {}))
    generate_synthetic_dataset(Path(args.out), spec)
    print(Path(args.out) / "manifest.json")


def _train(args) -> None:
    manifest = load_manifest(args.manifest)
    base = ModelConfig.desk_scale(
        **(load_json_fields(args.config, ModelConfig) if args.config else {}))
    config = ModelConfig.for_manifest(manifest, base=base)
    resume = Path(args.resume) if args.resume else None
    # the non-finite checks report a diverging run; numpy's warnings would repeat it
    with np.errstate(all="ignore"):
        result = train(config, manifest, Path(args.run), resume_from=resume)
    print(result.checkpoint_path)


def _predict(args) -> None:
    manifest = load_manifest(args.manifest)
    run = Path(args.run)
    config = ModelConfig.from_dict(load_json_fields(run / "config.json", ModelConfig))
    model = load_params_for_eval(run / "checkpoint.qgck", config)
    for episode in manifest.load_episodes():
        print(json.dumps(asdict(predict(episode, model))))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="quag", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    gen = commands.add_parser("gen", help="write a synthetic corpus and its manifest")
    gen.add_argument("out")
    gen.add_argument("--spec", help="JSON file of SyntheticSpec fields")
    gen.set_defaults(run_command=_gen)
    tr = commands.add_parser("train", help="train a model; writes checkpoint, config and log")
    tr.add_argument("manifest")
    tr.add_argument("run")
    tr.add_argument("--config", help="JSON file of ModelConfig fields")
    tr.add_argument("--resume", help="checkpoint to resume from")
    tr.set_defaults(run_command=_train)
    pr = commands.add_parser("predict", help="print predictions for every episode")
    pr.add_argument("manifest")
    pr.add_argument("run", help="directory written by train")
    pr.set_defaults(run_command=_predict)
    args = parser.parse_args(argv)
    try:
        args.run_command(args)
    except (OSError, ValueError) as exc:
        # every typed error of the package (EpisodeIOError, CheckpointError,
        # ShapeError, NonFiniteLossError) is a ValueError
        print(f"quag {args.command}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
