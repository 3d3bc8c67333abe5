"""List the functions of a checkout's ``quag`` package that its commands
never call.

    python3 scripts/reach.py CHECKOUT

It runs ``quag.cli.main`` on a tiny corpus: ``gen``; ``train`` for one epoch
in each fusion mode, with beam width 3 in ``quag``; ``predict`` for each run;
and a ``--resume`` of the ``quag`` run to two epochs. A profile hook records
every function called from a file under ``CHECKOUT/src/quag``, and ``ast``
lists the functions defined there, each name counted once per file. It prints
``reached N of M``, then one ``file:name`` line per name never called. A name
that ``KEPT`` does not list is marked, and the exit status is then 1.

``quag`` is imported from CHECKOUT, so a deletion is checked by running this
on the parent and on the change and comparing the two outputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# Names that stay unreached on purpose, each with the reason.
KEPT = {
    "data.py:matched_filter_span": "the synthetic corpus's oracle for ROADMAP 2a's eval",
    "model.py:groups": "QuagParams.groups: the subsystem grouping ROADMAP 2b's telemetry needs",
    "heads.py:decode_step_caption": "bench/walk.py calls it until ROADMAP 1b and 16",
    "heads.py:decode_moment": "bench/walk.py calls it until ROADMAP 1b; predict runs decode_span",
    "heads.py:predict_step_boundaries":
        "bench/walk.py calls it until ROADMAP 1b; predict runs segment_span",
    "model.py:encode_trunk": "bench/walk.py times it until ROADMAP 1b, and the tests hold "
                             "infer_trunk and encode_stacked to it",
    "tensor.py:__enter__": "no_grad: grad_check, bench/walk.py and the tests' graph-path "
                           "references turn recording off with it",
    "tensor.py:__exit__": "no_grad, as __enter__",
    "model.py:zero_grads": "QuagParams.zero_grads: bench/walk.py calls it until ROADMAP 1b and 16",
    "tensor.py:stack_rows": "only batches that mix frame counts reach it",
    "msp.py:_normalize_rows": "only normalize_contrastive=True reaches it (ROADMAP 15)",
    "tensor.py:__truediv__": "only normalize_contrastive=True reaches it (ROADMAP 15)",
    "tensor.py:div": "only normalize_contrastive=True reaches it (ROADMAP 15)",
    "tensor.py:sqrt": "only normalize_contrastive=True reaches it (ROADMAP 15)",
    "tensor.py:__repr__": "for debugging",
    "tensor.py:grad_check": "the tests' gradient oracle",
}

# TINY_SPEC of tests/conftest.py, and the tiny model trained on it.
SPEC = dict(seed=42, n_episodes=4, n_frames=12, visual_dim=10, audio_dim=8, query_dim=6,
            vocab_size=16, noise_sigma=0.1, n_topics=3, n_step_types=4, max_steps=2)
MODEL = dict(d_model=16, n_heads=2, encoder_layers=1, decoder_layers=1, max_caption_len=8,
             max_steps=6, tau=0.5, epochs=1)
FUSION_MODES = ("quag", "joint", "msp-only", "qc2-only")


def defined(package: Path) -> set[str]:
    """``file:name`` for every function defined in the package's files."""
    return {f"{path.name}:{node.name}"
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def run_commands(work: Path) -> None:
    """The commands the reach is measured over, on a corpus written to ``work``."""
    from quag.cli import main

    def cli(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if main([str(a) for a in argv]) != 0:
                raise RuntimeError(f"quag {' '.join(map(str, argv))} failed")

    def config(name: str, **fields) -> Path:
        path = work / f"{name}.json"
        path.write_text(json.dumps({**MODEL, **fields}), encoding="utf-8")
        return path

    (work / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    cli("gen", work / "corpus", "--spec", work / "spec.json")
    manifest = work / "corpus" / "manifest.json"
    for mode in FUSION_MODES:
        beam = 3 if mode == "quag" else 1
        cli("train", manifest, work / mode, "--config", config(mode, fusion=mode, beam_width=beam))
        cli("predict", manifest, work / mode)
    cli("train", manifest, work / "quag", "--config", config("resume", beam_width=3, epochs=2),
        "--resume", work / "quag" / "checkpoint.qgck")


def unreached(checkout: Path) -> tuple[int, list[str]]:
    """How many of the functions in ``CHECKOUT/src/quag`` the commands call,
    and the sorted ``file:name`` of every one they do not."""
    package = (checkout / "src" / "quag").resolve()
    sys.path.insert(0, str(package.parent))
    import quag

    loaded = Path(quag.__file__).parent  # the path the code objects carry
    if loaded.resolve() != package:
        raise RuntimeError(f"quag was imported from {quag.__file__}, not from {package}")
    codes = set()

    def hook(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="quag-reach-") as tmp:
        sys.setprofile(hook)
        try:
            run_commands(Path(tmp))
        finally:
            sys.setprofile(None)
    called = {f"{Path(code.co_filename).name}:{code.co_name}"
              for code in codes if Path(code.co_filename).parent == loaded}
    names = defined(package)
    return len(names & called), sorted(names - called)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # One BLAS thread, as in bench/run.py. Set before quag imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    reached, missed = unreached(Path(argv[0]))
    print(f"reached {reached} of {reached + len(missed)}")
    for name in missed:
        print(name if name in KEPT else f"{name}  (not in KEPT)")
    return 0 if set(missed) <= set(KEPT) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
