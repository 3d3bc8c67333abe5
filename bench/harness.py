"""One benchmark run: set up, measure or trace, check, and record the result
together with the environment it was measured in."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import shutil
import time
from pathlib import Path

import numpy as np

from walk import traced_run
from workloads import Workload, measure, set_up

ROOT = Path(__file__).resolve().parent.parent


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_build() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def environment(root: Path, wl: Workload, setup, seed: int, load_at_start) -> dict:
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(load_at_start),
        "workload": wl.name,
        "seed": seed,
        "model_config": setup.config.to_dict(),
        "synthetic_specs": [dataclasses.asdict(s) for s in setup.specs],
        "train_episodes": len(setup.train_eps),
        "heldout_episodes": len(setup.heldout),
    }


def _number(value: float):
    return value if math.isfinite(value) else None


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run one workload; returns the result object, a printable summary and
    the full record, which is also written under ``out_root``."""
    load_at_start = os.getloadavg()
    out_root.mkdir(parents=True, exist_ok=True)
    work = out_root / f"work-{os.getpid()}"
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    try:
        if trace:
            setup = set_up(wl, seed, work, repeats=1)
            metrics, tally, details, spans = traced_run(wl, setup, seconds, work)
            (out_root / f"spans-{stem}.json").write_text(json.dumps(spans.dump()))
        else:
            setup = set_up(wl, seed, work)
            metrics, tally, details = measure(wl, setup, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _number(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment(ROOT, wl, setup, seed, load_at_start),
        "result": result,
        "error_rate": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "details": details,
        "setup_s_repeats": setup.seconds,
    }
    (out_root / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    summary = [f"# {wl.name} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    summary += [f"{name:44s} {v:14.4f} {unit}" for name, (v, unit) in metrics.items()]
    summary.append(f"{'error_rate':44s} {record['error_rate']:14.4f} "
                   f"({tally.failed} failed / {tally.attempted} attempted)")
    if trace:
        summary.append(f"trace_matches_model: {str(details['trace_mismatches'] == 0).lower()}; "
                       f"tracing overhead: step x{metrics['trace.step_ratio'][0]:.3f}, "
                       f"predict x{metrics['trace.predict_ratio'][0]:.3f}")
    summary += [f"FAILED: {p}" for p in tally.problems[:20]]
    summary.append("environment: " + json.dumps(record["environment"]))
    summary.append("details: " + json.dumps(
        {k: v for k, v in details.items() if not isinstance(v, (list, dict))}))
    record["summary"] = summary
    return record
