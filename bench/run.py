"""Benchmark command for quag.

Run from the root of a checkout:

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the traced layer walk and prints the per-layer metrics.
A summary is printed first and the result object is the last line of
standard output. The run exits non-zero when any output check fails, and
without a result when the checkout's ``src/quag`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# One BLAS thread: two are faster on train-wide but noisier from run to run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_quag() -> bool:
    """Import ``quag`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quag
    except ImportError as exc:
        print(f"bench: cannot import quag from {src}: {exc}", file=sys.stderr)
        return False
    if not Path(quag.__file__).resolve().is_relative_to(src):
        print(f"bench: quag imported from {quag.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_quag():
        return 2

    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), OUT)
    for line in record["summary"]:
        print(line)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
