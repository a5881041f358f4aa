"""spantree benchmark: one workload per invocation, result as the last line.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the root of a spantree checkout; the package is imported from that
checkout's ``src/`` and nowhere else.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files and span dumps go
to ``.bench_work/`` under the checkout.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("train", "dynamics", "charts_long")

# One operation in flight and one BLAS thread: the program is single-threaded,
# so no work waits for a core.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS threads and import spantree from this checkout only.

    Must run before numpy is first imported.
    """
    if not (SRC / "spantree" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'spantree'} not found; run from a spantree checkout")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spantree

    if Path(spantree.__file__).resolve().parent != SRC / "spantree":
        raise SystemExit(f"error: spantree imported from {spantree.__file__}, not {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    bootstrap()
    import harness

    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir()
    spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {json.dumps(harness.environment())}")
    try:
        result = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), str(work_dir), str(spans_path)
        )
    except harness.BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for note in result.notes:
        print(note)
    width = max(len(k) for k in result.metrics)
    for key, (value, unit) in result.metrics.items():
        print(f"  {key:<{width}}  {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
