"""Check that speed-probe scaling keeps the size of a change to the program.

    python3 bench/probecheck.py      # about 10 minutes

In one process, under one ``harness.SpeedProbe``, it runs 40 rounds, each
a pair of chunks of 12 ``charts_long`` operations: A, the operation as it is, and B, the
operation with an injected change.  Both chunks of a pair run the same
operations, in ABBA order over the rounds.  For each injection it prints
B's time over A's, raw and scaled by the probe.  Scaling keeps a change's
size when the two ratios agree.

- ``none``: B is A; both ratios should read 1.
- ``twice``: B runs each operation twice, so twice the work.
- ``heap``: B holds 600,000 extra tuples and leaves 50,000 cyclic lists of
  garbage per operation, so the garbage collector works harder, as it would
  for a change to the program's heap.
"""

from __future__ import annotations

import shutil
import sys
import time

import run

run.bootstrap()

import harness  # noqa: E402 - needs the bootstrapped path
from workloads import ChartsLong  # noqa: E402

PER_CHUNK = 12
ROUNDS = 40
SEED = 5


def _garbage() -> None:
    for _ in range(50_000):
        cycle: list = []
        cycle.append(cycle)


def compare(wl: ChartsLong, injection: str) -> tuple[float, float]:
    """(raw, scaled) ratio of B's summed op time over A's."""
    chunks: dict[str, list] = {"A": [], "B": []}
    with harness.SpeedProbe() as probe:
        for r in range(ROUNDS):
            for variant in "AB" if r % 2 == 0 else "BA":
                injected = variant == "B"
                ballast = [(i, None) for i in range(600_000)] if injected and injection == "heap" else None
                for i in range(r * PER_CHUNK, (r + 1) * PER_CHUNK):
                    start, probe_before = time.perf_counter(), probe.busy_s
                    wl.op(i)
                    if injected and injection == "twice":
                        wl.op(i)
                    if injected and injection == "heap":
                        _garbage()
                    chunks[variant].append(harness._interval(start, probe, probe_before))
                del ballast
    raw = sum(d for *_, d in chunks["B"]) / sum(d for *_, d in chunks["A"])
    scaled = sum(probe.scaled(chunks["B"])) / sum(probe.scaled(chunks["A"]))
    return raw, scaled


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    work_dir = run.WORK / "probecheck"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    try:
        wl = ChartsLong(SEED, str(work_dir))
        wl.setup()
        for injection in ("none", "twice", "heap"):
            raw, scaled = compare(wl, injection)
            print(f"{injection:5s}  B/A time raw {raw:.4f}  scaled {scaled:.4f}  scaled/raw {scaled / raw:.4f}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
