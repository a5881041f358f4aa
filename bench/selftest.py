"""Tiny-size self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at toy sizes, untraced and traced, and checks that:
every metric BENCHMARK.json names is emitted with its unit; end-to-end
metrics are nonzero; layers predicted idle on a workload show zero work;
and the benchmark refuses to run in a directory without ``src/spantree``.
Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

run.bootstrap()

import harness  # noqa: E402 - needs the bootstrapped path
from workloads import ChartsSizes, DynamicsSizes, TrainSizes  # noqa: E402

TINY_TRAIN = TrainSizes(examples=300, steps=4, checkpoint_every=2, batch_size=4, eval_limit=4)
TINY = {
    "train": TINY_TRAIN,
    "dynamics": DynamicsSizes(
        series=TINY_TRAIN, tune_lengths=(3, 5), eval_lengths=(3, 4, 5), eval_limit=4
    ),
    "charts_long": ChartsSizes(
        candidates=80, depth=(2, 3), min_len=5, max_len=12, lengths=(5, 8), bitwise_samples=1
    ),
}

# Layers the workload should never enter: metric -> workloads where it is 0.
IDLE = {
    "numerics.backward.ms_per_step": ("dynamics", "charts_long"),
    "numerics.optimizer_step.ms_per_step": ("dynamics", "charts_long"),
    "numerics.tape_nodes_per_step": ("dynamics", "charts_long"),
    "numerics.cross_entropy.calls": ("dynamics", "charts_long"),
    "spanrep.build_sci_chart.calls": ("train",),
    "spanrep.build_sci_chart.spans": ("train",),
    "spanrep.self_s": ("train",),
    "projector.self_s": ("train",),
    "encoder.load_checkpoint.ms": ("train", "charts_long"),
    "encoder.decode.tokens_per_s": ("charts_long",),
}


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def check_workload(name: str, spec: dict) -> None:
    run.WORK.mkdir(exist_ok=True)
    work_dir = run.WORK / f"selftest-{name}"
    spans = run.WORK / f"selftest-{name}.jsonl"
    try:
        for trace, wanted in ((False, _units(spec["end_to_end"])), (True, _units(spec["per_layer"]))):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir()
            result = harness.run(name, 3, 0.01, trace, str(work_dir), str(spans), sizes=TINY[name])
            assert result.correct and result.failed == 0, f"{name}: {result.notes}"
            got = {k: unit for k, (_, unit) in result.metrics.items()}
            assert got == wanted, f"{name} trace={trace}: emitted {got}, BENCHMARK.json has {wanted}"
            values = {k: v for k, (v, _) in result.metrics.items()}
            if not trace:
                zero = [k for k, v in values.items() if not v > 0]
                assert not zero, f"{name}: end-to-end metrics read 0: {zero}"
                continue
            busy = [k for k, idle_on in IDLE.items() if name in idle_on and values[k] != 0]
            assert not busy, f"{name}: layers predicted idle did work: {busy}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        spans.unlink(missing_ok=True)
    print(f"ok {name}")


def check_refuses_without_source() -> None:
    """A directory holding only the benchmark must fail, printing no result."""
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without src/spantree"
    assert '"correct"' not in proc.stdout, "printed a result without src/spantree"
    print("ok refuses without src/spantree")


def main() -> int:
    spec = _spec()
    for name in run.WORKLOAD_NAMES:
        check_workload(name, spec)
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
