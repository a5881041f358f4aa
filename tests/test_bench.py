"""The benchmark's self-test, run with the suite.

``bench/selftest.py`` runs every workload at toy sizes, traced and untraced,
and fails when a wrapper in ``bench/tracing.MUST_FIRE`` records no calls, so
a refactor that routes around a wrapped name fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
