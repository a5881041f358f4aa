"""Measurement loop, metrics and report for one benchmark run.

With tracing off, a run sets the workload up several times (at least
``SETUP_REPEATS``, and until ``SETUP_MIN_S`` have passed), reports the
median, then measures a closed loop for ``seconds`` of operation time: one
client, one operation in flight.  It reports the end-to-end metrics.

With tracing on, a run sets the workload up once and runs every operation
twice, untraced and traced, in alternating order.  It reports the per-layer
metrics of the traced operations, and the tracing overhead as the traced
operations' time over the untraced operations' time, less 1.

End-to-end times are reported at a reference CPU speed.  On a shared host
a vCPU's speed swings by more than 1.5x within seconds, with the load of
other tenants; steal time stays at zero, so the process's own CPU time
swings as well.  A ``SpeedProbe`` samples a fixed piece of reference work
every ``SpeedProbe.PERIOD_S`` while set-up and untraced ops run, and each
measured time is scaled by ``REFERENCE_S`` over the probe's mean time in
the seconds around it.  The probe's own time is taken out of the measured
times.  Raw numbers are printed too.  README.md shows that the scaled times
move by the same fraction as the raw ones when the program's work or heap
changes.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25

# Mean time of one probe sample at the reference speed.
REFERENCE_S = 0.55e-3


class BenchFailure(Exception):
    """The benchmark itself cannot produce a trustworthy result."""


_PROBE_X = np.linspace(-1.0, 1.0, 8 * 32).reshape(8, 32)
_PROBE_W = np.eye(32) * 0.5 + 0.01
_PROBE_ROW = np.empty((8, 1))
_PROBE_A = np.empty((8, 32))
_PROBE_B = np.empty((8, 32))
# ints from -5 to 256 are cached by CPython: looping over them allocates nothing
_PROBE_INTS = tuple(i % 200 for i in range(1400))


def _reference_work() -> None:
    """Half a millisecond or so of the work spantree's hot loops do: small
    numpy kernels (normalise, softmax, matmul) and an interpreted loop.

    Every array is written in place, and the loop runs over cached small
    ints, so it allocates no Python object.  The program's heap and the
    state of its allocator therefore do not change the probe's cost.
    """
    x, row, a, b = _PROBE_X, _PROBE_ROW, _PROBE_A, _PROBE_B
    for _ in range(12):
        np.mean(x, axis=-1, keepdims=True, out=row)
        np.subtract(x, row, out=a)
        np.multiply(a, a, out=b)
        np.mean(b, axis=-1, keepdims=True, out=row)
        np.add(row, 1e-5, out=row)
        np.sqrt(row, out=row)
        np.divide(a, row, out=a)
        np.exp(a, out=a)
        np.sum(a, axis=-1, keepdims=True, out=row)
        np.divide(a, row, out=a)
        np.matmul(a, _PROBE_W, out=b)
        x = b
    total = 0
    for i in _PROBE_INTS:
        total = (total ^ i) & 255


class SpeedProbe:
    """Times ``_reference_work`` from a SIGALRM handler every PERIOD_S.

    The handler runs in the main thread between bytecodes, so it never
    interrupts a numpy call and needs no locking.  Garbage collection is
    off while a sample runs, so no collection of the program's heap lands
    in it, and only the second of two back-to-back calls is timed, so the
    cache state the program left does not either.  ``slowdown`` turns the
    samples around an interval into that interval's speed correction.
    """

    PERIOD_S = 0.03
    SPAN_S = 2.0

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        entered = time.perf_counter()
        _reference_work()  # untimed: warms the caches the program left cold
        start = time.perf_counter()
        _reference_work()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(start)
        self.times.append(end - start)
        self.busy_s += end - entered

    def __enter__(self):
        _reference_work()  # the first call pays one-off numpy set-up costs
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        """Mean sample time around [start, end], over REFERENCE_S.

        The samples come from the interval widened to at least SPAN_S about
        its middle.  When none fall there, as in a run shorter than the
        period, one sample is taken now.
        """
        half = max(end - start, self.SPAN_S) / 2.0
        middle = (start + end) / 2.0
        lo = bisect.bisect_left(self.starts, middle - half)
        hi = bisect.bisect_right(self.starts, middle + half)
        if lo == hi:
            self._sample(signal.SIGALRM, None)
            lo, hi = len(self.times) - 1, len(self.times)
        return sum(self.times[lo:hi]) / (hi - lo) / REFERENCE_S

    def scaled(self, intervals) -> list[float]:
        """Each (start, end, duration) as a duration at reference speed."""
        return [d / self.slowdown(a, b) for a, b, d in intervals]


@dataclass
class Window:
    """The ops of one measured window, as (start, end, duration).

    A duration is the op's time less the probe samples taken inside it.
    """

    ops: list[tuple[float, float, float]] = field(default_factory=list)
    busy_s: float = 0.0
    work: float = 0.0
    failed: int = 0
    digest: str = ""

    @property
    def rate(self) -> float:
        return self.work / self.busy_s


@contextlib.contextmanager
def _paused(tracer: tracing.Tracer | None):
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def _interval(start: float, probe: SpeedProbe, probe_before: float) -> tuple[float, float, float]:
    """(start, now, elapsed less the probe samples taken since start)."""
    end = time.perf_counter()
    return start, end, end - start - (probe.busy_s - probe_before)


def _run_op(wl, i: int, win: Window, probe: SpeedProbe, tracer: tracing.Tracer | None = None):
    """Time op ``i`` into ``win``; check it and take its digest untimed and untraced."""
    start, probe_before = time.perf_counter(), probe.busy_s
    try:
        out = wl.op(i)
    except Exception:  # a failed op is counted and the loop goes on
        out = None
        traceback.print_exc(file=sys.stderr)
    interval = _interval(start, probe, probe_before)
    win.ops.append(interval)
    win.busy_s += interval[2]
    if out is None:
        win.failed += 1
        return
    with _paused(tracer):
        problems = wl.check(i, out)
        if i == 0:
            win.digest = wl.digest(out)
    if problems:
        win.failed += 1
        print(f"op {i} failed its checks: {'; '.join(problems)}", file=sys.stderr)
    else:
        win.work += wl.work(out)


def measure(wl, seconds: float, probe: SpeedProbe) -> Window:
    """Run ops 0, 1, ... until their summed duration reaches ``seconds``."""
    win = Window()
    i = 0
    while win.busy_s < seconds:
        _run_op(wl, i, win, probe)
        i += 1
    return win


def measure_traced(wl, seconds: float, targets) -> tuple[Window, Window, tracing.Tracer]:
    """Run each op untraced and traced until the traced ops reach ``seconds``.

    The untraced run goes first on even ops and second on odd ones, so both
    windows hold the same operations at the same machine speed.  The
    wrappers are installed only around traced ops.  No speed probe runs: its
    samples would land inside traced calls.
    """
    plain, traced, tracer, no_probe = Window(), Window(), tracing.Tracer(), SpeedProbe()
    i = 0
    while traced.busy_s < seconds:
        for on in (False, True) if i % 2 == 0 else (True, False):
            if not on:
                _run_op(wl, i, plain, no_probe)
                continue
            tracer.install(targets)
            try:
                _run_op(wl, i, traced, no_probe, tracer)
            finally:
                tracer.uninstall()
        i += 1
    return plain, traced, tracer


def _percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(win: Window, probe: SpeedProbe, setup_s: float) -> dict[str, tuple[float, str]]:
    """Times at reference speed; memory as measured."""
    scaled = probe.scaled(win.ops)
    ms = [d * 1e3 for d in scaled]
    return {
        "work_per_s": (win.work / sum(scaled), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (_percentile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> dict:
    """Versions, thread counts and the size of the package under test."""
    import spantree

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = Path(spantree.__file__).parent
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "spantree_lines": lines,
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str, spans_path: str,
        sizes=None) -> Result:
    kwargs = {} if sizes is None else {"sizes": sizes}
    wl = WORKLOADS[name](seed, work_dir, **kwargs)
    notes = []

    if trace:
        setup_tracer = tracing.Tracer()
        setup_tracer.install(tracing.setup_targets())
        with setup_tracer:
            wl.setup()
        plain, traced, tracer = measure_traced(wl, seconds, tracing.run_targets())
        windows = [plain, traced]
        silent = [
            n for n in tracing.MUST_FIRE[name] if tracer.calls(n) + setup_tracer.calls(n) == 0
        ]
        if silent:
            raise BenchFailure(f"wrappers that must fire on {name} recorded no calls: {silent}")
        tracer.write_spans(spans_path)
        notes.append(f"spans written to {spans_path}")
        notes.append(f"raw untraced {wl.aliases['work_per_s']} {plain.rate!r}")
        notes.append(f"raw traced {wl.aliases['work_per_s']} {traced.rate!r}")
        metrics = tracing.layer_metrics(setup_tracer, tracer, traced.busy_s / plain.busy_s - 1.0)
    else:
        with SpeedProbe() as probe:
            setups: list[tuple[float, float, float]] = []
            while len(setups) < SETUP_REPEATS or (
                sum(d for _, _, d in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
            ):
                start, probe_before = time.perf_counter(), probe.busy_s
                wl.setup()
                setups.append(_interval(start, probe, probe_before))
            windows = [measure(wl, seconds, probe)]
        notes.append(f"setup_s raw each: {[d for _, _, d in setups]}")
        notes.append(f"raw {wl.aliases['work_per_s']} {windows[0].rate!r}")
        notes.append(
            f"speed probe: {len(probe.times)} samples, mean {statistics.mean(probe.times)!r} s"
        )
        metrics = end_to_end(windows[0], probe, statistics.median(probe.scaled(setups)))
        for metric, alias in wl.aliases.items():
            value, unit = metrics[metric]
            notes.append(f"{alias} = {value!r} {unit} (reported as {metric})")

    attempted = sum(len(w.ops) for w in windows)
    failed = sum(w.failed for w in windows)
    notes.append(
        f"ops attempted {attempted}, failed {failed}, ops_failed_frac {failed / attempted!r}"
    )
    notes.append(f"{name} digest ({wl.digest.__doc__.strip()}): {windows[0].digest}")
    if trace and traced.digest != plain.digest:
        raise BenchFailure("traced op 0 produced different output than untraced op 0")
    return Result(failed == 0, attempted, failed, metrics, notes)
