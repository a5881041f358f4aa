"""Per-layer tracing for the benchmark, from outside the package.

Each traced function is replaced, for the length of each traced operation,
at the name its caller looks it up: ``experiments`` imports ``build_sci_chart`` by
name, so the wrapper goes on ``spantree.experiments.build_sci_chart``;
``training`` imports ``backward`` by name, so it goes on
``spantree.training.backward``; methods are wrapped on the class.  The
package itself is never edited.

A wrapper records one span per call (name, start, end, parent) and folds it
into per-function totals of calls and busy (inclusive) time.  Self time,
busy time minus the time of traced calls nested inside, is summed per layer,
the layer being the module a function belongs to.  High-frequency
functions (the numerics kernels and ``encoder_block``) are folded into the
totals but not kept as individual spans, which would otherwise be millions
per window.  Hooks that read sizes off arguments or results run outside the
timed interval, and their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from spantree import datasets, encoder, experiments, projector, spanrep, training, treeval
from spantree.encoder import TransformerModel

LAYERS = (
    "numerics",
    "encoder",
    "spanrep",
    "projector",
    "treeval",
    "datasets",
    "training",
    "experiments",
)

# Forward kernels timed per call.  ``encoder`` looks all of them up in its own
# namespace; ``spanrep`` looks up ``cosine_distance`` in its own.
KERNELS = (
    "matmul",
    "add",
    "layer_norm",
    "masked_softmax",
    "reshape",
    "permute",
    "relu",
    "embedding",
    "cross_entropy",
)


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``owner.attr`` is reported as ``name``."""

    owner: object
    attr: str
    name: str
    keep_spans: bool = True
    after: Callable | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0


class _Frame:
    __slots__ = ("child", "span_id")

    def __init__(self, span_id: int | None):
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Spans and totals for one traced window; single-threaded use only."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.active: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.paused = False
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            setattr(target.owner, target.attr, self._wrap(original, target))
            self._patches.append((target.owner, target.attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            return self._call(fn, target, args, kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _call(self, fn, target: Target, args, kwargs):
        clock = time.perf_counter
        span_id = len(self.spans) if target.keep_spans else None
        if target.keep_spans:
            self.spans.append(None)  # reserve the id; filled on return
        frame = _Frame(span_id)
        self._stack.append(frame)
        self.active[target.name] += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            self.active[target.name] -= 1
            busy = end - start
            stat = self.stats[target.name]
            stat.calls += 1
            stat.busy_s += busy
            self.layer_self[target.layer] += busy - frame.child
            if self._stack:
                self._stack[-1].child += busy
            if span_id is not None:
                self.spans[span_id] = (span_id, target.name, start, end, self._parent_span())
        if target.after is not None:
            h0 = clock()
            target.after(self, args, kwargs, result, busy)
            if self._stack:
                # hook time is the tracer's own: hide it from the enclosing frame
                self._stack[-1].child += clock() - h0
        return result

    def _parent_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span_id is not None:
                return frame.span_id
        return None

    # -- queries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def busy(self, name: str) -> float:
        return self.stats[name].busy_s if name in self.stats else 0.0

    def write_spans(self, path: str) -> None:
        """One JSON object per kept span: id, name, start/end (s), parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# hooks: counts read off arguments and results
# ---------------------------------------------------------------------------


def _count_tape_nodes(tracer: Tracer, args, kwargs, result, busy) -> None:
    # backward leaves the tape in place, so it can be walked afterwards
    loss = args[0]
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.counters["numerics.tape_nodes"] += len(seen)


def _inside_chart(counter: str):
    def hook(tracer: Tracer, args, kwargs, result, busy) -> None:
        if tracer.active["spanrep.build_sci_chart"]:
            tracer.counters[counter] += 1

    return hook


def _decoder_positions(tracer: Tracer, args, kwargs, result, busy) -> None:
    if tracer.active["encoder.greedy_decode"]:
        rows, cols = args[1].shape
        tracer.counters["encoder.decode.positions"] += rows * cols


def _decoded_tokens(tracer: Tracer, args, kwargs, result, busy) -> None:
    model, max_new = args[0], args[2] if len(args) > 2 else kwargs["max_new"]
    limit = min(max_new, model.config.max_len - 1)
    # a sequence shorter than the limit stopped at EOS, which counts as useful
    tracer.counters["encoder.decode.useful_tokens"] += sum(
        min(len(out) + 1, limit) for out in result
    )


def _checkpoint_bytes(tracer: Tracer, args, kwargs, result, busy) -> None:
    path = args[0]
    tracer.counters["encoder.load_checkpoint.bytes"] += sum(
        os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
    )


def _chart_by_threshold(tracer: Tracer, args, kwargs, result, busy) -> None:
    layers = args[0].config.enc_layers
    t = result.threshold
    key = "tL" if t == layers else f"t{t}"
    spans = result.n * (result.n + 1) // 2
    tracer.counters["spanrep.spans"] += spans
    tracer.counters[f"spanrep.spans.{key}"] += spans
    tracer.counters[f"spanrep.busy.{key}"] += busy


_EXACT_MATCH_SIG = inspect.signature(training.exact_match_accuracy)


def _examples_scored(tracer: Tracer, args, kwargs, result, busy) -> None:
    bound = _EXACT_MATCH_SIG.bind(*args, **kwargs)
    examples = bound.arguments["examples"]
    limit = bound.arguments.get("limit")
    tracer.counters["training.exact_match_accuracy.examples"] += len(
        examples[:limit] if limit else examples
    )


# ---------------------------------------------------------------------------
# what is wrapped, and where
# ---------------------------------------------------------------------------


def setup_targets() -> list[Target]:
    """Set-up only reads data; the benchmark calls these through ``datasets``."""
    return [
        Target(datasets, name, f"datasets.{name}")
        for name in ("generate_expressions", "make_cg_split", "save_corpus", "load_corpus")
    ]


def run_targets() -> list[Target]:
    """Everything timed inside a measured window."""
    targets = [
        Target(encoder, k, f"numerics.{k}", keep_spans=False) for k in KERNELS
    ]
    targets += [
        Target(spanrep, "cosine_distance", "numerics.cosine_distance", keep_spans=False),
        Target(training, "backward", "numerics.backward", after=_count_tape_nodes),
        Target(training, "optimizer_step", "numerics.optimizer_step"),
        Target(TransformerModel, "seq2seq_loss", "encoder.seq2seq_loss"),
        Target(
            TransformerModel,
            "encoder_block",
            "encoder.encoder_block",
            keep_spans=False,
            after=_inside_chart("encoder.encoder_block.in_chart"),
        ),
        Target(
            TransformerModel,
            "encoder_states_t",
            "encoder.encoder_states_t",
            after=_inside_chart("encoder.encoder_states_t.in_chart"),
        ),
        Target(
            TransformerModel,
            "decoder_logits",
            "encoder.decoder_logits",
            keep_spans=False,
            after=_decoder_positions,
        ),
        Target(TransformerModel, "greedy_decode", "encoder.greedy_decode", after=_decoded_tokens),
        Target(encoder, "load_checkpoint", "encoder.load_checkpoint", after=_checkpoint_bytes),
        Target(training, "save_checkpoint", "encoder.save_checkpoint"),
        Target(spanrep, "build_sci_chart", "spanrep.build_sci_chart", after=_chart_by_threshold),
        Target(
            experiments, "build_sci_chart", "spanrep.build_sci_chart", after=_chart_by_threshold
        ),
        Target(projector, "greedy_project", "projector.greedy_project"),
        Target(projector, "exact_project", "projector.exact_project"),
        Target(experiments, "exact_project", "projector.exact_project"),
        Target(experiments, "t_score", "projector.t_score"),
        Target(treeval, "corpus_parseval", "treeval.corpus_parseval"),
        Target(training, "train_seq2seq", "training.train_seq2seq"),
        Target(
            training,
            "exact_match_accuracy",
            "training.exact_match_accuracy",
            after=_examples_scored,
        ),
        Target(
            experiments,
            "exact_match_accuracy",
            "training.exact_match_accuracy",
            after=_examples_scored,
        ),
        Target(experiments, "dynamics_report", "experiments.dynamics_report"),
        Target(experiments, "tune_threshold", "experiments.tune_threshold"),
        Target(experiments, "evaluate_checkpoint", "experiments.evaluate_checkpoint"),
        Target(experiments, "write_dynamics_csv", "experiments.write_dynamics_csv"),
    ]
    return targets


_INFERENCE = tuple(f"numerics.{k}" for k in KERNELS if k != "cross_entropy")
_SETUP = ("datasets.generate_expressions", "datasets.load_corpus")
_CHARTS = (
    "numerics.cosine_distance",
    "encoder.encoder_block",
    "encoder.encoder_states_t",
    "spanrep.build_sci_chart",
    "projector.greedy_project",
    "projector.exact_project",
)

# Wrappers that must record calls on each workload; a refactor that routes
# around one would otherwise empty its layer without notice.
MUST_FIRE = {
    "train": _INFERENCE + _SETUP + (
        "numerics.cross_entropy",
        "numerics.backward",
        "numerics.optimizer_step",
        "encoder.seq2seq_loss",
        "encoder.encoder_block",
        "encoder.encoder_states_t",
        "encoder.decoder_logits",
        "encoder.greedy_decode",
        "training.train_seq2seq",
        "training.exact_match_accuracy",
    ),
    "dynamics": _INFERENCE + _SETUP + _CHARTS + (
        "encoder.decoder_logits",
        "encoder.greedy_decode",
        "encoder.load_checkpoint",
        "projector.t_score",
        "treeval.corpus_parseval",
        "training.exact_match_accuracy",
        "experiments.dynamics_report",
        "experiments.tune_threshold",
        "experiments.evaluate_checkpoint",
        "experiments.write_dynamics_csv",
    ),
    "charts_long": _INFERENCE + _SETUP + _CHARTS,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, run: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit).  A layer that did no work reads 0."""
    c = run.counters
    steps = run.calls("numerics.optimizer_step")
    charts = run.calls("spanrep.build_sci_chart")
    m: dict[str, tuple[float, str]] = {
        "numerics.backward.ms_per_step": (_ratio(run.busy("numerics.backward"), steps) * 1e3, "ms"),
        "numerics.optimizer_step.ms_per_step": (
            _ratio(run.busy("numerics.optimizer_step"), steps) * 1e3,
            "ms",
        ),
        "numerics.tape_nodes_per_step": (
            _ratio(c["numerics.tape_nodes"], run.calls("numerics.backward")),
            "count",
        ),
    }
    for k in KERNELS + ("cosine_distance",):
        m[f"numerics.{k}.busy_s"] = (run.busy(f"numerics.{k}"), "s")
        m[f"numerics.{k}.calls"] = (float(run.calls(f"numerics.{k}")), "count")
    m.update(
        {
            "encoder.seq2seq_loss.ms_per_step": (
                _ratio(run.busy("encoder.seq2seq_loss"), steps) * 1e3,
                "ms",
            ),
            "encoder.encoder_block.calls_per_span": (
                _ratio(c["encoder.encoder_block.in_chart"], c["spanrep.spans"]),
                "count",
            ),
            "encoder.encoder_states_t.calls_per_chart": (
                _ratio(c["encoder.encoder_states_t.in_chart"], charts),
                "count",
            ),
            "encoder.decode.tokens_per_s": (
                _ratio(c["encoder.decode.useful_tokens"], run.busy("encoder.greedy_decode")),
                "1/s",
            ),
            "encoder.decode.useful_token_frac": (
                _ratio(c["encoder.decode.useful_tokens"], c["encoder.decode.positions"]),
                "ratio",
            ),
            "encoder.load_checkpoint.ms": (
                _ratio(run.busy("encoder.load_checkpoint"), run.calls("encoder.load_checkpoint"))
                * 1e3,
                "ms",
            ),
            "encoder.load_checkpoint.bytes": (
                _ratio(c["encoder.load_checkpoint.bytes"], run.calls("encoder.load_checkpoint")),
                "bytes",
            ),
        }
    )
    for key in ("t0", "t1", "tL"):
        m[f"spanrep.build_sci_chart.us_per_span.{key}"] = (
            _ratio(c[f"spanrep.busy.{key}"], c[f"spanrep.spans.{key}"]) * 1e6,
            "us",
        )
    m["spanrep.build_sci_chart.calls"] = (float(charts), "count")
    m["spanrep.build_sci_chart.spans"] = (c["spanrep.spans"], "count")
    for name in ("exact_project", "greedy_project"):
        full = f"projector.{name}"
        m[f"{full}.ms_per_chart"] = (_ratio(run.busy(full), run.calls(full)) * 1e3, "ms")
    m["projector.t_score.busy_s"] = (run.busy("projector.t_score"), "s")
    m["training.exact_match_accuracy.busy_s"] = (run.busy("training.exact_match_accuracy"), "s")
    m["training.exact_match_accuracy.examples"] = (
        c["training.exact_match_accuracy.examples"],
        "count",
    )
    m["experiments.tune_threshold.busy_s"] = (run.busy("experiments.tune_threshold"), "s")
    m["experiments.evaluate_checkpoint.busy_s"] = (
        run.busy("experiments.evaluate_checkpoint"),
        "s",
    )
    m["treeval.corpus_parseval.busy_s"] = (run.busy("treeval.corpus_parseval"), "s")
    for name in ("generate_expressions", "load_corpus"):
        full = f"datasets.{name}"
        m[f"{full}.s"] = (_ratio(setup.busy(full), setup.calls(full)), "s")
    for layer in LAYERS:
        source = setup if layer == "datasets" else run
        m[f"{layer}.self_s"] = (source.layer_self[layer], "s")
    # one client, one operation in flight, one BLAS thread: nothing queues
    m["trace.wait_s"] = (0.0, "s")
    m["trace.spans"] = (float(len(run.spans)), "count")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
