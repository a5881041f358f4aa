"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup``, then serves
one operation at a time from ``op`` (closed loop, one client).  ``check``
verifies an operation's outputs outside the timed region and returns the
problems it found; an operation with a problem counts as failed.  ``digest``
hashes the outputs of operation 0, which depend only on the seed, so two
versions of the program can be compared for identical results.

Why each workload exists, and which layers it stresses, is in README.md next
to this file.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from spantree import datasets, encoder, experiments, projector, spanrep, training, trees
from spantree.cli import component_seed
from spantree.errors import ContractViolation
from spantree.numerics import cosine_distance


# Criterion 9's architecture, data and optimiser; every workload uses them.
ENC_LAYERS = 2
DEPTH = (1, 3)
ALPHABET = 10
LR = 1e-3
WARMUP = 300
# Nodes sampled per tree by dynamics_report's significance tests.
SAMPLES_PER_NODE = 4


def _config(vocab_size: int) -> encoder.EncoderConfig:
    return encoder.EncoderConfig(
        enc_layers=ENC_LAYERS, dec_layers=1, heads=4, d_model=32, d_ff=128,
        vocab_size=vocab_size, max_len=40,
    )


@dataclass(frozen=True)
class TrainSizes:
    """Criterion 9's corpus, batch and checkpoint cadence, with 400 steps per op.

    400 steps at a checkpoint every 200 take each op past the warmup, with
    checkpoint evals at steps 0, 200 and 400.
    """

    examples: int = 2400
    steps: int = 400
    checkpoint_every: int = 200
    batch_size: int = 32
    eval_limit: int = 60


def _save_and_load(corpus: datasets.Corpus, work_dir: str) -> datasets.Corpus:
    """Round-trip a corpus through the on-disk format, as the CLI does."""
    data_dir = os.path.join(work_dir, "data")
    datasets.save_corpus(corpus, data_dir)
    return datasets.load_corpus(data_dir)


def _transduction_split(seed: int, sizes: TrainSizes) -> datasets.Corpus:
    examples = datasets.generate_expressions(
        sizes.examples,
        depth_range=DEPTH,
        seed=component_seed(seed, "data"),
        alphabet_size=ALPHABET,
    )
    return datasets.make_cg_split(
        examples, datasets.DEFAULT_UNSEEN, seed=component_seed(seed, "split"), val_frac=0.1
    )


def _front_by_length(examples: list, lengths: tuple[int, ...]) -> list:
    """Move one example of each table length to the front, in table order.

    Chart cost grows with sentence length, and the dynamics stage reads only
    a prefix of each split; with the same lengths in that prefix for every
    seed, the cost of a checkpoint varies less between seeds than between
    versions of the program.  A length the split lacks takes the nearest
    one it has.
    """
    rest = list(examples)
    picks = []
    for n in lengths:
        j = min(range(len(rest)), key=lambda i: (abs(len(rest[i].source) - n), i))
        picks.append(rest.pop(j))
    return picks + rest


def _train(corpus, sizes: TrainSizes, seed: int, out_dir=None):
    return training.train_seq2seq(
        _config(len(corpus.vocab)),
        corpus,
        steps=sizes.steps,
        checkpoint_every=sizes.checkpoint_every,
        seed=seed,
        batch_size=sizes.batch_size,
        base_lr=LR,
        warmup_steps=WARMUP,
        eval_limit=sizes.eval_limit,
        out_dir=out_dir,
    )


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


class Train:
    """One op = one seeded ``train_seq2seq`` run with its checkpoint evals."""

    name = "train"
    aliases = {"work_per_s": "train.steps_per_s"}

    def __init__(self, seed: int, work_dir: str, sizes: TrainSizes = TrainSizes()):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes

    def setup(self) -> None:
        self.corpus = _save_and_load(_transduction_split(self.seed, self.sizes), self.work_dir)

    def op(self, i: int):
        return _train(self.corpus, self.sizes, component_seed(self.seed, f"train-{i}"))

    def work(self, series) -> float:
        return float(self.sizes.steps)

    def check(self, i: int, series) -> list[str]:
        problems = []
        expected = self.sizes.steps // self.sizes.checkpoint_every + 1
        if len(series) != expected:
            problems.append(f"{len(series)} checkpoints, expected {expected}")
        for info in series[1:]:
            if info.train_loss is None or not math.isfinite(info.train_loss):
                problems.append(f"loss at step {info.step} is {info.train_loss}")
        return problems

    def digest(self, series) -> str:
        """The loss trajectory and eval accuracies of op 0."""
        return _sha((info.step, info.train_loss, info.iid_acc, info.cg_acc) for info in series)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsSizes:
    """A 3-checkpoint series, 16 tune and 24 eval sentences of fixed lengths.

    The series runs to step 200, so its last checkpoint is past the stage
    where an undertrained model stops at EOS early on some seeds and
    decodes to the length limit on others.  The lengths are the quantiles
    (2k+1)/32 and (2k+1)/48 of source lengths over the train and iid-val
    splits of 30 seeds, 69,582 sentences.
    """

    series: TrainSizes = TrainSizes(steps=200, checkpoint_every=100)
    tune_lengths: tuple[int, ...] = (3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 9, 10, 12, 16)
    eval_lengths: tuple[int, ...] = (
        3, 3, 3, 3, 3, 4, 4, 5, 5, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 9, 11, 11, 12, 18,
    )
    eval_limit: int = 200


class Dynamics:
    """One op = load a stored checkpoint series and write its dynamics CSV."""

    name = "dynamics"
    aliases = {"work_per_s": "dynamics.checkpoints_per_s"}

    def __init__(self, seed: int, work_dir: str, sizes: DynamicsSizes = DynamicsSizes()):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes
        self.csv_path = os.path.join(work_dir, "dynamics.csv")
        self.first_csv: bytes | None = None

    def setup(self) -> None:
        split = _transduction_split(self.seed, self.sizes.series)
        split.train = _front_by_length(split.train, self.sizes.tune_lengths)
        split.iid_val = _front_by_length(split.iid_val, self.sizes.eval_lengths)
        self.corpus = _save_and_load(split, self.work_dir)
        series = _train(
            self.corpus,
            self.sizes.series,
            component_seed(self.seed, "series"),
            out_dir=os.path.join(self.work_dir, "series"),
        )
        self.paths = [info.path for info in series]

    def op(self, i: int):
        series = []
        for path in self.paths:
            model = encoder.load_checkpoint(path)
            series.append(training.CheckpointInfo(step=model.step, model=model))
        result = experiments.dynamics_report(
            series,
            self.corpus,
            threshold_mode="score",
            eval_sentences=len(self.sizes.eval_lengths),
            tune_sentences=len(self.sizes.tune_lengths),
            samples_per_node=SAMPLES_PER_NODE,
            seed=self.seed,
            eval_limit=self.sizes.eval_limit,
        )
        experiments.write_dynamics_csv(result.records, self.csv_path)
        return result

    def work(self, result) -> float:
        return float(len(result.records))

    def check(self, i: int, result) -> list[str]:
        problems = []
        if len(result.records) != len(self.paths):
            problems.append(f"{len(result.records)} records for {len(self.paths)} checkpoints")
        for r in result.records:
            if not math.isfinite(r.t_score):
                problems.append(f"t_score at step {r.step} is {r.t_score}")
            if not 0 <= r.threshold <= ENC_LAYERS:
                problems.append(f"threshold {r.threshold} at step {r.step} outside [0, L]")
        # every op reprocesses the same series: the report must not change
        with open(self.csv_path, "rb") as fh:
            csv = fh.read()
        if self.first_csv is None:
            self.first_csv = csv
        elif csv != self.first_csv:
            problems.append("dynamics CSV differs from the first op's")
        return problems

    def digest(self, result) -> str:
        """The dynamics CSV bytes of op 0."""
        path = os.path.join(self.work_dir, "digest.csv")
        experiments.write_dynamics_csv(result.records, path)
        with open(path, "rb") as fh:
            return _sha([fh.read()])


# ---------------------------------------------------------------------------
# charts_long
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartsSizes:
    candidates: int = 1000
    depth: tuple[int, int] = (4, 5)
    min_len: int = 16
    max_len: int = 40
    # The 20 quantiles (2k+1)/40 of the kept lengths, measured over 15,552
    # kept sentences from 40,000 draws.  A seed's own 400 kept sentences
    # give quantiles that differ by a few tokens at the top, and the cost of
    # the longest slots with them.
    lengths: tuple[int, ...] = (
        16, 16, 17, 17, 18, 19, 19, 20, 20, 21, 22, 22, 23, 24, 25, 26, 27, 30, 33, 37,
    )
    bitwise_samples: int = 2


class ChartsLong:
    """One op = one long sentence: its SCI chart, then greedy and exact trees.

    The (length, threshold) sequence is stratified: each of ``lengths`` is
    paired with every threshold in {0, 1, L}.  Chart cost depends only on
    length and threshold, so every seed does the same work per op while the
    token content comes from the seed.
    """

    name = "charts_long"
    aliases = {
        "work_per_s": "charts.spans_per_s",
        "op_ms_p50": "charts.sentence_ms_p50",
        "op_ms_p90": "charts.sentence_ms_p90",
    }

    def __init__(self, seed: int, work_dir: str, sizes: ChartsSizes = ChartsSizes()):
        self.seed, self.work_dir, self.sizes = seed, work_dir, sizes

    def setup(self) -> None:
        s = self.sizes
        kept: list[datasets.TransductionExample] = []
        batch = 0
        # the longest table lengths are rare: draw until each one occurs
        while not set(s.lengths) <= {len(ex.source) for ex in kept}:
            generated = datasets.generate_expressions(
                s.candidates, depth_range=s.depth, alphabet_size=ALPHABET,
                seed=component_seed(self.seed, f"charts-{batch}"),
            )
            kept += [ex for ex in generated if s.min_len <= len(ex.source) <= s.max_len]
            batch += 1
        corpus = _save_and_load(datasets.Corpus(train=kept, iid_val=[], cg_test=[]), self.work_dir)
        vocab = corpus.vocab
        self.net = encoder.TransformerModel(
            _config(len(vocab)), vocab, "seq2seq", rng=component_seed(self.seed, "model")
        )
        self.by_length: dict[int, list[list[int]]] = {}
        for ex in corpus.train:
            self.by_length.setdefault(len(ex.source), []).append(vocab.encode(ex.source))
        slots = [(n, t) for n in s.lengths for t in (0, 1, ENC_LAYERS)]
        # ordering slot j by the fractional part of j times the golden ratio
        # spreads lengths and thresholds evenly over every prefix of the
        # schedule, so a run that stops mid-pass still sees the whole mix
        order = sorted(range(len(slots)), key=lambda j: (j * 0.6180339887498949) % 1.0)
        self.schedule = [slots[j] for j in order]

    def sentence(self, i: int) -> tuple[list[int], int]:
        n, t = self.schedule[i % len(self.schedule)]
        bucket = self.by_length[n]
        # later passes over the schedule take the next sentence of that length
        return bucket[(i // len(self.schedule)) % len(bucket)], t

    def op(self, i: int):
        ids, t = self.sentence(i)
        chart = spanrep.build_sci_chart(self.net, ids, t)
        greedy = projector.greedy_project(chart, np.random.default_rng([self.seed, i]))
        exact_tree, exact_cost = projector.exact_project(chart)
        return chart, greedy, exact_tree, exact_cost

    def work(self, out) -> float:
        n = out[0].n
        return float(n * (n + 1) // 2)

    def check(self, i: int, out) -> list[str]:
        chart, greedy, exact_tree, exact_cost = out
        ids, t = self.sentence(i)
        n = len(ids)
        problems = []
        upper = chart.values[np.triu_indices(n)]
        if not np.isfinite(upper).all() or upper.min() < 0.0 or upper.max() > 2.0:
            problems.append("chart entry non-finite or outside [0, 2]")
        for label, tree in (("greedy", greedy.tree), ("exact", exact_tree)):
            try:
                trees.validate_tree(tree, n)
            except ContractViolation as exc:
                problems.append(f"{label} tree invalid: {exc}")
        if not exact_cost <= greedy.cumulative_sci + 1e-12:
            problems.append(f"exact cost {exact_cost} above greedy {greedy.cumulative_sci}")
        # the cached chart must equal the per-span route bit for bit
        rng = np.random.default_rng([self.seed, i, 7])
        states = self.net.encode(ids)
        for _ in range(self.sizes.bitwise_samples):
            a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
            naive = cosine_distance(
                spanrep.contextual_span_vector(states, (a, b)),
                spanrep.context_free_vector(self.net, ids, (a, b), t),
            )
            if naive != chart.values[a, b]:
                problems.append(
                    f"span ({a}, {b}) at t={t}: cached {chart.values[a, b]!r} != naive {naive!r}"
                )
        return problems

    def digest(self, out) -> str:
        """The chart bytes and both trees of op 0."""
        chart, greedy, exact_tree, exact_cost = out
        return _sha([chart.values.tobytes(), greedy.tree, exact_tree, exact_cost])


WORKLOADS = {w.name: w for w in (Train, Dynamics, ChartsLong)}
