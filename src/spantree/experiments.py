"""Analysis experiments: perturbation study, repeated-span gap, dynamics.

The perturbation study injects Gaussian noise into one word's layer-0 vector
and measures how much another word w moves at the final layer, comparing a
same-constituent perturbation against an equally distant perturbation outside
w's constituent.  The gap study checks, on spans that recur across
sentences, how far the model's bare-span ("context-free") vector sits from
the analytic best single vector for that span's contextual occurrences.  The
dynamics report sweeps a checkpoint series, projecting trees from SCI charts
at each checkpoint and correlating tree-structuredness with training step
and generalization accuracy.  Those correlations (``rho_cg_*``) compare
checkpoints of one training run; they are not the paper's comparison of
tree-structuredness across separately trained models.

Every sampling decision draws from generators seeded by the run seed only,
never by the checkpoint step, so identical weights always produce identical
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import treeval, trees
from .datasets import Corpus, Vocab
from .encoder import LayerMask, TransformerModel
from .errors import ContractViolation
from .numerics import cosine_distance
from .projector import exact_project, t_score
from .spanrep import Span, build_sci_chart, contextual_span_vector
from .stats import spearman, welch_ttest
from .training import (
    CheckpointInfo,
    exact_match_accuracy,
    masked_prediction_accuracy,
    train_probe,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# perturbation analysis
# ---------------------------------------------------------------------------


@dataclass
class PerturbationArm:
    """Aggregates for one arm (tree-derived or random-control constituents)."""

    delta_ic: float
    delta_oc: float
    relative_difference: float
    t_stat: float
    p_value: float
    n_pairs: int
    # one row per sampled pair: (sentence index, distance k, d_ic, d_oc)
    samples: list[tuple[int, int, float, float]] = field(default_factory=list)


@dataclass
class PerturbationReport:
    main: PerturbationArm
    control: PerturbationArm
    sigma2: float
    tuples_main: int
    tuples_control: int


def _valid_tuples(n: int, tree) -> list[tuple[tuple[int, int], int, int, int, int]]:
    """All (constituent, w, j_in, j_out, k) with matched in/out distances.

    j_in lies inside w's constituent c, j_out outside it, both exactly k
    positions from w.  Constituents spanning the whole sentence admit no
    j_out and so contribute nothing.
    """
    out = []
    for a, b in trees.brackets(tree, include_root=True):
        for w in range(a, b + 1):
            for j_in in range(a, b + 1):
                if j_in == w:
                    continue
                k = abs(j_in - w)
                for j_out in (w - k, w + k):
                    if 0 <= j_out < n and not a <= j_out <= b:
                        out.append(((a, b), w, j_in, j_out, k))
    return out


def _final_states(model: TransformerModel, ids, mask, delta=None) -> Array:
    return model.encode(ids, mask=mask, layer0_delta=delta)[-1]


def _relative_difference(mean_ic: float, mean_oc: float) -> float:
    denom = (mean_ic + mean_oc) / 2.0
    if denom == 0.0:
        return 0.0
    return (mean_ic - mean_oc) / denom


def _run_arm(
    model: TransformerModel,
    sentences: list[list[int]],
    sentence_trees: list,
    masks: list[LayerMask | None],
    sigma2: float,
    pairs: int,
    rng: np.random.Generator,
) -> tuple[PerturbationArm, int]:
    d = model.config.d_model
    pool = []
    for s_idx, (ids, tree) in enumerate(zip(sentences, sentence_trees)):
        for tup in _valid_tuples(len(ids), tree):
            pool.append((s_idx, tup))
    if not pool:
        raise ContractViolation("perturbation analysis found no valid (w, c, k) tuples")
    clean = {}
    for s_idx, ids in enumerate(sentences):
        clean[s_idx] = _final_states(model, ids, masks[s_idx])
    d_ic = np.zeros(pairs)
    d_oc = np.zeros(pairs)
    samples = []
    choice = rng.integers(0, len(pool), size=pairs)
    for p in range(pairs):
        s_idx, ((a, b), w, j_in, j_out, k) = pool[choice[p]]
        ids = sentences[s_idx]
        eps = rng.normal(0.0, math.sqrt(sigma2), size=d) if sigma2 > 0 else np.zeros(d)
        base = clean[s_idx][w]
        for arm, j in (("ic", j_in), ("oc", j_out)):
            delta = np.zeros((len(ids), d))
            delta[j] = eps
            moved = _final_states(model, ids, masks[s_idx], delta)[w]
            dist = float(np.linalg.norm(moved - base))
            if arm == "ic":
                d_ic[p] = dist
            else:
                d_oc[p] = dist
        samples.append((s_idx, k, float(d_ic[p]), float(d_oc[p])))
    t_stat, p_value = welch_ttest(d_ic, d_oc)
    arm = PerturbationArm(
        delta_ic=float(d_ic.mean()),
        delta_oc=float(d_oc.mean()),
        relative_difference=_relative_difference(float(d_ic.mean()), float(d_oc.mean())),
        t_stat=t_stat,
        p_value=p_value,
        n_pairs=pairs,
        samples=samples,
    )
    return arm, len(pool)


def perturbation_analysis(
    model: TransformerModel,
    sentences: list[list[int]],
    sentence_trees: list,
    sigma2: float = 0.01,
    pairs: int = 500,
    seed: int = 0,
    masks: list[LayerMask] | None = None,
) -> PerturbationReport:
    """Noise a word inside vs. outside w's constituent; compare w's movement.

    For each sampled tuple one noise vector ~ N(0, sigma2*I) is added to the
    layer-0 state of the in-constituent word and, separately, to an
    out-of-constituent word at the same distance from w; the two L2
    displacements of w's final vector form one paired sample.  The control
    arm repeats everything with constituents read off random trees instead
    of the given ones.  Per-sentence ``masks`` restrict the encoder, which is
    how the hard-partitioned oracle setting is built.
    """
    if len(sentences) != len(sentence_trees):
        raise ContractViolation("sentences and trees differ in length")
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ContractViolation(f"sigma2 must be finite and >= 0, got {sigma2}")
    if pairs < 2:
        raise ContractViolation(f"pairs must be >= 2 for a t-test, got {pairs}")
    if masks is None:
        masks = [None] * len(sentences)
    elif len(masks) != len(sentences):
        raise ContractViolation("per-sentence masks differ in length from sentences")
    for ids, tree in zip(sentences, sentence_trees):
        trees.validate_tree(tree, len(ids))

    rng = np.random.default_rng([seed, 11])
    main, n_main = _run_arm(
        model, sentences, sentence_trees, masks, sigma2, pairs, rng
    )
    control_rng = np.random.default_rng([seed, 12])
    control_trees = [
        trees.random_tree(len(ids), control_rng) for ids in sentences
    ]
    control, n_control = _run_arm(
        model, sentences, control_trees, masks, sigma2, pairs, control_rng
    )
    return PerturbationReport(
        main=main,
        control=control,
        sigma2=sigma2,
        tuples_main=n_main,
        tuples_control=n_control,
    )


def write_perturb_csv(report: PerturbationReport, path: str) -> None:
    """Pair-level samples; `control` marks the random-tree arm."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sentence,k,delta_ic,delta_oc,control\n")
        for is_control, arm in ((0, report.main), (1, report.control)):
            for s_idx, k, dic, doc in arm.samples:
                fh.write(f"{s_idx},{k},{dic!r},{doc!r},{is_control}\n")


# ---------------------------------------------------------------------------
# repeated-span gap (single best vector vs. bare-span vector)
# ---------------------------------------------------------------------------


@dataclass
class GapRecord:
    tokens: tuple
    occurrences: int
    gap: float
    control_gap: float
    sum_to_vstar: float
    sum_to_vtilde: float


@dataclass
class GapReport:
    records: list[GapRecord]
    skipped_single: int
    distinct_repeated: int


def closed_form_vstar(vectors: list[Array]) -> Array:
    """Minimizer of sum_i cosine_distance(v_i, u): mean of normalized v_i.

    Any positive rescaling of the result is equally optimal; the mean of
    unit vectors is the conventional representative.
    """
    if not vectors:
        raise ContractViolation("closed_form_vstar: no vectors")
    unit = []
    for v in vectors:
        norm = float(np.linalg.norm(v))
        if norm < 1e-12:
            raise ContractViolation("closed_form_vstar: zero-norm vector")
        unit.append(np.asarray(v, dtype=np.float64) / norm)
    return np.mean(unit, axis=0)


def cumulative_cosine(vectors: list[Array], u: Array) -> float:
    return float(sum(cosine_distance(v, u) for v in vectors))


# Shortest span the gap study samples.
GAP_MIN_LEN = 2


def bare_span_vector(model: TransformerModel, span_ids: list[int]) -> Array:
    """The span encoded alone, mean-pooled: its canonical context-free vector.

    Encoding the span as its own sequence fixes the positions to 0..m-1, so
    every occurrence of the same token content maps to one vector.
    """
    states = model.encode(span_ids)
    return contextual_span_vector(states, Span(0, len(span_ids) - 1))


def assumption_gap(
    model: TransformerModel,
    sentences: list[list[str]],
    span_samples: int = 50,
    seed: int = 0,
) -> GapReport:
    """Distance between the best single span vector and the bare-span vector.

    For each sampled token span of at least GAP_MIN_LEN tokens occurring in
    >= 2 sentences: collect the contextual span vector of every occurrence,
    form the closed-form optimum v* (mean of normalized vectors), and report
    cosine_distance(v*, bare-span vector), alongside a control distance from
    a random other span's contextual vector to the same bare-span vector.
    Spans seen only once are skipped and counted.
    """
    if not sentences:
        raise ContractViolation("assumption_gap: no sentences")
    if span_samples < 1:
        raise ContractViolation(f"span_samples must be >= 1, got {span_samples}")
    vocab = model.vocab
    encoded = [vocab.encode(toks) for toks in sentences]
    occurrences: dict[tuple, list[tuple[int, int]]] = {}
    for s_idx, toks in enumerate(sentences):
        n = len(toks)
        for length in range(GAP_MIN_LEN, n + 1):
            for start in range(0, n - length + 1):
                key = tuple(toks[start : start + length])
                occurrences.setdefault(key, []).append((s_idx, start))
    repeated = {
        key: locs
        for key, locs in occurrences.items()
        if len({s for s, _ in locs}) >= 2
    }
    skipped = len(occurrences) - len(repeated)
    if not repeated:
        raise ContractViolation("assumption_gap: no span occurs in >= 2 sentences")
    rng = np.random.default_rng([seed, 21])
    keys = sorted(repeated)
    if len(keys) > span_samples:
        pick = rng.choice(len(keys), size=span_samples, replace=False)
        keys = [keys[i] for i in sorted(pick)]
    finals: dict[int, Array] = {}

    def final_of(s_idx: int) -> Array:
        if s_idx not in finals:
            finals[s_idx] = np.asarray(model.encode(encoded[s_idx])[-1])
        return finals[s_idx]

    all_keys = sorted(occurrences)
    records = []
    for key in keys:
        locs = repeated[key]
        vectors = [
            contextual_span_vector(
                [final_of(s_idx)], Span(start, start + len(key) - 1)
            )
            for s_idx, start in locs
        ]
        vstar = closed_form_vstar(vectors)
        vtilde = bare_span_vector(model, vocab.encode(list(key)))
        others = [k for k in all_keys if k != key]
        control_gap = float("nan")
        if others:
            other = others[int(rng.integers(0, len(others)))]
            s_idx, start = occurrences[other][
                int(rng.integers(0, len(occurrences[other])))
            ]
            control_vec = contextual_span_vector(
                [final_of(s_idx)], Span(start, start + len(other) - 1)
            )
            control_gap = cosine_distance(control_vec, vtilde)
        records.append(
            GapRecord(
                tokens=key,
                occurrences=len(locs),
                gap=cosine_distance(vstar, vtilde),
                control_gap=control_gap,
                sum_to_vstar=cumulative_cosine(vectors, vstar),
                sum_to_vtilde=cumulative_cosine(vectors, vtilde),
            )
        )
    return GapReport(
        records=records, skipped_single=skipped, distinct_repeated=len(repeated)
    )


def write_gap_csv(report: GapReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("span,occurrences,gap,control_gap\n")
        for rec in report.records:
            span = " ".join(str(t) for t in rec.tokens)
            fh.write(f"{span},{rec.occurrences},{rec.gap!r},{rec.control_gap!r}\n")


# ---------------------------------------------------------------------------
# training-dynamics report
# ---------------------------------------------------------------------------


@dataclass
class DynamicsRecord:
    step: int
    t_score: float
    t_parseval: float | None
    p_parseval: float | None
    iid_acc: float
    cg_acc: float
    threshold: int


@dataclass
class DynamicsResult:
    records: list[DynamicsRecord]
    correlations: dict[str, tuple[float, float]]


THRESHOLD_MODES = ("fixed", "parseval", "score")


def _charts_for(model, examples, vocab, t, limit):
    subset = examples[:limit]
    return subset, [
        build_sci_chart(model, vocab.encode(ex.source), t) for ex in subset
    ]


def _t_parseval(charts, subset) -> float | None:
    # the induced tree is the argmin of cumulative SCI; at these sentence
    # lengths the exact DP is cheap, so score it rather than the greedy
    # approximation (t_score keeps greedy, whose baseline defines it)
    pairs = [
        (exact_project(chart)[0], ex.tree)
        for chart, ex in zip(charts, subset)
        if ex.tree is not None
    ]
    if not pairs:
        return None
    return treeval.corpus_parseval(pairs)[2]


def tune_threshold(
    model: TransformerModel,
    examples,
    vocab: Vocab,
    mode: str,
    samples_per_node: int = 4,
    seed: int = 0,
    limit: int = 16,
) -> int:
    """Grid-search t in [0, L] maximizing train t_parseval or t_score."""
    if mode not in ("parseval", "score"):
        raise ContractViolation(f"tune_threshold: bad mode {mode!r}")
    best_t, best_val = 0, -math.inf
    for t in range(model.config.enc_layers + 1):
        subset, charts = _charts_for(model, examples, vocab, t, limit)
        if mode == "parseval":
            val = _t_parseval(charts, subset)
            if val is None:
                raise ContractViolation(
                    "threshold tuning by t_parseval needs gold trees"
                )
        else:
            val = t_score(
                charts, samples_per_node, rng=np.random.default_rng([seed, 31, t])
            )
        if val > best_val:
            best_t, best_val = t, val
    return best_t


def evaluate_checkpoint(
    model: TransformerModel,
    eval_examples,
    vocab: Vocab,
    t: int,
    samples_per_node: int = 4,
    seed: int = 0,
) -> tuple[float, float | None]:
    """(t_score, t_parseval) on the evaluation sentences at threshold t."""
    subset, charts = _charts_for(model, eval_examples, vocab, t, len(eval_examples))
    score = t_score(
        charts, samples_per_node, rng=np.random.default_rng([seed, 32])
    )
    return score, _t_parseval(charts, subset)


def _accuracy(model, examples, vocab, limit, seed) -> float:
    if model.task == "seq2seq":
        return exact_match_accuracy(model, examples, limit=limit)
    if model.task == "mlm":
        return masked_prediction_accuracy(
            model, [vocab.encode(ex.source) for ex in examples], seed=seed
        )
    raise ContractViolation(f"no accuracy measure for task {model.task!r}")


def dynamics_report(
    series: list[CheckpointInfo],
    corpus: Corpus,
    threshold_mode: str = "fixed",
    fixed_t: int = 1,
    eval_sentences: int = 40,
    tune_sentences: int = 16,
    samples_per_node: int = 4,
    seed: int = 0,
    eval_limit: int | None = 200,
    probe_steps: int = 0,
) -> DynamicsResult:
    """Per-checkpoint structure metrics plus rank correlations.

    Charts are built on a fixed slice of the iid-validation split; threshold
    modes: "fixed" uses ``fixed_t`` everywhere, "parseval" / "score" re-tune
    t per checkpoint on a train-split slice.  ``probe_steps`` > 0 trains a
    fresh bracketing probe per checkpoint for p_parseval (expensive, off by
    default).  Correlations: each metric against step, and against cg
    accuracy.  ``rho_cg_*`` ranks the checkpoints of this one run against
    each other; it is not the paper's comparison across separately trained
    models.
    """
    if len(series) < 3:
        raise ContractViolation("dynamics_report needs >= 3 checkpoints")
    if threshold_mode not in THRESHOLD_MODES:
        raise ContractViolation(f"unknown threshold mode {threshold_mode!r}")
    if eval_sentences < 1 or tune_sentences < 1:
        raise ContractViolation(
            f"eval and tune sentence counts must be >= 1, got {eval_sentences}, {tune_sentences}"
        )
    vocab = corpus.vocab
    eval_examples = corpus.iid_val[:eval_sentences]
    if not eval_examples:
        raise ContractViolation("dynamics_report: empty iid-val split")
    records = []
    for info in series:
        model = info.model
        if threshold_mode == "fixed":
            if not 0 <= fixed_t <= model.config.enc_layers:
                raise ContractViolation(
                    f"fixed threshold {fixed_t} outside [0, {model.config.enc_layers}]"
                )
            t = fixed_t
        else:
            t = tune_threshold(
                model,
                corpus.train,
                vocab,
                threshold_mode,
                samples_per_node,
                seed,
                tune_sentences,
            )
        score, tpars = evaluate_checkpoint(
            model, eval_examples, vocab, t, samples_per_node, seed
        )
        ppars = None
        if probe_steps > 0:
            result = train_probe(
                model,
                corpus.train,
                eval_examples,
                steps=probe_steps,
                seed=seed,
            )
            ppars = result.p_parseval
        iid = info.iid_acc
        if iid is None:
            iid = _accuracy(model, corpus.iid_val, vocab, eval_limit, seed)
        cg = info.cg_acc
        if cg is None:
            cg = _accuracy(model, corpus.cg_test, vocab, eval_limit, seed)
        records.append(
            DynamicsRecord(
                step=info.step,
                t_score=score,
                t_parseval=tpars,
                p_parseval=ppars,
                iid_acc=iid,
                cg_acc=cg,
                threshold=t,
            )
        )
    return DynamicsResult(records=records, correlations=_correlations(records))


def _correlations(records: list[DynamicsRecord]) -> dict[str, tuple[float, float]]:
    steps = [float(r.step) for r in records]
    cg = [r.cg_acc for r in records]
    out = {}

    def put(name, xs, ys):
        pairs = [(x, y) for x, y in zip(xs, ys) if x is not None and y is not None]
        if len(pairs) >= 3:
            out[name] = spearman([p[0] for p in pairs], [p[1] for p in pairs])

    t_scores = [r.t_score for r in records]
    t_pars = [r.t_parseval for r in records]
    p_pars = [r.p_parseval for r in records]
    iid = [r.iid_acc for r in records]
    put("rho_t_score_step", t_scores, steps)
    put("rho_t_parseval_step", t_pars, steps)
    put("rho_p_parseval_step", p_pars, steps)
    put("rho_cg_t_score", t_scores, cg)
    put("rho_cg_t_parseval", t_pars, cg)
    put("rho_cg_iid", iid, cg)
    return out


DYNAMICS_COLUMNS = (
    "step",
    "t_score",
    "t_parseval",
    "p_parseval",
    "iid_acc",
    "cg_acc",
    "threshold",
)


def write_dynamics_csv(records: list[DynamicsRecord], path: str) -> None:
    """Fixed-schema CSV; floats via repr so files are byte-stable per seed."""

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(DYNAMICS_COLUMNS) + "\n")
        for r in records:
            fh.write(
                ",".join(
                    cell(v)
                    for v in (
                        r.step,
                        r.t_score,
                        r.t_parseval,
                        r.p_parseval,
                        r.iid_acc,
                        r.cg_acc,
                        r.threshold,
                    )
                )
                + "\n"
            )
