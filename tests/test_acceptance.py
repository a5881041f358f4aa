"""Acceptance gate: eleven numbered end-to-end checks, one test each.

Every check prints "[acceptance] criterion N: PASS" (or FAIL) straight to the
terminal, bypassing capture, so the verdict survives into piped logs.  The
checks restate the component's load-bearing guarantees:

   1  autodiff kernels vs central finite differences (50 shapes, < 1 min)
   2  threshold-0 context-freeness is exact; threshold-L charts vanish
   3  prefix-cached charts == per-span naive recomputation, bit for bit
   4  exact DP parser == exhaustive enumeration; exact <= greedy; planted
      charts recovered perfectly by both parsers
   5  pooling, rescaling, and shift invariances of charts and parsers
   6  bracket-score conventions and lossless tree linearization
   7  block-diagonal oracle encoder: boundary split, shielded perturbations
   8  repeated-span optimum: the closed form is the minimizer it claims
   9  small-scale training run: structure scores rise with training
  10  rank correlation / location test vs independent oracle implementations
  11  two identical seeded command-line runs agree byte for byte
"""

import contextlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

from helpers import check_grads, kink_free
from spantree import numerics as nm
from spantree import stats, trees
from spantree.cli import SEED_ENV, component_seed
from spantree.datasets import DEFAULT_UNSEEN, Vocab, generate_expressions, make_cg_split
from spantree.encoder import EncoderConfig, LayerMask, TransformerModel
from spantree.experiments import (
    assumption_gap,
    closed_form_vstar,
    cumulative_cosine,
    dynamics_report,
    perturbation_analysis,
)
from spantree.numerics import cosine_distance
from spantree.projector import cumulative_sci, exact_project, greedy_project
from spantree.spanrep import (
    SciChart,
    build_sci_chart,
    context_free_vector,
    contextual_span_vector,
)
from spantree.training import train_seq2seq
from spantree.treeval import delinearize, linearize, parseval_f1

RESERVED = 5  # pad/bos/eos/mask/unk occupy the low ids of every Vocab


@contextlib.contextmanager
def criterion(num, capfd):
    """Emit the numbered verdict on the real stdout, win or lose."""
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"\n[acceptance] criterion {num}: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"\n[acceptance] criterion {num}: PASS", flush=True)


def fresh_model(n_tokens, enc_layers, d_model, heads, max_len, seed):
    vocab = Vocab([f"w{i}" for i in range(n_tokens)])
    config = EncoderConfig(
        enc_layers=enc_layers, dec_layers=1, heads=heads, d_model=d_model,
        d_ff=2 * d_model, vocab_size=len(vocab), max_len=max_len,
    )
    return TransformerModel(config, vocab, "seq2seq", rng=seed)


def random_chart(n, rng):
    return SciChart(n=n, threshold=1, values=np.triu(rng.random((n, n))))


def planted_chart(n, gold, lo=0.0, hi=0.5):
    spans = trees.brackets(gold, include_root=True)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = lo if (i, j) in spans else hi
    return SciChart(n=n, threshold=1, values=values)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite(capfd):
    with criterion(1, capfd):
        start = time.time()
        rng = np.random.default_rng(20260816)

        def weighted(op):
            cache = {}

            def build(*tensors):
                out = op(*tensors)
                w = cache.setdefault(out.value.shape, rng.standard_normal(out.value.shape))
                return nm.total_sum(nm.mul(out, nm.constant(w)))

            return build

        def dims(k, lo=2, hi=5):
            return tuple(int(rng.integers(lo, hi + 1)) for _ in range(k))

        def case_add():
            s = dims(int(rng.integers(1, 4)))
            return weighted(nm.add), [rng.standard_normal(s), rng.standard_normal(s)]

        def case_sub():
            s = dims(int(rng.integers(1, 4)))
            return weighted(nm.sub), [rng.standard_normal(s), rng.standard_normal(s)]

        def case_mul():
            s = dims(int(rng.integers(1, 4)))
            return weighted(nm.mul), [rng.standard_normal(s), rng.standard_normal(s)]

        def case_scale():
            s = dims(2)
            c = float(rng.uniform(0.5, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
            return weighted(lambda t: nm.scale(t, c)), [rng.standard_normal(s)]

        def case_matmul():
            if rng.random() < 0.5:
                a, k, b = dims(3)
                return weighted(nm.matmul), [
                    rng.standard_normal((a, k)), rng.standard_normal((k, b)),
                ]
            bt, a, k, b = dims(4, 2, 3)
            return weighted(nm.matmul), [
                rng.standard_normal((bt, a, k)), rng.standard_normal((bt, k, b)),
            ]

        def case_permute():
            s = dims(3)
            axes = tuple(int(x) for x in rng.permutation(3))
            return weighted(lambda t: nm.permute(t, axes)), [rng.standard_normal(s)]

        def case_reshape():
            a, b, c = dims(3)
            return weighted(lambda t: nm.reshape(t, (a * b, c))), [
                rng.standard_normal((a, b, c)),
            ]

        def case_relu():
            return weighted(nm.relu), [kink_free(rng, dims(2))]

        def case_embedding():
            v, d = int(rng.integers(4, 9)), int(rng.integers(2, 6))
            ids = rng.integers(0, v, size=(2, 3))
            return weighted(lambda t: nm.embedding(t, ids)), [rng.standard_normal((v, d))]

        def case_layer_norm():
            r, d = dims(2, 3, 6)
            x = rng.standard_normal((r, d))
            g = rng.standard_normal(d) * 0.4 + 1.0
            b = rng.standard_normal(d) * 0.2
            return weighted(nm.layer_norm), [x, g, b]

        def case_masked_softmax():
            r, c = dims(2, 3, 6)
            additive = np.where(rng.random((r, c)) < 0.3, nm.NEG_MASK, 0.0)
            additive[:, 0] = 0.0  # keep every row feasible
            return (
                weighted(lambda t: nm.masked_softmax(t, additive)),
                [rng.standard_normal((r, c))],
            )

        def case_cross_entropy():
            b, t, v = dims(3, 2, 4)
            targets = rng.integers(0, v, size=(b, t))
            weights = (rng.random((b, t)) < 0.8).astype(np.float64)
            weights.flat[0] = 1.0  # at least one active position
            return (
                lambda lg: nm.cross_entropy(lg, targets, weights),
                [rng.standard_normal((b, t, v))],
            )

        def case_total_sum():
            s = dims(int(rng.integers(1, 4)))
            return (lambda t: nm.total_sum(t)), [rng.standard_normal(s)]

        kernel_cases = [
            case_add, case_sub, case_mul, case_scale, case_matmul,
            case_permute, case_reshape, case_relu, case_embedding,
            case_layer_norm, case_masked_softmax, case_cross_entropy,
            case_total_sum,
        ]
        shapes_checked = 0
        for _ in range(4):
            for case in kernel_cases:
                build, inputs = case()
                check_grads(build, inputs, tol=1e-4)
                shapes_checked += 1
        assert shapes_checked >= 50
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 2. masking exactness
# ---------------------------------------------------------------------------


def test_criterion_02_masking_exactness(capfd):
    with criterion(2, capfd):
        start = time.time()
        model = fresh_model(n_tokens=16, enc_layers=2, d_model=16, heads=2,
                            max_len=14, seed=1)
        layers = model.config.enc_layers
        v = len(model.vocab)
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            tokens = rng.integers(RESERVED, v, size=n).tolist()
            for i in range(n):
                for j in range(i, n):
                    before = context_free_vector(model, tokens, (i, j), 0)
                    swapped = list(tokens)
                    for p in range(n):
                        if p < i or p > j:
                            new = int(rng.integers(RESERVED, v))
                            while new == swapped[p]:
                                new = int(rng.integers(RESERVED, v))
                            swapped[p] = new
                    after = context_free_vector(model, swapped, (i, j), 0)
                    assert np.array_equal(before, after)
            chart = build_sci_chart(model, tokens, t=layers)
            assert np.array_equal(chart.values, np.zeros((n, n)))
        assert time.time() - start < 60.0


# ---------------------------------------------------------------------------
# 3. caching equivalence
# ---------------------------------------------------------------------------


def test_criterion_03_caching_equivalence(capfd):
    with criterion(3, capfd):
        model = fresh_model(n_tokens=16, enc_layers=3, d_model=16, heads=2,
                            max_len=14, seed=2)
        layers = model.config.enc_layers
        v = len(model.vocab)
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            tokens = rng.integers(RESERVED, v, size=n).tolist()
            states = model.encode(tokens)
            for t in range(layers + 1):
                built = build_sci_chart(model, tokens, t)
                naive = np.zeros((n, n))
                for i in range(n):
                    for j in range(i, n):
                        contextual = contextual_span_vector(states, (i, j))
                        free = context_free_vector(model, tokens, (i, j), t)
                        naive[i, j] = cosine_distance(contextual, free)
                assert np.array_equal(built.values, naive)


# ---------------------------------------------------------------------------
# 4. parser oracle
# ---------------------------------------------------------------------------


def test_criterion_04_parser_oracle(capfd):
    with criterion(4, capfd):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            chart = random_chart(n, rng)
            dp_tree, dp_cost = exact_project(chart)
            trees.validate_tree(dp_tree, n)
            best_tree, best_cost = None, np.inf
            for cand in trees.enumerate_trees(n):
                c = cumulative_sci(chart, cand)
                if c < best_cost:
                    best_tree, best_cost = cand, c
            assert abs(dp_cost - best_cost) <= 1e-12
            assert dp_tree == best_tree
            assert abs(cumulative_sci(chart, dp_tree) - dp_cost) <= 1e-12
        for k in range(1000):
            n = int(rng.integers(2, 11))
            chart = random_chart(n, rng)
            _, dp_cost = exact_project(chart)
            assert dp_cost <= greedy_project(chart, rng=k).cumulative_sci + 1e-12
        for k in range(50):
            n = int(rng.integers(3, 11))
            gold = trees.random_tree(n, rng)
            chart = planted_chart(n, gold)
            assert parseval_f1(greedy_project(chart, rng=k).tree, gold) == (1.0, 1.0, 1.0)
            assert parseval_f1(exact_project(chart)[0], gold) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# 5. cosine equivalences
# ---------------------------------------------------------------------------


def test_criterion_05_cosine_equivalences(capfd):
    with criterion(5, capfd):
        model = fresh_model(n_tokens=16, enc_layers=2, d_model=16, heads=2,
                            max_len=14, seed=3)
        layers = model.config.enc_layers
        v = len(model.vocab)
        rng = np.random.default_rng(5)
        # give the final norm a nonzero shift so the rescale test below
        # exercises the general gain-and-bias form, not the zero-bias init
        model.params["enc.ln_f.b"].value[...] = rng.standard_normal(
            model.config.d_model) * 0.1

        for _ in range(6):
            n = int(rng.integers(3, 13))
            tokens = rng.integers(RESERVED, v, size=n).tolist()
            for t in range(layers + 1):
                mean_chart = build_sci_chart(model, tokens, t, pooling="mean")
                sum_chart = build_sci_chart(model, tokens, t, pooling="sum")
                assert np.abs(mean_chart.values - sum_chart.values).max() <= 1e-12

        scale_c = 3.7
        scaled = {
            name: nm.parameter(
                tensor.value * (scale_c if name in ("enc.ln_f.g", "enc.ln_f.b") else 1.0),
                name=name,
            )
            for name, tensor in model.params.items()
        }
        clone = TransformerModel(model.config, model.vocab, model.task, params=scaled)
        for _ in range(4):
            n = int(rng.integers(3, 13))
            tokens = rng.integers(RESERVED, v, size=n).tolist()
            for t in range(layers + 1):
                a = build_sci_chart(model, tokens, t).values
                b = build_sci_chart(clone, tokens, t).values
                assert np.abs(a - b).max() <= 1e-12
        x = rng.standard_normal(9)
        y = rng.standard_normal(9)
        assert abs(cosine_distance(3.0 * x, 5.0 * y) - cosine_distance(x, y)) <= 1e-12

        for k in range(30):
            n = int(rng.integers(3, 10))
            values = np.triu(rng.random((n, n)))
            chart = SciChart(n=n, threshold=1, values=values)
            shifted = SciChart(
                n=n, threshold=1, values=values + np.triu(np.full((n, n), 0.37)),
            )
            assert greedy_project(chart, rng=k).tree == greedy_project(shifted, rng=k).tree
            assert exact_project(chart)[0] == exact_project(shifted)[0]


# ---------------------------------------------------------------------------
# 6. bracket scoring and linearization
# ---------------------------------------------------------------------------


def test_criterion_06_parseval_conventions(capfd):
    with criterion(6, capfd):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 11))
            t = trees.random_tree(n, rng)
            assert parseval_f1(t, t) == (1.0, 1.0, 1.0)
        assert parseval_f1(trees.left_branching(4), trees.right_branching(4)) == (
            1 / 3, 1 / 3, 1 / 3,
        )
        count = 0
        for n in range(1, 9):
            tokens = [f"w{i}" for i in range(n)]
            for t in trees.enumerate_trees(n):
                got, repaired = delinearize(linearize(t, tokens))
                assert got == t and repaired is False
                count += 1
        assert count == 626  # sum of Catalan(0..7)


# ---------------------------------------------------------------------------
# 7. block-diagonal oracle encoder
# ---------------------------------------------------------------------------


def test_criterion_07_block_diagonal_oracle(capfd):
    with criterion(7, capfd):
        model = fresh_model(n_tokens=25, enc_layers=2, d_model=24, heads=2,
                            max_len=16, seed=11)
        v = len(model.vocab)
        rng = np.random.default_rng(77)
        hits = 0
        for trial in range(20):
            n = int(rng.integers(5, 13))
            boundary = int(rng.integers(2, n - 1))
            tokens = rng.integers(RESERVED, v, size=n).tolist()
            mask = LayerMask.block_diagonal(boundary, n)
            chart = build_sci_chart(model, tokens, t=0, contextual_mask=mask)
            hits += greedy_project(chart, rng=trial).split_trace[0].k == boundary - 1
        assert hits == 20

        probe = fresh_model(n_tokens=20, enc_layers=2, d_model=16, heads=2,
                            max_len=8, seed=9)
        pv = len(probe.vocab)
        rng2 = np.random.default_rng(8)
        sentences = [rng2.integers(RESERVED, pv, size=4).tolist() for _ in range(6)]
        gold = [((0, 1), (2, 3))] * 6
        masks = [LayerMask.block_diagonal(2, 4)] * 6
        report = perturbation_analysis(
            probe, sentences, gold, sigma2=0.01, pairs=200, seed=4, masks=masks,
        )
        assert report.main.delta_oc == 0.0
        assert report.main.delta_ic > 0.0
        assert report.main.n_pairs == 200
        assert report.main.p_value < 1e-4


# ---------------------------------------------------------------------------
# 8. repeated-span optimum
# ---------------------------------------------------------------------------


def test_criterion_08_repeated_span_optimum(capfd):
    with criterion(8, capfd):
        model = fresh_model(n_tokens=12, enc_layers=2, d_model=16, heads=2,
                            max_len=12, seed=13)
        names = [f"w{i}" for i in range(12)]
        rng = np.random.default_rng(3)
        phrases = set()
        while len(phrases) < 10:
            k = int(rng.integers(2, 4))
            phrases.add(tuple(rng.choice(names, size=k)))
        sentences = []
        for phrase in sorted(phrases):
            for _ in range(3):
                pre = rng.choice(names, size=int(rng.integers(1, 4))).tolist()
                suf = rng.choice(names, size=int(rng.integers(1, 4))).tolist()
                sentences.append(pre + list(phrase) + suf)
        report = assumption_gap(model, sentences, span_samples=40, seed=0)
        assert len(report.records) >= 20
        for rec in report.records:
            assert rec.sum_to_vstar <= rec.sum_to_vtilde

        # independent route: projected gradient descent on the unit sphere
        for _ in range(25):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(4, 25))
            vectors = [rng.standard_normal(d) for _ in range(k)]
            vstar = closed_form_vstar(vectors)
            vhat = np.stack([vec / np.linalg.norm(vec) for vec in vectors])
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            for _ in range(4000):
                grad = -(vhat - (vhat @ u)[:, None] * u).sum(axis=0)
                u = u - 0.05 * grad
                u /= np.linalg.norm(u)
            assert abs(
                cumulative_cosine(vectors, vstar) - cumulative_cosine(vectors, u)
            ) <= 1e-6


# ---------------------------------------------------------------------------
# 9. training-dynamics trend
# ---------------------------------------------------------------------------


def test_criterion_09_training_dynamics_trend(capfd):
    with criterion(9, capfd):
        examples = generate_expressions(
            2400, depth_range=(1, 3), seed=component_seed(0, "data"),
            alphabet_size=10,
        )
        corpus = make_cg_split(
            examples, DEFAULT_UNSEEN, seed=component_seed(0, "split"), val_frac=0.1,
        )
        config = EncoderConfig(
            enc_layers=2, dec_layers=1, heads=4, d_model=32, d_ff=128,
            vocab_size=len(corpus.vocab), max_len=40,
        )
        rho_ok = 0
        parseval_ok = 0
        for seed in (0, 1, 2):
            start = time.time()
            series = train_seq2seq(
                config, corpus, steps=3000, checkpoint_every=200, seed=seed,
                batch_size=32, base_lr=1e-3, warmup_steps=300, eval_limit=60,
            )
            result = dynamics_report(
                series, corpus, threshold_mode="fixed", fixed_t=1,
                eval_sentences=24, samples_per_node=4, seed=0,
            )
            assert time.time() - start <= 900.0
            assert len(series) == 16
            rho, p = result.correlations["rho_t_score_step"]
            if rho > 0.0 and p < 0.05:
                rho_ok += 1
            first, last = result.records[0], result.records[-1]
            if (
                first.t_parseval is not None
                and last.t_parseval is not None
                and last.t_parseval >= first.t_parseval
            ):
                parseval_ok += 1
        assert rho_ok >= 2
        assert parseval_ok >= 2


# ---------------------------------------------------------------------------
# 10. statistics vs independent oracles
# ---------------------------------------------------------------------------


def test_criterion_10_statistics_vs_oracles(capfd):
    with criterion(10, capfd):
        rng = np.random.default_rng(1010)
        for _ in range(100):
            n = int(rng.integers(5, 41))
            xs = rng.standard_normal(n)
            ys = 0.5 * xs + rng.standard_normal(n)
            rho, p = stats.spearman(xs, ys)
            oracle = scipy.stats.spearmanr(xs, ys)
            assert abs(rho - oracle.statistic) <= 1e-6
            assert abs(p - oracle.pvalue) <= 1e-6
            # classic rank-difference formula (continuous draws: tie-free)
            rx = np.argsort(np.argsort(xs)) + 1.0
            ry = np.argsort(np.argsort(ys)) + 1.0
            classic = 1.0 - 6.0 * float(((rx - ry) ** 2).sum()) / (n * (n * n - 1.0))
            assert abs(rho - classic) <= 1e-6

            na, nb = int(rng.integers(5, 31)), int(rng.integers(5, 31))
            a = rng.standard_normal(na) * float(rng.uniform(0.5, 2.0)) + float(rng.uniform(-1, 1))
            b = rng.standard_normal(nb) * float(rng.uniform(0.5, 2.0)) + float(rng.uniform(-1, 1))
            t2, p2 = stats.welch_ttest(a, b)
            o2 = scipy.stats.ttest_ind(a, b, equal_var=False)
            assert abs(t2 - o2.statistic) <= 1e-6
            assert abs(p2 - o2.pvalue) <= 1e-6
            t1, p1 = stats.welch_ttest(a, b, sides=1)
            o1 = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
            assert t1 == t2
            assert abs(p1 - o1.pvalue) <= 1e-6


# ---------------------------------------------------------------------------
# 11. command-line reproducibility
# ---------------------------------------------------------------------------


def test_criterion_11_cli_reproducibility(tmp_path, capfd):
    with criterion(11, capfd):
        env = dict(os.environ)
        env.pop(SEED_ENV, None)
        outputs = []
        for run_name in ("first", "second"):
            base = tmp_path / run_name
            data = str(base / "data")
            run = str(base / "run")
            commands = [
                ["gen-data", "--out", data, "--count", "120", "--depth-min", "1",
                 "--depth-max", "3", "--alphabet", "6", "--val-frac", "0.15",
                 "--seed", "5"],
                ["train", "--data", data, "--run-dir", run, "--steps", "4",
                 "--checkpoint-every", "2", "--batch-size", "8", "--d-model", "16",
                 "--heads", "2", "--enc-layers", "1", "--dec-layers", "1",
                 "--d-ff", "32", "--max-len", "32", "--eval-limit", "4",
                 "--lr", "0.001", "--warmup", "2", "--seed", "5"],
                ["dynamics", "--run-dir", run, "--data", data,
                 "--eval-sentences", "2", "--tune-sentences", "2",
                 "--samples-per-node", "2", "--eval-limit", "2",
                 "--fixed-t", "1", "--seed", "5"],
            ]
            for command in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "spantree", *command],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stdout + proc.stderr
            with open(os.path.join(run, "reports", "dynamics.csv"), "rb") as fh:
                outputs.append(fh.read())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        assert lines[0] == "step,t_score,t_parseval,p_parseval,iid_acc,cg_acc,threshold"
        assert len(lines) == 4
