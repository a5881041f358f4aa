"""Perturbation study, repeated-span gap, and dynamics-report behavior."""

import math

import numpy as np
import pytest

from spantree import experiments, trees, treeval
from spantree.datasets import Corpus, TransductionExample, Vocab
from spantree.encoder import EncoderConfig, LayerMask, TransformerModel
from spantree.errors import ContractViolation
from spantree.experiments import (
    _valid_tuples,
    assumption_gap,
    closed_form_vstar,
    cumulative_cosine,
    dynamics_report,
    perturbation_analysis,
    tune_threshold,
    write_dynamics_csv,
    write_gap_csv,
    write_perturb_csv,
)
from spantree.numerics import cosine_distance
from spantree.training import CheckpointInfo


def make_model(tokens, enc_layers=2, d_model=16, seed=0, max_len=16):
    vocab = Vocab(tokens)
    config = EncoderConfig(
        enc_layers=enc_layers, dec_layers=1, heads=2, d_model=d_model,
        d_ff=2 * d_model, vocab_size=len(vocab), max_len=max_len,
    )
    return TransformerModel(config, vocab, "seq2seq", rng=np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# matched-distance tuple enumeration
# ---------------------------------------------------------------------------


def test_valid_tuples_hand_case():
    got = set(_valid_tuples(4, ((0, 1), (2, 3))))
    assert got == {((0, 1), 1, 0, 2, 1), ((2, 3), 2, 3, 1, 1)}


def test_valid_tuples_matched_distance_property():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        tree = trees.random_tree(n, rng)
        spans = set(trees.brackets(tree, include_root=True))
        for c, w, j_in, j_out, k in _valid_tuples(n, tree):
            a, b = c
            assert c in spans
            assert a <= w <= b and a <= j_in <= b and j_in != w
            assert 0 <= j_out < n and not a <= j_out <= b
            assert abs(j_in - w) == k == abs(j_out - w)


def test_whole_sentence_constituent_contributes_nothing():
    # every bracket of a 2-leaf tree covers the sentence: no outside position
    assert _valid_tuples(2, (0, 1)) == []


# ---------------------------------------------------------------------------
# perturbation analysis
# ---------------------------------------------------------------------------


def test_zero_noise_means_zero_displacement():
    model = make_model(["a", "b", "c", "d"])
    ids = model.vocab.encode(["a", "b", "c", "d"])
    report = perturbation_analysis(
        model, [ids], [((0, 1), (2, 3))], sigma2=0.0, pairs=8, seed=0
    )
    for arm in (report.main, report.control):
        assert arm.delta_ic == 0.0 and arm.delta_oc == 0.0
        assert arm.relative_difference == 0.0
        assert arm.p_value == 1.0


def test_hard_partitioned_encoder_shields_the_other_block():
    """With block-diagonal attention at every layer, perturbing across the
    boundary cannot move anything: delta_oc is exactly zero while the
    in-constituent arm is strictly positive, so the paired test is decisive
    and the relative difference sits at its maximum of 2."""
    model = make_model(["a", "b", "c", "d", "e", "f"])
    sents = [["a", "b", "c", "d"], ["c", "d", "e", "f"], ["f", "a", "b", "e"]]
    ids = [model.vocab.encode(s) for s in sents]
    gold = [((0, 1), (2, 3))] * 3
    masks = [LayerMask.block_diagonal(2, 4, model.config.enc_layers)] * 3
    report = perturbation_analysis(
        model, ids, gold, sigma2=0.01, pairs=200, seed=0, masks=masks
    )
    assert report.main.delta_oc == 0.0
    assert report.main.delta_ic > 0.0
    assert all(doc == 0.0 for _, _, _, doc in report.main.samples)
    assert report.main.p_value < 1e-4
    assert report.main.relative_difference == pytest.approx(2.0)
    # random-control constituents ignore the real partition, so some of the
    # "outside" perturbations land inside the block and do move the word
    assert report.control.relative_difference < report.main.relative_difference
    assert report.tuples_main == 6
    assert report.main.n_pairs == 200


def test_unmasked_encoder_moves_under_both_arms():
    model = make_model(["a", "b", "c", "d"])
    ids = model.vocab.encode(["a", "b", "c", "d"])
    report = perturbation_analysis(
        model, [ids], [((0, 1), (2, 3))], sigma2=0.01, pairs=16, seed=1
    )
    assert report.main.delta_ic > 0.0 and report.main.delta_oc > 0.0


def test_perturbation_contracts():
    model = make_model(["a", "b"])
    ids = model.vocab.encode(["a", "b"])
    with pytest.raises(ContractViolation):
        perturbation_analysis(model, [ids], [(0, 1), (0, 1)], pairs=2)
    with pytest.raises(ContractViolation):
        perturbation_analysis(model, [ids], [(0, 1)], sigma2=-1.0, pairs=2)
    # a 2-token sentence admits no matched-distance tuples at all
    with pytest.raises(ContractViolation):
        perturbation_analysis(model, [ids], [(0, 1)], pairs=2)
    with pytest.raises(ContractViolation):
        perturbation_analysis(model, [ids], [(0, 1)], pairs=2, masks=[])


def test_perturb_csv_layout(tmp_path):
    model = make_model(["a", "b", "c", "d"])
    ids = model.vocab.encode(["a", "b", "c", "d"])
    report = perturbation_analysis(
        model, [ids], [((0, 1), (2, 3))], sigma2=0.01, pairs=5, seed=0
    )
    path = tmp_path / "perturb.csv"
    write_perturb_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "sentence,k,delta_ic,delta_oc,control"
    assert len(lines) == 1 + 2 * 5
    assert {line.split(",")[-1] for line in lines[1:]} == {"0", "1"}


# ---------------------------------------------------------------------------
# repeated-span gap
# ---------------------------------------------------------------------------


def random_unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def test_closed_form_vstar_beats_random_candidates():
    rng = np.random.default_rng(0)
    vectors = [rng.standard_normal(8) for _ in range(5)]
    vstar = closed_form_vstar(vectors)
    best = cumulative_cosine(vectors, vstar)
    for _ in range(500):
        assert best <= cumulative_cosine(vectors, random_unit(rng, 8)) + 1e-12


def test_closed_form_vstar_matches_gradient_descent():
    # independent route: projected gradient descent on the unit sphere for
    # f(u) = sum_i (1 - cos(v_i, u)); the gradient at |u| = 1 is
    # -(sum_i vhat_i - (vhat_i . u) u)
    rng = np.random.default_rng(1)
    for _ in range(5):
        vectors = [rng.standard_normal(6) for _ in range(4)]
        vhat = np.stack([v / np.linalg.norm(v) for v in vectors])
        u = random_unit(rng, 6)
        for _ in range(4000):
            grad = -(vhat - (vhat @ u)[:, None] * u).sum(axis=0)
            u = u - 0.05 * grad
            u /= np.linalg.norm(u)
        vstar = closed_form_vstar(vectors)
        assert cumulative_cosine(vectors, vstar) == pytest.approx(
            cumulative_cosine(vectors, u), abs=1e-6
        )


def test_closed_form_vstar_contracts():
    with pytest.raises(ContractViolation):
        closed_form_vstar([])
    with pytest.raises(ContractViolation):
        closed_form_vstar([np.zeros(4)])


def test_identical_contexts_close_the_gap():
    # the span IS the sentence and both occurrences are identical, so the
    # contextual vectors coincide with the bare-span vector exactly
    model = make_model(["a", "b"])
    report = assumption_gap(model, [["a", "b"], ["a", "b"]], seed=0)
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.tokens == ("a", "b") and rec.occurrences == 2
    assert rec.gap <= 1e-12
    assert rec.sum_to_vstar <= 1e-12
    assert rec.sum_to_vtilde <= 1e-12
    assert math.isnan(rec.control_gap)  # no other span to draw a control from


def test_gap_bookkeeping_and_optimality():
    model = make_model(["a", "b", "c", "d", "x", "y"])
    sentences = [
        ["a", "b", "c"],
        ["x", "a", "b"],
        ["c", "d", "y", "y"],  # no repeated span with the others except none
        ["x", "y"],
    ]
    report = assumption_gap(model, sentences, seed=0)
    by_tokens = {rec.tokens: rec for rec in report.records}
    assert ("a", "b") in by_tokens
    rec = by_tokens[("a", "b")]
    assert rec.occurrences == 2
    assert 0.0 <= rec.gap <= 2.0
    # v* is the within-set optimum, the bare-span vector can only be worse
    assert rec.sum_to_vstar <= rec.sum_to_vtilde + 1e-12
    assert not math.isnan(rec.control_gap)
    assert report.distinct_repeated == len(report.records)
    # every non-repeated distinct span was counted, none silently dropped
    assert report.skipped_single > 0


def test_repeats_within_one_sentence_do_not_count():
    model = make_model(["a", "b", "q", "r"])
    with pytest.raises(ContractViolation):
        assumption_gap(model, [["a", "b", "a", "b"], ["q", "r"]], seed=0)


def test_gap_span_sampling_cap():
    model = make_model(["a", "b", "c"])
    sentences = [["a", "b", "c"], ["a", "b", "c"]]
    report = assumption_gap(model, sentences, span_samples=2, seed=0)
    assert len(report.records) == 2
    assert report.distinct_repeated > 2  # cap hides some, counter keeps all


def test_gap_csv_layout(tmp_path):
    model = make_model(["a", "b"])
    report = assumption_gap(model, [["a", "b"], ["a", "b"]], seed=0)
    path = tmp_path / "gap.csv"
    write_gap_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "span,occurrences,gap,control_gap"
    assert lines[1].startswith("a b,2,")


# ---------------------------------------------------------------------------
# dynamics report
# ---------------------------------------------------------------------------


def dynamics_fixture(with_trees=True, n_ckpt=3):
    tokens = ["w1", "w2", "w3", "w4", "w5"]
    model = make_model(tokens, seed=3)

    def ex(words):
        tree = trees.right_branching(len(words)) if with_trees else None
        return TransductionExample(words, words, tree)

    corpus = Corpus(
        train=[ex(["w1", "w2", "w3"]), ex(["w4", "w5"]), ex(["w2", "w4", "w1"])],
        iid_val=[ex(["w3", "w1", "w2"]), ex(["w5", "w2"])],
        cg_test=[ex(["w4", "w2", "w5"])],
        vocab=model.vocab,
    )
    # identical weights at every step; metrics must not depend on the step
    series = [
        CheckpointInfo(step=200 * i, model=model.clone(), iid_acc=0.5, cg_acc=0.25)
        for i in range(n_ckpt)
    ]
    return model, corpus, series


def test_identical_weights_give_identical_records():
    _, corpus, series = dynamics_fixture()
    result = dynamics_report(series, corpus, threshold_mode="fixed", fixed_t=1,
                             eval_sentences=2, samples_per_node=2, seed=0)
    r0, r1, r2 = result.records
    assert r0.t_score == r1.t_score == r2.t_score
    assert r0.t_parseval == r1.t_parseval == r2.t_parseval
    assert r0.threshold == r1.threshold == r2.threshold == 1
    assert [r.step for r in result.records] == [0, 200, 400]
    assert [r.iid_acc for r in result.records] == [0.5, 0.5, 0.5]
    # a constant series has no defined rank correlation
    assert math.isnan(result.correlations["rho_t_score_step"][0])


def test_threshold_at_top_layer_zeroes_the_score():
    # t = L: every chart entry is 0, so split and baseline costs coincide
    model, corpus, series = dynamics_fixture()
    result = dynamics_report(series, corpus, threshold_mode="fixed",
                             fixed_t=model.config.enc_layers,
                             eval_sentences=2, samples_per_node=2, seed=0)
    assert all(r.t_score == 0.0 for r in result.records)


def test_dynamics_csv_is_reproducible(tmp_path):
    _, corpus, series = dynamics_fixture()
    blobs = []
    for name in ("a.csv", "b.csv"):
        result = dynamics_report(series, corpus, threshold_mode="fixed", fixed_t=1,
                                 eval_sentences=2, samples_per_node=2, seed=0)
        path = tmp_path / name
        write_dynamics_csv(result.records, str(path))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    header = blobs[0].decode().splitlines()[0]
    assert header == "step,t_score,t_parseval,p_parseval,iid_acc,cg_acc,threshold"


def test_missing_gold_trees_blank_the_parseval_column(tmp_path):
    _, corpus, series = dynamics_fixture(with_trees=False)
    result = dynamics_report(series, corpus, threshold_mode="fixed", fixed_t=1,
                             eval_sentences=2, samples_per_node=2, seed=0)
    assert all(r.t_parseval is None for r in result.records)
    assert "rho_t_parseval_step" not in result.correlations
    path = tmp_path / "dyn.csv"
    write_dynamics_csv(result.records, str(path))
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] == "" and row[3] == ""


def test_parseval_tuning_requires_gold_trees():
    model, corpus, series = dynamics_fixture(with_trees=False)
    with pytest.raises(ContractViolation):
        dynamics_report(series, corpus, threshold_mode="parseval",
                        eval_sentences=2, samples_per_node=2, seed=0)
    with pytest.raises(ContractViolation):
        tune_threshold(model, corpus.train, "bogus")


@pytest.mark.parametrize("task", ["seq2seq", "mlm"])
def test_dynamics_encodes_with_the_checkpoint_vocab(task):
    # a data directory may number its tokens differently from the checkpoint;
    # every chart and accuracy must read the sentences in the model's ids
    model, corpus, _ = dynamics_fixture()
    if task == "mlm":
        model = TransformerModel(model.config, model.vocab, "mlm", rng=3)
    series = [CheckpointInfo(step=200 * i, model=model.clone()) for i in range(3)]
    permuted = Corpus(train=corpus.train, iid_val=corpus.iid_val, cg_test=corpus.cg_test,
                      vocab=Vocab(["w5", "w3", "w1", "w4", "w2"]))
    assert permuted.vocab.encode(["w1"]) != model.vocab.encode(["w1"])
    for mode in ("fixed", "score"):
        own, other = (
            dynamics_report(series, c, threshold_mode=mode, fixed_t=1, eval_sentences=2,
                            tune_sentences=3, samples_per_node=2, seed=0).records
            for c in (corpus, permuted)
        )
        assert own == other


def test_parseval_tuning_skips_the_all_zero_top_layer():
    # the t = L chart is all zeros, so its projected tree is the tie rule's
    # right-branching one, which these right-branching gold trees reward
    _, corpus, _ = dynamics_fixture()
    for layers in (1, 2, 3):
        for seed in range(3):
            model = make_model(["w1", "w2", "w3", "w4", "w5"], enc_layers=layers, seed=seed)
            assert tune_threshold(model, corpus.train, "parseval") < layers


def test_dynamics_probe_column():
    _, corpus, series = dynamics_fixture()
    result = dynamics_report(series, corpus, threshold_mode="fixed", fixed_t=1,
                             eval_sentences=2, samples_per_node=2, seed=0,
                             probe_steps=3)
    assert all(0.0 <= r.p_parseval <= 1.0 for r in result.records)
    assert "rho_p_parseval_step" in result.correlations


def test_tuned_thresholds_stay_in_range():
    model, corpus, series = dynamics_fixture()
    for mode in ("parseval", "score"):
        result = dynamics_report(series, corpus, threshold_mode=mode,
                                 eval_sentences=2, tune_sentences=2,
                                 samples_per_node=2, seed=0)
        for r in result.records:
            assert 0 <= r.threshold < model.config.enc_layers


def test_dynamics_contracts():
    _, corpus, series = dynamics_fixture()
    with pytest.raises(ContractViolation):
        dynamics_report(series[:2], corpus)  # needs >= 3 checkpoints
    with pytest.raises(ContractViolation):
        dynamics_report(series, corpus, threshold_mode="nope")
    with pytest.raises(ContractViolation):
        dynamics_report(series, corpus, threshold_mode="fixed", fixed_t=99)
    empty_val = Corpus(train=corpus.train, iid_val=[], cg_test=corpus.cg_test,
                       vocab=corpus.vocab)
    with pytest.raises(ContractViolation):
        dynamics_report(series, empty_val, threshold_mode="fixed", fixed_t=1)


def test_correlations_need_three_points():
    # two usable points -> the correlation dict stays silent for that metric
    records = [
        experiments.DynamicsRecord(step=s, t_score=v, t_parseval=None,
                                   p_parseval=None, iid_acc=0.1, cg_acc=0.1,
                                   threshold=1)
        for s, v in ((0, 0.1), (1, 0.2))
    ]
    assert "rho_t_score_step" not in experiments._correlations(records)
    records.append(
        experiments.DynamicsRecord(step=2, t_score=0.3, t_parseval=None,
                                   p_parseval=None, iid_acc=0.1, cg_acc=0.1,
                                   threshold=1)
    )
    out = experiments._correlations(records)
    assert out["rho_t_score_step"] == (1.0, 0.0)  # strictly increasing
