"""Tree induction over charts: greedy vs exact, baselines, invariances."""

import numpy as np
import pytest

from spantree import projector, trees
from spantree.errors import ContractViolation
from spantree.spanrep import SciChart


def chart_from(n, entries, default=0.0, threshold=1):
    """Build a chart with given {(i, j): value} entries; leaves default too."""
    values = np.full((n, n), default)
    for (i, j), v in entries.items():
        values[i, j] = v
    return SciChart(n=n, threshold=threshold, values=np.triu(values))


def planted_chart(n, gold_tree, lo=0.0, hi=0.5):
    """Gold spans (and leaves) at lo, every other span at hi."""
    gold = trees.brackets(gold_tree, include_root=True)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            values[i, j] = lo if (i, j) in gold else hi
    return SciChart(n=n, threshold=1, values=values)


def random_chart(n, rng):
    vals = np.triu(rng.random((n, n)))
    return SciChart(n=n, threshold=1, values=vals)


def brute_force_min(chart):
    """Independent oracle: minimum cumulative score over all enumerated trees."""
    best_tree, best = None, np.inf
    for t in trees.enumerate_trees(chart.n):
        s = projector.cumulative_sci(chart, t)
        if s < best:
            best_tree, best = t, s
    return best_tree, best


# ---------------------------------------------------------------------------
# greedy projection
# ---------------------------------------------------------------------------


def test_greedy_three_token_example():
    # cheap (0,1) bracket: split after position 1 wins
    chart = chart_from(3, {(0, 1): 0.1, (1, 2): 0.3, (0, 2): 0.7})
    res = projector.greedy_project(chart, rng=0)
    assert res.tree == ((0, 1), 2)
    assert res.split_trace[0].span == (0, 2)
    assert res.split_trace[0].k == 1
    assert res.split_trace[0].split_cost == pytest.approx(0.1)


def test_greedy_recovers_planted_tree():
    rng = np.random.default_rng(0)
    for n in range(3, 11):
        for _ in range(5):
            gold = trees.random_tree(n, rng)
            res = projector.greedy_project(planted_chart(n, gold), rng=rng)
            assert res.tree == gold


def test_greedy_constant_chart_scores_zero():
    values = np.triu(np.full((5, 5), 0.4))
    chart = SciChart(n=5, threshold=1, values=values)
    res = projector.greedy_project(chart, rng=1, samples_per_node=3)
    assert res.normalized_score == pytest.approx(0.0, abs=1e-15)
    # ties resolve to the smallest split index: always peel the first token
    assert res.tree == trees.right_branching(5)


def test_greedy_single_token():
    chart = SciChart(n=1, threshold=1, values=np.zeros((1, 1)))
    res = projector.greedy_project(chart, rng=0)
    assert res.tree == 0
    assert res.normalized_score == 0.0
    assert res.split_trace == []
    assert res.cumulative_sci == 0.0


def test_greedy_trace_is_consistent():
    rng = np.random.default_rng(2)
    chart = random_chart(7, rng)
    res = projector.greedy_project(chart, rng=rng, samples_per_node=2)
    # one decision per internal node
    assert len(res.split_trace) == 6
    assert res.normalized_score == pytest.approx(
        sum(d.baseline - d.split_cost for d in res.split_trace)
    )
    # recorded costs match the chart
    for d in res.split_trace:
        i, j = d.span
        assert d.split_cost == pytest.approx(chart.sci(i, d.k) + chart.sci(d.k + 1, j))


def test_greedy_samples_per_node_contract():
    chart = random_chart(4, np.random.default_rng(3))
    with pytest.raises(ContractViolation):
        projector.greedy_project(chart, rng=0, samples_per_node=0)


def test_greedy_tree_does_not_depend_on_rng():
    rng = np.random.default_rng(4)
    for _ in range(20):
        chart = random_chart(6, rng)
        assert projector.greedy_project(chart, 0).tree == projector.greedy_project(chart, rng).tree


# ---------------------------------------------------------------------------
# exact projection
# ---------------------------------------------------------------------------


def test_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        for _ in range(10):
            chart = random_chart(n, rng)
            tree, score = projector.exact_project(chart)
            oracle_tree, oracle_score = brute_force_min(chart)
            assert score == pytest.approx(oracle_score, abs=1e-12)
            assert projector.cumulative_sci(chart, tree) == pytest.approx(
                score, abs=1e-12
            )
            # random continuous charts have no ties in practice
            assert tree == oracle_tree


def test_exact_never_worse_than_greedy():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(3, 13))
        chart = random_chart(n, rng)
        _, exact_score = projector.exact_project(chart)
        greedy_score = projector.greedy_project(chart, 0).cumulative_sci
        assert exact_score <= greedy_score + 1e-12


def test_exact_recovers_planted_tree_with_zero_gold_cost():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        gold = trees.random_tree(n, rng)
        tree, score = projector.exact_project(planted_chart(n, gold))
        assert tree == gold
        assert score == 0.0


def test_exact_tie_breaks_to_smallest_split():
    values = np.triu(np.full((4, 4), 1.0))
    chart = SciChart(n=4, threshold=1, values=values)
    tree, _ = projector.exact_project(chart)
    assert tree == trees.right_branching(4)


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_shift_and_rescale_leave_trees_unchanged():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        chart = random_chart(n, rng)
        shifted = SciChart(n=n, threshold=1, values=chart.values + 0.75)
        scaled = SciChart(n=n, threshold=1, values=chart.values * 13.0)
        base_exact, _ = projector.exact_project(chart)
        base_greedy = projector.greedy_project(chart, 0).tree
        assert projector.exact_project(shifted)[0] == base_exact
        assert projector.exact_project(scaled)[0] == base_exact
        assert projector.greedy_project(shifted, 0).tree == base_greedy
        assert projector.greedy_project(scaled, 0).tree == base_greedy


def test_cumulative_sci_excludes_leaves_includes_root():
    chart = chart_from(3, {(0, 1): 0.1, (1, 2): 0.3, (0, 2): 0.7}, default=100.0)
    # leaf diagonal set to 100 must not leak into the sum
    chart.values[np.diag_indices(3)] = 100.0
    assert projector.cumulative_sci(chart, ((0, 1), 2)) == pytest.approx(0.8)
    assert projector.cumulative_sci(chart, (0, (1, 2))) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# frozen results
# ---------------------------------------------------------------------------


def preorder_splits(tree):
    """Split point (last position of the left child) of every internal node,
    in prefix order; this determines the tree."""
    if isinstance(tree, int):
        return []
    return [trees.span_of(tree[0])[1]] + preorder_splits(tree[0]) + preorder_splits(tree[1])


# (n, tied) -> (greedy splits, greedy cumulative_sci, greedy normalized_score,
#               exact splits, exact score), for the charts of ``seeded_chart``
# with ``greedy_project(chart, rng=n, samples_per_node=2)``.
FROZEN = {
    (4, False): (
        [1, 0, 2],
        1.0693171005491702, 0.35748842170656503,
        [0, 1, 2],
        0.7325173638788369,
    ),
    (4, True): (
        [0, 1, 2],
        0.25, 0.5,
        [0, 1, 2],
        0.25,
    ),
    (9, False): (
        [2, 1, 0, 7, 3, 6, 4, 5],
        2.2040308219973475, 3.4975588107503275,
        [2, 0, 1, 7, 3, 4, 6, 5],
        1.966738937090755,
    ),
    (9, True): (
        [0, 5, 2, 1, 3, 4, 6, 7],
        1.0, 2.0,
        [0, 1, 7, 2, 6, 5, 3, 4],
        0.75,
    ),
    (17, False): (
        [9, 5, 2, 1, 0, 3, 4, 6, 7, 8, 12, 11, 10, 14, 13, 15],
        5.066169283872801, 3.243396927108502,
        [15, 10, 1, 0, 2, 9, 8, 6, 5, 4, 3, 7, 11, 14, 12, 13],
        3.5267105886700705,
    ),
    (17, True): (
        [0, 2, 1, 4, 3, 8, 5, 7, 6, 10, 9, 11, 14, 12, 13, 15],
        2.0, 3.625,
        [0, 2, 1, 11, 9, 5, 4, 3, 6, 7, 8, 10, 15, 12, 14, 13],
        1.5,
    ),
    (40, False): (
        [20, 3, 0, 2, 1, 9, 8, 5, 4, 6, 7, 18, 12, 10, 11, 16, 13, 14, 15, 17, 19, 35, 34, 22, 21, 23, 25, 24, 28, 27, 26, 30, 29, 33, 31, 32, 38, 37, 36],
        10.613979909771752, 12.026458461769948,
        [16, 15, 14, 13, 0, 12, 6, 2, 1, 5, 3, 4, 7, 11, 10, 8, 9, 17, 19, 18, 38, 37, 36, 35, 34, 33, 21, 20, 32, 22, 23, 24, 26, 25, 31, 29, 27, 28, 30],
        5.749554951480372,
    ),
    (40, True): (
        [4, 2, 1, 0, 3, 25, 11, 5, 7, 6, 9, 8, 10, 18, 12, 13, 14, 17, 15, 16, 19, 20, 22, 21, 23, 24, 28, 26, 27, 32, 29, 31, 30, 34, 33, 35, 36, 37, 38],
        6.0, 6.0,
        [4, 1, 0, 2, 3, 5, 11, 10, 8, 6, 7, 9, 12, 22, 17, 13, 14, 15, 16, 18, 19, 20, 21, 30, 29, 28, 23, 24, 25, 27, 26, 31, 32, 33, 34, 36, 35, 38, 37],
        1.25,
    ),
}


def seeded_chart(n, tied):
    rng = np.random.default_rng([n, int(tied)])
    raw = rng.integers(0, 3, size=(n, n)) / 4.0 if tied else rng.random((n, n))
    return SciChart(n=n, threshold=1, values=np.triu(raw))


@pytest.mark.parametrize("n, tied", sorted(FROZEN))
def test_projections_match_frozen_results(n, tied):
    greedy_splits, greedy_cum, greedy_norm, exact_splits, exact_score = FROZEN[n, tied]
    chart = seeded_chart(n, tied)
    res = projector.greedy_project(chart, rng=n, samples_per_node=2)
    assert preorder_splits(res.tree) == greedy_splits
    assert [d.k for d in res.split_trace] == greedy_splits
    assert res.cumulative_sci == pytest.approx(greedy_cum, abs=1e-12)
    assert res.normalized_score == pytest.approx(greedy_norm, abs=1e-12)
    tree, score = projector.exact_project(chart)
    assert preorder_splits(tree) == exact_splits
    assert score == pytest.approx(exact_score, abs=1e-12)


# ---------------------------------------------------------------------------
# t_score
# ---------------------------------------------------------------------------


def test_t_score_zero_for_all_zero_charts():
    charts = [SciChart(n=5, threshold=1, values=np.zeros((5, 5))) for _ in range(3)]
    assert projector.t_score(charts, rng=0) == 0.0


def test_t_score_zero_for_constant_charts():
    charts = [SciChart(n=4, threshold=1, values=np.triu(np.full((4, 4), 0.9)))]
    assert projector.t_score(charts, rng=0) == pytest.approx(0.0, abs=1e-15)


def test_t_score_positive_for_planted_charts():
    gold = ((0, 1), 2)
    charts = [planted_chart(3, gold) for _ in range(16)]
    assert projector.t_score(charts, samples_per_node=4, rng=0) > 0.0


def test_t_score_short_sentences_contribute_zero():
    charts = [
        SciChart(n=1, threshold=1, values=np.zeros((1, 1))),
        SciChart(n=2, threshold=1, values=np.triu(np.full((2, 2), 0.3))),
    ]
    # n=1 has no split at all; n=2 has exactly one, so baseline == chosen
    assert projector.t_score(charts, rng=0) == pytest.approx(0.0, abs=1e-15)


def test_t_score_empty_dataset_rejected():
    with pytest.raises(ContractViolation):
        projector.t_score([])


def test_t_score_estimator_converges_to_analytic_mean():
    # planted ((0 1) 2): root split costs are 0 (k=1) and 0.5 (k=0), so the
    # per-node baseline averages 0.25 and the chosen cost is 0
    chart = planted_chart(3, ((0, 1), 2))
    rng = np.random.default_rng(9)
    draws = [
        projector.greedy_project(chart, rng=rng, samples_per_node=1).normalized_score
        for _ in range(4000)
    ]
    assert abs(float(np.mean(draws)) - 0.25) < 0.02  # 5 sigma of the SE
    assert set(np.round(draws, 10)) == {0.0, 0.5}


def test_t_score_uniform_tree_cross_check_agrees_in_sign():
    gold = ((0, 1), (2, 3))
    charts = [planted_chart(4, gold) for _ in range(8)]
    fast = projector.t_score(charts, samples_per_node=8, rng=10)
    slow = projector.t_score_uniform_trees(charts)
    assert fast > 0 and slow > 0


def test_expected_sci_uniform_hand_value():
    # n=3: two trees, cumulative scores 0.1+0.7 and 0.3+0.7 -> mean 0.9
    chart = chart_from(3, {(0, 1): 0.1, (1, 2): 0.3, (0, 2): 0.7})
    assert projector.expected_sci_uniform(chart) == pytest.approx(0.9)


def test_expected_sci_uniform_matches_enumeration():
    rng = np.random.default_rng(11)
    for n in range(1, 10):
        for _ in range(5):
            chart = random_chart(n, rng)
            mean = np.mean(
                [projector.cumulative_sci(chart, t) for t in trees.enumerate_trees(n)]
            )
            assert abs(projector.expected_sci_uniform(chart) - mean) <= 1e-12


def test_t_score_uniform_trees_runs_on_long_sentences():
    gold = trees.random_tree(40, np.random.default_rng(12))
    charts = [planted_chart(40, gold)]
    # greedy recovers the planted tree at zero cost; a uniform tree pays 0.5
    # for every span it holds outside the gold set
    assert projector.t_score_uniform_trees(charts) > 0
