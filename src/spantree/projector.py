"""Binary tree induction over span-invariance charts.

The chart assigns every contiguous span a nonnegative invariance score (low =
the span behaves like a context-free unit).  ``greedy_project`` picks splits
top-down, minimizing the two children's chart entries at each node, and
normalizes against a uniformly random split drawn at the same node, so that
encoders whose charts are flat score near zero.  ``exact_project`` minimizes
the summed chart entries over all internal spans by dynamic programming.
Both read ``chart.values`` through one split rule, ``_split_costs``.

Tie-breaking is always the smallest split index.  Cumulative scores sum chart
entries over internal spans including the whole-sentence span; leaf entries
are stored in charts but never enter cumulative tree scores (they appear in
every tree, so they shift all scores by the same constant).

``expected_sci_uniform`` is the closed-form mean cumulative score under the
uniform distribution over tree shapes: a span of length l appears in
Cat(l-1) * Cat(n-l) of the Cat(n-1) binary trees over n tokens, so the mean
is an O(n^2) weighted sum over spans rather than an enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import trees
from .errors import ContractViolation


@dataclass
class SplitDecision:
    """One greedy choice: ``span`` split after position ``k``."""

    span: tuple[int, int]
    k: int
    split_cost: float  # sci(i, k) + sci(k + 1, j)
    baseline: float    # same quantity at a uniformly random split


@dataclass
class ProjectionResult:
    tree: object
    cumulative_sci: float      # sum over internal spans, root included
    normalized_score: float    # sum of (baseline - chosen split cost)
    split_trace: list[SplitDecision]


def _split_costs(values: np.ndarray, i: int, j: int) -> np.ndarray:
    """values[i, k] + values[k + 1, j] for every split k in [i, j).

    ``np.argmin`` of the result picks the smallest k among equal costs."""
    return values[i, i:j] + values[i + 1 : j + 1, j]


def greedy_project(chart, rng, samples_per_node: int = 1) -> ProjectionResult:
    """Top-down greedy projection with a random-split baseline at every node.

    At span (i, j) the chosen split minimizes sci(i, k) + sci(k + 1, j); the
    baseline is the same quantity at k drawn uniformly from [i, j - 1],
    averaged over ``samples_per_node`` independent draws.  The normalized
    score sums (baseline - chosen cost) over all internal nodes and is the
    per-sentence tree-structuredness estimate.  ``rng`` is a seed or a
    ``np.random.Generator``; the tree itself never depends on it.
    """
    if samples_per_node < 1:
        raise ContractViolation("samples_per_node must be >= 1")
    rng = np.random.default_rng(rng)
    values = chart.values
    trace: list[SplitDecision] = []

    def recurse(i: int, j: int):
        if i == j:
            return i, 0.0
        costs = _split_costs(values, i, j)
        k = int(np.argmin(costs))
        cost = float(costs[k])
        draws = rng.integers(i, j, size=samples_per_node)
        baseline = float(np.mean(costs[draws - i]))
        trace.append(SplitDecision((i, j), i + k, cost, baseline))
        left, score_left = recurse(i, i + k)
        right, score_right = recurse(i + k + 1, j)
        return (left, right), (baseline - cost) + score_left + score_right

    tree, normalized = recurse(0, chart.n - 1)
    return ProjectionResult(
        tree=tree,
        cumulative_sci=cumulative_sci(chart, tree),
        normalized_score=normalized,
        split_trace=trace,
    )


def exact_project(chart) -> tuple[object, float]:
    """Global minimizer of cumulative chart score over all binary trees.

    best(i, i) = 0 and best(i, j) = sci(i, j) + min_k best(i, k) +
    best(k + 1, j); ties go to the smallest k.  Returns (tree, best score).
    """
    n, values = chart.n, chart.values
    best = np.zeros((n, n))
    split = np.zeros((n, n), dtype=np.int64)
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            costs = _split_costs(best, i, j)
            k = int(np.argmin(costs))
            best[i, j] = values[i, j] + costs[k]
            split[i, j] = i + k

    def build(i, j):
        if i == j:
            return i
        k = int(split[i, j])
        return build(i, k), build(k + 1, j)

    return build(0, n - 1), float(best[0, n - 1])


def cumulative_sci(chart, tree) -> float:
    """Sum of chart entries over the tree's internal spans, root included."""
    values = chart.values
    return float(sum(values[i, j] for (i, j) in trees.brackets(tree, include_root=True)))


def t_score(charts, samples_per_node: int = 4, rng=0) -> float:
    """Mean over sentences of (random-split baseline - greedy split cost),
    accumulated per node.  Sentences of length <= 2 have no free split and
    contribute zero."""
    charts = list(charts)
    if not charts:
        raise ContractViolation("t_score needs at least one chart")
    rng = np.random.default_rng(rng)
    scores = [
        greedy_project(c, rng, samples_per_node=samples_per_node).normalized_score
        for c in charts
    ]
    return float(np.mean(scores))


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def expected_sci_uniform(chart) -> float:
    """Exact expectation of cumulative chart score under the uniform
    distribution over tree shapes: the sum over spans of length l >= 2 of
    sci(i, j) * Cat(l - 1) * Cat(n - l) / Cat(n - 1)."""
    n, values = chart.n, chart.values
    total = 0.0
    for length in range(2, n + 1):
        weight = _catalan(length - 1) * _catalan(n - length) / _catalan(n - 1)
        total += weight * float(np.trace(values, offset=length - 1))
    return total


def t_score_uniform_trees(charts) -> float:
    """Cross-check of ``t_score``: expected cumulative score under uniformly
    drawn tree shapes minus the greedy tree's cumulative score, averaged over
    sentences.  Note the reference distribution differs from the per-node-split
    baseline, so the two estimators agree only in sign and rough magnitude,
    not in value."""
    charts = list(charts)
    if not charts:
        raise ContractViolation("t_score_uniform_trees needs at least one chart")
    vals = [
        expected_sci_uniform(c) - greedy_project(c, 0).cumulative_sci for c in charts
    ]
    return float(np.mean(vals))
