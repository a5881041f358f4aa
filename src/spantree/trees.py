"""Binary trees over token positions.

A tree is either a leaf (the int position of a token) or a 2-tuple of
subtrees.  Every internal node spans a contiguous, strictly ordered range of
leaf positions, so a tree over ``n`` tokens is exactly a binary bracketing of
``0..n-1``.  The text forms of a tree are in ``treeval``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractViolation

# Leaf = int, Node = (Tree, Tree).
Tree = "int | tuple"


def leaves(tree) -> list[int]:
    """Leaf positions in left-to-right order."""
    if isinstance(tree, int):
        return [tree]
    return leaves(tree[0]) + leaves(tree[1])


def leaf_count(tree) -> int:
    if isinstance(tree, int):
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


def span_of(tree) -> tuple[int, int]:
    """Inclusive (start, end) range covered by the tree."""
    if isinstance(tree, int):
        return tree, tree
    left_start, _ = span_of(tree[0])
    _, right_end = span_of(tree[1])
    return left_start, right_end


def node_spans(tree) -> list[tuple[int, int]]:
    """Inclusive spans of all nodes, leaves included, in prefix order."""
    out = []

    def walk(t):
        out.append(span_of(t))
        if not isinstance(t, int):
            walk(t[0])
            walk(t[1])

    walk(tree)
    return out


def brackets(tree, include_root: bool = True) -> set[tuple[int, int]]:
    """Spans of internal nodes (length >= 2); the whole-sentence span is part
    of the set unless ``include_root`` is false."""
    spans = {s for s in node_spans(tree) if s[1] > s[0]}
    if not include_root:
        spans.discard(span_of(tree))
    return spans


def validate_tree(tree, n: int) -> None:
    """Check the tree is a binary bracketing of exactly 0..n-1."""
    seen = leaves(tree)
    if seen != list(range(n)):
        raise ContractViolation(f"tree does not cover 0..{n - 1} in order: {seen}")


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def left_branching(n: int):
    _check_n(n)
    tree = 0
    for i in range(1, n):
        tree = (tree, i)
    return tree


def right_branching(n: int):
    _check_n(n)
    tree = n - 1
    for i in range(n - 2, -1, -1):
        tree = (i, tree)
    return tree


def random_tree(n: int, rng: np.random.Generator):
    """Uniform split point at every node, recursively.

    Note: this does not produce the uniform distribution over tree shapes;
    balanced shapes come out more often than spines.
    """
    _check_n(n)

    def build(i, j):
        if i == j:
            return i
        k = int(rng.integers(i, j))  # split after position k
        return build(i, k), build(k + 1, j)

    return build(0, n - 1)


def _check_n(n: int) -> None:
    if n < 1:
        raise ContractViolation(f"need at least one token, got n={n}")


def enumerate_trees(n: int, limit: int = 12) -> list:
    """All binary trees over positions 0..n-1 (Catalan(n-1) of them).

    Guarded to small n; the count explodes combinatorially.
    """
    _check_n(n)
    if n > limit:
        raise ContractViolation(f"refusing to enumerate trees for n={n} > {limit}")
    return _enum_range(0, n - 1)


@lru_cache(maxsize=None)
def _enum_range(i: int, j: int) -> list:
    if i == j:
        return [i]
    out = []
    for k in range(i, j):
        for left in _enum_range(i, k):
            for right in _enum_range(k + 1, j):
                out.append((left, right))
    return out
