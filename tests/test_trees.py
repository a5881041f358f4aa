"""Binary tree representation: construction, enumeration, serialization."""

import math

import numpy as np
import pytest

from spantree import trees, treeval
from spantree.errors import ContractViolation


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def test_leaves_and_spans():
    t = ((0, 1), (2, (3, 4)))
    assert trees.leaves(t) == [0, 1, 2, 3, 4]
    assert trees.leaf_count(t) == 5
    assert trees.span_of(t) == (0, 4)
    assert trees.span_of(t[1]) == (2, 4)


def test_brackets_include_and_exclude_root():
    t = ((0, 1), (2, 3))
    assert trees.brackets(t) == {(0, 3), (0, 1), (2, 3)}
    assert trees.brackets(t, include_root=False) == {(0, 1), (2, 3)}


def test_single_leaf_has_no_brackets():
    assert trees.brackets(0) == set()


def test_validate_tree():
    trees.validate_tree(((0, 1), 2), 3)
    with pytest.raises(ContractViolation):
        trees.validate_tree(((0, 2), 1), 3)  # out of order
    with pytest.raises(ContractViolation):
        trees.validate_tree((0, 1), 3)  # wrong count


def test_branching_constructors():
    assert trees.left_branching(4) == (((0, 1), 2), 3)
    assert trees.right_branching(4) == (0, (1, (2, 3)))
    assert trees.left_branching(1) == 0
    with pytest.raises(ContractViolation):
        trees.left_branching(0)


def test_enumerate_trees_catalan_counts():
    for n in range(1, 9):
        assert len(trees.enumerate_trees(n)) == catalan(n - 1)


def test_enumerate_trees_distinct_and_valid():
    seen = trees.enumerate_trees(6)
    assert len(set(map(str, seen))) == len(seen)
    for t in seen:
        trees.validate_tree(t, 6)


def test_enumerate_trees_refuses_large_n():
    with pytest.raises(ContractViolation):
        trees.enumerate_trees(13)


def test_random_tree_valid_and_covers_all_shapes():
    rng = np.random.default_rng(0)
    shapes = set()
    for _ in range(3000):
        t = trees.random_tree(4, rng)
        trees.validate_tree(t, 4)
        shapes.add(str(t))
    # recursive uniform splitting reaches every one of the 5 shapes at n=4
    assert len(shapes) == 5


def test_random_tree_trivial_sizes():
    rng = np.random.default_rng(1)
    assert trees.random_tree(1, rng) == 0
    assert trees.random_tree(2, rng) == (0, 1)


def test_sexpr_round_trip_exhaustive_small():
    for n in range(1, 7):
        for t in trees.enumerate_trees(n):
            assert treeval.parse_sexpr(treeval.to_sexpr(t)) == t


def test_sexpr_with_tokens():
    t = ((0, 1), 2)
    assert treeval.to_sexpr(t, ["the", "old", "dog"]) == "((the old) dog)"
    assert treeval.to_sexpr(t) == "((w0 w1) w2)"


def test_parse_sexpr_rejects_malformed():
    for bad in ["", "(", "(a", "(a b", "a b", "(a b) c", "((a b)", "(a b c)", ")"]:
        with pytest.raises(ContractViolation):
            treeval.parse_sexpr(bad)


def test_node_spans_prefix_order():
    t = ((0, 1), 2)
    assert trees.node_spans(t) == [(0, 2), (0, 1), (0, 0), (1, 1), (2, 2)]
