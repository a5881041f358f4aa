"""Bracketing F1 conventions, linearization and repair, and the one reader
behind both tree parsers."""

import re

import numpy as np
import pytest

from helpers import ref_delinearize, ref_parse_sexpr
from spantree import treeval, trees
from spantree.errors import ContractViolation


def test_identical_trees_score_one():
    t = ((0, 1), (2, (3, 4)))
    assert treeval.parseval_f1(t, t) == (1.0, 1.0, 1.0)
    assert treeval.parseval_f1(t, t, include_root=False) == (1.0, 1.0, 1.0)


def test_two_token_sentence_with_root_convention():
    # with the root included, the single bracket (0,1) matches itself
    assert treeval.parseval_f1((0, 1), (0, 1)) == (1.0, 1.0, 1.0)
    # without the root there is nothing to bracket: vacuous 1.0
    assert treeval.parseval_f1((0, 1), (0, 1), include_root=False) == (1.0, 1.0, 1.0)


def test_left_vs_right_n4_is_exactly_one_third():
    left = trees.left_branching(4)
    right = trees.right_branching(4)
    p, r, f1 = treeval.parseval_f1(left, right)
    # brackets: {(0,1),(0,2),(0,3)} vs {(2,3),(1,3),(0,3)}; only the root agrees
    assert (p, r, f1) == (1 / 3, 1 / 3, 1 / 3)


def test_left_vs_right_n4_without_root_is_zero():
    left = trees.left_branching(4)
    right = trees.right_branching(4)
    assert treeval.parseval_f1(left, right, include_root=False) == (0.0, 0.0, 0.0)


def test_n3_half_overlap():
    a = ((0, 1), 2)
    b = (0, (1, 2))
    p, r, f1 = treeval.parseval_f1(a, b)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_precision_recall_swap_under_argument_swap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = trees.random_tree(7, rng)
        b = trees.random_tree(7, rng)
        pa, ra, fa = treeval.parseval_f1(a, b)
        pb, rb, fb = treeval.parseval_f1(b, a)
        assert pa == rb and ra == pb and fa == fb


def test_leaf_count_mismatch_rejected():
    with pytest.raises(ContractViolation):
        treeval.parseval_f1((0, 1), ((0, 1), 2))
    # a corpus names the mismatched pair and both leaf counts
    pairs = [(((0, 1), 2), ((0, 1), 2)), ((0, 1), ((0, 1), 2))]
    with pytest.raises(ContractViolation, match=r"in pair 1: pred 2 vs gold 3$"):
        treeval.corpus_parseval(pairs)


def test_corpus_is_micro_averaged():
    pairs = [
        (trees.left_branching(4), trees.right_branching(4)),  # 1 of 3 matches
        (((0, 1), 2), ((0, 1), 2)),  # 2 of 2 match
    ]
    p, r, f1 = treeval.corpus_parseval(pairs)
    # counts pool: matched 3, predicted 5, gold 5 - not the mean of (1/3, 1)
    assert (p, r, f1) == (0.6, 0.6, 0.6)


def test_corpus_empty_bracket_sets_vacuous():
    # single two-token sentences, root excluded: no brackets on either side
    pairs = [((0, 1), (0, 1))]
    assert treeval.corpus_parseval(pairs, include_root=False) == (1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# linearize / delinearize
# ---------------------------------------------------------------------------


def test_linearize_example():
    toks = ["w0", "w1", "w2"]
    assert treeval.linearize(((0, 1), 2), toks) == ["(", "(", "w0", "w1", ")", "w2", ")"]
    assert treeval.linearize(0, ["only"]) == ["only"]


def test_round_trip_exhaustive_through_n8():
    count = 0
    for n in range(1, 9):
        toks = [f"w{i}" for i in range(n)]
        for t in trees.enumerate_trees(n):
            got, repaired = treeval.delinearize(treeval.linearize(t, toks))
            assert got == t and not repaired
            count += 1
    assert count == 626  # sum of Catalan(0..7)


def test_repair_unclosed_prefix():
    # "( w0 w1" has no balanced prefix: suffix tokens right-branch, flagged
    assert treeval.delinearize(["(", "w0", "w1"]) == ((0, 1), True)


def test_repair_cases():
    # non-binary group right-binarized
    assert treeval.delinearize(["(", "a", "b", "c", ")"]) == ((0, (1, 2)), True)
    # unary group unwrapped
    assert treeval.delinearize(["(", "a", ")"]) == (0, True)
    # stray close truncates, tokens salvaged
    assert treeval.delinearize([")", "a", "b"]) == ((0, 1), True)
    # empty group dropped, rest intact
    assert treeval.delinearize(["(", ")", "a"]) == (0, True)
    # nothing salvageable
    assert treeval.delinearize([]) == (None, True)
    assert treeval.delinearize(["(", ")"]) == (None, True)


def test_delinearize_multiple_top_level_pieces_fold_right():
    tree, _ = treeval.delinearize(["(", "a", "b", ")", "c", "d"])
    assert tree == ((0, 1), (2, 3))


# ---------------------------------------------------------------------------
# the one reader behind parse_sexpr and delinearize
# ---------------------------------------------------------------------------


def _outcome(parse, text):
    try:
        return parse(text)
    except ContractViolation:
        return "refused"


def test_parsers_match_their_oracles_on_every_small_tree():
    for n in range(1, 8):
        toks = [f"w{i}" for i in range(n)]
        for t in trees.enumerate_trees(n):
            text = treeval.to_sexpr(t)
            assert treeval.parse_sexpr(text) == ref_parse_sexpr(text) == t
            stream = treeval.linearize(t, toks)
            assert treeval.delinearize(stream) == ref_delinearize(stream) == (t, False)


def test_parsers_match_their_oracles_on_random_streams():
    rng = np.random.default_rng(15)
    symbols = np.array(["(", ")", "a", "b", "c"])
    accepted = 0
    for _ in range(50_000):
        seq = list(symbols[rng.integers(0, 5, size=rng.integers(0, 13))])
        assert treeval.delinearize(seq) == ref_delinearize(seq), seq
        spaced = " ".join(seq)
        tight = re.sub(r" *([()]) *", r"\1", spaced)
        for text in (spaced, tight):
            got = _outcome(treeval.parse_sexpr, text)
            assert got == _outcome(ref_parse_sexpr, text), text
            accepted += got != "refused"
    assert accepted > 1000  # the strict parsers agree on trees, not only on refusals


@pytest.mark.parametrize("message, texts", [
    ("unbalanced", ["(", "(a", "(a b", "((a b)", ")", "(a b))", "a )", "(a b) ("]),
    ("non-binary", ["(a b c)", "(a)", "()", "((a b))", "(a (b c) d)"]),
    ("expected one tree", ["", "a b", "(a b) c", "(a b) (c d)"]),
])
def test_parse_sexpr_names_what_is_wrong(message, texts):
    for text in texts:
        with pytest.raises(ContractViolation, match=message):
            treeval.parse_sexpr(text)


def test_tree_file_round_trip(tmp_path):
    path = tmp_path / "trees.txt"
    ts = [((0, 1), 2), (0, (1, (2, 3)))]
    toks = [["a", "b", "c"], ["a", "b", "c", "d"]]
    treeval.save_trees(path, ts, toks)
    assert treeval.load_trees(path) == ts


def test_tree_file_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("((a b) c)\n(a b\n")
    with pytest.raises(ContractViolation, match=":2:"):
        treeval.load_trees(path)
