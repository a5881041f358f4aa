"""Unlabeled bracketing scores, branching baselines, and tree serialization
for sequence models that emit linearized parses.

Bracket convention: spans of length >= 2 count, and the whole-sentence span
is included by default (identical trees then score F1 = 1.0 even for n = 2).
Pass ``include_root=False`` to score proper brackets only.  Corpus scores are
micro-averaged: bracket counts are summed over sentences before the ratios.
"""

from __future__ import annotations

import numpy as np

from . import trees
from .errors import ContractViolation, numbered_lines

OPEN, CLOSE = "(", ")"


def parseval_f1(pred, gold, include_root: bool = True) -> tuple[float, float, float]:
    """(precision, recall, F1) of predicted vs gold brackets for one sentence."""
    n_pred, n_gold = trees.leaf_count(pred), trees.leaf_count(gold)
    if n_pred != n_gold:
        raise ContractViolation(f"leaf count mismatch: pred {n_pred} vs gold {n_gold}")
    p = trees.brackets(pred, include_root)
    g = trees.brackets(gold, include_root)
    return _prf(len(p & g), len(p), len(g))


def corpus_parseval(pairs, include_root: bool = True) -> tuple[float, float, float]:
    """Micro-averaged (precision, recall, F1) over (pred, gold) tree pairs."""
    matched = n_pred = n_gold = 0
    for pred, gold in pairs:
        if trees.leaf_count(pred) != trees.leaf_count(gold):
            raise ContractViolation("leaf count mismatch inside corpus")
        p = trees.brackets(pred, include_root)
        g = trees.brackets(gold, include_root)
        matched += len(p & g)
        n_pred += len(p)
        n_gold += len(g)
    return _prf(matched, n_pred, n_gold)


def _prf(matched: int, n_pred: int, n_gold: int) -> tuple[float, float, float]:
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0  # nothing to bracket, vacuously perfect
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    f1 = 2.0 * matched / (n_pred + n_gold)
    return precision, recall, f1


def baseline_tree(n: int, kind: str, rng: np.random.Generator | None = None):
    """Branching baseline: 'left', 'right', or 'random' (seeded rng required)."""
    if kind == "left":
        return trees.left_branching(n)
    if kind == "right":
        return trees.right_branching(n)
    if kind == "random":
        if rng is None:
            raise ContractViolation("random baseline needs an rng")
        return trees.random_tree(n, rng)
    raise ContractViolation(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------


def linearize(tree, tokens: list[str]) -> list[str]:
    """Token stream of the bracketed sentence, e.g. ( ( w0 w1 ) w2 ).

    A single-token sentence linearizes to just its token.
    """
    trees.validate_tree(tree, len(tokens))

    def walk(t):
        if isinstance(t, int):
            return [tokens[t]]
        return [OPEN] + walk(t[0]) + walk(t[1]) + [CLOSE]

    return walk(tree)


def delinearize(seq: list[str]) -> tuple[object | None, bool]:
    """Parse a (possibly malformed) bracket stream back into a tree.

    Returns (tree, repaired).  Model output is repaired by truncating to the
    longest balanced prefix and right-branching any uncovered suffix tokens
    onto the end; non-binary groups are right-binarized.  If no tokens at all
    survive, returns (None, True) and the caller picks a fallback.
    """
    repaired = False

    # Longest prefix with balanced, never-negative paren depth.
    depth = 0
    cut = 0
    for i, tok in enumerate(seq):
        if tok == OPEN:
            depth += 1
        elif tok == CLOSE:
            depth -= 1
            if depth < 0:
                break
        if depth == 0:
            cut = i + 1
    if cut < len(seq):
        repaired = True

    forest, group_repair = _parse_forest(seq[:cut])
    repaired = repaired or group_repair

    suffix_terms = [t for t in seq[cut:] if t not in (OPEN, CLOSE)]
    forest.extend(suffix_terms)

    if not forest:
        return None, True

    # Right-fold the top-level pieces into one tree, then index leaves.
    shape = forest[-1]
    for piece in reversed(forest[:-1]):
        shape = (piece, shape)
    return _index_leaves(shape), repaired


def _parse_forest(seq: list[str]) -> tuple[list, bool]:
    """Stack parse of a balanced prefix into top-level items (token strings or
    nested tuples).  Flags any group that was not exactly binary."""
    repaired = False
    stack: list = [[]]
    for tok in seq:
        if tok == OPEN:
            stack.append([])
        elif tok == CLOSE:
            group = stack.pop()
            if len(group) == 0:
                repaired = True
                continue  # drop empty ( )
            if len(group) == 1:
                repaired = True
                item = group[0]
            else:
                if len(group) > 2:
                    repaired = True
                item = group[-1]
                for piece in reversed(group[:-1]):
                    item = (piece, item)
            stack[-1].append(item)
        else:
            stack[-1].append(tok)
    assert len(stack) == 1, "prefix was pre-checked balanced"
    return stack[0], repaired


def _index_leaves(shape):
    """Replace terminal strings with 0-based positions, left to right."""
    counter = [0]

    def walk(t):
        if isinstance(t, tuple):
            return walk(t[0]), walk(t[1])
        idx = counter[0]
        counter[0] += 1
        return idx

    return walk(shape)


# ---------------------------------------------------------------------------
# tree files (one s-expression per line, aligned with a TSV examples file)
# ---------------------------------------------------------------------------


def save_trees(path, tree_list, tokens_list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tree, tokens in zip(tree_list, tokens_list):
            fh.write(trees.to_sexpr(tree, tokens) + "\n")


def load_trees(path) -> list:
    out = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(trees.parse_sexpr(line))
        except ContractViolation as exc:
            raise ContractViolation(f"{path}:{lineno}: {exc}") from exc
    return out
