"""Tree text and unlabeled bracketing scores.

One bracket grammar covers all tree text: the s-expressions of TSV and tree
files, ``((w0 w1) w2)``, and the linearized parses a probe emits,
``( ( w0 w1 ) w2 )``.  One reader parses both: ``parse_sexpr`` refuses any
malformed input, ``delinearize`` repairs model output.

Bracket convention: spans of length >= 2 count, and the whole-sentence span
is included by default (identical trees then score F1 = 1.0 even for n = 2).
Pass ``include_root=False`` to score proper brackets only.  Corpus scores are
micro-averaged: bracket counts are summed over sentences before the ratios.
"""

from __future__ import annotations

from . import trees
from .errors import ContractViolation, numbered_lines

OPEN, CLOSE = "(", ")"


def parseval_f1(pred, gold, include_root: bool = True) -> tuple[float, float, float]:
    """(precision, recall, F1) of predicted vs gold brackets for one sentence:
    ``corpus_parseval`` of the one pair."""
    return corpus_parseval([(pred, gold)], include_root)


def corpus_parseval(pairs, include_root: bool = True) -> tuple[float, float, float]:
    """Micro-averaged (precision, recall, F1) over (pred, gold) tree pairs."""
    matched = n_pred = n_gold = 0
    for i, (pred, gold) in enumerate(pairs):
        leaves_pred, leaves_gold = trees.leaf_count(pred), trees.leaf_count(gold)
        if leaves_pred != leaves_gold:
            raise ContractViolation(
                f"leaf count mismatch in pair {i}: pred {leaves_pred} vs gold {leaves_gold}"
            )
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


# ---------------------------------------------------------------------------
# tree text: linearized streams ( ( w0 w1 ) w2 ) and s-expressions ((w0 w1) w2)
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
    forest, repaired, cut, n_leaves = _read(seq)
    suffix = sum(tok != OPEN and tok != CLOSE for tok in seq[cut:])
    forest.extend(range(n_leaves, n_leaves + suffix))
    if not forest:
        return None, True
    return _fold_right(forest), repaired or cut < len(seq)


def to_sexpr(tree, tokens: list[str] | None = None) -> str:
    """Serialize as nested parens, e.g. ``((w0 w1) w2)``."""
    def render(t):
        if isinstance(t, int):
            return tokens[t] if tokens is not None else f"w{t}"
        return f"{OPEN}{render(t[0])} {render(t[1])}{CLOSE}"

    return render(tree)


def sexpr_tokens(text: str) -> list[str]:
    """Split an s-expression into parens and terminals."""
    return text.replace(OPEN, f" {OPEN} ").replace(CLOSE, f" {CLOSE} ").split()


def parse_sexpr(text: str):
    """Strict parser for serialized trees; terminals become leaf positions by
    order of appearance.  Malformed input raises ContractViolation."""
    toks = sexpr_tokens(text)
    forest, repaired, cut, _ = _read(toks)
    if cut < len(toks):
        raise ContractViolation(f"unbalanced brackets after token {cut} of {len(toks)}")
    if repaired:
        raise ContractViolation("non-binary group: every bracket must hold two items")
    if len(forest) != 1:
        raise ContractViolation(f"expected one tree, found {len(forest)}")
    return forest[0]


def _read(seq: list[str]) -> tuple[list, bool, int, int]:
    """One pass over a bracket stream, stopping at an unmatched CLOSE.

    Returns (forest, repaired, cut, leaves): the top-level items of
    ``seq[:cut]``, the longest prefix whose depth returns to zero, with
    terminals numbered in order of appearance; whether some group was not
    binary (empty ones are dropped, one item unwrapped, more right-folded);
    and how many terminals that prefix holds.
    """
    forest: list = []
    group = forest
    outer: list[list] = []  # the groups enclosing ``group``
    repaired = False
    cut = leaves = n = 0
    for i, tok in enumerate(seq):
        if tok == OPEN:
            outer.append(group)
            group = []
        elif tok == CLOSE:
            if not outer:
                break
            items, group = group, outer.pop()
            if len(items) == 2:
                group.append((items[0], items[1]))
            else:
                repaired = True
                if items:
                    group.append(_fold_right(items))
        else:
            group.append(n)
            n += 1
        if not outer:
            cut, leaves = i + 1, n
    return forest, repaired, cut, leaves


def _fold_right(items: list):
    """(a, (b, (... z))) over a non-empty list of subtrees; one item is itself."""
    tree = items[-1]
    for piece in reversed(items[:-1]):
        tree = (piece, tree)
    return tree


# ---------------------------------------------------------------------------
# tree files (one s-expression per line, aligned with a TSV examples file)
# ---------------------------------------------------------------------------


def save_trees(path, tree_list, tokens_list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tree, tokens in zip(tree_list, tokens_list):
            fh.write(to_sexpr(tree, tokens) + "\n")


def load_trees(path) -> list:
    out = []
    for lineno, line in numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(parse_sexpr(line))
        except ContractViolation as exc:
            raise ContractViolation(f"{path}:{lineno}: {exc}") from exc
    return out
