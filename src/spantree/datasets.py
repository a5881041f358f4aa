"""Synthetic sequence transduction corpora with gold derivation trees.

The generator emits nested list-operation expressions in prefix notation over
two-element leaf lists of symbols, with no separators.  Because every leaf
list has exactly two symbols, the token stream parses uniquely.  Operations:

    unary   copy L          -> L
            reverse L       -> reversed L
            shift L         -> rotate left by one
            repeat L        -> L ++ L
    binary  append A B      -> A ++ B
            interleave_first A B   -> a1 b1 a2 b2 ...   (equal lengths)
            interleave_second A B  -> b1 a1 b2 a2 ...   (equal lengths)

e.g. source ``interleave_second A B C D`` has target ``C A D B``.  The gold
tree is the derivation, right-binarized: a unary node is (op arg), a binary
node is (op (arg1 arg2)), and a leaf list is (sym1 sym2).

Compositional-generalization splits hold out every example whose outermost
(parent op, direct-child head) pair lands in a designated unseen set; the
rest is split 90/10 into train and iid validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import trees
from .errors import ContractViolation, numbered_lines

PAD, BOS, EOS, MASK, UNK = "<pad>", "<bos>", "<eos>", "<mask>", "<unk>"
RESERVED = (PAD, BOS, EOS, MASK, UNK)

UNARY_OPS = ("copy", "reverse", "shift", "repeat")
BINARY_OPS = ("append", "interleave_first", "interleave_second")
ALL_OPS = UNARY_OPS + BINARY_OPS

LEAF = "leaf"  # head marker for a bare two-symbol list


class Vocab:
    """Token <-> id bijection with fixed reserved ids for PAD/BOS/EOS/MASK/UNK."""

    def __init__(self, tokens):
        self.id_to_token = list(RESERVED)
        seen = set(RESERVED)
        for tok in tokens:
            if tok not in seen:
                seen.add(tok)
                self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos(self) -> int:
        return self.token_to_id[EOS]

    @property
    def mask(self) -> int:
        return self.token_to_id[MASK]

    @property
    def unk(self) -> int:
        return self.token_to_id[UNK]

    def encode(self, tokens) -> list[int]:
        unk = self.unk
        return [self.token_to_id.get(t, unk) for t in tokens]

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids]


@dataclass
class TransductionExample:
    source: list[str]
    target: list[str]
    tree: object | None = None  # gold derivation over source positions
    # (parent op, head of each direct argument); empty when loaded from disk
    head_pairs: tuple = ()


@dataclass
class Corpus:
    train: list[TransductionExample]
    iid_val: list[TransductionExample]
    cg_test: list[TransductionExample]
    vocab: Vocab = field(default=None)

    def splits(self):
        return {"train": self.train, "iid_val": self.iid_val, "cg_test": self.cg_test}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def default_alphabet(size: int = 20) -> list[str]:
    """Letter+digit symbols, e.g. A1 B1 ... T1."""
    return [f"{chr(ord('A') + i % 26)}{1 + i // 26}" for i in range(size)]


@dataclass
class _Expr:
    tokens: list[str]
    value: list[str]
    head: str          # op name, or LEAF
    tree: object
    arg_heads: tuple   # head of each direct argument


def _apply_unary(op: str, xs: list[str]) -> list[str]:
    if op == "copy":
        return list(xs)
    if op == "reverse":
        return list(reversed(xs))
    if op == "shift":
        return xs[1:] + xs[:1]
    if op == "repeat":
        return xs + xs
    raise ContractViolation(f"unknown unary op {op!r}")


def _apply_binary(op: str, xs: list[str], ys: list[str]) -> list[str]:
    if op == "append":
        return xs + ys
    if op in ("interleave_first", "interleave_second"):
        if len(xs) != len(ys):
            raise ContractViolation(
                f"{op} needs equal lengths, got {len(xs)} and {len(ys)}"
            )
        out = []
        for a, b in zip(xs, ys):
            out.extend([a, b] if op == "interleave_first" else [b, a])
        return out
    raise ContractViolation(f"unknown binary op {op!r}")


def _gen_expr(rng: random.Random, depth: int, alphabet: list[str], offset: int) -> _Expr:
    """Expression of exactly the requested op-nesting depth.

    ``offset`` is the leaf position of the expression's first token, so the
    gold tree can be built over absolute source positions.
    """
    if depth == 0:
        a, b = rng.choice(alphabet), rng.choice(alphabet)
        return _Expr([a, b], [a, b], LEAF, (offset, offset + 1), ())
    op = rng.choice(ALL_OPS)
    if op in UNARY_OPS:
        arg = _gen_expr(rng, depth - 1, alphabet, offset + 1)
        return _Expr(
            [op] + arg.tokens,
            _apply_unary(op, arg.value),
            op,
            (offset, arg.tree),
            (arg.head,),
        )
    # Binary: the first argument carries the full remaining depth; the second
    # gets a random shallower budget.  Interleaving needs equal value lengths,
    # so retry the second argument a few times and fall back to mirroring the
    # first argument's depth-0 skeleton (a fresh leaf) via append when the
    # lengths cannot be matched.
    first = _gen_expr(rng, depth - 1, alphabet, offset + 1)
    if op == "append":
        d2 = rng.randint(0, depth - 1)
        second = _gen_expr(rng, d2, alphabet, offset + 1 + len(first.tokens))
    else:
        second = None
        for _ in range(50):
            d2 = rng.randint(0, depth - 1)
            cand = _gen_expr(rng, d2, alphabet, offset + 1 + len(first.tokens))
            if len(cand.value) == len(first.value):
                second = cand
                break
        if second is None:
            op = "append"
            second = _gen_expr(rng, 0, alphabet, offset + 1 + len(first.tokens))
    return _Expr(
        [op] + first.tokens + second.tokens,
        _apply_binary(op, first.value, second.value),
        op,
        (offset, (first.tree, second.tree)),
        (first.head, second.head),
    )


def generate_expressions(
    count: int,
    depth_range: tuple[int, int] = (1, 3),
    seed: int = 0,
    alphabet_size: int = 20,
) -> list[TransductionExample]:
    """Deterministic corpus of ``count`` examples with gold trees attached."""
    lo, hi = depth_range
    if not (1 <= lo <= hi):
        raise ContractViolation(f"bad depth range {depth_range}")
    if count < 1:
        raise ContractViolation("count must be positive")
    if alphabet_size < 1:
        raise ContractViolation(f"alphabet size must be >= 1, got {alphabet_size}")
    rng = random.Random(seed)
    alphabet = default_alphabet(alphabet_size)
    out = []
    for _ in range(count):
        depth = rng.randint(lo, hi)
        expr = _gen_expr(rng, depth, alphabet, 0)
        out.append(
            TransductionExample(
                source=expr.tokens,
                target=list(expr.value),
                tree=expr.tree,
                head_pairs=tuple((expr.head, head) for head in expr.arg_heads),
            )
        )
    return out


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def make_cg_split(
    examples: list[TransductionExample],
    unseen_pairs,
    seed: int = 0,
    val_frac: float = 0.1,
) -> Corpus:
    """Hold out examples whose outermost (parent, child-head) pair is unseen.

    The remainder is shuffled deterministically and split into train and iid
    validation.  The vocabulary is built from train sources and targets only.
    """
    if not 0 <= val_frac < 1:
        raise ContractViolation(f"val_frac must lie in [0, 1), got {val_frac}")
    unseen = {tuple(p) for p in unseen_pairs}
    held, kept = [], []
    for ex in examples:
        if ex.head_pairs and any(p in unseen for p in ex.head_pairs):
            held.append(ex)
        else:
            kept.append(ex)
    rng = random.Random(seed)
    order = list(range(len(kept)))
    rng.shuffle(order)
    n_val = int(round(len(kept) * val_frac))
    val_idx = set(order[:n_val])
    train = [kept[i] for i in range(len(kept)) if i not in val_idx]
    iid_val = [kept[i] for i in range(len(kept)) if i in val_idx]
    if not train:
        raise ContractViolation("holdout left the train split empty")
    vocab = Vocab(t for ex in train for t in ex.source + ex.target)
    return Corpus(train=train, iid_val=iid_val, cg_test=held, vocab=vocab)


DEFAULT_UNSEEN = (("repeat", "reverse"), ("append", "shift"))


# ---------------------------------------------------------------------------
# TSV files: source<TAB>target[<TAB>gold-tree-sexpr], whitespace-tokenized
# ---------------------------------------------------------------------------


def write_tsv(examples: list[TransductionExample], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            cols = [" ".join(ex.source), " ".join(ex.target)]
            if ex.tree is not None:
                cols.append(trees.to_sexpr(ex.tree, ex.source))
            fh.write("\t".join(cols) + "\n")


def load_tsv(path) -> list[TransductionExample]:
    out = []
    for lineno, line in numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) not in (2, 3):
            raise ContractViolation(
                f"{path}:{lineno}: expected 2 or 3 tab-separated columns, got {len(cols)}"
            )
        source = cols[0].split()
        target = cols[1].split()
        if not source:
            raise ContractViolation(f"{path}:{lineno}: empty source")
        tree = None
        if len(cols) == 3 and cols[2].strip():
            try:
                tree = trees.parse_sexpr(cols[2])
            except ContractViolation as exc:
                raise ContractViolation(f"{path}:{lineno}: {exc}") from exc
            if trees.leaf_count(tree) != len(source):
                raise ContractViolation(
                    f"{path}:{lineno}: gold tree covers {trees.leaf_count(tree)} "
                    f"tokens but source has {len(source)}"
                )
        out.append(TransductionExample(source=source, target=target, tree=tree))
    return out


SPLIT_FILES = {"train": "train.tsv", "iid_val": "iid_val.tsv", "cg_test": "cg_test.tsv"}


def save_corpus(corpus: Corpus, out_dir) -> None:
    import os

    os.makedirs(out_dir, exist_ok=True)
    for split, filename in SPLIT_FILES.items():
        write_tsv(corpus.splits()[split], os.path.join(out_dir, filename))


def load_corpus(data_dir) -> Corpus:
    """Load the three split files; vocabulary comes from train only.

    A data directory that does not exist is an I/O error; one that exists
    but lacks a usable train split is a contract violation.
    """
    import os

    if not os.path.isdir(data_dir):
        raise FileNotFoundError(f"data directory not found: {data_dir}")
    splits = {}
    for split, filename in SPLIT_FILES.items():
        path = os.path.join(data_dir, filename)
        splits[split] = load_tsv(path) if os.path.exists(path) else []
    if not splits["train"]:
        raise ContractViolation(f"no train examples found under {data_dir}")
    vocab = Vocab(t for ex in splits["train"] for t in ex.source + ex.target)
    return Corpus(vocab=vocab, **splits)
