"""Pre-layer-norm transformer encoder-decoder on the float64 tape.

An encoder pass applies one attention mask at every block, so a
``LayerMask`` is one boolean matrix and fits an encoder of any depth;
``mask=None`` adds the scalar 0.0 and an all-true mask adds a zeros array,
so the two produce bit-identical output.  ``_additive`` is the one rule
that turns boolean permissions into 0.0 / ``NEG_MASK``.  Sinusoidal
absolute positions are added once at layer 0, so a pass over a subset of
positions keeps each token's original position simply by slicing layer-0
states.

Token ids enter the model one way: ``pad_ids`` builds every (B, n) id batch,
targets included, and is the one place an empty batch or sentence is refused.
``encoder_states_t`` returns raw per-layer states (index 0 is embeddings
plus positions) and never applies the final layer norm; ``memory``,
``encode`` and the SCI charts apply it through ``final_norm``.
``frozen_memory`` is the one no-gradient encode, ``mlm_logits`` the one
masked-token head.  Every method runs the same ``numerics`` kernels, called
by their names here, on the tape and off it: under ``no_tape`` ``_p`` hands
out parameter values and every state is a plain ndarray, so ``encode``,
``memory`` / ``frozen_memory``, a ``DecoderCache`` and ``decode_with_memory``
take and return arrays and inference builds no ``Tensor``.

The decoder has one path: ``decoder_logits(ids, cache)`` on a
``DecoderCache``, which projects every layer's cross-attention keys and
values from the memory when it is built, holds the cross-attention mask, and
collects the self-attention keys and values of every position fed so far.
Teacher forcing (``packed_loss``) feeds every target prefix of a packed
batch to a fresh cache on the tape.  Greedy decoding feeds only the newest
token of each live row (a row leaves the live set once it emits EOS) under
``no_tape``.  Retiring rows keeps the remaining rows' bits; computing one
query row at a time instead of the whole prefix moves logits by rounding
only (about 1e-15 relative), and decoded tokens match a full-prefix decode.

Teacher-forced training packs its pairs (``pack_pairs``; Krell et al., arXiv
2107.02027): several (source, target) pairs share a row, positions restart at
each pair, and block-diagonal masks keep the pairs apart.  ``packed_loss`` is
the one teacher-forced loss: one decoder pass through the same
``decoder_logits`` that inference uses, over memory laid out like the batch's
sources.  ``seq2seq_loss`` encodes that memory in one packed encoder pass; the
probe gathers it from sources it encoded once.  Masked-token training and
every inference caller number positions 0..n-1 per row.

Checkpoints (format v3) are directories holding ``data.bin`` (the tensors'
raw little-endian float64 bytes in ``expected_param_specs`` order, which the
config and task fix) and ``manifest.json`` (format, task, step, config, vocab
and the SHA-256 of ``data.bin``; every field and config key required).  A
``data.bin`` of another size or digest is refused; checkpoints reload
bit-exactly.  v1 and v2 are refused by their format tag.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .datasets import RESERVED, Vocab
from .errors import CheckpointError, ContractViolation
from .numerics import (
    NEG_MASK,
    Operand,
    Tensor,
    add,
    affine,
    constant,
    cross_entropy,
    embedding,
    layer_norm,
    masked_softmax,
    matmul,
    no_tape,
    parameter,
    permute,
    relu,
    reshape,
    scale,
    taping,
)

Array = np.ndarray

CHECKPOINT_FORMAT = "spantree-checkpoint-v3"
MANIFEST_FILE = "manifest.json"
DATA_FILE = "data.bin"

TASKS = ("seq2seq", "mlm", "probe")


@dataclass
class EncoderConfig:
    """Architecture hyperparameters; all tensors are float64."""

    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 4
    d_model: int = 64
    d_ff: int = 256
    vocab_size: int = 0
    max_len: int = 64

    def validate(self) -> None:
        if self.enc_layers < 1:
            raise ContractViolation("enc_layers must be >= 1")
        if self.dec_layers < 0:
            raise ContractViolation("dec_layers must be >= 0")
        if self.d_model < 1 or self.heads < 1 or self.d_model % self.heads != 0:
            raise ContractViolation(
                f"heads ({self.heads}) must be positive and divide d_model ({self.d_model})"
            )
        if self.d_ff < 1 or self.max_len < 1:
            raise ContractViolation("d_ff and max_len must be positive")
        if self.vocab_size < len(RESERVED) + 1:
            raise ContractViolation("vocab_size must cover reserved tokens")


def sinusoidal_positions(max_len: int, d_model: int) -> Array:
    """Fixed absolute position table: sin on even dims, cos on odd dims."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(dim / 2.0) / d_model)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def _additive(allow: Array) -> Array:
    """The additive mask of boolean permissions: 0.0 where ``allow`` holds,
    ``NEG_MASK`` where it does not."""
    return np.where(allow, 0.0, NEG_MASK)


class LayerMask:
    """Boolean attention permissions allow[q][k] for one sentence, applied
    at every encoder block.

    ``allow`` must be square and keep at least one permitted key in every
    row; ``encode`` refuses a mask built for another sentence length.
    """

    def __init__(self, allow: Array):
        self.allow = np.asarray(allow, dtype=bool)
        if self.allow.ndim != 2 or self.allow.shape[0] != self.allow.shape[1]:
            raise ContractViolation(f"mask is not square: {self.allow.shape}")
        if not self.allow.any(axis=1).all():
            raise ContractViolation("mask has a fully masked row")

    @property
    def n(self) -> int:
        return self.allow.shape[0]

    @classmethod
    def all_true(cls, n: int) -> "LayerMask":
        return cls(np.ones((n, n), dtype=bool))

    @classmethod
    def block_diagonal(cls, boundary: int, n: int) -> "LayerMask":
        """Two independent segments [0, boundary) and [boundary, n)."""
        if not 0 < boundary < n:
            raise ContractViolation(f"boundary {boundary} outside (0, {n})")
        allow = np.zeros((n, n), dtype=bool)
        allow[:boundary, :boundary] = True
        allow[boundary:, boundary:] = True
        return cls(allow)


def pad_ids(rows: list[list[int]], pad: int) -> Array:
    """The (B, n) int64 id batch of ``rows``, each right-padded with ``pad``
    to the longest; an empty batch or an empty row is refused."""
    if len(rows) == 0:
        raise ContractViolation("empty batch: no sentences to encode")
    if not all(len(row) for row in rows):
        raise ContractViolation("cannot encode an empty sentence")
    ids = np.full((len(rows), max(len(row) for row in rows)), pad, dtype=np.int64)
    for b, row in enumerate(rows):
        ids[b, : len(row)] = row
    return ids


def _segment_additive(query: Array, key: Array, causal: bool = False) -> Array:
    """The additive (R, 1, nq, nk) mask that lets each query position see
    only the keys of its own pair; ``query`` and ``key`` hold each position's
    pair index, -1 at padding.  A pad query may see every key, so no row is
    fully masked; nothing real reads a pad query's output."""
    allow = (query[:, :, None] == key[:, None, :]) | (query[:, :, None] < 0)
    if causal:
        allow &= np.tri(query.shape[1], dtype=bool)
    return _additive(allow)[:, None]


@dataclass
class PackedBatch:
    """(source, target) pairs packed into rows for one teacher-forced pass.

    Every array has one row per packed row.  Sources are (R, ns) and targets
    (R, nt): ns is the longest source and nt the longest target plus EOS.
    ``*_pos`` number each pair's tokens from 0, and ``src_pair`` and
    ``target_pair`` hold the pair index of every source and target position
    (-1 at padding).  The masks keep a pair's attention inside the pair:
    encoder self-attention, causal decoder self-attention, and
    cross-attention from a target to its own source.
    """

    src_ids: Array
    src_pos: Array
    src_pair: Array
    enc_additive: Array
    tgt_in: Array
    tgt_out: Array
    tgt_pos: Array
    target_pair: Array
    self_additive: Array
    cross_additive: Array


def pack_pairs(pairs: list[tuple[list[int], list[int]]], vocab: Vocab) -> PackedBatch:
    """Pack (source ids, target ids) pairs, without sentinels, first fit by
    decreasing source length: each pair goes into the first row that still
    has room for its source and for its target plus EOS, or opens a new
    row.  An empty batch or source is refused."""
    src_len = [len(src) for src, _ in pairs]
    tgt_len = [len(tgt) + 1 for _, tgt in pairs]
    if 0 in src_len:
        raise ContractViolation("cannot encode an empty sentence")
    ns, nt = max(src_len, default=0), max(tgt_len, default=0)
    rows: list[list[int]] = []  # the pairs of each row, in order
    used: list[list[int]] = []  # each row's filled source and target positions
    for i in sorted(range(len(pairs)), key=lambda i: -src_len[i]):
        r = next((r for r, (a, b) in enumerate(used)
                  if a + src_len[i] <= ns and b + tgt_len[i] <= nt), len(rows))
        if r == len(rows):
            rows.append([])
            used.append([0, 0])
        rows[r].append(i)
        used[r][0] += src_len[i]
        used[r][1] += tgt_len[i]

    def packed(piece, fill: int) -> Array:
        """Each row's ``piece(i)`` of its pairs, concatenated, padded with ``fill``."""
        return pad_ids([[x for i in row for x in piece(i)] for row in rows], fill)

    pad, bos, eos = vocab.pad, vocab.bos, vocab.eos
    src_pair = packed(lambda i: [i] * src_len[i], -1)
    target_pair = packed(lambda i: [i] * tgt_len[i], -1)
    return PackedBatch(
        src_ids=packed(lambda i: pairs[i][0], pad),
        src_pos=packed(lambda i: range(src_len[i]), 0),
        src_pair=src_pair,
        enc_additive=_segment_additive(src_pair, src_pair),
        tgt_in=packed(lambda i: [bos, *pairs[i][1]], pad),
        tgt_out=packed(lambda i: [*pairs[i][1], eos], pad),
        tgt_pos=packed(lambda i: range(tgt_len[i]), 0),
        target_pair=target_pair,
        self_additive=_segment_additive(target_pair, target_pair, causal=True),
        cross_additive=_segment_additive(target_pair, src_pair),
    )


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------


def _attn_specs(prefix: str, d: int) -> dict[str, tuple[int, int]]:
    out = {}
    for proj in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{proj}"] = (d, d)
    # no key bias: q·bk is the same for every key of a query, so softmax drops it
    for bias in ("bq", "bv", "bo"):
        out[f"{prefix}.{bias}"] = (1, d)
    return out


def _ln_specs(prefix: str, d: int) -> dict[str, tuple[int, int]]:
    return {f"{prefix}.g": (1, d), f"{prefix}.b": (1, d)}


def _ff_specs(prefix: str, d: int, d_ff: int) -> dict[str, tuple[int, int]]:
    return {
        f"{prefix}.w1": (d, d_ff),
        f"{prefix}.b1": (1, d_ff),
        f"{prefix}.w2": (d_ff, d),
        f"{prefix}.b2": (1, d),
    }


def expected_param_specs(config: EncoderConfig, task: str) -> dict[str, tuple[int, int]]:
    """Name -> shape for every tensor of the given task, in a fixed order."""
    if task not in TASKS:
        raise ContractViolation(f"unknown task {task!r}")
    d, v = config.d_model, config.vocab_size
    specs: dict[str, tuple[int, int]] = {}
    if task in ("seq2seq", "mlm"):
        specs["enc.emb"] = (v, d)
        for i in range(config.enc_layers):
            specs.update(_ln_specs(f"enc.{i}.ln1", d))
            specs.update(_attn_specs(f"enc.{i}.attn", d))
            specs.update(_ln_specs(f"enc.{i}.ln2", d))
            specs.update(_ff_specs(f"enc.{i}.ff", d, config.d_ff))
        specs.update(_ln_specs("enc.ln_f", d))
    if task in ("seq2seq", "probe"):
        if config.dec_layers < 1:
            raise ContractViolation(f"{task} needs dec_layers >= 1")
        specs["dec.emb"] = (v, d)
        for i in range(config.dec_layers):
            specs.update(_ln_specs(f"dec.{i}.ln1", d))
            specs.update(_attn_specs(f"dec.{i}.self", d))
            specs.update(_ln_specs(f"dec.{i}.ln2", d))
            specs.update(_attn_specs(f"dec.{i}.cross", d))
            specs.update(_ln_specs(f"dec.{i}.ln3", d))
            specs.update(_ff_specs(f"dec.{i}.ff", d, config.d_ff))
        specs.update(_ln_specs("dec.ln_f", d))
        specs["out.w"] = (d, v)
        specs["out.b"] = (1, v)
    if task == "mlm":
        specs["mlm.w"] = (d, v)
        specs["mlm.b"] = (1, v)
    return specs


def _init_value(name: str, shape: tuple[int, int], rng: np.random.Generator) -> Array:
    rows, cols = shape
    if name.endswith(".g"):
        return np.ones(shape)
    if name.endswith(".emb"):
        return rng.normal(0.0, 1.0 / math.sqrt(cols), size=shape)
    if name.split(".")[-1].startswith("b"):
        return np.zeros(shape)
    return rng.normal(0.0, math.sqrt(2.0 / (rows + cols)), size=shape)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


class TransformerModel:
    """Encoder-decoder (or encoder-only / decoder-only) transformer.

    task "seq2seq": encoder + decoder + output projection
    task "mlm":     encoder + linear vocabulary head
    task "probe":   decoder only; memory states are supplied by the caller
    """

    def __init__(
        self,
        config: EncoderConfig,
        vocab: Vocab,
        task: str = "seq2seq",
        rng: np.random.Generator | int = 0,
        params: dict[str, Tensor] | None = None,
        step: int = 0,
    ):
        config.validate()
        if task not in TASKS:
            raise ContractViolation(f"unknown task {task!r}")
        if config.vocab_size != len(vocab):
            raise ContractViolation(
                f"config.vocab_size {config.vocab_size} != len(vocab) {len(vocab)}"
            )
        self.config = config
        self.vocab = vocab
        self.task = task
        self.step = step
        self.positions = sinusoidal_positions(config.max_len, config.d_model)
        specs = expected_param_specs(config, task)
        if params is None:
            if not isinstance(rng, np.random.Generator):
                rng = np.random.default_rng(rng)
            params = {
                name: parameter(_init_value(name, shape, rng), name=name)
                for name, shape in specs.items()
            }
        else:
            for name, shape in specs.items():
                if name not in params:
                    raise ContractViolation(f"missing parameter {name!r}")
                if params[name].value.shape != shape:
                    raise ContractViolation(
                        f"parameter {name!r} has shape {params[name].value.shape}, "
                        f"expected {shape}"
                    )
        self.params = params

    # -- plumbing ----------------------------------------------------------

    def clone(self) -> "TransformerModel":
        params = {
            name: parameter(p.value.copy(), name=name) for name, p in self.params.items()
        }
        return TransformerModel(
            self.config, self.vocab, self.task, params=params, step=self.step
        )

    def _p(self, name: str) -> Operand:
        """Parameter ``name``: its tape leaf, or under ``no_tape`` its array."""
        p = self.params[name]
        return p if taping() else p.value

    def _affine(self, x: Operand, w: str, b: str | None = None) -> Operand:
        """``x @ w + b`` (``x @ w`` for keys) as one ``affine`` tape node.
        Every linear layer runs through here: attention projections (the
        cross-attention keys and values a ``DecoderCache`` projects
        included), feed-forward layers and the output and MLM heads."""
        return affine(x, self._p(w), None if b is None else self._p(b))

    def _ln(self, x: Operand, prefix: str) -> Operand:
        return layer_norm(x, self._p(f"{prefix}.g"), self._p(f"{prefix}.b"))

    def _heads(self, x: Operand) -> Operand:
        """(B, n, d) -> (B, h, n, d / h)."""
        cfg = self.config
        bsz, n = x.shape[0], x.shape[1]
        return permute(reshape(x, (bsz, n, cfg.heads, cfg.d_model // cfg.heads)), (0, 2, 1, 3))

    def _keys_values(self, prefix: str, xkv: Operand) -> tuple[Operand, Operand]:
        """Head-split attention keys and values (B, h, nk, dh) of ``xkv``."""
        k = self._affine(xkv, f"{prefix}.wk")
        v = self._affine(xkv, f"{prefix}.wv", f"{prefix}.bv")
        return self._heads(k), self._heads(v)

    def _attention(
        self, prefix: str, xq: Operand, kv: tuple[Operand, Operand], additive: Array | float
    ) -> Operand:
        """Multi-head attention of ``xq`` over keys and values from
        ``_keys_values``; ``additive`` broadcasts to (B, h, nq, nk)."""
        cfg = self.config
        bq, nq = xq.shape[0], xq.shape[1]
        dh = cfg.d_model // cfg.heads
        q = self._heads(self._affine(xq, f"{prefix}.wq", f"{prefix}.bq"))
        k, v = kv
        scores = scale(matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        probs = masked_softmax(scores, additive)
        ctx = matmul(probs, v)
        ctx = reshape(permute(ctx, (0, 2, 1, 3)), (bq, nq, cfg.d_model))
        return self._affine(ctx, f"{prefix}.wo", f"{prefix}.bo")

    def _ff(self, prefix: str, x: Operand) -> Operand:
        hidden = relu(self._affine(x, f"{prefix}.w1", f"{prefix}.b1"))
        return self._affine(hidden, f"{prefix}.w2", f"{prefix}.b2")

    def encoder_block(self, i: int, x: Operand, additive: Array | float) -> Operand:
        h = self._ln(x, f"enc.{i}.ln1")
        kv = self._keys_values(f"enc.{i}.attn", h)
        x = add(x, self._attention(f"enc.{i}.attn", h, kv, additive))
        x = add(x, self._ff(f"enc.{i}.ff", self._ln(x, f"enc.{i}.ln2")))
        return x

    # -- encoder -----------------------------------------------------------

    def embed_source(
        self, ids: Array, layer0_delta: Array | None = None, positions: Array | None = None
    ) -> Operand:
        """Layer-0 states: scaled embeddings plus absolute positions, the
        position ids ``positions`` (shaped like ``ids``) or else 0..n-1."""
        ids = np.asarray(ids)
        n = ids.shape[-1]
        if n > self.config.max_len:
            raise ContractViolation(f"sequence length {n} exceeds max_len")
        x = scale(embedding(self._p("enc.emb"), ids), math.sqrt(self.config.d_model))
        pos = self.positions[:n] if positions is None else self.positions[positions]
        if layer0_delta is not None:
            pos = pos + np.asarray(layer0_delta, dtype=np.float64)
        return add(x, constant(pos))

    def encoder_states_t(
        self,
        ids: Array,
        additive: Array | None = None,
        layer0_delta: Array | None = None,
        positions: Array | None = None,
    ) -> list[Operand]:
        """Raw per-layer states for a (B, n) id batch from ``pad_ids``:
        tape nodes, or plain arrays under ``no_tape``.

        ``additive`` is the one additive attention mask that every block
        applies; ``encode`` builds it from a ``LayerMask``,
        ``memory`` from the pad positions and ``pack_pairs`` from the
        segments, each so that every row keeps a permitted key.  None adds
        the scalar 0.0 (unrestricted).
        ``positions`` are per-token position ids (packed rows restart them at
        each pair); None numbers every row 0..n-1.  The final layer norm is
        never applied here: callers that read final states apply
        ``final_norm`` to the last entry.
        """
        if self.task == "probe":
            raise ContractViolation("probe models have no encoder")
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ContractViolation("encoder expects a (batch, length) id array")
        states = [self.embed_source(ids, layer0_delta, positions)]
        additive = 0.0 if additive is None else additive
        for i in range(self.config.enc_layers):
            states.append(self.encoder_block(i, states[-1], additive))
        return states

    def final_norm(self, x: Operand) -> Operand:
        return self._ln(x, "enc.ln_f")

    def memory(self, ids: Array) -> tuple[Operand, Array]:
        """Final-normed encoder states (B, n, d) of a (B, n) id batch from
        ``pad_ids``, a tape node or under ``no_tape`` an array, plus the
        additive (B, 1, 1, n) mask that hides its pad positions from
        attention.  A row that is all padding would leave attention no key,
        so it is rejected."""
        pad = np.asarray(ids) == self.vocab.pad
        if pad.all(axis=-1).any():
            raise ContractViolation("memory: a batch row is all padding")
        additive = _additive(~pad)[:, None, None, :]
        states = self.encoder_states_t(ids, additive)
        return self.final_norm(states[-1]), additive

    def frozen_memory(self, sources: list[list[int]]) -> tuple[Array, Array]:
        """``memory`` of the padded ``sources`` as a plain array, built off the
        tape so that no gradient reaches the encoder: the memory decoding and
        the probe read."""
        with no_tape():
            return self.memory(pad_ids(sources, self.vocab.pad))

    def encode(
        self,
        tokens,
        mask: LayerMask | None = None,
        layer0_delta: Array | None = None,
    ) -> list[Array]:
        """Per-layer hidden states (n, d) for one sentence, layer 0 included,
        the final layer norm applied to the last.

        ``mask``, a ``LayerMask`` of the sentence's length, restricts encoder
        self-attention at every block; None means unrestricted, and an
        all-true mask is bit-identical to None.
        """
        ids = pad_ids([tokens], self.vocab.pad)
        n = ids.shape[1]
        additive = None
        if mask is not None:
            if mask.n != n:
                raise ContractViolation(f"mask is for n={mask.n}, sentence has n={n}")
            additive = _additive(mask.allow)[None, None]
        delta = None if layer0_delta is None else np.asarray(layer0_delta)[None]
        with no_tape():
            states = self.encoder_states_t(ids, additive, delta)
            states[-1] = self.final_norm(states[-1])
        return [s[0] for s in states]

    # -- decoder -----------------------------------------------------------

    def decoder_logits(
        self,
        tgt_ids: Array,
        cache: DecoderCache,
        positions: Array | None = None,
        self_additive: Array | None = None,
    ) -> Operand:
        """Next-token logits (B, nt, V) for the target ids (B, nt) at
        positions ``cache.offset`` onward, or at the per-token position ids
        ``positions`` under the causal additive mask ``self_additive`` (a
        packed batch on a fresh cache); None gives contiguous positions and
        a plain causal mask.

        Each layer's cross-attention reads the keys, values and pad mask the
        ``DecoderCache`` holds; causal self-attention attends over the cached
        keys and values plus the new ones, which are appended, and the offset
        advances by nt.  Teacher forcing feeds a whole prefix to a fresh
        cache; greedy decoding feeds one token per live row and step.  A
        product over fewer query rows may round differently in BLAS, so
        step-wise logits can differ from the whole-prefix ones by rounding
        (about 1e-15 relative).

        On the tape the cache must be fresh and built on the tape: a fed
        cache holds earlier keys and values as plain arrays, and so does a
        cache built under ``no_tape`` for its cross-attention keys, which no
        gradient reaches.
        """
        cfg = self.config
        tgt_ids = np.asarray(tgt_ids)
        bsz, nt = tgt_ids.shape
        offset = cache.offset
        if offset + nt > cfg.max_len:
            raise ContractViolation(f"target length {offset + nt} exceeds max_len")
        x = scale(embedding(self._p("dec.emb"), tgt_ids), math.sqrt(cfg.d_model))
        if type(x) is Tensor and (offset or type(cache.cross[0][0]) is not Tensor):
            raise ContractViolation(
                "decoder_logits: on the tape, use a fresh cache built on the tape"
            )
        x = add(x, constant(self.positions[offset : offset + nt] if positions is None
                            else self.positions[positions]))
        causal = self_additive
        if causal is None:  # a single query row may see every key so far
            causal = (0.0 if nt == 1 else
                      _additive(np.tri(nt, offset + nt, k=offset, dtype=bool))[None, None])
        for i in range(cfg.dec_layers):
            h = self._ln(x, f"dec.{i}.ln1")
            kv = cache.extend(i, self._keys_values(f"dec.{i}.self", h))
            x = add(x, self._attention(f"dec.{i}.self", h, kv, causal))
            x = add(x, self._attention(f"dec.{i}.cross", self._ln(x, f"dec.{i}.ln2"),
                                       cache.cross[i], cache.cross_additive))
            x = add(x, self._ff(f"dec.{i}.ff", self._ln(x, f"dec.{i}.ln3")))
        cache.offset += nt
        x = self._ln(x, "dec.ln_f")
        return self._affine(x, "out.w", "out.b")

    # -- losses ------------------------------------------------------------

    def seq2seq_loss(self, pairs: list[tuple[list[int], list[int]]]) -> Tensor:
        """Teacher-forced mean cross-entropy over every target token, EOS
        included, of (source ids, target ids) pairs without sentinels: the
        pairs packed (``pack_pairs``), one packed encoder pass, then
        ``packed_loss``.  Masked keys get exactly zero probability, so each
        pair's logits are those of the pair run alone up to rounding (about
        1e-15 relative), and the loss is that of one batch padded to its
        longest pair up to rounding.
        """
        batch = pack_pairs(pairs, self.vocab)
        states = self.encoder_states_t(batch.src_ids, batch.enc_additive, positions=batch.src_pos)
        return self.packed_loss(batch, self.final_norm(states[-1]))

    def packed_loss(self, batch: PackedBatch, memory: Tensor) -> Tensor:
        """Teacher-forced mean cross-entropy of a packed batch's targets,
        weighted by the real target tokens, given ``memory`` (R, ns, d) laid
        out like the batch's sources.  A pad source position may hold any
        finite state: the pair mask gives it exactly zero weight."""
        weights = (batch.target_pair >= 0).astype(np.float64)
        return cross_entropy(self.packed_logits(batch, memory), batch.tgt_out, weights)

    def packed_logits(self, batch: PackedBatch, memory: Tensor) -> Tensor:
        """Teacher-forced next-token logits (R, nt, V) of a packed batch over
        ``memory`` laid out like its sources."""
        cache = DecoderCache(self, memory, batch.cross_additive)
        return self.decoder_logits(batch.tgt_in, cache, batch.tgt_pos, batch.self_additive)

    def mlm_logits(self, ids: Array) -> Tensor:
        """Vocabulary-head logits (B, n, V) of a (B, n) id batch from ``pad_ids``."""
        if self.task != "mlm":
            raise ContractViolation("the masked-token head requires an mlm model")
        return self._affine(self.memory(ids)[0], "mlm.w", "mlm.b")

    def mlm_loss(self, masked_ids: Array, original_ids: Array, loss_mask: Array) -> Tensor:
        """Cross-entropy of the vocabulary head at masked positions only.

        Masking replaces real tokens only, so ``masked_ids`` and
        ``original_ids`` share their pad positions.
        """
        logits = self.mlm_logits(masked_ids)
        return cross_entropy(logits, np.asarray(original_ids), np.asarray(loss_mask))

    # -- decoding ----------------------------------------------------------

    def greedy_decode(
        self, sources: list[list[int]], max_new: int, targets: list[list[int]] | None = None
    ) -> list[list[int]]:
        """Batched argmax decoding until EOS (ties take the lowest id); with
        ``targets``, a row also stops at its first wrong token, as in
        ``decode_with_memory``."""
        return self.decode_with_memory(*self.frozen_memory(sources), max_new, targets)

    def decode_with_memory(
        self,
        memory: Array,
        cross_additive: Array,
        max_new: int,
        targets: list[list[int]] | None = None,
    ) -> list[list[int]]:
        """Argmax decoding from BOS over the (B, n, d) ``memory`` array, off
        the tape, for at most ``min(max_new, max_len - 1)`` steps; each row's
        tokens before its first EOS.

        Each step feeds only the newest token of each live row through
        ``decoder_logits``.  A row that emits EOS leaves the live set: its
        cache rows are dropped, and since a stacked matmul computes each
        batch item on its own, the rows that remain keep their exact bits.

        ``targets`` (one id list per row, without EOS) serve exact match: a
        row also leaves at its first token that differs from its target
        followed by EOS, and its decode ends with that token.  A row that
        never differs decodes exactly as it would without targets, so a
        decode equals its target exactly when the untargeted decode does.
        """
        rows = memory.shape[0]
        if max_new < 1:
            raise ContractViolation(f"decode: max_new must be >= 1, got {max_new}")
        if targets is not None and len(targets) != rows:
            raise ContractViolation(f"decode: {len(targets)} targets for {rows} rows")
        eos = self.vocab.eos
        steps = min(max_new, self.config.max_len - 1)
        tokens = np.full((rows, steps), eos, dtype=np.int64)
        if targets is not None:
            # -1 past a target's end: a row there leaves at EOS or any token
            expected = np.full((rows, steps), -1, dtype=np.int64)
            for row, target in enumerate(targets):
                expected[row, : min(len(target), steps)] = target[:steps]
        live = np.arange(rows)
        last = np.full((rows, 1), self.vocab.bos, dtype=np.int64)
        with no_tape():
            cache = DecoderCache(self, memory, cross_additive)
            for step in range(steps):
                logits = self.decoder_logits(last, cache)
                last = logits[:, -1:, :].argmax(axis=-1)
                tokens[live, step] = last[:, 0]
                going = last[:, 0] != eos
                if targets is not None:
                    going &= last[:, 0] == expected[live, step]
                if not going.all():
                    if not going.any():
                        break
                    keep = np.flatnonzero(going)
                    live, last = live[keep], last[keep]
                    cache.keep(keep)
        return [row[: row.index(eos)] if eos in row else row for row in tokens.tolist()]


class DecoderCache:
    """The memory side of a decode and what it has computed so far, per
    decoder layer: cross-attention keys and values projected from the memory
    when the cache is built, the additive cross-attention mask (the memory's
    (B, 1, 1, nk) pad mask, or a packed batch's (B, 1, nq, nk) pair mask), and
    self-attention keys and values of the ``offset`` positions fed so far.
    Every key and value is (B, h, n, dh) over the same rows, and every
    ``decoder_logits`` call runs on one.  Built from a memory array under
    ``no_tape``, the cache holds plain arrays; ``extend`` past the first
    call and ``keep`` run only there."""

    def __init__(self, model: TransformerModel, memory: Operand, cross_additive: Array):
        self.offset = 0
        self.cross_additive = cross_additive
        self.cross = [
            model._keys_values(f"dec.{i}.cross", memory)
            for i in range(model.config.dec_layers)
        ]
        self.past: list[tuple[Operand, Operand]] = []

    def extend(self, layer: int, kv: tuple[Operand, Operand]) -> tuple[Operand, Operand]:
        """Append one layer's new self-attention keys and values along the
        position axis and return the whole cached run."""
        if layer < len(self.past):
            kv = tuple(
                np.concatenate([old, new], axis=2) for old, new in zip(self.past[layer], kv)
            )
            self.past[layer] = kv
        else:
            self.past.append(kv)
        return kv

    def keep(self, rows: Array) -> None:
        """Drop every row not listed in ``rows``."""

        def pick(kv):
            return tuple(t[rows] for t in kv)

        self.cross_additive = self.cross_additive[rows]
        self.cross = [pick(kv) for kv in self.cross]
        self.past = [pick(kv) for kv in self.past]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: TransformerModel, path) -> str:
    """Write data.bin and its manifest.json under ``path`` (created if needed).

    data.bin holds the tensors in ``expected_param_specs`` order, the order
    ``load_checkpoint`` slices them in; the manifest records its SHA-256.
    """
    os.makedirs(path, exist_ok=True)
    blob = b"".join(
        np.ascontiguousarray(model.params[name].value, dtype="<f8").tobytes()
        for name in expected_param_specs(model.config, model.task)
    )
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "task": model.task,
        "step": model.step,
        "config": asdict(model.config),
        "vocab": model.vocab.id_to_token,
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open(os.path.join(path, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, DATA_FILE), "wb") as fh:
        fh.write(blob)
    return str(path)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _field(record: dict, key: str, kind: type, where: str):
    """``record[key]``, which must exist and have exactly the JSON type ``kind``."""
    if key not in record:
        raise CheckpointError(f"{where}: missing {key!r}")
    value = record[key]
    if type(value) is not kind:
        raise CheckpointError(f"{where}: {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _manifest_config(raw: dict, path) -> EncoderConfig:
    defaults = asdict(EncoderConfig())
    unknown = sorted(raw.keys() - defaults.keys())
    if unknown:
        raise CheckpointError(f"{path}: unknown config key {unknown[0]!r}")
    for key, value in defaults.items():
        _field(raw, key, type(value), f"{path}: config")
    config = EncoderConfig(**raw)
    try:
        config.validate()
    except ContractViolation as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return config


def load_checkpoint(path) -> TransformerModel:
    """Reload a checkpoint directory, each tensor's shape read off its config.

    A malformed manifest (a missing or mistyped field, an unknown key, a
    negative step, a config its task cannot use) and a data.bin whose size
    the config does not imply or whose SHA-256 is not the manifest's raise
    CheckpointError.
    """
    manifest_path = os.path.join(path, MANIFEST_FILE)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if type(manifest) is not dict:
        raise CheckpointError(f"{manifest_path}: manifest must be a JSON object")
    if (fmt := manifest.get("format")) != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: checkpoint format {fmt!r} is not {CHECKPOINT_FORMAT!r}")
    config = _manifest_config(_field(manifest, "config", dict, manifest_path), path)
    tokens = _field(manifest, "vocab", list, manifest_path)
    if not all(type(tok) is str for tok in tokens):
        raise CheckpointError(f"{path}: vocabulary entries must be strings")
    if tokens[: len(RESERVED)] != list(RESERVED):
        raise CheckpointError(f"{path}: vocabulary lost its reserved prefix")
    vocab = Vocab(tokens[len(RESERVED) :])
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"{path}: vocab has {len(vocab)} entries, config says {config.vocab_size}"
        )
    task = manifest.get("task")
    if task not in TASKS:
        raise CheckpointError(f"{path}: unknown task {task!r}")
    step = _field(manifest, "step", int, manifest_path)
    if step < 0:
        raise CheckpointError(f"{path}: step must be >= 0, got {step}")
    digest = _field(manifest, "sha256", str, manifest_path)
    try:
        specs = expected_param_specs(config, task)
    except ContractViolation as exc:  # a seq2seq or probe config without decoder layers
        raise CheckpointError(f"{path}: {exc}") from exc
    blob_path = os.path.join(path, DATA_FILE)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    expected_bytes = 8 * sum(rows * cols for rows, cols in specs.values())
    if len(blob) != expected_bytes:
        raise CheckpointError(
            f"{blob_path}: has {len(blob)} bytes, config implies {expected_bytes}"
        )
    if hashlib.sha256(blob).hexdigest() != digest:
        raise CheckpointError(f"{blob_path}: SHA-256 differs from the manifest's sha256")
    params: dict[str, Tensor] = {}
    offset = 0
    for name, (rows, cols) in specs.items():
        flat = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset)
        offset += rows * cols * 8
        params[name] = parameter(flat.reshape(rows, cols), name=name)
    return TransformerModel(config, vocab, task, params=params, step=step)
