"""Pre-layer-norm transformer encoder-decoder on the float64 tape.

Encoder self-attention accepts an external per-layer boolean mask, which is
how span-restricted passes are built; ``mask=None`` adds the scalar 0.0 and
an all-true mask adds a zeros array, so the two produce bit-identical
output.  Sinusoidal absolute positions are added once at layer 0, so a pass
over a subset of positions keeps each token's original position simply by
slicing layer-0 states.

``encode`` returns the full stack of per-layer states: index 0 is embeddings
plus positions, index L is the last block's output after the final layer
norm.  All analysis code reads span vectors off these states.

Greedy decoding is incremental.  Each step feeds only the newest token of
each live row (a row leaves the live set once it emits EOS), and a
``DecoderCache`` holds per decoder layer the cross-attention keys and values,
projected once per decode from the memory, and the self-attention keys and
values of every position fed so far.  Retiring rows keeps the remaining
rows' bits; computing one query row at a time instead of the whole prefix
moves logits by rounding only (about 1e-15 relative), and decoded tokens
match a full-prefix decode.  Teacher-forced training runs the full prefix
without a cache.

Checkpoints are directories holding ``manifest.json`` (config, vocab, step,
tensor names and shapes) and ``data.bin`` (the tensors' raw little-endian
float64 bytes concatenated in manifest order), reloading bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .datasets import RESERVED, Vocab
from .errors import CheckpointError, ContractViolation
from .numerics import (
    NEG_MASK,
    Tensor,
    add,
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
)

Array = np.ndarray

CHECKPOINT_FORMAT = "spantree-checkpoint-v1"
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
    positional: str = "sinusoidal"

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
        if self.positional != "sinusoidal":
            raise ContractViolation(f"unknown positional scheme {self.positional!r}")


def sinusoidal_positions(max_len: int, d_model: int) -> Array:
    """Fixed absolute position table: sin on even dims, cos on odd dims."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(dim / 2.0) / d_model)
    table = np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))
    return table


class LayerMask:
    """Per-encoder-layer boolean attention permissions, allow[layer][q][k].

    Every row must keep at least one permitted key.  ``additive(i)`` converts
    a layer to the additive form consumed by masked softmax.
    """

    def __init__(self, allow: list[Array]):
        self.allow = [np.asarray(a, dtype=bool) for a in allow]
        for i, a in enumerate(self.allow):
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ContractViolation(f"mask layer {i} is not square: {a.shape}")
            if a.shape != self.allow[0].shape:
                raise ContractViolation("mask layers disagree on sentence length")
            if not a.any(axis=1).all():
                raise ContractViolation(f"mask layer {i} has a fully masked row")

    @property
    def n(self) -> int:
        return self.allow[0].shape[0]

    @property
    def layers(self) -> int:
        return len(self.allow)

    def additive(self, layer: int) -> Array:
        return np.where(self.allow[layer], 0.0, NEG_MASK)

    @classmethod
    def all_true(cls, n: int, layers: int) -> "LayerMask":
        return cls([np.ones((n, n), dtype=bool) for _ in range(layers)])

    @classmethod
    def block_diagonal(cls, boundary: int, n: int, layers: int) -> "LayerMask":
        """Two independent segments [0, boundary) and [boundary, n)."""
        if not 0 < boundary < n:
            raise ContractViolation(f"boundary {boundary} outside (0, {n})")
        allow = np.zeros((n, n), dtype=bool)
        allow[:boundary, :boundary] = True
        allow[boundary:, boundary:] = True
        return cls([allow.copy() for _ in range(layers)])


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------


def _attn_specs(prefix: str, d: int) -> dict[str, tuple[int, int]]:
    out = {}
    for proj in ("wq", "wk", "wv", "wo"):
        out[f"{prefix}.{proj}"] = (d, d)
    for bias in ("bq", "bk", "bv", "bo"):
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
    if name.split(".")[-1].startswith("b") or name.endswith(".b"):
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
        self.tag = "unsaved"
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
        model = TransformerModel(
            self.config, self.vocab, self.task, params=params, step=self.step
        )
        model.tag = self.tag
        return model

    def _p(self, name: str) -> Tensor:
        return self.params[name]

    def _affine(self, x: Tensor, w: str, b: str) -> Tensor:
        return add(matmul(x, self._p(w)), self._p(b))

    def _ln(self, x: Tensor, prefix: str) -> Tensor:
        return layer_norm(x, self._p(f"{prefix}.g"), self._p(f"{prefix}.b"))

    def _heads(self, x: Tensor) -> Tensor:
        """(B, n, d) -> (B, h, n, d / h)."""
        cfg = self.config
        bsz, n = x.value.shape[0], x.value.shape[1]
        return permute(reshape(x, (bsz, n, cfg.heads, cfg.d_model // cfg.heads)), (0, 2, 1, 3))

    def _keys_values(self, prefix: str, xkv: Tensor) -> tuple[Tensor, Tensor]:
        """Head-split attention keys and values (B, h, nk, dh) of ``xkv``."""
        k = self._affine(xkv, f"{prefix}.wk", f"{prefix}.bk")
        v = self._affine(xkv, f"{prefix}.wv", f"{prefix}.bv")
        return self._heads(k), self._heads(v)

    def _attention(
        self, prefix: str, xq: Tensor, kv: tuple[Tensor, Tensor], additive: Array | float
    ) -> Tensor:
        """Multi-head attention of ``xq`` over keys and values from
        ``_keys_values``; ``additive`` broadcasts to (B, h, nq, nk)."""
        cfg = self.config
        bq, nq = xq.value.shape[0], xq.value.shape[1]
        dh = cfg.d_model // cfg.heads
        q = self._heads(self._affine(xq, f"{prefix}.wq", f"{prefix}.bq"))
        k, v = kv
        scores = scale(matmul(q, permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        probs = masked_softmax(scores, additive)
        ctx = matmul(probs, v)
        ctx = reshape(permute(ctx, (0, 2, 1, 3)), (bq, nq, cfg.d_model))
        return self._affine(ctx, f"{prefix}.wo", f"{prefix}.bo")

    def _ff(self, prefix: str, x: Tensor) -> Tensor:
        hidden = relu(self._affine(x, f"{prefix}.w1", f"{prefix}.b1"))
        return self._affine(hidden, f"{prefix}.w2", f"{prefix}.b2")

    def encoder_block(self, i: int, x: Tensor, additive: Array | float) -> Tensor:
        h = self._ln(x, f"enc.{i}.ln1")
        kv = self._keys_values(f"enc.{i}.attn", h)
        x = add(x, self._attention(f"enc.{i}.attn", h, kv, additive))
        x = add(x, self._ff(f"enc.{i}.ff", self._ln(x, f"enc.{i}.ln2")))
        return x

    # -- encoder -----------------------------------------------------------

    def embed_source(self, ids: Array, layer0_delta: Array | None = None) -> Tensor:
        """Layer-0 states: scaled embeddings plus absolute positions."""
        ids = np.asarray(ids)
        n = ids.shape[-1]
        if n > self.config.max_len:
            raise ContractViolation(f"sequence length {n} exceeds max_len")
        x = scale(embedding(self._p("enc.emb"), ids), math.sqrt(self.config.d_model))
        pos = self.positions[:n]
        if layer0_delta is not None:
            pos = pos + np.asarray(layer0_delta, dtype=np.float64)
        return add(x, Tensor(pos))

    def encoder_states_t(
        self,
        ids: Array,
        additives: list[Array] | None = None,
        layer0_delta: Array | None = None,
        upto: int | None = None,
    ) -> list[Tensor]:
        """Per-layer states for a (B, n) id batch, on the tape unless built
        under ``no_tape``.

        ``additives[i]`` is the additive attention mask of block i, built by
        ``LayerMask.additive`` or ``memory`` so that every row keeps a
        permitted key; None adds the scalar 0.0 (unrestricted).  ``upto=t``
        stops after block t-1 and skips the final norm; the full run applies
        the final layer norm to the last entry.
        """
        cfg = self.config
        if self.task == "probe":
            raise ContractViolation("probe models have no encoder")
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ContractViolation("encoder expects a (batch, length) id array")
        states = [self.embed_source(ids, layer0_delta)]
        n_blocks = cfg.enc_layers if upto is None else upto
        if not 0 <= n_blocks <= cfg.enc_layers:
            raise ContractViolation(f"upto must lie in [0, {cfg.enc_layers}]")
        for i in range(n_blocks):
            additive = 0.0 if additives is None else additives[i]
            states.append(self.encoder_block(i, states[-1], additive))
        if upto is None:
            states[-1] = self._ln(states[-1], "enc.ln_f")
        return states

    def memory(self, ids: Array) -> tuple[Tensor, Array]:
        """Final encoder states of a padded (B, n) id batch, plus the additive
        (B, 1, 1, n) mask that hides its pad positions from attention.  A row
        that is all padding would leave attention no key, so it is rejected."""
        pad = np.asarray(ids) == self.vocab.pad
        if pad.all(axis=-1).any():
            raise ContractViolation("memory: a batch row is all padding")
        additive = np.where(pad, NEG_MASK, 0.0)[:, None, None, :]
        return self.encoder_states_t(ids, [additive] * self.config.enc_layers)[-1], additive

    def final_norm(self, x: Tensor) -> Tensor:
        return self._ln(x, "enc.ln_f")

    def encode(
        self,
        tokens,
        mask: LayerMask | None = None,
        layer0_delta: Array | None = None,
    ) -> list[Array]:
        """Per-layer hidden states (n, d) for one sentence, layer 0 included.

        ``mask`` restricts encoder self-attention per layer; None means
        unrestricted, and an all-true mask is bit-identical to None.
        """
        tokens = list(tokens)
        if not tokens:
            raise ContractViolation("cannot encode an empty sentence")
        n = len(tokens)
        additives = None
        if mask is not None:
            if mask.n != n:
                raise ContractViolation(f"mask is for n={mask.n}, sentence has n={n}")
            if mask.layers != self.config.enc_layers:
                raise ContractViolation(
                    f"mask has {mask.layers} layers, encoder has {self.config.enc_layers}"
                )
            additives = [mask.additive(i)[None, None] for i in range(mask.layers)]
        ids = np.asarray(tokens, dtype=np.int64)[None, :]
        delta = None if layer0_delta is None else np.asarray(layer0_delta)[None]
        with no_tape():
            states = self.encoder_states_t(ids, additives, delta)
        return [s.value[0] for s in states]

    # -- decoder -----------------------------------------------------------

    def decoder_logits(
        self,
        tgt_ids: Array,
        memory: Tensor,
        cross_additive: Array,
        cache: DecoderCache | None = None,
    ) -> Tensor:
        """Next-token logits (B, nt, V) for a (B, nt) target-id batch.

        ``memory`` and ``cross_additive`` are what ``TransformerModel.memory``
        returns, whose pad mask keeps a permitted key in every row; causal
        self-attention always permits the diagonal.

        Without ``cache`` the ids are a whole prefix from position 0, as in
        teacher-forced training.  With a ``DecoderCache`` they are the tokens
        at positions ``cache.offset`` onward (one per live row while
        decoding): each layer's cross-attention reads the keys and values the
        cache projected from ``memory`` on its first call, and self-attention
        attends over the cached keys and values plus the new ones, which are
        appended.  Only the new positions are computed.  A product over fewer
        query rows may round differently in BLAS, so cached logits can differ
        from the full-prefix ones by rounding (about 1e-15 relative).
        """
        cfg = self.config
        tgt_ids = np.asarray(tgt_ids)
        bsz, nt = tgt_ids.shape
        offset = 0 if cache is None else cache.offset
        if offset + nt > cfg.max_len:
            raise ContractViolation(f"target length {offset + nt} exceeds max_len")
        x = scale(embedding(self._p("dec.emb"), tgt_ids), math.sqrt(cfg.d_model))
        if cache is not None and x.taped:
            raise ContractViolation("decoder_logits: a cache holds values only; use no_tape")
        x = add(x, Tensor(self.positions[offset : offset + nt]))
        # a single query row may see every key so far; no mask needed
        causal = (0.0 if nt == 1 else
                  np.triu(np.full((nt, offset + nt), NEG_MASK), k=offset + 1)[None, None])
        if cache is not None and not cache.cross:
            cache.cross = [
                self._keys_values(f"dec.{i}.cross", memory) for i in range(cfg.dec_layers)
            ]
        for i in range(cfg.dec_layers):
            h = self._ln(x, f"dec.{i}.ln1")
            kv = self._keys_values(f"dec.{i}.self", h)
            if cache is not None:
                kv = cache.extend(i, kv)
            x = add(x, self._attention(f"dec.{i}.self", h, kv, causal))
            cross = (self._keys_values(f"dec.{i}.cross", memory) if cache is None
                     else cache.cross[i])
            x = add(x, self._attention(f"dec.{i}.cross", self._ln(x, f"dec.{i}.ln2"),
                                       cross, cross_additive))
            x = add(x, self._ff(f"dec.{i}.ff", self._ln(x, f"dec.{i}.ln3")))
        if cache is not None:
            cache.offset += nt
        x = self._ln(x, "dec.ln_f")
        return self._affine(x, "out.w", "out.b")

    # -- losses ------------------------------------------------------------

    def seq2seq_loss(self, pairs: list[tuple[list[int], list[int]]]) -> Tensor:
        """Teacher-forced mean cross-entropy over non-pad target positions.

        Pairs are (source ids, target ids) without sentinels; BOS/EOS are
        added here and padding is excluded from the loss.
        """
        if not pairs:
            raise ContractViolation("seq2seq_loss: empty batch")
        memory, src_additive = self.memory(self._pad_sources([s for s, _ in pairs]))
        tgt_in, tgt_out, weights = self._pad_targets([t for _, t in pairs])
        logits = self.decoder_logits(tgt_in, memory, src_additive)
        return cross_entropy(logits, tgt_out, weights)

    def _pad_sources(self, sources: list[list[int]]) -> Array:
        if any(len(s) == 0 for s in sources):
            raise ContractViolation("empty source sentence")
        ns = max(len(s) for s in sources)
        src = np.full((len(sources), ns), self.vocab.pad, dtype=np.int64)
        for b, s in enumerate(sources):
            src[b, : len(s)] = s
        return src

    def _pad_targets(self, targets: list[list[int]]):
        pad, bos, eos = self.vocab.pad, self.vocab.bos, self.vocab.eos
        nt = max(len(t) for t in targets) + 1
        tgt_in = np.full((len(targets), nt), pad, dtype=np.int64)
        tgt_out = np.full((len(targets), nt), pad, dtype=np.int64)
        for b, t in enumerate(targets):
            tgt_in[b, 0] = bos
            tgt_in[b, 1 : len(t) + 1] = t
            tgt_out[b, : len(t)] = t
            tgt_out[b, len(t)] = eos
        weights = (tgt_out != pad).astype(np.float64)
        return tgt_in, tgt_out, weights

    def mlm_loss(self, masked_ids: Array, original_ids: Array, loss_mask: Array) -> Tensor:
        """Cross-entropy of the vocabulary head at masked positions only.

        Masking replaces real tokens only, so ``masked_ids`` and
        ``original_ids`` share their pad positions.
        """
        if self.task != "mlm":
            raise ContractViolation("mlm_loss requires an mlm model")
        final, _ = self.memory(masked_ids)
        logits = self._affine(final, "mlm.w", "mlm.b")
        return cross_entropy(logits, np.asarray(original_ids), np.asarray(loss_mask))

    # -- decoding ----------------------------------------------------------

    def greedy_decode(self, sources: list[list[int]], max_new: int) -> list[list[int]]:
        """Batched argmax decoding until EOS (ties take the lowest id)."""
        with no_tape():
            memory, src_additive = self.memory(self._pad_sources(sources))
        return self.decode_with_memory(memory, src_additive, max_new)

    def decode_with_memory(
        self, memory: Tensor, cross_additive: Array, max_new: int
    ) -> list[list[int]]:
        """Argmax decoding from BOS, off the tape; each row's tokens before
        its first EOS.

        Each step feeds only the newest token of each live row through
        ``decoder_logits`` with a ``DecoderCache``.  A row that emits EOS
        leaves the live set: its memory, mask and cache rows are dropped, and
        since a stacked matmul computes each batch item on its own, the rows
        that remain keep their exact bits.
        """
        eos = self.vocab.eos
        steps = min(max_new, self.config.max_len - 1)
        tokens = np.full((memory.value.shape[0], steps), eos, dtype=np.int64)
        live = np.arange(memory.value.shape[0])
        last = np.full((live.size, 1), self.vocab.bos, dtype=np.int64)
        cache = DecoderCache()
        with no_tape():
            for step in range(steps):
                logits = self.decoder_logits(last, memory, cross_additive, cache)
                last = logits.value[:, -1:, :].argmax(axis=-1)
                tokens[live, step] = last[:, 0]
                going = last[:, 0] != eos
                if not going.all():
                    if not going.any():
                        break
                    keep = np.flatnonzero(going)
                    live, last = live[keep], last[keep]
                    memory, cross_additive = Tensor(memory.value[keep]), cross_additive[keep]
                    cache.keep(keep)
        rows = tokens.tolist()
        return [row[: row.index(eos)] if eos in row else row for row in rows]


class DecoderCache:
    """What an incremental decode has computed so far, per decoder layer:
    cross-attention keys and values projected once from the memory, and
    self-attention keys and values of the ``offset`` positions fed so far.
    Every array is (B, h, n, dh) over the decode's live rows; values only,
    since decoding runs under ``no_tape``."""

    def __init__(self):
        self.offset = 0
        self.cross: list[tuple[Tensor, Tensor]] = []
        self.past: list[tuple[Tensor, Tensor]] = []

    def extend(self, layer: int, kv: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        """Append one layer's new self-attention keys and values along the
        position axis and return the whole cached run."""
        if layer < len(self.past):
            kv = tuple(
                Tensor(np.concatenate([old.value, new.value], axis=2))
                for old, new in zip(self.past[layer], kv)
            )
            self.past[layer] = kv
        else:
            self.past.append(kv)
        return kv

    def keep(self, rows: Array) -> None:
        """Drop every row not listed in ``rows``."""

        def pick(kv):
            return tuple(Tensor(t.value[rows]) for t in kv)

        self.cross = [pick(kv) for kv in self.cross]
        self.past = [pick(kv) for kv in self.past]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: TransformerModel, path) -> str:
    """Write manifest.json + data.bin under ``path`` (created if needed)."""
    os.makedirs(path, exist_ok=True)
    names = list(model.params)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "task": model.task,
        "step": model.step,
        "config": asdict(model.config),
        "vocab": model.vocab.id_to_token,
        "tensors": [
            {
                "name": name,
                "rows": model.params[name].value.shape[0],
                "cols": model.params[name].value.shape[1],
            }
            for name in names
        ],
    }
    with open(os.path.join(path, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, DATA_FILE), "wb") as fh:
        for name in names:
            value = np.ascontiguousarray(model.params[name].value, dtype="<f8")
            fh.write(value.tobytes())
    model.tag = str(path)
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
    for key, value in raw.items():
        if key not in defaults:
            raise CheckpointError(f"{path}: unknown config key {key!r}")
        _field(raw, key, type(defaults[key]), f"{path}: config")
    config = EncoderConfig(**raw)
    try:
        config.validate()
    except ContractViolation as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return config


def load_checkpoint(path) -> TransformerModel:
    """Reload a checkpoint directory, validating shapes against its config.

    Every malformed manifest (a missing or mistyped field, an unknown key,
    a shape or size that disagrees with the config) raises CheckpointError.
    """
    manifest_path = os.path.join(path, MANIFEST_FILE)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if type(manifest) is not dict:
        raise CheckpointError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unknown checkpoint format")
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
    step = _field(manifest, "step", int, manifest_path) if "step" in manifest else 0
    specs = expected_param_specs(config, task)
    entries = _field(manifest, "tensors", list, manifest_path)
    for entry in entries:
        if type(entry) is not dict:
            raise CheckpointError(f"{path}: tensor entry must be an object, got {entry!r}")
        for key, kind in (("name", str), ("rows", int), ("cols", int)):
            _field(entry, key, kind, f"{path}: tensor entry")
    listed = [t["name"] for t in entries]
    unknown = sorted(set(listed) - set(specs))
    missing = sorted(set(specs) - set(listed))
    if unknown:
        raise CheckpointError(f"{path}: unknown tensor {unknown[0]!r} in manifest")
    if missing:
        raise CheckpointError(f"{path}: manifest is missing tensor {missing[0]!r}")
    for entry in entries:
        expect = specs[entry["name"]]
        if (entry["rows"], entry["cols"]) != expect:
            raise CheckpointError(
                f"{path}: tensor {entry['name']!r} has shape "
                f"({entry['rows']}, {entry['cols']}), config implies {expect}"
            )
    blob_path = os.path.join(path, DATA_FILE)
    with open(blob_path, "rb") as fh:
        blob = fh.read()
    expected_bytes = sum(t["rows"] * t["cols"] * 8 for t in entries)
    if len(blob) != expected_bytes:
        raise CheckpointError(
            f"{blob_path}: has {len(blob)} bytes, manifest implies {expected_bytes}"
        )
    params: dict[str, Tensor] = {}
    offset = 0
    for entry in entries:
        count = entry["rows"] * entry["cols"]
        flat = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        value = flat.reshape(entry["rows"], entry["cols"]).astype(np.float64)
        params[entry["name"]] = parameter(value, name=entry["name"])
    model = TransformerModel(config, vocab, task, params=params, step=step)
    model.tag = str(path)
    return model
