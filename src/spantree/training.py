"""Training loops: sequence transduction, masked-token pretraining, probing.

One generator, ``_updates``, draws every batch's indices, runs every AdamW
update (linear warmup, float64 tape) and aborts with ``TrainingDiverged`` on a
non-finite loss.  ``train_seq2seq`` and ``train_mlm`` hand it their model,
batch loss and checkpoint evaluator through ``_train_series``, which collects
deep copies (and optionally on-disk directories) at step 0, every
``checkpoint_every`` updates and the final step; a divergence carries every
checkpoint collected before it.  ``train_probe`` drains the same loop without
checkpoints.

The probe is a 1-layer decoder trained to emit a sentence's bracketed parse
(``( ( A1 B1 ) C1 )`` as a token stream) while cross-attending to the frozen
encoder's final states; its predictions are repaired by ``delinearize`` and
scored with corpus PARSEVAL.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from . import treeval, trees
from .datasets import RESERVED, Corpus, TransductionExample, Vocab
from .encoder import EncoderConfig, TransformerModel, save_checkpoint
from .errors import ContractViolation, TrainingDiverged
from .numerics import OptimizerState, backward, no_tape, optimizer_step

log = logging.getLogger("spantree.training")

OPEN, CLOSE = "(", ")"

# Evaluation batch size; masked-token accuracy's mask fraction and sentence cap.
EVAL_CHUNK = 64
EVAL_MASK_FRAC = 0.15
EVAL_SENTENCES = 256
PROBE_DEC_LAYERS = 1
PROBE_WEIGHT_DECAY = 0.01


@dataclass
class CheckpointInfo:
    """One collected checkpoint plus metrics measured when it was taken."""

    step: int
    model: TransformerModel
    train_loss: float | None = None
    iid_acc: float | None = None
    cg_acc: float | None = None
    path: str | None = None


def _updates(model: TransformerModel, state: OptimizerState, batch_loss, batches,
             steps: int, series: list[CheckpointInfo]):
    """Yield (0, None) for the initial model, then run ``steps`` AdamW updates
    of it, yielding (step, loss value) after each.

    ``batches`` is (batch_rng, pool, batch_size): each update draws
    ``batch_size`` indices below ``pool`` from ``batch_rng``, and
    ``batch_loss(idx)`` returns their loss on the tape.  A non-finite loss
    raises TrainingDiverged carrying ``series``, the checkpoints kept so far.
    """
    batch_rng, pool, batch_size = batches
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")
    yield 0, None
    params = list(model.params.values())
    for step in range(1, steps + 1):
        loss = batch_loss(batch_rng.integers(0, pool, size=batch_size))
        value = float(loss.value)
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss at step {step}; keeping {len(series)} checkpoints",
                checkpoints=series,
            )
        backward(loss, params)
        optimizer_step(model.params, state)
        model.step = step
        yield step, value


def _train_series(
    model: TransformerModel,
    state: OptimizerState,
    batch_loss,
    batches: tuple[np.random.Generator, int, int],
    evaluate,
    steps: int,
    checkpoint_every: int,
    out_dir: str | None,
) -> list[CheckpointInfo]:
    """Train through ``_updates`` and return the checkpoint series.

    Checkpoints are taken at step 0, every ``checkpoint_every`` updates and
    the final step; each carries the mean loss of the updates since the one
    before and ``evaluate(snapshot)``, an (iid accuracy, cg accuracy) pair.
    """
    if checkpoint_every < 1:
        raise ContractViolation(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    series: list[CheckpointInfo] = []
    running: list[float] = []
    for step, loss in _updates(model, state, batch_loss, batches, steps, series):
        if loss is not None:
            running.append(loss)
        if step % checkpoint_every == 0 or step == steps:
            mean_loss = float(np.mean(running)) if running else None
            running.clear()
            snap = model.clone()
            iid_acc, cg_acc = evaluate(snap)
            path = None
            if out_dir is not None:
                path = save_checkpoint(snap, os.path.join(out_dir, f"step-{step:05d}"))
            series.append(CheckpointInfo(step, snap, mean_loss, iid_acc, cg_acc, path))
            log.info("%s step %d loss %s iid %s cg %s", model.task, step, mean_loss,
                     iid_acc, cg_acc)
    return series


def exact_match_accuracy(
    model: TransformerModel, examples: list[TransductionExample], limit: int | None = None
) -> float:
    """Fraction of examples whose greedy decode equals the target exactly;
    ``limit`` (None or >= 1) scores only the first ``limit`` examples."""
    if limit is not None and limit < 1:
        raise ContractViolation(f"evaluation limit must be None or >= 1, got {limit}")
    subset = list(examples[:limit])
    if not subset:
        raise ContractViolation("exact_match_accuracy: empty evaluation split")
    vocab = model.vocab
    max_new = max(len(ex.target) for ex in subset) + 2
    correct = 0
    for lo in range(0, len(subset), EVAL_CHUNK):
        batch = subset[lo : lo + EVAL_CHUNK]
        decoded = model.greedy_decode([vocab.encode(ex.source) for ex in batch], max_new)
        for out, ex in zip(decoded, batch):
            if out == vocab.encode(ex.target):
                correct += 1
    return correct / len(subset)


def train_seq2seq(
    config: EncoderConfig,
    corpus: Corpus,
    steps: int = 3000,
    checkpoint_every: int = 200,
    seed: int = 0,
    batch_size: int = 32,
    base_lr: float = 3e-4,
    warmup_steps: int = 300,
    weight_decay: float = 0.01,
    eval_limit: int | None = 200,
    out_dir: str | None = None,
) -> list[CheckpointInfo]:
    """Train source->target transduction; returns the checkpoint series.

    Checkpoints (step 0, every ``checkpoint_every``, and the final step) carry
    exact-match accuracy on the iid-validation and compositional-test splits,
    each truncated to ``eval_limit`` examples.
    """
    if not corpus.train:
        raise ContractViolation("train_seq2seq: corpus has no train split")
    vocab = corpus.vocab
    config.vocab_size = len(vocab)
    model = TransformerModel(config, vocab, "seq2seq", rng=np.random.default_rng(seed))
    pairs = [(vocab.encode(ex.source), vocab.encode(ex.target)) for ex in corpus.train]
    batch_rng = np.random.default_rng([seed, 1])

    def batch_loss(idx):
        return model.seq2seq_loss([pairs[i] for i in idx])

    def evaluate(snap: TransformerModel):
        return tuple(
            exact_match_accuracy(snap, split, limit=eval_limit) if split else None
            for split in (corpus.iid_val, corpus.cg_test)
        )

    state = OptimizerState(base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=weight_decay)
    return _train_series(model, state, batch_loss, (batch_rng, len(pairs), batch_size),
                         evaluate, steps, checkpoint_every, out_dir)


# ---------------------------------------------------------------------------
# masked-token pretraining
# ---------------------------------------------------------------------------


def mask_positions(rng: np.random.Generator, length: int, frac: float = 0.15) -> np.ndarray:
    """Choose positions to mask: floor(frac*n) plus a Bernoulli on the
    remainder (so the long-run fraction is exactly ``frac``), never fewer
    than one position."""
    if length < 2:
        raise ContractViolation("mask_positions needs length >= 2")
    want = frac * length
    count = int(np.floor(want))
    if rng.random() < want - count:
        count += 1
    count = max(1, min(count, length))
    return rng.choice(length, size=count, replace=False)


def make_mlm_batch(
    rng: np.random.Generator, sentences: list[list[int]], vocab: Vocab, frac: float = 0.15
):
    """Pad a batch and mask a seeded subset of real positions per sentence."""
    width = max(len(s) for s in sentences)
    original = np.full((len(sentences), width), vocab.pad, dtype=np.int64)
    for b, s in enumerate(sentences):
        original[b, : len(s)] = s
    masked = original.copy()
    loss_mask = np.zeros_like(original, dtype=np.float64)
    for b, s in enumerate(sentences):
        pos = mask_positions(rng, len(s), frac)
        masked[b, pos] = vocab.mask
        loss_mask[b, pos] = 1.0
    return masked, original, loss_mask


def masked_prediction_accuracy(
    model: TransformerModel, sentences: list[list[int]], seed: int = 0
) -> float:
    """Top-1 accuracy at masked positions under a fixed masking draw."""
    usable = [s for s in sentences if len(s) >= 2][:EVAL_SENTENCES]
    if not usable:
        raise ContractViolation("masked_prediction_accuracy: no usable sentences")
    rng = np.random.default_rng([seed, 99])
    hit = total = 0
    for lo in range(0, len(usable), EVAL_CHUNK):
        masked, original, loss_mask = make_mlm_batch(
            rng, usable[lo : lo + EVAL_CHUNK], model.vocab, EVAL_MASK_FRAC
        )
        with no_tape():
            final, _ = model.memory(masked)
        logits = final.value @ model.params["mlm.w"].value + model.params["mlm.b"].value
        pred = logits.argmax(axis=-1)
        hit += int(((pred == original) & (loss_mask > 0)).sum())
        total += int(loss_mask.sum())
    return hit / total


def train_mlm(
    config: EncoderConfig,
    corpus: Corpus,
    steps: int = 3000,
    checkpoint_every: int = 200,
    seed: int = 0,
    batch_size: int = 32,
    base_lr: float = 3e-4,
    warmup_steps: int = 300,
    weight_decay: float = 0.01,
    mask_frac: float = 0.15,
    out_dir: str | None = None,
) -> list[CheckpointInfo]:
    """Masked-token pretraining on the corpus's source sentences.

    Sentences shorter than two tokens are skipped.  Checkpoint accuracy
    fields hold masked-token prediction accuracy on the iid-val and cg-test
    sources (there is no decoder to exact-match with).
    """
    if not 0 < mask_frac <= 1:
        raise ContractViolation(f"mask_frac must lie in (0, 1], got {mask_frac}")
    vocab = corpus.vocab
    sentences = [vocab.encode(ex.source) for ex in corpus.train if len(ex.source) >= 2]
    if not sentences:
        raise ContractViolation("train_mlm: no trainable sentences")
    config.vocab_size = len(vocab)
    model = TransformerModel(config, vocab, "mlm", rng=np.random.default_rng(seed))
    batch_rng = np.random.default_rng([seed, 2])
    iid_sents = [vocab.encode(ex.source) for ex in corpus.iid_val]
    cg_sents = [vocab.encode(ex.source) for ex in corpus.cg_test]

    def batch_loss(idx):
        batch = make_mlm_batch(batch_rng, [sentences[i] for i in idx], vocab, mask_frac)
        return model.mlm_loss(*batch)

    def evaluate(snap: TransformerModel):
        return tuple(
            masked_prediction_accuracy(snap, sents, seed=seed)
            if any(len(s) >= 2 for s in sents) else None
            for sents in (iid_sents, cg_sents)
        )

    state = OptimizerState(base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=weight_decay)
    return _train_series(model, state, batch_loss, (batch_rng, len(sentences), batch_size),
                         evaluate, steps, checkpoint_every, out_dir)


# ---------------------------------------------------------------------------
# probing for linearized trees
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    probe: TransformerModel
    p_parseval: float
    precision: float
    recall: float
    repaired: int
    coerced: int
    heldout: int


def probe_vocab_for(vocab: Vocab) -> Vocab:
    """Probe output vocabulary: the source tokens plus bracket tokens."""
    return Vocab(vocab.id_to_token[len(RESERVED) :] + [OPEN, CLOSE])


def _frozen_memory(encoder: TransformerModel, sources: list[list[int]]):
    """Final encoder states built off the tape, so no gradient reaches the
    encoder, plus the cross-attention mask."""
    with no_tape():
        return encoder.memory(encoder._pad_sources(sources))


def predicted_tree(decoded_tokens: list[str], n_leaves: int):
    """Tree from probe output: delinearize, then coerce any leaf-count
    mismatch (or unusable output) to a right-branching fallback."""
    tree, repaired = treeval.delinearize(decoded_tokens)
    coerced = False
    if tree is None or trees.leaf_count(tree) != n_leaves:
        tree, coerced = trees.right_branching(n_leaves), True
    return tree, repaired, coerced


def _bracket_length(examples: list[TransductionExample]) -> int:
    """Longest probe output for these examples: 3 tokens per leaf, plus 2."""
    return max(3 * len(ex.source) for ex in examples) + 2


def evaluate_probe(
    probe: TransformerModel,
    encoder: TransformerModel,
    examples: list[TransductionExample],
) -> tuple[float, float, float, int, int]:
    """Corpus PARSEVAL of repaired probe decodes against gold trees."""
    if not examples:
        raise ContractViolation("evaluate_probe: empty evaluation set")
    max_new = _bracket_length(examples)
    pairs = []
    repaired_count = coerced_count = 0
    for lo in range(0, len(examples), EVAL_CHUNK):
        batch = examples[lo : lo + EVAL_CHUNK]
        memory, additive = _frozen_memory(
            encoder, [encoder.vocab.encode(ex.source) for ex in batch]
        )
        decoded = probe.decode_with_memory(memory, additive, max_new)
        for out, ex in zip(decoded, batch):
            if ex.tree is None:
                raise ContractViolation("evaluate_probe: example has no gold tree")
            n_leaves = trees.leaf_count(ex.tree)
            tree, repaired, coerced = predicted_tree(probe.vocab.decode(out), n_leaves)
            repaired_count += int(repaired)
            coerced_count += int(coerced)
            pairs.append((tree, ex.tree))
    precision, recall, f1 = treeval.corpus_parseval(pairs)
    return precision, recall, f1, repaired_count, coerced_count


def train_probe(
    encoder: TransformerModel,
    train_examples: list[TransductionExample],
    heldout_examples: list[TransductionExample],
    steps: int = 1500,
    seed: int = 0,
    batch_size: int = 32,
    base_lr: float = 3e-4,
    warmup_steps: int = 300,
) -> ProbeResult:
    """Fit a small decoder to emit bracketed parses off frozen encoder states.

    The encoder is never updated; its final states enter the probe as
    constants.  Returns the probe plus held-out PARSEVAL (p_parseval).
    """
    usable = [ex for ex in train_examples if ex.tree is not None]
    if not usable:
        raise ContractViolation("train_probe: no examples with gold trees")
    probe_vocab = probe_vocab_for(encoder.vocab)
    config = EncoderConfig(
        enc_layers=encoder.config.enc_layers,
        dec_layers=PROBE_DEC_LAYERS,
        heads=encoder.config.heads,
        d_model=encoder.config.d_model,
        d_ff=encoder.config.d_ff,
        vocab_size=len(probe_vocab),
        max_len=max(encoder.config.max_len, _bracket_length(usable)),
    )
    probe = TransformerModel(config, probe_vocab, "probe", rng=np.random.default_rng(seed))
    sources = [encoder.vocab.encode(ex.source) for ex in usable]
    targets = [
        probe_vocab.encode(treeval.linearize(ex.tree, ex.source)) for ex in usable
    ]
    batch_rng = np.random.default_rng([seed, 3])

    def batch_loss(idx):
        memory, additive = _frozen_memory(encoder, [sources[i] for i in idx])
        return probe.target_loss(memory, additive, [targets[i] for i in idx])

    state = OptimizerState(
        base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=PROBE_WEIGHT_DECAY
    )
    for _ in _updates(probe, state, batch_loss, (batch_rng, len(usable), batch_size), steps, []):
        pass
    precision, recall, f1, repaired, coerced = evaluate_probe(
        probe, encoder, heldout_examples
    )
    return ProbeResult(
        probe=probe,
        p_parseval=f1,
        precision=precision,
        recall=recall,
        repaired=repaired,
        coerced=coerced,
        heldout=len(heldout_examples),
    )
