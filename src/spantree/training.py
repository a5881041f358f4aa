"""Training loops: sequence transduction, masked-token pretraining, probing.

One generator, ``_updates``, draws every batch's indices, runs every AdamW
update (linear warmup, float64 tape) and aborts with ``TrainingDiverged`` on a
non-finite loss.  ``train_seq2seq`` and ``train_mlm`` hand it their model and
batch loss through ``_train_series``, which collects deep copies (and
optionally ``step-NNNNN`` directories, which ``load_series`` reads back) at
step 0, every ``checkpoint_every`` updates and the final step, each scored by
``split_accuracy`` as ``dynamics_report`` scores a stored series; a
divergence carries every checkpoint collected before it.  ``train_probe``
drains the same loop without checkpoints.  Every decode, and the probe's
memory encode, runs in the length-sorted chunks of ``_length_chunks``.

The probe is a 1-layer decoder trained to emit a sentence's bracketed parse
(``( ( A1 B1 ) C1 )`` as a token stream) while cross-attending to the frozen
encoder's states from ``TransformerModel.frozen_memory``, computed once per
training sentence before the first update.  It trains on packed rows
(``pack_pairs`` of source and parse ids) through ``packed_loss``, the loss
``seq2seq_loss`` ends in, with the memory gathered from that store.  Its
predictions are repaired by ``delinearize`` and scored with corpus PARSEVAL.
Trainers set ``vocab_size`` on a copy of the caller's config, never on the
config itself.
"""

from __future__ import annotations

import logging
import os
from itertools import chain
from dataclasses import dataclass, replace

import numpy as np

from . import treeval, trees
from .datasets import RESERVED, Corpus, TransductionExample, Vocab
from .encoder import (
    EncoderConfig,
    PackedBatch,
    TransformerModel,
    load_checkpoint,
    pack_pairs,
    pad_ids,
    save_checkpoint,
)
from .errors import ContractViolation, TrainingDiverged
from .numerics import OptimizerState, Tensor, backward, constant, no_tape, optimizer_step

log = logging.getLogger("spantree.training")

# Evaluation batch size; how many examples of a split a checkpoint is scored
# on; masked-token accuracy's mask fraction and masking draw, one stream for
# every caller.
EVAL_CHUNK = 64
EVAL_LIMIT = 200
EVAL_MASK_FRAC = 0.15
EVAL_MASK_SEED = (0, 99)
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


def _check_updates(steps: int, batch_size: int) -> None:
    """Refuse settings ``_updates`` cannot run, before anything is trained."""
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    if batch_size < 1:
        raise ContractViolation(f"batch_size must be >= 1, got {batch_size}")


def _updates(model: TransformerModel, state: OptimizerState, batch_loss, batches,
             steps: int, series: list[CheckpointInfo]):
    """Run ``steps`` AdamW updates of ``model``, yielding (step, loss value)
    after each.

    ``batches`` is (batch_rng, pool, batch_size): each update draws
    ``batch_size`` indices below ``pool`` from ``batch_rng``, and
    ``batch_loss(idx)`` returns their loss on the tape.  A non-finite loss
    raises TrainingDiverged carrying ``series``, the checkpoints kept so far.
    Each step drops its loss, and with it the step's tape, once ``backward``
    has filled the parameters' gradients: no graph outlives its update into
    the next forward or a caller's checkpoint evaluation.  Callers check the
    settings first, with ``_check_updates``.
    """
    batch_rng, pool, batch_size = batches
    params = list(model.params.values())
    for step in range(1, steps + 1):
        loss = batch_loss(batch_rng.integers(0, pool, size=batch_size))
        value = float(loss.value)
        if not np.isfinite(value):
            kept = len(series)
            raise TrainingDiverged(
                f"non-finite loss at step {step}; keeping {kept} "
                f"checkpoint{'' if kept == 1 else 's'}",
                checkpoints=series,
            )
        backward(loss, params)
        del loss
        optimizer_step(model.params, state)
        model.step = step
        yield step, value


def _train_series(
    model: TransformerModel,
    state: OptimizerState,
    batch_loss,
    batches: tuple[np.random.Generator, int, int],
    corpus: Corpus,
    eval_limit: int | None,
    steps: int,
    checkpoint_every: int,
    out_dir: str | None,
    on_start=None,
) -> list[CheckpointInfo]:
    """Train through ``_updates`` and return the checkpoint series.

    Checkpoints are taken at step 0, every ``checkpoint_every`` updates and
    the final step; each carries the mean loss of the updates since the one
    before and the ``split_accuracy`` of the snapshot on the corpus's
    iid-val and cg-test splits at ``eval_limit``.  ``on_start()``, if given,
    runs once every setting has been checked, before anything is trained or
    written: a refused run never reaches it.
    """
    _check_limit(eval_limit)
    _check_updates(steps, batches[2])
    if checkpoint_every < 1:
        raise ContractViolation(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    _check_lengths(model, corpus, eval_limit)
    if on_start is not None:
        on_start()
    series: list[CheckpointInfo] = []
    running: list[float] = []
    # the untrained model is checkpoint 0
    for step, loss in chain([(0, None)], _updates(model, state, batch_loss, batches, steps,
                                                  series)):
        if loss is not None:
            running.append(loss)
        if step % checkpoint_every == 0 or step == steps:
            mean_loss = float(np.mean(running)) if running else None
            running.clear()
            snap = model.clone()
            iid_acc, cg_acc = (split_accuracy(snap, split, eval_limit)
                               for split in (corpus.iid_val, corpus.cg_test))
            path = None
            if out_dir is not None:
                path = save_checkpoint(snap, os.path.join(out_dir, f"step-{step:05d}"))
            series.append(CheckpointInfo(step, snap, mean_loss, iid_acc, cg_acc, path))
            log.info("%s step %d loss %s iid %s cg %s", model.task, step, mean_loss,
                     iid_acc, cg_acc)
    return series


def load_series(checkpoint_dir: str) -> list[CheckpointInfo]:
    """The ``step-NNNNN`` checkpoints ``_train_series`` wrote under
    ``checkpoint_dir``, in step order; two that hold one step are refused."""
    if not os.path.isdir(checkpoint_dir):
        raise ContractViolation(f"no checkpoint directory {checkpoint_dir}")
    series = []
    for name in sorted(os.listdir(checkpoint_dir)):
        if name.startswith("step-"):
            path = os.path.join(checkpoint_dir, name)
            model = load_checkpoint(path)
            series.append(CheckpointInfo(step=model.step, model=model, path=path))
    if not series:
        raise ContractViolation(f"{checkpoint_dir} contains no step-* checkpoints")
    # by step, not by name: "step-100000" sorts before "step-20000"
    series.sort(key=lambda info: info.step)
    for before, after in zip(series, series[1:]):
        if before.step == after.step:
            raise ContractViolation(
                f"{before.path} and {after.path} both hold step {before.step}"
            )
    return series


def _length_chunks(lengths) -> list[np.ndarray]:
    """Indices stably sorted by length, cut into chunks of ``EVAL_CHUNK``:
    every decode and the probe's memory encode run on these, so a chunk is
    padded only to its own longest row."""
    order = np.argsort(np.asarray(lengths), kind="stable")
    return [order[lo : lo + EVAL_CHUNK] for lo in range(0, len(order), EVAL_CHUNK)]


def _check_limit(limit: int | None) -> None:
    if limit is not None and limit < 1:
        raise ContractViolation(f"evaluation limit must be None or >= 1, got {limit}")


def _check_lengths(model: TransformerModel, corpus: Corpus, eval_limit: int | None) -> None:
    """Refuse, before anything is trained or written, a sequence longer than
    ``max_len``: a train source, a train target plus EOS (seq2seq) or a
    source ``split_accuracy`` will score at ``eval_limit``."""
    scored = corpus.iid_val[:eval_limit] + corpus.cg_test[:eval_limit]
    lengths = {"train source": [len(ex.source) for ex in corpus.train],
               "evaluated source": [len(ex.source) for ex in scored]}
    if model.task == "seq2seq":
        lengths["train target plus EOS"] = [len(ex.target) + 1 for ex in corpus.train]
    for what, ns in lengths.items():
        if max(ns, default=0) > model.config.max_len:
            raise ContractViolation(f"{what} of length {max(ns)} exceeds max_len "
                                    f"{model.config.max_len}")


def split_accuracy(
    model: TransformerModel, examples: list[TransductionExample], limit: int | None = EVAL_LIMIT
) -> float | None:
    """The one accuracy rule for a checkpoint: on the first ``limit``
    examples of a split (None scores them all), exact match for seq2seq and
    masked-token accuracy over the sources of at least two tokens for mlm;
    None when nothing there can be scored."""
    _check_limit(limit)
    subset = examples[:limit]
    if model.task == "seq2seq":
        return exact_match_accuracy(model, subset) if subset else None
    if model.task == "mlm":
        sentences = [model.vocab.encode(ex.source) for ex in subset if len(ex.source) >= 2]
        return masked_prediction_accuracy(model, sentences) if sentences else None
    raise ContractViolation(f"no accuracy measure for task {model.task!r}")


def exact_match_accuracy(model: TransformerModel, examples: list[TransductionExample]) -> float:
    """Fraction of examples whose greedy decode equals the target exactly.

    ``max_new`` is fixed on all the examples, which are then decoded in
    ``_length_chunks``.  The count does not depend on the order.  A decode
    can move by rounding only, since the padding a row's memory shares with
    its chunk changes.  Each row is decoded against its target and stops at
    its first wrong token, after which it cannot match; a row that can still
    match decodes exactly as it would to EOS, so no count changes.
    """
    if not examples:
        raise ContractViolation("exact_match_accuracy: empty evaluation split")
    vocab = model.vocab
    max_new = max(len(ex.target) for ex in examples) + 2
    correct = 0
    for chunk in _length_chunks([len(ex.source) for ex in examples]):
        batch = [examples[i] for i in chunk]
        targets = [vocab.encode(ex.target) for ex in batch]
        decoded = model.greedy_decode([vocab.encode(ex.source) for ex in batch], max_new,
                                      targets)
        correct += sum(out == target for out, target in zip(decoded, targets))
    return correct / len(examples)


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
    eval_limit: int | None = EVAL_LIMIT,
    out_dir: str | None = None,
    on_start=None,
) -> list[CheckpointInfo]:
    """Train source->target transduction; returns the checkpoint series.

    Checkpoints (step 0, every ``checkpoint_every``, and the final step) carry
    exact-match accuracy on the first ``eval_limit`` examples of the
    iid-validation and compositional-test splits.  ``on_start()``, if given,
    runs once every setting has been checked, before anything is trained or
    written.
    """
    if not corpus.train:
        raise ContractViolation("train_seq2seq: corpus has no train split")
    vocab = corpus.vocab
    config = replace(config, vocab_size=len(vocab))
    model = TransformerModel(config, vocab, "seq2seq", rng=np.random.default_rng(seed))
    pairs = [(vocab.encode(ex.source), vocab.encode(ex.target)) for ex in corpus.train]
    batch_rng = np.random.default_rng([seed, 1])

    def batch_loss(idx):
        return model.seq2seq_loss([pairs[i] for i in idx])

    state = OptimizerState(base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=weight_decay)
    return _train_series(model, state, batch_loss, (batch_rng, len(pairs), batch_size),
                         corpus, eval_limit, steps, checkpoint_every, out_dir, on_start)


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
    original = pad_ids(sentences, vocab.pad)
    masked = original.copy()
    loss_mask = np.zeros_like(original, dtype=np.float64)
    for b, s in enumerate(sentences):
        pos = mask_positions(rng, len(s), frac)
        masked[b, pos] = vocab.mask
        loss_mask[b, pos] = 1.0
    return masked, original, loss_mask


def masked_prediction_accuracy(model: TransformerModel, sentences: list[list[int]]) -> float:
    """Top-1 accuracy at masked positions of exactly ``sentences`` under the
    fixed masking draw ``EVAL_MASK_SEED``, so a checkpoint scores the same
    for every caller.  ``mask_positions`` refuses a sentence shorter than two
    tokens."""
    if not sentences:
        raise ContractViolation("masked_prediction_accuracy: no sentences")
    rng = np.random.default_rng(EVAL_MASK_SEED)
    hit = total = 0
    for lo in range(0, len(sentences), EVAL_CHUNK):
        masked, original, loss_mask = make_mlm_batch(
            rng, sentences[lo : lo + EVAL_CHUNK], model.vocab, EVAL_MASK_FRAC
        )
        with no_tape():
            pred = model.mlm_logits(masked).argmax(axis=-1)
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
    on_start=None,
) -> list[CheckpointInfo]:
    """Masked-token pretraining on the corpus's source sentences.

    Sentences shorter than two tokens are skipped.  Checkpoint accuracy
    fields hold masked-token prediction accuracy on the first ``EVAL_LIMIT``
    iid-val and cg-test sources, those of at least two tokens (there is no
    decoder to exact-match with).  ``on_start`` is ``train_seq2seq``'s.
    """
    if not 0 < mask_frac <= 1:
        raise ContractViolation(f"mask_frac must lie in (0, 1], got {mask_frac}")
    vocab = corpus.vocab
    sentences = [vocab.encode(ex.source) for ex in corpus.train if len(ex.source) >= 2]
    if not sentences:
        raise ContractViolation("train_mlm: no trainable sentences")
    config = replace(config, vocab_size=len(vocab))
    model = TransformerModel(config, vocab, "mlm", rng=np.random.default_rng(seed))
    batch_rng = np.random.default_rng([seed, 2])

    def batch_loss(idx):
        batch = make_mlm_batch(batch_rng, [sentences[i] for i in idx], vocab, mask_frac)
        return model.mlm_loss(*batch)

    state = OptimizerState(base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=weight_decay)
    return _train_series(model, state, batch_loss, (batch_rng, len(sentences), batch_size),
                         corpus, EVAL_LIMIT, steps, checkpoint_every, out_dir, on_start)


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
    return Vocab(vocab.id_to_token[len(RESERVED) :] + [treeval.OPEN, treeval.CLOSE])


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
    """Corpus PARSEVAL of repaired probe decodes against gold trees, decoded
    in ``_length_chunks`` like the probe's training memory."""
    _check_heldout(examples)
    max_new = _bracket_length(examples)
    pairs = []
    repaired_count = coerced_count = 0
    for chunk in _length_chunks([len(ex.source) for ex in examples]):
        batch = [examples[i] for i in chunk]
        memory, additive = encoder.frozen_memory(
            [encoder.vocab.encode(ex.source) for ex in batch]
        )
        decoded = probe.decode_with_memory(memory, additive, max_new)
        for out, ex in zip(decoded, batch):
            n_leaves = trees.leaf_count(ex.tree)
            tree, repaired, coerced = predicted_tree(probe.vocab.decode(out), n_leaves)
            repaired_count += int(repaired)
            coerced_count += int(coerced)
            pairs.append((tree, ex.tree))
    precision, recall, f1 = treeval.corpus_parseval(pairs)
    return precision, recall, f1, repaired_count, coerced_count


def _check_heldout(examples: list[TransductionExample]) -> None:
    """Refuse a held-out set the probe cannot be scored on."""
    if not examples:
        raise ContractViolation("probe: empty held-out set")
    for i, ex in enumerate(examples):
        if ex.tree is None:
            raise ContractViolation(f"probe: held-out example {i} has no gold tree")


def _frozen_batches(encoder: TransformerModel, sources: list[list[int]]):
    """The probe's memory side for any packed batch of ``sources``, encoding
    each source once.

    Every source runs through ``encoder.frozen_memory`` once, in
    ``_length_chunks``.  The returned function maps batch indices ``idx``
    and their ``PackedBatch`` to the memory laid out like the batch's
    sources: each position reads its pair's stored state.  Pad positions
    read some stored row, which the pair mask gives exactly zero weight; a
    row's states can differ from those of an encode of that batch by
    rounding, because the encoder ran on another padding.
    """
    lengths = np.array([len(s) for s in sources])
    store = np.zeros((len(sources), lengths.max(), encoder.config.d_model))
    for chunk in _length_chunks(lengths):
        memory, _ = encoder.frozen_memory([sources[i] for i in chunk])
        for row, i in enumerate(chunk):
            store[i, : lengths[i]] = memory[row, : lengths[i]]

    def batch(idx, packed: PackedBatch) -> Tensor:
        return constant(store[idx[packed.src_pair], packed.src_pos])

    return batch


def train_probe(
    encoder: TransformerModel,
    train_examples: list[TransductionExample],
    heldout_examples: list[TransductionExample],
    steps: int = 1500,
    seed: int = 0,
    batch_size: int = 32,
    base_lr: float = 3e-4,
    warmup_steps: int = 300,
    on_start=None,
) -> ProbeResult:
    """Fit a small decoder to emit bracketed parses off frozen encoder states.

    The encoder is never updated; its final states enter the probe as
    constants.  Returns the probe plus held-out PARSEVAL (p_parseval).
    ``on_start`` is ``train_seq2seq``'s.
    """
    if steps < 1:  # an untrained probe would score only the coercion fallback
        raise ContractViolation(f"probe steps must be >= 1, got {steps}")
    usable = [ex for ex in train_examples if ex.tree is not None]
    if not usable:
        raise ContractViolation("train_probe: no examples with gold trees")
    _check_heldout(heldout_examples)  # before training, not after it
    probe_vocab = probe_vocab_for(encoder.vocab)
    # sized for the held-out parses too, so that no decode is cut off
    config = replace(encoder.config, dec_layers=PROBE_DEC_LAYERS, vocab_size=len(probe_vocab),
                     max_len=max(encoder.config.max_len,
                                 _bracket_length(usable + heldout_examples)))
    probe = TransformerModel(config, probe_vocab, "probe", rng=np.random.default_rng(seed))
    sources = [encoder.vocab.encode(ex.source) for ex in usable]
    targets = [
        probe_vocab.encode(treeval.linearize(ex.tree, ex.source)) for ex in usable
    ]
    batch_rng = np.random.default_rng([seed, 3])

    def batch_loss(idx):
        batch = pack_pairs([(sources[i], targets[i]) for i in idx], probe_vocab)
        return probe.packed_loss(batch, frozen(idx, batch))

    # the optimizer's settings and the batch size are refused here, before
    # the encode below runs every training source through the encoder
    state = OptimizerState(
        base_lr=base_lr, warmup_steps=warmup_steps, weight_decay=PROBE_WEIGHT_DECAY
    )
    _check_updates(steps, batch_size)
    frozen = _frozen_batches(encoder, sources)
    if on_start is not None:
        on_start()
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
