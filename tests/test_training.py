"""Training loops: transduction memorization, masked pretraining, probing."""

import gc
import hashlib
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    ref_affine,
    ref_cut_decode,
    ref_evaluate_probe,
    ref_exact_match,
    ref_target_loss,
)
from spantree import training, treeval, trees
from spantree.datasets import (
    DEFAULT_UNSEEN,
    Corpus,
    TransductionExample,
    Vocab,
    generate_expressions,
    make_cg_split,
)
from spantree.encoder import (
    EncoderConfig,
    TransformerModel,
    load_checkpoint,
    pack_pairs,
    save_checkpoint,
)
from spantree.errors import ContractViolation, TrainingDiverged
from spantree.numerics import OptimizerState, Tensor, backward, constant, optimizer_step
from spantree.training import (
    ProbeResult,
    exact_match_accuracy,
    load_series,
    make_mlm_batch,
    mask_positions,
    masked_prediction_accuracy,
    probe_vocab_for,
    split_accuracy,
    train_mlm,
    train_probe,
    train_seq2seq,
)


def tiny_config(**kw):
    base = dict(
        enc_layers=1, dec_layers=1, heads=2, d_model=16, d_ff=32,
        vocab_size=0, max_len=24,
    )
    base.update(kw)
    return EncoderConfig(**base)


def memorization_corpus(k=10):
    """k short distinct examples; train and iid-val share them (pure recall)."""
    symbols = ["A1", "B1", "C1", "D1", "E1"]
    examples = []
    for i in range(k):
        a, b = symbols[i % 5], symbols[(i + 2) % 5]
        op = ("copy", "reverse", "shift", "repeat")[i % 4]
        src = [op, a, b]
        tgt = {
            "copy": [a, b], "reverse": [b, a], "shift": [b, a], "repeat": [a, b, a, b],
        }[op]
        tree = (0, (1, 2))
        examples.append(TransductionExample(src, tgt, tree))
    vocab = Vocab(t for ex in examples for t in ex.source + ex.target)
    return Corpus(train=examples, iid_val=list(examples), cg_test=[], vocab=vocab)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------


def test_mask_positions_bounds_and_min_one():
    rng = np.random.default_rng(0)
    for length in (2, 3, 7, 20):
        for _ in range(50):
            pos = mask_positions(rng, length)
            assert 1 <= len(pos) <= length
            assert len(set(pos.tolist())) == len(pos)
            assert all(0 <= p < length for p in pos)


def test_mask_positions_long_run_fraction():
    # stochastic rounding: the expected count is exactly frac * n
    rng = np.random.default_rng(1)
    length = 7  # 0.15 * 7 = 1.05, so mostly 1, sometimes 2
    counts = [len(mask_positions(rng, length)) for _ in range(20000)]
    assert np.mean(counts) == pytest.approx(1.05, abs=0.02)


def test_mask_positions_rejects_tiny_sentences():
    with pytest.raises(ContractViolation):
        mask_positions(np.random.default_rng(0), 1)


def test_make_mlm_batch_layout():
    vocab = Vocab(["x", "y", "z"])
    rng = np.random.default_rng(2)
    sents = [vocab.encode(["x", "y", "z", "x"]), vocab.encode(["y", "z"])]
    masked, original, loss_mask = make_mlm_batch(rng, sents, vocab)
    assert masked.shape == original.shape == loss_mask.shape == (2, 4)
    # padding is never masked and carries no loss
    assert original[1, 2] == vocab.pad and loss_mask[1, 2] == 0.0
    # masked positions hold the sentinel and carry loss
    hit = (masked == vocab.mask) & (original != vocab.pad)
    assert hit.sum() >= 2
    assert np.array_equal(loss_mask > 0, hit)
    # unmasked positions pass through
    assert np.array_equal(np.where(hit, vocab.mask, original), masked)


# ---------------------------------------------------------------------------
# seq2seq training
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def memorized():
    corpus = memorization_corpus()
    series = train_seq2seq(
        tiny_config(), corpus,
        steps=300, checkpoint_every=150, seed=0,
        batch_size=10, base_lr=5e-3, warmup_steps=30,
    )
    return corpus, series


def test_memorization_reaches_exact_match(memorized):
    corpus, series = memorized
    assert series[-1].iid_acc == 1.0
    # greedy decode literally reproduces a memorized target
    model = series[-1].model
    out = model.greedy_decode([corpus.vocab.encode(corpus.train[0].source)], 8)[0]
    assert out == corpus.vocab.encode(corpus.train[0].target)


def test_checkpoint_series_structure(memorized):
    _, series = memorized
    assert [info.step for info in series] == [0, 150, 300]
    assert series[0].train_loss is None
    assert all(info.train_loss is not None for info in series[1:])
    # running-mean losses decrease as memorization proceeds
    assert series[2].train_loss < series[1].train_loss


def test_step0_accuracy_is_near_zero(memorized):
    _, series = memorized
    assert series[0].iid_acc <= 0.1


def test_loss_decreases_on_memorization(memorized):
    _, series = memorized
    first = series[1].train_loss
    last = series[-1].train_loss
    assert last < first * 0.5


def test_training_is_seed_deterministic():
    corpus = memorization_corpus()
    runs = [
        train_seq2seq(
            tiny_config(), corpus, steps=20, checkpoint_every=20,
            seed=4, batch_size=4, base_lr=1e-3, warmup_steps=5,
        )
        for _ in range(2)
    ]
    a, b = runs[0][-1].model, runs[1][-1].model
    assert all(np.array_equal(a.params[k].value, b.params[k].value) for k in a.params)
    c = train_seq2seq(
        tiny_config(), corpus, steps=20, checkpoint_every=20,
        seed=5, batch_size=4, base_lr=1e-3, warmup_steps=5,
    )[-1].model
    assert any(not np.array_equal(a.params[k].value, c.params[k].value) for k in a.params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # deliberate overflow
def test_divergence_aborts_and_keeps_checkpoints():
    corpus = memorization_corpus()
    with pytest.raises(TrainingDiverged) as info:
        train_seq2seq(
            tiny_config(), corpus, steps=50, checkpoint_every=10,
            seed=0, batch_size=4, base_lr=1e200, warmup_steps=0,
        )
    kept = info.value.checkpoints
    assert len(kept) >= 1
    assert kept[0].step == 0


def test_checkpoints_written_to_disk(tmp_path):
    corpus = memorization_corpus()
    series = train_seq2seq(
        tiny_config(), corpus, steps=10, checkpoint_every=5,
        seed=0, batch_size=4, base_lr=1e-3, warmup_steps=5,
        out_dir=str(tmp_path),
    )
    assert [info.step for info in series] == [0, 5, 10]
    for info in series:
        assert info.path is not None
        loaded = load_checkpoint(info.path)
        assert loaded.step == info.step
        assert all(
            np.array_equal(loaded.params[k].value, info.model.params[k].value)
            for k in loaded.params
        )


def test_load_series_is_in_step_order(tmp_path):
    # checkpoint directories are named step-{step:05d}, so by name
    # step-100000 would come before step-20000
    corpus = memorization_corpus()
    model = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    for step in (100000, 0, 20000):
        model.step = step
        save_checkpoint(model, tmp_path / f"step-{step:05d}")
    assert [info.step for info in load_series(str(tmp_path))] == [0, 20000, 100000]
    with pytest.raises(ContractViolation, match="no checkpoint directory"):
        load_series(str(tmp_path / "missing"))
    with pytest.raises(ContractViolation, match="no step-"):
        load_series(str(tmp_path / "step-00000"))


def test_load_series_refuses_a_repeated_step(tmp_path):
    # a copied checkpoint directory used to load twice: steps [0, 100, 100]
    corpus = memorization_corpus()
    model = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    for step in (0, 100):
        model.step = step
        save_checkpoint(model, tmp_path / f"step-{step:05d}")
    shutil.copytree(tmp_path / "step-00100", tmp_path / "step-00100-copy")
    first, second = tmp_path / "step-00100", tmp_path / "step-00100-copy"
    with pytest.raises(ContractViolation) as refused:
        load_series(str(tmp_path))
    assert str(refused.value) == f"{first} and {second} both hold step 100"


def test_train_requires_examples():
    vocab = Vocab(["x"])
    with pytest.raises(ContractViolation):
        train_seq2seq(tiny_config(), Corpus([], [], [], vocab), steps=1)


def test_exact_match_contracts(memorized, monkeypatch):
    corpus, series = memorized
    with pytest.raises(ContractViolation):
        exact_match_accuracy(series[-1].model, [])
    # split_accuracy scores the first `limit` examples, or None for none
    model = series[-1].model
    scored = []

    def recording(m, examples):
        scored.append(examples)
        return exact_match_accuracy(m, examples)

    monkeypatch.setattr(training, "exact_match_accuracy", recording)
    assert split_accuracy(model, corpus.iid_val, limit=3) == 1.0
    assert split_accuracy(model, corpus.iid_val, limit=None) == 1.0
    assert scored == [corpus.iid_val[:3], corpus.iid_val]
    assert split_accuracy(model, []) is None
    for bad in (0, -1):
        with pytest.raises(ContractViolation, match="evaluation limit"):
            split_accuracy(model, corpus.iid_val, limit=bad)


def test_exact_match_sorted_chunks_match_given_order(monkeypatch):
    # decoding length-sorted chunks, each padded to its own longest source,
    # gives every example the decode it gets in chunks taken in given order
    examples = generate_expressions(150, depth_range=(1, 3), seed=5, alphabet_size=6)
    vocab = Vocab(t for ex in examples for t in ex.source + ex.target)
    # most rows emit EOS first, the others run 2-18 tokens
    model = TransformerModel(tiny_config(vocab_size=len(vocab), max_len=40), vocab, rng=5)
    _, decodes = ref_exact_match(model, examples)
    # every third example whose decode stopped short becomes its own target,
    # so the count is neither 0 nor all; max_new is unchanged
    longest = max(len(ex.target) for ex in examples)
    examples = [
        replace(ex, target=vocab.decode(out)) if i % 3 == 0 and len(out) < longest else ex
        for i, (ex, out) in enumerate(zip(examples, decodes))
    ]
    assert max(len(ex.target) for ex in examples) == longest
    want_acc, want = ref_exact_match(model, examples)
    assert 0.2 < want_acc < 0.5
    calls = []
    original = TransformerModel.greedy_decode

    def recorded(self, sources, max_new, targets):
        outs = original(self, sources, max_new, targets)
        calls.append(list(zip(map(tuple, sources), map(tuple, outs))))
        return outs

    monkeypatch.setattr(TransformerModel, "greedy_decode", recorded)
    assert exact_match_accuracy(model, examples) == want_acc
    assert len(calls) == 3
    got = [row for call in calls for row in call]
    lengths = [len(source) for source, _ in got]
    assert lengths == sorted(lengths)
    # each row stops at its first wrong token; the decode of a row that
    # matches is the whole decode of the in-order reference
    cut = [ref_cut_decode(out, vocab.encode(ex.target), vocab.eos)
           for ex, out in zip(examples, want)]
    assert sum(c != out for c, out in zip(cut, want)) > 20
    assert any(out and out == vocab.encode(ex.target) for ex, out in zip(examples, want))
    assert sorted(got) == sorted(
        (tuple(vocab.encode(ex.source)), tuple(c)) for ex, c in zip(examples, cut)
    )


# ---------------------------------------------------------------------------
# masked-token pretraining
# ---------------------------------------------------------------------------


def test_mlm_training_improves_masked_accuracy():
    corpus = memorization_corpus()
    series = train_mlm(
        tiny_config(dec_layers=0), corpus,
        steps=120, checkpoint_every=60, seed=0,
        batch_size=10, base_lr=5e-3, warmup_steps=12,
    )
    assert [info.step for info in series] == [0, 60, 120]
    v = len(corpus.vocab)
    # early running loss sits near the uniform floor, then falls well below
    assert series[1].train_loss < np.log(v) + 0.5
    assert series[-1].train_loss < series[1].train_loss
    # masked-token accuracy beats uniform guessing by a wide margin
    assert series[-1].iid_acc > 5.0 / v
    assert series[-1].iid_acc > series[0].iid_acc


def test_mlm_skips_short_sentences():
    vocab = Vocab(["x", "y"])
    short = TransductionExample(["x"], ["x"])
    ok = TransductionExample(["x", "y"], ["x"])
    corpus = Corpus(train=[short, ok], iid_val=[], cg_test=[], vocab=vocab)
    series = train_mlm(
        tiny_config(dec_layers=0), corpus, steps=2, checkpoint_every=2,
        batch_size=2, base_lr=1e-4, warmup_steps=1,
    )
    assert series[-1].step == 2
    corpus_only_short = Corpus(train=[short], iid_val=[], cg_test=[], vocab=vocab)
    with pytest.raises(ContractViolation):
        train_mlm(tiny_config(dec_layers=0), corpus_only_short, steps=1)


def test_masked_prediction_accuracy_is_draw_deterministic():
    corpus = memorization_corpus()
    config = tiny_config(dec_layers=0)
    config.vocab_size = len(corpus.vocab)
    model = TransformerModel(config, corpus.vocab, task="mlm", rng=0)
    sents = [corpus.vocab.encode(ex.source) for ex in corpus.train]
    a = masked_prediction_accuracy(model, sents)
    b = masked_prediction_accuracy(model, sents)
    assert a == b
    with pytest.raises(ContractViolation):
        masked_prediction_accuracy(model, [[5]])


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------


def test_probe_vocab_layout():
    vocab = Vocab(["A1", "B1"])
    pv = probe_vocab_for(vocab)
    assert pv.id_to_token[5:] == ["A1", "B1", "(", ")"]


def bracket_stream_fixture():
    """Sentences that are literally bracket streams of known trees."""
    leaf_sets = [
        ["A1", "B1"],
        ["C1", "D1", "E1"],
        ["B1", "A1", "D1"],
        ["E1", "C1"],
        ["A1", "D1", "C1"],
        ["D1", "E1", "B1"],
    ]
    shapes = [
        (0, 1), ((0, 1), 2), (0, (1, 2)), (0, 1), ((0, 1), 2), (0, (1, 2)),
    ]
    examples = []
    for toks, tree in zip(leaf_sets, shapes):
        stream = treeval.linearize(tree, toks)
        examples.append(TransductionExample(source=stream, target=stream, tree=tree))
    vocab = Vocab(t for ex in examples for t in ex.source)
    return examples, vocab


def test_probe_reads_gold_brackets_from_encoder_states():
    """When the encoder's input literally spells the bracket stream, a probe
    that memorizes the copy task decodes every tree exactly: PARSEVAL 1.0.
    The decoder can only tell sentences apart through cross-attention, so
    perfect recall proves the memory path works."""
    examples, vocab = bracket_stream_fixture()
    config = tiny_config()
    config.vocab_size = len(vocab)
    encoder = TransformerModel(config, vocab, task="seq2seq", rng=0)

    probe_vocab = probe_vocab_for(vocab)
    probe_config = tiny_config(vocab_size=len(probe_vocab))
    probe = TransformerModel(probe_config, probe_vocab, task="probe", rng=1)
    state = OptimizerState(base_lr=3e-3, warmup_steps=40, weight_decay=0.0)

    sources = [vocab.encode(ex.source) for ex in examples]
    targets = [probe_vocab.encode(ex.source) for ex in examples]
    batch = pack_pairs(list(zip(sources, targets)), probe_vocab)
    memory = training._frozen_batches(encoder, sources)(np.arange(len(sources)), batch)
    for _ in range(400):
        loss = probe.packed_loss(batch, memory)
        backward(loss, probe.params)
        optimizer_step(probe.params, state)

    precision, recall, f1, repaired, coerced = training.evaluate_probe(
        probe, encoder, examples
    )
    assert (precision, recall, f1) == (1.0, 1.0, 1.0)
    assert repaired == 0 and coerced == 0


def test_predicted_tree_repairs_and_coerces():
    tree, repaired, coerced = training.predicted_tree(["(", "a", "b", ")"], 2)
    assert tree == (0, 1) and not repaired and not coerced
    # leaf-count mismatch falls back to right branching
    tree, repaired, coerced = training.predicted_tree(["(", "a", "b", ")"], 4)
    assert tree == trees.right_branching(4) and coerced
    # garbage still yields a usable tree
    tree, repaired, coerced = training.predicted_tree([")", ")"], 3)
    assert tree == trees.right_branching(3) and repaired and coerced


def test_train_probe_end_to_end_smoke():
    corpus = memorization_corpus()
    config = tiny_config()
    config.vocab_size = len(corpus.vocab)
    encoder = TransformerModel(config, corpus.vocab, task="seq2seq", rng=0)
    result = train_probe(
        encoder, corpus.train, corpus.iid_val[:4],
        steps=30, seed=0, batch_size=4, base_lr=1e-3, warmup_steps=10,
    )
    assert isinstance(result, ProbeResult)
    assert 0.0 <= result.p_parseval <= 1.0
    assert result.heldout == 4
    assert result.probe.task == "probe"
    assert result.probe.config.dec_layers == 1


def probe_setup(count=160, seed=5):
    """An untrained encoder, a fresh probe and the probe's sources and
    targets for ``count`` generated expressions, as ``train_probe`` builds
    them."""
    examples = generate_expressions(count, depth_range=(1, 3), seed=seed, alphabet_size=6)
    vocab = Vocab(t for ex in examples for t in ex.source)
    encoder = TransformerModel(tiny_config(vocab_size=len(vocab)), vocab, rng=0)
    probe_vocab = probe_vocab_for(vocab)
    config = tiny_config(vocab_size=len(probe_vocab),
                         max_len=training._bracket_length(examples))
    probe = TransformerModel(config, probe_vocab, task="probe", rng=1)
    sources = [vocab.encode(ex.source) for ex in examples]
    targets = [probe_vocab.encode(treeval.linearize(ex.tree, ex.source)) for ex in examples]
    return encoder, probe, sources, targets


# The probe's memory, encoded once per source, may differ from a per-batch
# encode by rounding, and 60 AdamW steps carry that into the loss.  Measured
# at most 3.0e-16 relative over the 60 steps below (3.7e-16 on padded batches).
PROBE_LOSS_BOUND = 1e-12


def test_probe_memory_encoded_once_tracks_per_batch_encode():
    encoder, base, sources, targets = probe_setup()
    frozen = training._frozen_batches(encoder, sources)

    def packed(idx):
        return pack_pairs([(sources[i], targets[i]) for i in idx], base.vocab)

    def per_batch(idx, batch):
        memory, _ = encoder.frozen_memory([sources[i] for i in idx])
        assert type(memory) is np.ndarray
        return constant(memory[batch.src_pair, batch.src_pos])

    idx = np.random.default_rng(0).integers(0, len(sources), size=16)
    batch = packed(idx)
    memory, want = frozen(idx, batch), per_batch(idx, batch)
    real = batch.src_pair >= 0
    assert np.abs(memory.value - want.value)[real].max() <= 1e-13
    # pad positions read some stored row; the pair mask gives them zero weight
    assert not real.all()
    scrambled = memory.value.copy()
    scrambled[~real] = 7.0
    assert base.packed_loss(batch, constant(scrambled)).value == base.packed_loss(
        batch, memory).value
    losses = {}
    for label, memory_of in (("once", frozen), ("per batch", per_batch)):
        probe = base.clone()
        state = OptimizerState(base_lr=3e-3, warmup_steps=10, weight_decay=0.01)

        def batch_loss(idx, probe=probe, memory_of=memory_of):
            batch = packed(idx)
            return probe.packed_loss(batch, memory_of(idx, batch))

        batches = (np.random.default_rng([0, 3]), len(sources), 16)
        losses[label] = np.array(
            [loss for _, loss in training._updates(probe, state, batch_loss, batches, 60, [])]
        )
    assert losses["once"][-1] < losses["once"][0]
    rel = np.abs(losses["once"] - losses["per batch"]) / losses["per batch"]
    assert rel.max() <= PROBE_LOSS_BOUND


# The probe's packed loss (store gather, packed rows) against the padded
# reference on a per-batch encode.  Measured over 20 mixed batches: losses
# within 2.7e-16 relative and gradients within 1.1e-15 of the largest
# gradient entry; bit-equal losses and gradients for equal lengths.
@pytest.mark.parametrize("kind", ["mixed", "equal", "single"])
def test_packed_probe_loss_matches_padded_reference(kind):
    encoder, probe, sources, targets = probe_setup()
    lengths = np.array([len(s) for s in sources])
    idx = {
        "mixed": np.random.default_rng(1).integers(0, len(sources), size=16),
        "equal": np.flatnonzero(lengths == 3)[:16],
        "single": np.array([int(lengths.argmax())]),
    }[kind]
    batch = pack_pairs([(sources[i], targets[i]) for i in idx], probe.vocab)
    assert (batch.src_ids.shape[0] < len(idx)) == (kind == "mixed")
    runs = []

    def padded_reference():
        # the frozen memory is a plain array; on the tape it enters as a constant
        memory, additive = encoder.frozen_memory([sources[i] for i in idx])
        return ref_target_loss(probe, constant(memory), additive, [targets[i] for i in idx])

    for loss_of in (
        lambda: probe.packed_loss(batch, training._frozen_batches(encoder, sources)(idx, batch)),
        padded_reference,
    ):
        loss = loss_of()
        backward(loss, probe.params)
        runs.append((float(loss.value), {n: p.grad.copy() for n, p in probe.params.items()}))
    (loss, grads), (ref_loss, ref_grads) = runs
    assert abs(loss - ref_loss) <= PROBE_LOSS_BOUND * ref_loss
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= 1e-14 * scale, name
    if kind == "equal":  # one pair per row: the padded layout exactly
        assert loss == ref_loss
        assert all(g.tobytes() == ref_grads[name].tobytes() for name, g in grads.items())


def test_probe_is_sized_for_the_longest_heldout_parse():
    # the probe's max_len came from the training parses only, so a longer
    # held-out parse was cut off at max_len - 1 tokens and then coerced
    examples = generate_expressions(160, depth_range=(1, 3), seed=5, alphabet_size=6)
    vocab = Vocab(t for ex in examples for t in ex.source)
    encoder = TransformerModel(tiny_config(vocab_size=len(vocab)), vocab, rng=0)
    train = [ex for ex in examples if len(ex.source) <= 6]
    heldout = sorted(examples, key=lambda ex: len(ex.source))[-3:]
    probe = train_probe(encoder, train, heldout, steps=2, batch_size=4).probe
    longest = max(len(treeval.linearize(ex.tree, ex.source)) for ex in heldout)
    assert longest + 1 > encoder.config.max_len  # the parse and its EOS
    assert probe.config.max_len - 1 >= longest + 1


def test_train_probe_encodes_each_source_once(monkeypatch):
    corpus = memorization_corpus()
    config = tiny_config(vocab_size=len(corpus.vocab))
    encoder = TransformerModel(config, corpus.vocab, task="seq2seq", rng=0)
    calls = []
    original = TransformerModel.frozen_memory

    def counted(self, sources):
        calls.append(len(sources))
        return original(self, sources)

    monkeypatch.setattr(TransformerModel, "frozen_memory", counted)
    train_probe(encoder, corpus.train, corpus.iid_val[:4], steps=20, batch_size=4)
    # one encode of the 10 training sources, then one of the 4 held out
    assert calls == [10, 4]


def test_evaluate_probe_sorted_chunks_match_given_order(monkeypatch):
    # a held-out set of three chunks: decoding length-sorted chunks gives the
    # scores and counts that chunks taken in the given order give
    examples = generate_expressions(200, depth_range=(1, 2), seed=5, alphabet_size=6)
    vocab = Vocab(t for ex in examples for t in ex.source)
    encoder = TransformerModel(tiny_config(vocab_size=len(vocab)), vocab, rng=0)
    heldout = examples[60:]
    assert len(heldout) > 2 * training.EVAL_CHUNK
    probe = train_probe(encoder, examples[:60], heldout, steps=60, seed=1, batch_size=16,
                        base_lr=1e-2, warmup_steps=10).probe
    want = ref_evaluate_probe(probe, encoder, heldout)
    assert 0 < want[4] < len(heldout)  # some outputs usable, some coerced
    encoded = []
    original = TransformerModel.frozen_memory

    def recorded(self, sources):
        encoded.append([len(s) for s in sources])
        return original(self, sources)

    monkeypatch.setattr(TransformerModel, "frozen_memory", recorded)
    assert training.evaluate_probe(probe, encoder, heldout) == want
    lengths = [n for chunk in encoded for n in chunk]
    assert len(encoded) == 3 and lengths == sorted(lengths)


def test_train_probe_requires_gold_trees():
    corpus = memorization_corpus()
    config = tiny_config()
    config.vocab_size = len(corpus.vocab)
    encoder = TransformerModel(config, corpus.vocab, task="seq2seq", rng=0)
    bare = [TransductionExample(ex.source, ex.target, None) for ex in corpus.train]
    with pytest.raises(ContractViolation):
        train_probe(encoder, bare, corpus.iid_val, steps=1)


def test_train_probe_refuses_unscorable_heldout_before_training(monkeypatch):
    # an empty held-out set, or one with an example that has no gold tree,
    # used to fail only after every probe update had run
    corpus = memorization_corpus()
    encoder = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    calls = []
    original = training._updates

    def counted(*args, **kwargs):
        calls.append(args[-2])
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "_updates", counted)
    bare = TransductionExample(corpus.iid_val[0].source, corpus.iid_val[0].target, None)
    for heldout in ([], corpus.iid_val[:2] + [bare]):
        with pytest.raises(ContractViolation, match="held-out"):
            train_probe(encoder, corpus.train, heldout, steps=5, batch_size=4)
    assert calls == []
    train_probe(encoder, corpus.train, corpus.iid_val[:2], steps=2, batch_size=4)
    assert calls == [2]


@pytest.mark.parametrize("steps", [0, -3])
def test_train_probe_refuses_no_updates_before_encoding(monkeypatch, steps):
    # with no update the probe used to be scored anyway: every output was
    # coerced, so p_parseval was the right-branching fallback's score
    corpus = memorization_corpus()
    encoder = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    calls = []
    original = training._frozen_batches

    def counted(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(training, "_frozen_batches", counted)
    with pytest.raises(ContractViolation, match="probe steps"):
        train_probe(encoder, corpus.train, corpus.iid_val[:2], steps=steps, batch_size=4)
    assert calls == []
    train_probe(encoder, corpus.train, corpus.iid_val[:2], steps=1, batch_size=4)
    assert calls == [10]


@pytest.mark.parametrize("setting, match", [
    ({"base_lr": math.inf}, "learning rate"),
    ({"batch_size": 0}, "batch_size"),
])
def test_train_probe_refuses_bad_settings_before_encoding(monkeypatch, setting, match):
    # the optimizer's settings and the batch size used to be checked only
    # after every training source had run through the encoder
    corpus = memorization_corpus()
    encoder = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    calls = []
    original = TransformerModel.frozen_memory

    def counted(self, sources):
        calls.append(len(sources))
        return original(self, sources)

    monkeypatch.setattr(TransformerModel, "frozen_memory", counted)
    settings = {"steps": 2, "batch_size": 4, **setting}
    with pytest.raises(ContractViolation, match=match):
        train_probe(encoder, corpus.train, corpus.iid_val[:2], **settings)
    assert calls == []


# ---------------------------------------------------------------------------
# frozen training bits
# ---------------------------------------------------------------------------


# sha256 over short seeded runs with a checkpoint every step: each
# checkpoint's (step, train loss, iid accuracy, cg accuracy) reprs, then the
# final parameters' bytes in name order.  Like test_chart_frozen_bytes in
# test_spanrep.py, a frozen record catches an edit that moves the bits of
# the loss, the backward pass, the optimizer or an evaluation, which no
# two-route check in this suite compares.  All three entries were
# re-recorded when every linear layer became one ``affine`` node whose
# weight gradient is one GEMM over all positions (a rounding change to
# weight gradients only; an ``affine`` with the earlier batched weight
# gradient reproduces the entries before it).  They were re-recorded again
# when the attention key biases left the model: those biases cannot change
# an output, but training had moved them by rounding noise, and the final
# parameter bytes no longer hold them.  The test after this one bounds how
# far the runs moved.  The seq2seq and probe entries (the probe reads the
# seq2seq model) were re-recorded when the seq2seq loss began to pack its
# pairs into rows: against the whole batch padded as one group, the losses
# stayed within 1.6e-16 relative, the accuracies and probe scores equal, and
# the parameters within 1.1e-15 of each one's largest entry.  The probe entry
# was re-recorded when the probe began to train on packed rows: against the
# batches padded to their longest source and target, its losses stayed within
# 1.4e-16 relative, its scores equal (F1 0.7727..., 11 repaired, 11 coerced)
# and its parameters within 7e-16 of each one's largest entry.  The mlm entry
# was re-recorded when masked-token accuracy began to draw its masks from one
# fixed stream instead of the caller's seed: its losses and parameters kept
# their bits, and only the recorded accuracies moved.
FROZEN_TRAINING_SHA256 = {
    "seq2seq": "cd068bd09004c5cac8f3b5cf1125f5887029beb2424fc3c35fbc16b0792274a3",
    "mlm": "f6bbba338116d372a83f5ac20515081f6e625920a826f7e6bccf61c6be38df63",
    "probe": "1492b6356fd6b42205589db215bb9e88448063674c340f9058993a6c4697c74c",
}


FROZEN_KW = dict(steps=4, seed=2, batch_size=8, base_lr=3e-3, warmup_steps=2)


def _frozen_corpus():
    examples = generate_expressions(60, depth_range=(1, 2), seed=3, alphabet_size=6)
    corpus = make_cg_split(examples, DEFAULT_UNSEEN, seed=3, val_frac=0.2)
    assert corpus.iid_val and corpus.cg_test
    return corpus


def _frozen_series(task, corpus):
    """The checkpoint records and final model of the short seeded seq2seq or
    mlm run."""
    trainer, config = {
        "seq2seq": (train_seq2seq, tiny_config()),
        "mlm": (train_mlm, tiny_config(dec_layers=0)),
    }[task]
    series = trainer(config, corpus, checkpoint_every=1, **FROZEN_KW)
    assert [info.step for info in series] == [0, 1, 2, 3, 4]
    records = [(i.step, i.train_loss, i.iid_acc, i.cg_acc) for i in series]
    assert all(acc is not None for record in records for acc in record[2:])
    return records, series[-1].model


def _frozen_runs():
    """Per task, the checkpoint records and final parameters of the short
    seeded seq2seq, mlm and probe runs the frozen record is taken over."""
    corpus = _frozen_corpus()
    runs, models = {}, {}
    for task in ("seq2seq", "mlm"):
        records, models[task] = _frozen_series(task, corpus)
        runs[task] = (records, models[task].params)
    result = train_probe(models["seq2seq"], corpus.train, corpus.iid_val, **FROZEN_KW)
    records = [(result.p_parseval, result.precision, result.recall,
                result.repaired, result.coerced)]
    runs["probe"] = (records, result.probe.params)
    return runs


def _training_digest(records, params) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name].value).tobytes())
    return h.hexdigest()


def test_training_frozen_bytes():
    digests = {task: _training_digest(*run) for task, run in _frozen_runs().items()}
    assert digests == FROZEN_TRAINING_SHA256


def _wide_training_digest() -> str:
    """Digest of a few steps at criterion 9's architecture and batch size.
    Six of the eight packed source grids hold 266-348 positions, so their
    feed-forward products and weight gradients, (P, 32) by (32, 128), pass
    the about 32 x 256 x 128 multiply-adds above which OpenBLAS 0.3.31 split
    them over two threads on a 2-core x86 box; the frozen runs' largest
    product, 61,952 multiply-adds, stays on one."""
    examples = generate_expressions(300, depth_range=(1, 3), seed=9, alphabet_size=10)
    corpus = make_cg_split(examples, DEFAULT_UNSEEN, seed=9, val_frac=0.1)
    config = EncoderConfig(enc_layers=2, dec_layers=1, heads=4, d_model=32, d_ff=128,
                           vocab_size=0, max_len=40)
    series = train_seq2seq(config, corpus, steps=8, checkpoint_every=4, seed=9, batch_size=32,
                           base_lr=1e-3, warmup_steps=2, eval_limit=8)
    records = [(i.step, i.train_loss, i.iid_acc, i.cg_acc) for i in series]
    return _training_digest(records, series[-1].model.params)


def test_training_frozen_bytes_on_two_blas_threads():
    # the suite pins OpenBLAS to one thread; the frozen seq2seq run and a
    # few criterion-9-sized steps, rerun with two, must give the same bits
    tests = Path(__file__).parent
    code = ("from test_training import _frozen_corpus, _frozen_series, _training_digest, "
            "_wide_training_digest\n"
            "records, model = _frozen_series('seq2seq', _frozen_corpus())\n"
            "print(_training_digest(records, model.params))\n"
            "print(_wide_training_digest())")
    path = [str(tests), str(Path(training.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [FROZEN_TRAINING_SHA256["seq2seq"], _wide_training_digest()]


def test_training_tracks_two_node_linear_layers(monkeypatch):
    # the frozen runs again with every linear layer as the two nodes it used
    # to be, add(matmul(x, w), b), and a bias-free key projection as one
    # matmul: the runs differ only by the weight gradients' rounding.
    # Measured: losses within 1.5e-16 relative, the accuracies and probe
    # counts equal, parameters within 7.6e-16 of each one's largest entry.
    runs = _frozen_runs()
    monkeypatch.setattr(TransformerModel, "_affine", lambda self, x, w, b=None: ref_affine(
        x, self._p(w), None if b is None else self._p(b)))
    for task, (ref_records, ref_params) in _frozen_runs().items():
        records, params = runs[task]
        if task == "probe":  # PARSEVAL scores and repair counts
            assert records == ref_records
        else:  # (step, train loss, iid accuracy, cg accuracy) per checkpoint
            for (step, loss, *accs), (ref_step, ref_loss, *ref_accs) in zip(
                records, ref_records, strict=True
            ):
                assert (step, accs) == (ref_step, ref_accs), task
                if ref_loss is None:
                    assert loss is None
                else:
                    assert abs(loss - ref_loss) <= 1e-13 * abs(ref_loss), (task, step)
        for name, p in params.items():
            diff = np.abs(p.value - ref_params[name].value).max()
            assert diff <= 1e-13 * np.abs(p.value).max(), (task, name)


def test_train_seq2seq_draws_the_same_batches(monkeypatch):
    # packing happens inside the loss: the loss still receives
    # each step's pairs in the order the batch rng drew them
    corpus = memorization_corpus()
    seen = []
    original = TransformerModel.seq2seq_loss

    def recorded(self, pairs):
        seen.append(list(pairs))
        return original(self, pairs)

    monkeypatch.setattr(TransformerModel, "seq2seq_loss", recorded)
    train_seq2seq(tiny_config(), corpus, steps=5, checkpoint_every=5, seed=4, batch_size=6,
                  base_lr=1e-3, warmup_steps=1)
    vocab = corpus.vocab
    pairs = [(vocab.encode(ex.source), vocab.encode(ex.target)) for ex in corpus.train]
    rng = np.random.default_rng([4, 1])
    want = [[pairs[i] for i in rng.integers(0, len(pairs), size=6)] for _ in range(5)]
    assert seen == want


def _taped_tensors() -> int:
    """Live tensors that still hold a tape: those recorded with parents."""
    return sum(1 for obj in gc.get_objects() if type(obj) is Tensor and obj.parents)


def _spy(monkeypatch, owner, name, counts):
    """Wrap ``owner.name`` to append the live taped-tensor count at each call."""
    original = getattr(owner, name)

    def spied(*args, **kwargs):
        counts.append(_taped_tensors())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spied)


def test_no_tape_outlives_its_update(monkeypatch):
    # a step drops its loss once backward has run, so neither the next
    # step's forward nor a checkpoint evaluation runs beside a dead tape.
    # Keeping it read [0, 77, 77, 77] and [0, 0, 77, 77, 77, 77] (seq2seq),
    # [0] and [0, 0, 30, 30] (mlm), and [0, 49] (probe)
    corpus = memorization_corpus()
    kw = dict(seed=4, batch_size=6, base_lr=1e-3, warmup_steps=1)
    forwards, evals = [], []
    _spy(monkeypatch, training, "split_accuracy", evals)
    _spy(monkeypatch, TransformerModel, "seq2seq_loss", forwards)
    train_seq2seq(tiny_config(), corpus, steps=4, checkpoint_every=2, **kw)
    assert (forwards, evals) == ([0] * 4, [0] * 6)

    forwards.clear()
    evals.clear()
    _spy(monkeypatch, TransformerModel, "mlm_loss", forwards)
    train_mlm(tiny_config(), corpus, steps=1, checkpoint_every=1, **kw)
    assert (forwards, evals) == ([0], [0] * 4)

    forwards.clear()
    _spy(monkeypatch, TransformerModel, "packed_loss", forwards)  # the probe's loss
    encoder = TransformerModel(tiny_config(vocab_size=len(corpus.vocab)), corpus.vocab, rng=0)
    train_probe(encoder, corpus.train, corpus.iid_val[:4], steps=2, **kw)
    assert forwards == [0, 0]


def test_one_config_serves_two_corpora(tmp_path):
    # the trainers size the vocabulary on a copy: the caller's config and
    # every earlier model keep theirs, so the seq2seq checkpoints reload
    config = tiny_config()
    seq = memorization_corpus()
    words = [f"w{i}" for i in range(len(seq.vocab) + 2)]
    wide = Corpus(train=[TransductionExample(words, words)], iid_val=[], cg_test=[],
                  vocab=Vocab(words))
    kw = dict(steps=2, checkpoint_every=1, batch_size=2, base_lr=1e-3, warmup_steps=1)
    series = train_seq2seq(config, seq, **kw)
    mlm = train_mlm(config, wide, **kw)
    assert config == tiny_config()
    assert mlm[-1].model.config.vocab_size == len(wide.vocab) > len(seq.vocab)
    for info in series:
        assert info.model.config.vocab_size == len(seq.vocab)
        path = save_checkpoint(info.model, str(tmp_path / f"step-{info.step}"))
        assert load_checkpoint(path).config == info.model.config
