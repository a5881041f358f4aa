"""Training loops: transduction memorization, masked pretraining, probing."""

import numpy as np
import pytest

from spantree import training, treeval, trees
from spantree.datasets import Corpus, TransductionExample, Vocab
from spantree.encoder import EncoderConfig, TransformerModel, load_checkpoint
from spantree.errors import ContractViolation, TrainingDiverged
from spantree.numerics import OptimizerState, backward, optimizer_step
from spantree.training import (
    ProbeResult,
    exact_match_accuracy,
    make_mlm_batch,
    mask_positions,
    masked_prediction_accuracy,
    probe_vocab_for,
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


def test_train_requires_examples():
    vocab = Vocab(["x"])
    with pytest.raises(ContractViolation):
        train_seq2seq(tiny_config(), Corpus([], [], [], vocab), steps=1)


def test_exact_match_contracts(memorized):
    corpus, series = memorized
    with pytest.raises(ContractViolation):
        exact_match_accuracy(series[-1].model, [])
    # limit truncates the evaluated subset
    assert exact_match_accuracy(series[-1].model, corpus.iid_val, limit=3) == 1.0


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
    a = masked_prediction_accuracy(model, sents, seed=3)
    b = masked_prediction_accuracy(model, sents, seed=3)
    assert a == b
    with pytest.raises(ContractViolation):
        masked_prediction_accuracy(model, [[5]], seed=0)


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
    for _ in range(400):
        memory, additive = training._frozen_memory(encoder, sources)
        loss = probe.target_loss(memory, additive, targets)
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


def test_train_probe_requires_gold_trees():
    corpus = memorization_corpus()
    config = tiny_config()
    config.vocab_size = len(corpus.vocab)
    encoder = TransformerModel(config, corpus.vocab, task="seq2seq", rng=0)
    bare = [TransductionExample(ex.source, ex.target, None) for ex in corpus.train]
    with pytest.raises(ContractViolation):
        train_probe(encoder, bare, corpus.iid_val, steps=1)
