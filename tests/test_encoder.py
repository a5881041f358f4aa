"""Transformer encode/decode semantics, masks, and checkpoint persistence."""

import dataclasses
import json

import numpy as np
import pytest

from spantree import encoder as enc
from spantree import numerics as nm
from spantree import training
from spantree.datasets import RESERVED, Vocab
from spantree.encoder import (
    EncoderConfig,
    LayerMask,
    TransformerModel,
    load_checkpoint,
    save_checkpoint,
)
from spantree.errors import CheckpointError, ContractViolation
from spantree.spanrep import build_sci_chart, build_sci_charts, context_free_vector
from spantree.training import make_mlm_batch, masked_prediction_accuracy

from helpers import (
    fd_grad,
    full_prefix_greedy,
    ref_causal_additive,
    ref_cut_decode,
    ref_pad_additive,
    ref_segment_additive,
    ref_seq2seq_loss,
    rel_err,
)


def small_vocab(extra=8):
    return Vocab([f"t{i}" for i in range(extra)])


def small_config(vocab, **kw):
    base = dict(
        enc_layers=2, dec_layers=1, heads=2, d_model=8, d_ff=16,
        vocab_size=len(vocab), max_len=16,
    )
    base.update(kw)
    return EncoderConfig(**base)


def small_model(task="seq2seq", seed=0, **kw):
    vocab = small_vocab()
    return TransformerModel(small_config(vocab, **kw), vocab, task=task, rng=seed)


# ---------------------------------------------------------------------------
# configuration and construction
# ---------------------------------------------------------------------------


def test_config_validation():
    vocab = small_vocab()
    with pytest.raises(ContractViolation):
        small_config(vocab, heads=3).validate()  # 3 does not divide 8
    with pytest.raises(ContractViolation):
        small_config(vocab, enc_layers=0).validate()
    with pytest.raises(ContractViolation):
        small_config(vocab, vocab_size=3).validate()


def test_model_rejects_mismatched_vocab():
    vocab = small_vocab()
    config = small_config(vocab, vocab_size=len(vocab) + 1)
    with pytest.raises(ContractViolation):
        TransformerModel(config, vocab)


def test_param_specs_by_task():
    vocab = small_vocab()
    config = small_config(vocab)
    s2s = enc.expected_param_specs(config, "seq2seq")
    mlm = enc.expected_param_specs(config, "mlm")
    probe = enc.expected_param_specs(config, "probe")
    assert "enc.emb" in s2s and "dec.emb" in s2s and "out.w" in s2s
    assert "mlm.w" in mlm and "dec.emb" not in mlm
    assert "dec.emb" in probe and "enc.emb" not in probe
    assert s2s["out.w"] == (config.d_model, config.vocab_size)
    with pytest.raises(ContractViolation):
        enc.expected_param_specs(config, "tagging")


def test_probe_task_needs_decoder_layers():
    vocab = small_vocab()
    with pytest.raises(ContractViolation):
        enc.expected_param_specs(small_config(vocab, dec_layers=0), "probe")


def test_init_is_seed_deterministic():
    a = small_model(seed=7)
    b = small_model(seed=7)
    c = small_model(seed=8)
    assert all(np.array_equal(a.params[k].value, b.params[k].value) for k in a.params)
    assert any(not np.array_equal(a.params[k].value, c.params[k].value) for k in a.params)


def test_layer_norm_gains_start_at_one_biases_zero():
    m = small_model()
    assert np.array_equal(m.params["enc.0.ln1.g"].value, np.ones((1, 8)))
    assert np.array_equal(m.params["enc.0.attn.bq"].value, np.zeros((1, 8)))


# ---------------------------------------------------------------------------
# positions
# ---------------------------------------------------------------------------


def test_sinusoidal_position_reference_values():
    table = enc.sinusoidal_positions(4, 6)
    assert table.shape == (4, 6)
    # position 0: sin(0) = 0 on even dims, cos(0) = 1 on odd dims
    assert np.array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    # position 2, dim 0: plain sin(2)
    assert table[2, 0] == pytest.approx(np.sin(2.0))
    # dims 2, 3 share the frequency 10000^(-2/6)
    freq = 10000.0 ** (-2.0 / 6.0)
    assert table[3, 2] == pytest.approx(np.sin(3.0 * freq))
    assert table[3, 3] == pytest.approx(np.cos(3.0 * freq))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_layer_mask_contracts():
    with pytest.raises(ContractViolation):
        LayerMask(np.zeros((3, 3), dtype=bool))  # fully masked rows
    with pytest.raises(ContractViolation):
        LayerMask(np.ones((3, 2), dtype=bool))  # not square
    with pytest.raises(ContractViolation):
        LayerMask(np.ones((2, 3, 3), dtype=bool))  # 3-d, not one (n, n) matrix


def test_layer_mask_additive_values():
    mask = LayerMask.block_diagonal(2, 4)
    additive = enc._additive(mask.allow)
    assert additive[0, 1] == 0.0
    assert additive[0, 2] == enc.NEG_MASK
    assert mask.n == 4


@pytest.mark.parametrize("kind", ["causal", "pad", "segment"])
def test_additive_masks_keep_the_earlier_bytes(kind, monkeypatch):
    """Every mask the model builds through ``_additive`` has the bytes of
    its earlier spelling."""
    rng = np.random.default_rng(7)
    if kind == "causal":
        # record the self-attention mask decoder_logits hands masked_softmax
        m = small_model()  # one decoder layer: its first softmax is self-attention
        seen = []
        monkeypatch.setattr(enc, "masked_softmax",
                            lambda s, a: seen.append(a) or nm.masked_softmax(s, a))
        memory, additive = m.frozen_memory([[5, 6, 7]])
        for nt in range(2, 9):
            for offset in range(7):
                cache = enc.DecoderCache(m, memory, additive)
                with nm.no_tape():
                    if offset:
                        m.decoder_logits(np.full((1, offset), 5), cache)
                    seen.clear()
                    m.decoder_logits(np.full((1, nt), 5), cache)
                assert seen[0].tobytes() == ref_causal_additive(nt, offset)[None, None].tobytes()
    elif kind == "pad":
        m = small_model()
        pad = m.vocab.pad
        for _ in range(20):
            lengths = rng.integers(1, 7, size=int(rng.integers(1, 6)))
            ids = enc.pad_ids([[5] * int(k) for k in lengths], pad)
            with nm.no_tape():
                _, additive = m.memory(ids)
            assert additive.tobytes() == ref_pad_additive(ids == pad).tobytes()
    else:
        for seed in range(10):
            batch = enc.pack_pairs(mirrored_pairs(seed, 12), small_vocab())
            src, tgt = batch.src_pair, batch.target_pair
            assert batch.enc_additive.tobytes() == ref_segment_additive(src, src).tobytes()
            assert (batch.self_additive.tobytes()
                    == ref_segment_additive(tgt, tgt, causal=True).tobytes())
            assert batch.cross_additive.tobytes() == ref_segment_additive(tgt, src).tobytes()


def test_block_diagonal_boundary_contract():
    with pytest.raises(ContractViolation):
        LayerMask.block_diagonal(0, 4)
    with pytest.raises(ContractViolation):
        LayerMask.block_diagonal(4, 4)


def test_all_true_mask_is_bit_identical_to_none():
    m = small_model()
    tokens = [5, 6, 7, 8, 9]
    plain = m.encode(tokens)
    masked = m.encode(tokens, mask=LayerMask.all_true(5))
    assert len(plain) == len(masked) == 3  # embeddings + 2 blocks
    for a, b in zip(plain, masked):
        assert np.array_equal(a, b)


def test_encode_shapes_and_final_norm():
    m = small_model()
    states = m.encode([5, 6, 7])
    assert [s.shape for s in states] == [(3, 8)] * 3
    # the last entry carries the final layer norm: per-row mean ~ 0 under unit gain
    assert np.allclose(states[-1].mean(axis=-1), 0.0, atol=1e-12)


def test_encode_contracts():
    m = small_model()
    with pytest.raises(ContractViolation):
        m.encode([])
    with pytest.raises(ContractViolation, match="id 99 out of range at flat position 1"):
        m.encode([0, 99])  # out of vocab
    with pytest.raises(ContractViolation):
        m.encode(list(range(5)), mask=LayerMask.all_true(4))  # wrong n
    with pytest.raises(ContractViolation):
        m.encode([5] * 17)  # beyond max_len


def test_block_diagonal_outside_replacement_invariance():
    """With both segments isolated at every layer, the left segment's states
    cannot depend on the right segment's tokens, bit for bit."""
    m = small_model()
    mask = LayerMask.block_diagonal(3, 6)
    a = m.encode([5, 6, 7, 8, 9, 10], mask=mask)
    b = m.encode([5, 6, 7, 11, 12, 9], mask=mask)  # same left, different right
    for la, lb in zip(a, b):
        assert np.array_equal(la[:3], lb[:3])
        assert not np.array_equal(la[3:], lb[3:])


def test_encoder_states_t_prefix_semantics():
    m = small_model()
    ids = np.array([[5, 6, 7]])
    raw = m.encoder_states_t(ids, None)
    assert len(raw) == 3
    # no run applies the final layer norm; encode and memory apply it
    final = m.final_norm(raw[-1]).value
    encoded = m.encode([5, 6, 7])[-1]
    assert type(encoded) is np.ndarray and np.array_equal(encoded, final[0])
    with nm.no_tape():
        memory = m.memory(ids)[0]
    assert type(memory) is np.ndarray and np.array_equal(memory, final)


def test_layer0_delta_shifts_one_position():
    m = small_model()
    delta = np.zeros((3, 8))
    delta[1] = 0.25
    base = m.encode([5, 6, 7])
    bumped = m.encode([5, 6, 7], layer0_delta=delta)
    assert not np.array_equal(base[0][1], bumped[0][1])
    assert np.array_equal(base[0][0], bumped[0][0])
    assert np.array_equal(base[0][2], bumped[0][2])


# ---------------------------------------------------------------------------
# decoder and losses
# ---------------------------------------------------------------------------


def test_seq2seq_loss_log_v_for_uniform_logits():
    # zeroed output projection -> uniform logits -> exactly ln V per token
    m = small_model()
    m.params["out.w"].value[:] = 0.0
    pairs = [([5, 6, 7], [6, 5]), ([8, 9], [9, 8, 8])]
    loss = float(m.seq2seq_loss(pairs).value)
    assert loss == pytest.approx(np.log(len(m.vocab)), abs=1e-12)


def test_seq2seq_loss_sane_at_random_init():
    m = small_model()
    pairs = [([5, 6, 7], [6, 5]), ([8, 9], [9, 8, 8])]
    loss = float(m.seq2seq_loss(pairs).value)
    assert 1.5 < loss < 5.0


def test_seq2seq_loss_empty_batch():
    with pytest.raises(ContractViolation):
        small_model().seq2seq_loss([])


def test_target_padding_carries_no_loss():
    # identical batches except for one target's padding length must agree
    m = small_model()
    a = float(m.seq2seq_loss([([5, 6], [6]), ([7, 8], [8, 7, 8])]).value)
    # recompute with the short target alone plus the long one: same weights
    per = [
        float(m.seq2seq_loss([([5, 6], [6])]).value),
        float(m.seq2seq_loss([([7, 8], [8, 7, 8])]).value),
    ]
    # batch loss is the weight-summed mean: (2*a1 + 4*a2) / 6
    assert a == pytest.approx((2 * per[0] + 4 * per[1]) / 6, abs=1e-12)


def seeded_pairs(seed, count, src_len=(1, 10), tgt_len=(1, 10)):
    """``count`` (source, target) pairs of token ids 5..12 with lengths drawn
    from the inclusive ranges."""
    rng = np.random.default_rng(seed)

    def ids(lo, hi):
        return [int(x) for x in rng.integers(5, 13, size=int(rng.integers(lo, hi + 1)))]

    return [(ids(*src_len), ids(*tgt_len)) for _ in range(count)]


def loss_and_grads(m, loss_fn, pairs):
    loss = loss_fn(pairs)
    nm.backward(loss, m.params)
    return float(loss.value), {name: p.grad.copy() for name, p in m.params.items()}


# A gradient of the packed loss may differ from the one-group loss's by
# rounding; this bound is on the largest difference over every parameter's
# gradient, relative to the largest gradient entry.  Measured at most 4.6e-16
# over the batches below (3.9e-16 for the length-grouped halves before).
GROUPED_GRAD_BOUND = 1e-14


@pytest.mark.parametrize("kind, seed", [
    ("mixed", 0), ("mixed", 1), ("mixed", 2), ("mixed-odd", 3), ("equal", 4), ("equal", 5),
])
def test_grouped_loss_matches_one_group(kind, seed):
    m = small_model(seed=seed)
    if kind == "equal":
        pairs = seeded_pairs(seed, 16, (5, 5), (4, 4))
    else:
        pairs = seeded_pairs(seed, 15 if kind == "mixed-odd" else 16)
    loss, grads = loss_and_grads(m, m.seq2seq_loss, pairs)
    ref_loss, ref_grads = loss_and_grads(m, lambda b: ref_seq2seq_loss(m, b), pairs)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    scale = max(np.abs(g).max() for g in ref_grads.values())
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= GROUPED_GRAD_BOUND * scale, name


def test_grouped_loss_of_one_pair_is_one_group():
    m = small_model(seed=6)
    pairs = seeded_pairs(6, 1)
    loss, grads = loss_and_grads(m, m.seq2seq_loss, pairs)
    ref_loss, ref_grads = loss_and_grads(m, lambda b: ref_seq2seq_loss(m, b), pairs)
    assert loss == ref_loss
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def test_grouped_loss_gradient_matches_finite_differences():
    # two rows hold two pairs each and one of them is padded, so every
    # packed mask (block-diagonal, causal within a pair, a target to its own
    # source) and the restarted positions are on the path
    vocab = small_vocab()
    config = small_config(vocab, enc_layers=1, heads=2, d_model=4, d_ff=8)
    m = TransformerModel(config, vocab, rng=7)
    rng = np.random.default_rng(7)
    pairs = [([int(x) for x in rng.integers(5, 13, size=ls)],
              [int(x) for x in rng.integers(5, 13, size=lt)])
             for ls, lt in [(6, 4), (4, 2), (3, 1), (2, 1), (2, 1)]]
    batch = enc.pack_pairs(pairs, vocab)
    assert [sorted(set(row[row >= 0].tolist())) for row in batch.target_pair] == [
        [0], [1, 3], [2, 4]]
    assert (batch.src_ids[2] == vocab.pad).any() and (batch.target_pair[2] < 0).any()
    loss = m.seq2seq_loss(pairs)
    nm.backward(loss, m.params)
    for name in ("enc.emb", "enc.0.attn.wq", "enc.0.ff.w1", "enc.ln_f.g",
                 "dec.0.cross.wv", "dec.0.self.wk", "out.w"):
        p = m.params[name]
        analytic = p.grad.copy()
        orig = p.value.copy()

        def f(x):
            p.value = x
            return float(m.seq2seq_loss(pairs).value)

        numeric = fd_grad(f, orig)
        p.value = orig
        assert rel_err(analytic, numeric) < 1e-6, name


def mirrored_pairs(seed, count):
    """``count`` pairs whose target is a prefix of the reversed source, so
    lengths vary together as in the corpora and rows hold several pairs."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        src = [int(x) for x in rng.integers(5, 13, size=int(rng.integers(1, 13)))]
        pairs.append((src, src[::-1][: int(rng.integers(1, len(src) + 1))]))
    return pairs


def packed_pair_logits(m, pairs, encoder=None):
    """Each pair's teacher-forced logits, read off one packed pass.  A
    seq2seq model encodes the packed sources as ``seq2seq_loss`` does; a
    probe reads ``encoder``'s states from the store ``_frozen_batches``
    keeps, as ``train_probe`` does."""
    batch = enc.pack_pairs(pairs, m.vocab)
    assert max(len(set(row[row >= 0].tolist())) for row in batch.target_pair) >= 2
    with nm.no_tape():
        if encoder is None:
            states = m.encoder_states_t(batch.src_ids, batch.enc_additive, positions=batch.src_pos)
            memory = m.final_norm(states[-1])
        else:
            frozen = training._frozen_batches(encoder, [src for src, _ in pairs])
            memory = frozen(np.arange(len(pairs)), batch)
        logits = m.packed_logits(batch, memory)
    assert type(logits) is np.ndarray
    return [logits[batch.target_pair == i] for i in range(len(pairs))]


@pytest.mark.parametrize("seed", range(6))
def test_packed_pair_logits_equal_the_pair_run_alone(seed):
    # masked keys carry exactly zero probability, so a packed pair computes
    # what it computes alone, up to the rounding of sums over zero terms
    m = small_model(seed=seed)
    pairs = mirrored_pairs(seed, 16)
    pad, bos = m.vocab.pad, m.vocab.bos
    for (src, tgt), packed in zip(pairs, packed_pair_logits(m, pairs)):
        with nm.no_tape():
            cache = enc.DecoderCache(m, *m.memory(enc.pad_ids([src], pad)))
            alone = m.decoder_logits(enc.pad_ids([[bos, *tgt]], pad), cache)[0]
        assert np.abs(packed - alone).max() <= 1e-12 * np.abs(alone).max()


@pytest.mark.parametrize("seed", range(3))
def test_packed_pairs_do_not_see_each_other(seed):
    # new tokens in one pair, same lengths so the same packing: every other
    # pair's logits keep their bits, on the seq2seq route and on the probe's,
    # whose memory comes from a separate frozen encoder
    pairs = mirrored_pairs(seed, 16)
    for m, encoder in ((small_model(seed=seed), None),
                       (small_model("probe", seed=seed), small_model(seed=seed + 10))):
        before = packed_pair_logits(m, pairs, encoder)
        for changed in (0, len(pairs) - 1):
            src, tgt = pairs[changed]
            edited = list(pairs)
            edited[changed] = ([5 + (x - 4) % 8 for x in src], [5 + (x - 4) % 8 for x in tgt])
            after = packed_pair_logits(m, edited, encoder)
            assert not np.array_equal(after[changed], before[changed])
            for i in range(len(pairs)):
                if i != changed:
                    assert after[i].tobytes() == before[i].tobytes(), (m.task, changed, i)


def test_greedy_decode_is_deterministic_and_stops():
    m = small_model()
    outs = m.greedy_decode([[5, 6, 7], [8, 9]], max_new=6)
    again = m.greedy_decode([[5, 6, 7], [8, 9]], max_new=6)
    assert outs == again
    assert all(len(o) <= 6 for o in outs)
    eos = m.vocab.eos
    assert all(eos not in o for o in outs)


# Decodes of a seeded model whose rows stop at EOS after 1, 2 and 4 tokens or
# run to max_new, recorded from a decoder that tracked per-row done flags.
FROZEN_SOURCES = [[5, 6, 7], [8, 9], [10, 11, 12, 5], [6], [7, 7, 9, 12, 11], [12, 10]]
FROZEN_DECODES = [
    [7], [0, 8, 0, 8, 0, 4, 8, 3], [7, 8, 0, 8], [7, 8], [7, 8, 0, 8, 0, 8, 0, 8],
    [0, 8, 0, 8, 0, 4, 3, 3],
]


def test_greedy_decode_frozen_values():
    m = small_model(seed=3)
    m.params["out.b"].value[0, m.vocab.eos] += 0.5
    assert m.greedy_decode(FROZEN_SOURCES, max_new=8) == FROZEN_DECODES


# The small test architecture with two decoder layers, and the benchmark's.
DECODE_ARCHS = {
    "small": dict(heads=2, d_model=8, d_ff=16, dec_layers=2),
    "bench": dict(heads=4, d_model=32, d_ff=128, dec_layers=1),
}


def decode_model(arch, seed, eos_bias, task="seq2seq", vocab=None):
    """A seeded model with max_len 12 whose EOS logit is raised by
    ``eos_bias``, which varies how soon rows stop."""
    vocab = vocab or small_vocab()
    config = EncoderConfig(enc_layers=2, vocab_size=len(vocab), max_len=12,
                           **DECODE_ARCHS[arch])
    m = TransformerModel(config, vocab, task=task, rng=seed)
    m.params["out.b"].value[0, vocab.eos] += eos_bias
    return m


def mixed_sources(seed, count=12):
    # lengths 1-8 in one batch, so every batch is padded
    rng = np.random.default_rng(seed)
    return [rng.integers(5, 12, size=int(rng.integers(1, 9))).tolist() for _ in range(count)]


@pytest.mark.parametrize("arch", sorted(DECODE_ARCHS))
def test_greedy_decode_matches_full_prefix_oracle(arch):
    # max_new 6 stops rows at max_new, max_new 50 at the max_len - 1 budget
    lengths = {6: set(), 50: set()}
    for seed in range(4):
        for eos_bias in (0.0, 0.5, 1.0, 1.5, 2.0):
            m = decode_model(arch, seed, eos_bias)
            sources = mixed_sources(seed)
            memory, additive = m.frozen_memory(sources)
            for max_new in lengths:
                outs = m.greedy_decode(sources, max_new)
                assert outs == full_prefix_greedy(m, memory, additive, max_new)
                lengths[max_new].update(len(o) for o in outs)
    budget = m.config.max_len - 1
    # rows that stop at step 1, rows that stop midway, rows that hit the limit
    for limit, seen in ((6, lengths[6]), (budget, lengths[50])):
        assert {0, limit} <= seen and seen & set(range(1, limit)), (limit, seen)


@pytest.mark.parametrize("arch", sorted(DECODE_ARCHS))
def test_probe_decode_matches_full_prefix_oracle(arch):
    # a probe decodes from an encoder's frozen memory, as evaluate_probe does
    lengths = set()
    for seed in range(4):
        encoder = decode_model(arch, seed, 0.0)
        for eos_bias in (0.0, 1.0, 2.0):
            probe = decode_model(arch, seed + 10, eos_bias, task="probe",
                                 vocab=encoder.vocab)
            memory, additive = encoder.frozen_memory(mixed_sources(seed))
            outs = probe.decode_with_memory(memory, additive, 50)
            assert outs == full_prefix_greedy(probe, memory, additive, 50)
            lengths.update(len(o) for o in outs)
    assert len(lengths) > 2, lengths


def targets_for(outs, rng, vocab_size, eos):
    """Targets that each full decode in ``outs`` meets differently: equal to
    it, one token changed, cut short, or one token longer."""
    targets = []
    for i, out in enumerate(outs):
        kind = i % 4
        if kind == 0 or (kind in (1, 2) and not out):
            targets.append(list(out))
        elif kind == 1:
            target = list(out)
            pos = int(rng.integers(len(out)))
            target[pos] = next(t for t in range(5, vocab_size) if t not in (out[pos], eos))
            targets.append(target)
        elif kind == 2:
            targets.append(out[: int(rng.integers(len(out)))])
        else:
            targets.append(out + [int(rng.integers(5, vocab_size))])
    return targets


@pytest.mark.parametrize("arch", sorted(DECODE_ARCHS))
def test_targeted_decode_is_the_full_decode_cut_at_its_first_wrong_token(arch):
    # rows leave at different steps: at EOS, at a wrong token, or at the end
    # of the budget; each row's decode is the untargeted one, cut after its
    # first token that differs from target + EOS
    leave_lengths = set()
    for seed in range(4):
        for eos_bias in (0.0, 0.5, 1.0):
            m = decode_model(arch, seed, eos_bias)
            sources = mixed_sources(seed)
            rng = np.random.default_rng(seed)
            for max_new in (6, 50):
                full = m.greedy_decode(sources, max_new)
                targets = targets_for(full, rng, len(m.vocab), m.vocab.eos)
                got = m.greedy_decode(sources, max_new, targets)
                want = [ref_cut_decode(out, t, m.vocab.eos) for out, t in zip(full, targets)]
                assert got == want, (seed, eos_bias, max_new)
                leave_lengths.update(len(o) for o, f in zip(got, full) if o != f)
    assert len(leave_lengths) > 3, leave_lengths


def test_targeted_decode_edge_cases():
    # some rows emit EOS first, others run all 6 = max_new steps with no EOS
    m = decode_model("small", 0, 0.5)
    sources = mixed_sources(0)
    full = m.greedy_decode(sources, 6)
    empty, whole = full.index([]), next(i for i, o in enumerate(full) if len(o) == 6)

    def decode(row, target):
        targets = [list(o) for o in full]
        targets[row] = target
        return m.greedy_decode(sources, 6, targets)[row]

    # a target of exactly max_new tokens matches with no EOS after it
    assert decode(whole, full[whole]) == full[whole]
    # a target longer than max_new never matches, and the decode stops at the budget
    assert decode(whole, full[whole] + [5]) == full[whole]
    # an empty target matches only a row whose first token is EOS
    assert decode(empty, []) == []
    assert decode(whole, []) == full[whole][:1]
    assert decode(empty, [5]) == []


@pytest.mark.parametrize("arch", sorted(DECODE_ARCHS))
def test_cached_step_logits_match_full_prefix(arch):
    # each cached step computes one position per row; its logits equal the
    # last row of a full-prefix call on a fresh cache up to rounding, also
    # after rows retire
    m = decode_model(arch, 0, 0.0)
    with nm.no_tape():
        memory, additive = m.frozen_memory(mixed_sources(0, count=6))
        ys = np.full((6, 1), m.vocab.bos, dtype=np.int64)
        cache = enc.DecoderCache(m, memory, additive)
        for step in range(m.config.max_len):
            if step == 4:
                keep = np.array([0, 2, 5])
                ys, additive = ys[keep], additive[keep]
                memory = memory[keep]
                cache.keep(keep)
            cached = m.decoder_logits(ys[:, -1:], cache)
            full = m.decoder_logits(ys, enc.DecoderCache(m, memory, additive))
            assert type(cached) is np.ndarray and type(full) is np.ndarray
            assert cached.shape == (ys.shape[0], 1, len(m.vocab)) and cache.offset == step + 1
            last = full[:, -1]
            assert np.abs(cached[:, 0] - last).max() <= 1e-12 * np.abs(last).max()
            ys = np.concatenate([ys, last.argmax(axis=-1)[:, None]], axis=1)
        # the cache has used every position max_len allows
        with pytest.raises(ContractViolation):
            m.decoder_logits(ys[:, -1:], cache)
        untaped = enc.DecoderCache(m, memory, additive)
    # on the tape a cache must be fresh and built on the tape: a fed cache
    # and one built under no_tape are refused, a fresh taped one is not
    memory = nm.constant(memory)
    fed = enc.DecoderCache(m, memory, additive)
    m.decoder_logits(ys[:, :1], fed)
    for cache in (fed, untaped):
        with pytest.raises(ContractViolation, match="fresh cache built on the tape"):
            m.decoder_logits(ys[:, :1], cache)
    assert type(m.decoder_logits(ys[:, :2], enc.DecoderCache(m, memory, additive))) is nm.Tensor
    assert type(m.seq2seq_loss([([5, 6], [7])])) is nm.Tensor


def test_memory_rejects_all_pad_row():
    # an all-pad row would leave cross-attention no permitted key
    m = small_model()
    pad = m.vocab.pad
    with pytest.raises(ContractViolation):
        m.memory(np.array([[5, 6], [pad, pad]]))
    _, additive = m.memory(np.array([[5, 6], [7, pad]]))
    assert additive[1, 0, 0].tolist() == [0.0, enc.NEG_MASK]


def test_pad_ids_is_the_one_padding_rule():
    ids = enc.pad_ids([[5, 6, 7], [8]], pad=0)
    assert ids.dtype == np.int64 and ids.tolist() == [[5, 6, 7], [8, 0, 0]]
    # decoding and MLM batches refuse an empty batch or sentence there too,
    # as encode, the charts and seq2seq_loss do
    m = small_model()
    rng = np.random.default_rng(0)
    for refused in (
        lambda: m.greedy_decode([], 4),
        lambda: m.greedy_decode([[5], []], 4),
        lambda: m.seq2seq_loss([([], [5])]),
        lambda: make_mlm_batch(rng, [], m.vocab),
        lambda: make_mlm_batch(rng, [[5, 6], []], m.vocab),
    ):
        with pytest.raises(ContractViolation, match="empty"):
            refused()
    # so does a decode of no steps or with one target per row too few or many
    for refused, message in (
        (lambda: m.greedy_decode([[5]], 0), "max_new must be >= 1"),
        (lambda: m.greedy_decode([[5]], -1), "max_new must be >= 1"),
        (lambda: m.greedy_decode([[5], [6]], 4, [[5]]), "1 targets for 2 rows"),
        (lambda: m.greedy_decode([[5]], 4, [[5], [6]]), "2 targets for 1 rows"),
    ):
        with pytest.raises(ContractViolation, match=message):
            refused()


def test_mlm_head_is_one_affine_map():
    m = small_model("mlm")
    ids = enc.pad_ids([[5, 6, 7], [8, 9]], m.vocab.pad)
    with nm.no_tape():
        final, _ = m.memory(ids)
        logits = m.mlm_logits(ids)
    # the loss and masked-token accuracy share this head; it is the affine
    # map of the final states, bit for bit
    assert type(logits) is np.ndarray
    assert np.array_equal(logits, final @ m.params["mlm.w"].value + m.params["mlm.b"].value)
    with pytest.raises(ContractViolation, match="mlm model"):
        small_model().mlm_logits(ids)


def bench_shape_batch(task, seed=31):
    """A model at the benchmark's architecture and its loss on a seeded batch
    of 32 random sentences (the probe reads a seq2seq model's memory)."""
    words = [f"w{i}" for i in range(10)]
    vocab = Vocab(words)
    config = EncoderConfig(enc_layers=2, dec_layers=1, heads=4, d_model=32, d_ff=128,
                           vocab_size=len(vocab), max_len=40)
    rng = np.random.default_rng(seed)

    def sentences(longest):
        return [vocab.encode([words[i] for i in rng.integers(0, 10, size=rng.integers(2, longest))])
                for _ in range(32)]

    model = TransformerModel(config, vocab, task, rng=seed)
    sources, targets = sentences(12), sentences(9)
    if task == "seq2seq":
        return model, model.seq2seq_loss(list(zip(sources, targets)))
    if task == "mlm":
        return model, model.mlm_loss(*make_mlm_batch(rng, sources, vocab))
    batch = enc.pack_pairs(list(zip(sources, targets)), vocab)
    frozen = training._frozen_batches(TransformerModel(config, vocab, rng=seed + 1), sources)
    return model, model.packed_loss(batch, frozen(np.arange(len(sources)), batch))


@pytest.mark.parametrize("case", ["sentence", "span stack", "padded memory"])
def test_blocks_off_the_tape_keep_the_taped_bits(case):
    # the encoder blocks, the final norm and one decoding step run the same
    # kernels on the tape and off it; off it every result is a plain ndarray
    # with the bits of the taped node's value.  A chart encodes a (1, n, d)
    # sentence and runs (S, k, d) stacks of spans; decoding reads a padded
    # memory of up to 64 rows under its pad mask
    model, _ = bench_shape_batch("seq2seq")
    vocab, d = model.vocab, model.config.d_model
    rng = np.random.default_rng(43)
    if case == "padded memory":
        ids = enc.pad_ids([[5] * int(k) for k in rng.integers(1, 13, size=64)], vocab.pad)
        _, additive = model.memory(ids)
        x, cross = rng.standard_normal(ids.shape + (d,)), additive
    else:
        x = rng.standard_normal((1, 9, d) if case == "sentence" else (12, 4, d))
        additive, cross = 0.0, np.zeros((x.shape[0], 1, 1, x.shape[1]))
    bos = np.full((x.shape[0], 1), vocab.bos)
    # nm.constant is a tape leaf on the tape and the array itself off it
    for name, build in {
        "encoder block 0": lambda: model.encoder_block(0, nm.constant(x), additive),
        "encoder block 1": lambda: model.encoder_block(1, nm.constant(x), additive),
        "final norm": lambda: model.final_norm(nm.constant(x)),
        "decoder step": lambda: model.decoder_logits(
            bos, enc.DecoderCache(model, nm.constant(x), cross)),
    }.items():
        taped = build()
        with nm.no_tape():
            bare = build()
        assert type(taped) is nm.Tensor and type(bare) is np.ndarray, name
        assert bare.shape == taped.shape and bare.tobytes() == taped.value.tobytes(), name


@pytest.mark.parametrize("task", enc.TASKS)
def test_every_parameter_can_change_the_loss(task):
    # a parameter whose gradient is rounding noise cannot change an output
    # and does not belong in the checkpoint.  The attention key biases were
    # such parameters (q·bk shifts every score of a query alike, and softmax
    # drops the shift): their largest entries read at most 1.3e-17 here,
    # every other parameter's at least 4.3e-3
    model, loss = bench_shape_batch(task)
    nm.backward(loss, model.params)
    largest = {name: np.abs(p.grad).max() for name, p in model.params.items()}
    assert {name: g for name, g in largest.items() if not g > 1e-10} == {}


def test_inference_records_no_tape(monkeypatch):
    # encode, decoding, charts and masked-token accuracy run the kernels
    # under no_tape on plain arrays, so none builds a single Tensor; a
    # training loss still records a tape
    m, mlm = small_model(), small_model("mlm")
    built = []
    init = nm.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(nm.Tensor, "__init__", counting_init)
    routes = {
        "encode": lambda: m.encode([5, 6, 7], mask=LayerMask.block_diagonal(1, 3)),
        "greedy_decode": lambda: m.greedy_decode([[5, 6, 7], [8, 9]], max_new=4),
        "build_sci_chart": lambda: build_sci_chart(m, [5, 6, 7, 8], t=1),
        "build_sci_charts": lambda: build_sci_charts(m, [[5, 6, 7, 8], [9, 5]], [0, 1, 2]),
        "context_free_vector": lambda: context_free_vector(m, [5, 6, 7, 8], (1, 2), 1),
        "frozen_memory": lambda: m.frozen_memory([[5, 6], [7]]),
        "masked_prediction_accuracy": lambda: masked_prediction_accuracy(
            mlm, [[5, 6, 7], [8, 9, 10]]),
    }
    for name, route in routes.items():
        route()
        assert len(built) == 0, name
    loss = m.seq2seq_loss([([5, 6], [7])])
    assert type(loss) is nm.Tensor and loss.parents and len(built) > 0


def test_decode_respects_max_len_budget():
    m = small_model()
    outs = m.greedy_decode([[5, 6]], max_new=500)
    assert len(outs[0]) <= m.config.max_len - 1


def test_mlm_loss_requires_mlm_task():
    m = small_model()
    with pytest.raises(ContractViolation):
        m.mlm_loss(np.array([[5, 6]]), np.array([[5, 6]]), np.array([[1, 0]]))


def test_mlm_loss_log_v_for_uniform_logits():
    m = small_model(task="mlm")
    m.params["mlm.w"].value[:] = 0.0
    ids = np.array([[5, 6, 7, 8]])
    masked = ids.copy()
    masked[0, 1] = m.vocab.mask
    loss = float(m.mlm_loss(masked, ids, np.array([[0, 1, 0, 0]])).value)
    assert loss == pytest.approx(np.log(len(m.vocab)), abs=1e-12)


def test_clone_is_deep_for_params():
    m = small_model()
    c = m.clone()
    c.params["enc.emb"].value[0, 0] += 1.0
    assert m.params["enc.emb"].value[0, 0] != c.params["enc.emb"].value[0, 0]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = small_model(seed=3)
    m.step = 123
    path = save_checkpoint(m, tmp_path / "ck")
    loaded = load_checkpoint(path)
    assert loaded.step == 123
    assert loaded.task == "seq2seq"
    assert loaded.vocab.id_to_token == m.vocab.id_to_token
    for name, p in m.params.items():
        assert np.array_equal(p.value, loaded.params[name].value)
    tokens = [5, 6, 7, 8]
    before = m.encode(tokens)
    after = loaded.encode(tokens)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("task", enc.TASKS)
def test_checkpoint_v3_round_trip_has_no_key_bias(tmp_path, task):
    m = small_model(task=task, seed=5)
    m.step = 7
    assert not [name for name in enc.expected_param_specs(m.config, task) if "bk" in name]
    loaded = load_checkpoint(save_checkpoint(m, tmp_path / "ck"))
    manifest = manifest_of(tmp_path / "ck")
    assert sorted(manifest) == ["config", "format", "sha256", "step", "task", "vocab"]
    assert manifest["format"] == "spantree-checkpoint-v3"
    # data.bin is every tensor's bytes in spec order, as format v2 wrote it
    assert (tmp_path / "ck" / "data.bin").read_bytes() == b"".join(
        p.value.astype("<f8").tobytes() for p in m.params.values()
    )
    assert (loaded.task, loaded.step, list(loaded.params)) == (task, 7, list(m.params))
    for name, p in m.params.items():
        value = loaded.params[name].value
        # a writeable float64 copy, not a read-only view of the file's bytes
        assert value.flags.writeable, name
        assert value.dtype == np.float64 and value.tobytes() == p.value.tobytes()


def test_checkpoint_mlm_round_trip(tmp_path):
    m = small_model(task="mlm", seed=4)
    path = save_checkpoint(m, tmp_path / "ck")
    loaded = load_checkpoint(path)
    assert loaded.task == "mlm"
    assert set(loaded.params) == set(m.params)


def manifest_of(path):
    with open(path / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def rewrite_manifest(path, manifest):
    with open(path / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def test_load_rejects_bad_format_tag(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    # v1 held a key bias per attention module and a one-valued positional key
    for tag in ("other-format-v9", "spantree-checkpoint-v1"):
        man["format"] = tag
        rewrite_manifest(tmp_path, man)
        with pytest.raises(CheckpointError, match=f"format '{tag}' is not"):
            load_checkpoint(tmp_path)


@pytest.mark.parametrize("key", [*(f.name for f in dataclasses.fields(EncoderConfig)), "step"])
def test_load_requires_every_config_key_and_step(tmp_path, key):
    # a missing key used to load with its default: max_len 64 for a model
    # trained at 16, or step 0 for a late checkpoint
    m = small_model()
    m.step = 9
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    del (man if key == "step" else man["config"])[key]
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match=f"missing '{key}'"):
        load_checkpoint(tmp_path)


def test_load_rejects_malformed_json(tmp_path):
    save_checkpoint(small_model(), tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(tmp_path)


def test_load_rejects_shape_mismatch(tmp_path):
    # the config fixes every tensor's shape, so an edit to it changes the size
    save_checkpoint(small_model(), tmp_path)
    man = manifest_of(tmp_path)
    man["config"]["d_ff"] += 1
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="data.bin: has 19432 bytes, config implies 19840"):
        load_checkpoint(tmp_path)


def test_load_refuses_v2_by_format(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    del man["sha256"]
    man["format"] = "spantree-checkpoint-v2"
    man["tensors"] = [
        {"name": name, "rows": p.value.shape[0], "cols": p.value.shape[1]}
        for name, p in m.params.items()
    ]
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="format 'spantree-checkpoint-v2' is not"):
        load_checkpoint(tmp_path)


def test_load_refuses_every_flipped_bit_of_data_bin(tmp_path):
    # one flip every 1,754 bytes, as in the fault-injection sweep, each at a
    # different bit; without a digest every one of them loaded
    save_checkpoint(small_model(d_model=32, d_ff=64, heads=4), tmp_path)
    blob_path = tmp_path / "data.bin"
    blob = blob_path.read_bytes()
    offsets = range(0, len(blob), 1754)
    assert len(offsets) == 143
    for i, offset in enumerate(offsets):
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << (i % 8)
        blob_path.write_bytes(flipped)
        with pytest.raises(CheckpointError, match="data.bin: SHA-256 differs"):
            load_checkpoint(tmp_path)
    blob_path.write_bytes(blob)
    load_checkpoint(tmp_path)


def test_load_rejects_negative_step(tmp_path):
    save_checkpoint(small_model(), tmp_path)
    man = manifest_of(tmp_path)
    man["step"] = -5
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="step must be >= 0, got -5"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("task", ["seq2seq", "probe"])
def test_load_rejects_a_decoder_task_without_decoder_layers(tmp_path, task):
    # this used to raise a bare ContractViolation that named no checkpoint
    save_checkpoint(small_model(task), tmp_path)
    man = manifest_of(tmp_path)
    man["config"]["dec_layers"] = 0
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match=f"^{tmp_path}: {task} needs dec_layers >= 1$"):
        load_checkpoint(tmp_path)


def test_load_rejects_truncated_blob(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    blob = (tmp_path / "data.bin").read_bytes()
    (tmp_path / "data.bin").write_bytes(blob[:-16])
    with pytest.raises(CheckpointError, match="bytes"):
        load_checkpoint(tmp_path)


def test_load_rejects_lost_reserved_vocab(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    man["vocab"] = man["vocab"][1:]  # drop <pad>
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="reserved"):
        load_checkpoint(tmp_path)


def test_load_rejects_vocab_size_mismatch(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    man["vocab"].append("stowaway")
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="vocab"):
        load_checkpoint(tmp_path)


def test_load_rejects_unknown_task(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    man["task"] = "tagging"
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="task"):
        load_checkpoint(tmp_path)


def test_load_missing_directory_is_oserror(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nowhere")
