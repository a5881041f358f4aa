"""Transformer encode/decode semantics, masks, and checkpoint persistence."""

import json

import numpy as np
import pytest

from spantree import encoder as enc
from spantree import numerics as nm
from spantree.datasets import RESERVED, Vocab
from spantree.encoder import (
    EncoderConfig,
    LayerMask,
    TransformerModel,
    load_checkpoint,
    save_checkpoint,
)
from spantree.errors import CheckpointError, ContractViolation
from spantree.spanrep import build_sci_chart
from spantree.training import _frozen_memory, masked_prediction_accuracy

from helpers import full_prefix_greedy


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
    with pytest.raises(ContractViolation):
        small_config(vocab, positional="learned").validate()


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
        LayerMask([np.zeros((3, 3), dtype=bool)])  # fully masked rows
    with pytest.raises(ContractViolation):
        LayerMask([np.ones((3, 2), dtype=bool)])  # not square
    with pytest.raises(ContractViolation):
        LayerMask([np.ones((3, 3), dtype=bool), np.ones((4, 4), dtype=bool)])


def test_layer_mask_additive_values():
    mask = LayerMask.block_diagonal(2, 4, 1)
    additive = mask.additive(0)
    assert additive[0, 1] == 0.0
    assert additive[0, 2] == enc.NEG_MASK
    assert mask.n == 4 and mask.layers == 1


def test_block_diagonal_boundary_contract():
    with pytest.raises(ContractViolation):
        LayerMask.block_diagonal(0, 4, 2)
    with pytest.raises(ContractViolation):
        LayerMask.block_diagonal(4, 4, 2)


def test_all_true_mask_is_bit_identical_to_none():
    m = small_model()
    tokens = [5, 6, 7, 8, 9]
    plain = m.encode(tokens)
    masked = m.encode(tokens, mask=LayerMask.all_true(5, 2))
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
        m.encode(list(range(5)), mask=LayerMask.all_true(4, 2))  # wrong n
    with pytest.raises(ContractViolation):
        m.encode([5, 6], mask=LayerMask.all_true(2, 3))  # wrong layer count
    with pytest.raises(ContractViolation):
        m.encode([5] * 17)  # beyond max_len


def test_block_diagonal_outside_replacement_invariance():
    """With both segments isolated at every layer, the left segment's states
    cannot depend on the right segment's tokens, bit for bit."""
    m = small_model()
    mask = LayerMask.block_diagonal(3, 6, 2)
    a = m.encode([5, 6, 7, 8, 9, 10], mask=mask)
    b = m.encode([5, 6, 7, 11, 12, 9], mask=mask)  # same left, different right
    for la, lb in zip(a, b):
        assert np.array_equal(la[:3], lb[:3])
        assert not np.array_equal(la[3:], lb[3:])


def test_encoder_states_t_prefix_semantics():
    m = small_model()
    ids = np.array([[5, 6, 7]])
    full = m.encoder_states_t(ids, None)
    raw = m.encoder_states_t(ids, None, upto=2)
    for t in range(3):
        prefix = m.encoder_states_t(ids, None, upto=t)
        assert len(prefix) == t + 1
        # prefixes agree with the raw full run bit-exactly
        for a, b in zip(prefix, raw):
            assert np.array_equal(a.value, b.value)
    # the full run differs from raw only in the final layer norm
    assert np.array_equal(m.final_norm(raw[-1]).value, full[-1].value)
    with pytest.raises(ContractViolation):
        m.encoder_states_t(ids, None, upto=3)


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
            with nm.no_tape():
                memory, additive = m.memory(m._pad_sources(sources))
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
            memory, additive = _frozen_memory(encoder, mixed_sources(seed))
            outs = probe.decode_with_memory(memory, additive, 50)
            assert outs == full_prefix_greedy(probe, memory, additive, 50)
            lengths.update(len(o) for o in outs)
    assert len(lengths) > 2, lengths


@pytest.mark.parametrize("arch", sorted(DECODE_ARCHS))
def test_cached_step_logits_match_full_prefix(arch):
    # each cached step computes one position per row; its logits equal the
    # last row of a full-prefix call on a fresh cache up to rounding, also
    # after rows retire
    m = decode_model(arch, 0, 0.0)
    with nm.no_tape():
        memory, additive = m.memory(m._pad_sources(mixed_sources(0, count=6)))
        ys = np.full((6, 1), m.vocab.bos, dtype=np.int64)
        cache = enc.DecoderCache(m, memory, additive)
        for step in range(m.config.max_len):
            if step == 4:
                keep = np.array([0, 2, 5])
                ys, additive = ys[keep], additive[keep]
                memory = nm.Tensor(memory.value[keep])
                cache.keep(keep)
            cached = m.decoder_logits(ys[:, -1:], cache)
            full = m.decoder_logits(ys, enc.DecoderCache(m, memory, additive))
            assert cached.value.shape == (ys.shape[0], 1, len(m.vocab))
            assert not cached.taped and cache.offset == step + 1
            last = full.value[:, -1]
            assert np.abs(cached.value[:, 0] - last).max() <= 1e-12 * np.abs(last).max()
            ys = np.concatenate([ys, last.argmax(axis=-1)[:, None]], axis=1)
        # the cache has used every position max_len allows
        with pytest.raises(ContractViolation):
            m.decoder_logits(ys[:, -1:], cache)
        untaped = enc.DecoderCache(m, memory, additive)
    # on the tape a cache must be fresh and built on the tape: a fed cache
    # and one built under no_tape are refused, a fresh taped one is not
    fed = enc.DecoderCache(m, memory, additive)
    m.decoder_logits(ys[:, :1], fed)
    for cache in (fed, untaped):
        with pytest.raises(ContractViolation, match="fresh cache built on the tape"):
            m.decoder_logits(ys[:, :1], cache)
    assert m.decoder_logits(ys[:, :2], enc.DecoderCache(m, memory, additive)).taped
    assert m.seq2seq_loss([([5, 6], [7])]).taped


def test_memory_rejects_all_pad_row():
    # an all-pad row would leave cross-attention no permitted key
    m = small_model()
    pad = m.vocab.pad
    with pytest.raises(ContractViolation):
        m.memory(np.array([[5, 6], [pad, pad]]))
    _, additive = m.memory(np.array([[5, 6], [7, pad]]))
    assert additive[1, 0, 0].tolist() == [0.0, enc.NEG_MASK]


def test_inference_records_no_tape(monkeypatch):
    # encode, decoding, charts and masked-token accuracy run under no_tape, so
    # no tensor they build keeps a parent; a training loss still records
    has_parents = []
    init = nm.Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        has_parents.append(bool(self.parents))

    monkeypatch.setattr(nm.Tensor, "__init__", recording_init)
    m = small_model()
    m.encode([5, 6, 7])
    m.greedy_decode([[5, 6, 7], [8, 9]], max_new=4)
    build_sci_chart(m, [5, 6, 7, 8], t=1)
    masked_prediction_accuracy(small_model("mlm"), [[5, 6, 7], [8, 9, 10]])
    assert has_parents and not any(has_parents)
    m.seq2seq_loss([([5, 6], [7])])
    assert any(has_parents)


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


def test_checkpoint_sets_tag(tmp_path):
    m = small_model()
    assert m.tag == "unsaved"
    path = save_checkpoint(m, tmp_path / "ck")
    assert m.tag == str(path)
    assert load_checkpoint(path).tag == str(path)


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
    man["format"] = "other-format-v9"
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(tmp_path)


def test_load_rejects_malformed_json(tmp_path):
    save_checkpoint(small_model(), tmp_path)
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="malformed"):
        load_checkpoint(tmp_path)


def test_load_rejects_unknown_tensor(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    man["tensors"][0]["name"] = "enc.surprise"
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="enc.surprise"):
        load_checkpoint(tmp_path)


def test_load_rejects_missing_tensor(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    dropped = man["tensors"].pop()
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match=dropped["name"]):
        load_checkpoint(tmp_path)


def test_load_rejects_shape_mismatch(tmp_path):
    m = small_model()
    save_checkpoint(m, tmp_path)
    man = manifest_of(tmp_path)
    man["tensors"][0]["rows"] += 1
    rewrite_manifest(tmp_path, man)
    with pytest.raises(CheckpointError, match="shape"):
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
