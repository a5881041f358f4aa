"""Span vectors and invariance charts: exactness guarantees and caching."""

import io
import json

import numpy as np
import pytest

from spantree import spanrep
from spantree.datasets import Vocab
from spantree.encoder import EncoderConfig, LayerMask, TransformerModel
from spantree.errors import ContractViolation
from spantree.numerics import cosine_distance
from spantree.spanrep import (
    SciChart,
    Span,
    build_sci_chart,
    build_t_mask,
    context_free_vector,
    contextual_span_vector,
)


def make_model(layers=2, d=8, seed=0, max_len=16, heads=2, d_ff=16):
    vocab = Vocab([f"t{i}" for i in range(10)])
    config = EncoderConfig(
        enc_layers=layers, dec_layers=1, heads=heads, d_model=d, d_ff=d_ff,
        vocab_size=len(vocab), max_len=max_len,
    )
    return TransformerModel(config, vocab, task="seq2seq", rng=seed)


def naive_chart(model, tokens, t, pooling="mean"):
    """Oracle: rebuild every entry from scratch with the public one-span ops."""
    n = len(tokens)
    states = model.encode(tokens)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            contextual = contextual_span_vector(states, (i, j), pooling)
            free = context_free_vector(model, tokens, (i, j), t, pooling)
            values[i, j] = cosine_distance(contextual, free)
    return values


# ---------------------------------------------------------------------------
# spans and masks
# ---------------------------------------------------------------------------


def test_span_validation():
    Span(0, 2).validate(3)
    with pytest.raises(ContractViolation):
        Span(2, 1).validate(5)
    with pytest.raises(ContractViolation):
        Span(0, 5).validate(5)
    assert Span(1, 3).length == 3


def test_t_mask_layout():
    mask = build_t_mask((1, 2), t=1, n=4, layers=3)
    # below the cut: unrestricted
    assert mask.allow[0].all()
    # at and above the cut: span rows see only the span, outside rows see all
    for layer in (1, 2):
        a = mask.allow[layer]
        assert a[1].tolist() == [False, True, True, False]
        assert a[2].tolist() == [False, True, True, False]
        assert a[0].all() and a[3].all()


def test_t_mask_extremes():
    # t = L: no restriction anywhere
    assert all(a.all() for a in build_t_mask((0, 1), t=2, n=3, layers=2).allow)
    # t = 0: restricted at every layer
    assert not any(a.all() for a in build_t_mask((0, 1), t=0, n=3, layers=2).allow)
    # whole-sentence span: "restriction" is vacuous
    assert all(a.all() for a in build_t_mask((0, 2), t=0, n=3, layers=2).allow)


def test_t_mask_contracts():
    with pytest.raises(ContractViolation):
        build_t_mask((0, 1), t=3, n=4, layers=2)
    with pytest.raises(ContractViolation):
        build_t_mask((0, 1), t=-1, n=4, layers=2)
    with pytest.raises(ContractViolation):
        build_t_mask((0, 4), t=1, n=4, layers=2)


# ---------------------------------------------------------------------------
# span vectors
# ---------------------------------------------------------------------------


def test_contextual_span_vector_single_token():
    m = make_model()
    states = m.encode([5, 6, 7])
    assert np.array_equal(contextual_span_vector(states, (1, 1)), states[-1][1])


def test_contextual_span_vector_mean():
    m = make_model()
    states = m.encode([5, 6, 7, 8])
    v = contextual_span_vector(states, (1, 3))
    assert np.allclose(v, states[-1][1:4].mean(axis=0))


def test_context_free_equals_contextual_at_t_equals_l():
    m = make_model(layers=2)
    tokens = [5, 6, 7, 8, 9]
    states = m.encode(tokens)
    for span in [(0, 1), (2, 4), (0, 4), (3, 3)]:
        free = context_free_vector(m, tokens, span, t=2)
        assert np.array_equal(free, contextual_span_vector(states, span))


def test_whole_sentence_span_free_equals_contextual_any_t():
    m = make_model(layers=2)
    tokens = [5, 6, 7]
    states = m.encode(tokens)
    whole = (0, 2)
    for t in (0, 1, 2):
        free = context_free_vector(m, tokens, whole, t)
        assert np.array_equal(free, contextual_span_vector(states, whole))


def test_outside_replacement_invariance_at_t0():
    """The t=0 context-free vector may not depend on outside tokens at all."""
    m = make_model()
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        base = rng.integers(5, 15, size=n).tolist()
        i = int(rng.integers(0, n))
        j = int(rng.integers(i, n))
        other = list(base)
        for p in range(n):
            if p < i or p > j:
                other[p] = int(rng.integers(5, 15))
        a = context_free_vector(m, base, (i, j), t=0)
        b = context_free_vector(m, other, (i, j), t=0)
        assert np.array_equal(a, b)


def test_outside_replacement_matters_above_t0():
    m = make_model(layers=2)
    a = context_free_vector(m, [5, 6, 7, 8], (1, 2), t=1)
    b = context_free_vector(m, [9, 6, 7, 8], (1, 2), t=1)
    assert not np.array_equal(a, b)


def test_masked_full_encode_agrees_with_span_slice():
    """Independent route: a full-length encode under the T-mask, followed by
    pooling the span positions, computes the same function as the span-sliced
    tail (same math, different array shapes), so values agree to float noise."""
    m = make_model(layers=3)
    tokens = [5, 6, 7, 8, 9, 10]
    for span in [(1, 3), (0, 0), (2, 5)]:
        for t in range(0, 4):
            mask = build_t_mask(span, t, 6, 3)
            states = m.encode(tokens, mask=mask)
            via_mask = states[-1][span[0] : span[1] + 1].mean(axis=0)
            via_slice = context_free_vector(m, tokens, span, t)
            assert np.allclose(via_mask, via_slice, atol=1e-12)


def test_context_free_contracts():
    m = make_model(layers=2)
    with pytest.raises(ContractViolation):
        context_free_vector(m, [], (0, 0), t=1)
    with pytest.raises(ContractViolation):
        context_free_vector(m, [5, 6], (0, 1), t=3)
    with pytest.raises(ContractViolation):
        context_free_vector(m, [5, 6], (0, 2), t=1)


def test_pool_contract():
    with pytest.raises(ContractViolation):
        spanrep._pool(np.ones((2, 3)), "max")


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


def test_chart_matches_naive_rebuild_bit_exact():
    m = make_model(layers=2)
    rng = np.random.default_rng(1)
    for _ in range(4):
        n = int(rng.integers(2, 8))
        tokens = rng.integers(5, 15, size=n).tolist()
        for t in range(0, 3):
            chart = build_sci_chart(m, tokens, t)
            oracle = naive_chart(m, tokens, t)
            assert np.array_equal(chart.values, oracle)
    # the chart stacks up to n-k+1 spans per tail pass; at the benchmark's
    # architecture and sentence lengths that must still give per-span bits
    bench = make_model(layers=2, d=32, max_len=40, heads=4, d_ff=128)
    for n in (17, 33, 40):
        tokens = rng.integers(5, 15, size=n).tolist()
        for t in range(0, 3):
            for pooling in spanrep.POOLINGS:
                chart = build_sci_chart(bench, tokens, t, pooling=pooling)
                oracle = naive_chart(bench, tokens, t, pooling)
                assert np.array_equal(chart.values, oracle)


def test_chart_t_equals_l_is_all_zero():
    m = make_model(layers=2)
    chart = build_sci_chart(m, [5, 6, 7, 8], t=2)
    assert np.array_equal(chart.values, np.zeros((4, 4)))


def test_chart_whole_sentence_entry_zero_at_any_t():
    m = make_model(layers=2)
    for t in range(3):
        chart = build_sci_chart(m, [5, 6, 7, 8], t=t)
        assert chart.sci(0, 3) == 0.0


def test_chart_entries_in_range():
    m = make_model(layers=2)
    chart = build_sci_chart(m, [5, 6, 7, 8, 9], t=1)
    for span in chart.spans():
        assert 0.0 <= chart.sci(*span) <= 2.0


def test_sum_and_mean_pooling_give_identical_charts():
    m = make_model(layers=2, seed=2)
    tokens = [5, 6, 7, 8, 9, 10]
    mean_chart = build_sci_chart(m, tokens, t=1, pooling="mean")
    sum_chart = build_sci_chart(m, tokens, t=1, pooling="sum")
    assert np.allclose(mean_chart.values, sum_chart.values, atol=1e-12)


def test_chart_scale_invariance():
    """Scaling the final-layer states by c > 0 must not move any entry by
    more than cosine float noise."""
    m = make_model(layers=2)
    tokens = [5, 6, 7, 8]
    base = build_sci_chart(m, tokens, t=1)
    scaled = m.clone()
    # scale the final-norm gain: multiplies every final-layer state by c
    scaled.params["enc.ln_f.g"].value *= 3.0
    chart = build_sci_chart(scaled, tokens, t=1)
    assert np.allclose(base.values, chart.values, atol=1e-12)


def test_chart_contextual_mask_route():
    m = make_model(layers=2)
    tokens = [5, 6, 7, 8]
    mask = LayerMask.block_diagonal(2, 4, 2)
    chart = build_sci_chart(m, tokens, t=0, contextual_mask=mask)
    # contextual side now comes from the masked encode
    masked_states = m.encode(tokens, mask=mask)
    expected = cosine_distance(
        contextual_span_vector(masked_states, (0, 1)),
        context_free_vector(m, tokens, (0, 1), 0),
    )
    assert chart.sci(0, 1) == expected
    with pytest.raises(ContractViolation):
        build_sci_chart(m, tokens, t=0, contextual_mask=LayerMask.all_true(3, 2))


def test_chart_contracts():
    m = make_model(layers=2)
    with pytest.raises(ContractViolation):
        build_sci_chart(m, [], t=1)
    with pytest.raises(ContractViolation):
        build_sci_chart(m, [5, 6], t=5)
    chart = build_sci_chart(m, [5, 6], t=1)
    with pytest.raises(ContractViolation):
        chart.sci(1, 0)
    with pytest.raises(ContractViolation):
        chart.sci(0, 2)


def test_chart_provenance_and_spans():
    m = make_model(layers=2)
    chart = build_sci_chart(m, [5, 6, 7], t=1)
    assert chart.provenance["checkpoint"] == "unsaved"
    assert chart.provenance["sentence"] == [5, 6, 7]
    assert list(chart.spans()) == [
        Span(0, 0), Span(0, 1), Span(0, 2), Span(1, 1), Span(1, 2), Span(2, 2),
    ]


def test_chart_json_round_trip():
    m = make_model(layers=2)
    chart = build_sci_chart(m, [5, 6, 7, 8], t=1)
    payload = chart.to_json_dict()
    assert payload["n"] == 4 and payload["t"] == 1
    assert len(payload["entries"]) == 10  # n (n + 1) / 2
    back = SciChart.from_json_dict(payload)
    assert back.n == chart.n and back.threshold == chart.threshold
    assert np.array_equal(back.values, chart.values)
    buf = io.StringIO()
    chart.dump_json(buf)
    again = SciChart.from_json_dict(json.loads(buf.getvalue()))
    assert np.array_equal(again.values, chart.values)


def test_chart_from_model_with_nan_parameter_raises():
    m = make_model(layers=2)
    m.params["enc.0.ff.w1"].value[0, 0] = np.nan
    with pytest.raises(ContractViolation, match="non-finite"):
        build_sci_chart(m, [5, 6, 7], t=1)
