"""Autodiff kernels against finite differences, plus the optimizer contract."""

import logging

import numpy as np
import pytest

from helpers import check_grads, fd_grad, kink_free, rel_err
from spantree import numerics as nm
from spantree.errors import ContractViolation


# ---------------------------------------------------------------------------
# gradient checks, op by op
# ---------------------------------------------------------------------------


def weighted(op):
    """Reduce a non-scalar op to a scalar loss with a fixed random weighting."""
    rng = np.random.default_rng(7)
    cache = {}

    def build(*tensors):
        out = op(*tensors)
        w = cache.setdefault(out.value.shape, rng.standard_normal(out.value.shape))
        return nm.total_sum(nm.mul(out, nm.constant(w)))

    return build


def test_add_sub_mul_grads():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    check_grads(weighted(nm.add), [a, b])
    check_grads(weighted(nm.sub), [a, b])
    check_grads(weighted(nm.mul), [a, b])


def test_broadcast_grads():
    # bias-style (1, d) against (n, d), and scalar against matrix
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((1, 3))
    check_grads(weighted(nm.add), [a, b])
    check_grads(weighted(nm.mul), [a, b])
    c = rng.standard_normal(())
    check_grads(weighted(nm.add), [a, c])


def test_scale_grad():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    check_grads(weighted(lambda t: nm.scale(t, -2.5)), [a])


def test_matmul_grads():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 3))
    check_grads(weighted(nm.matmul), [a, b])


def test_matmul_batched_grads():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 3, 4, 5))
    b = rng.standard_normal((2, 3, 5, 2))
    check_grads(weighted(nm.matmul), [a, b])


def test_matmul_broadcast_batch_grads():
    # shared right operand across the batch, as in attention projections
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 4, 5))
    b = rng.standard_normal((5, 2))
    check_grads(weighted(nm.matmul), [a, b])


def test_relu_grad_away_from_kink():
    rng = np.random.default_rng(6)
    a = kink_free(rng, (4, 7))
    check_grads(weighted(nm.relu), [a])


def test_relu_zero_gets_zero_grad():
    # the subgradient convention at exactly 0 is 0 (strict > in the mask)
    a = nm.parameter(np.array([0.0, -1.0, 2.0]))
    loss = nm.total_sum(nm.relu(a))
    nm.backward(loss)
    assert a.grad.tolist() == [0.0, 0.0, 1.0]


def test_reshape_permute_grads():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 3, 4))
    check_grads(weighted(lambda t: nm.reshape(t, (6, 4))), [a])
    check_grads(weighted(lambda t: nm.permute(t, (2, 0, 1))), [a])


def test_total_sum_grad():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    check_grads(lambda t: nm.total_sum(t), [a])


def test_layer_norm_grads():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 8))
    gain = rng.standard_normal(8) * 0.5 + 1.0
    bias = rng.standard_normal(8) * 0.1
    check_grads(weighted(nm.layer_norm), [x, gain, bias])


def test_masked_softmax_grads():
    rng = np.random.default_rng(11)
    scores = rng.standard_normal((3, 5))
    additive = np.where(rng.random((3, 5)) < 0.3, nm.NEG_MASK, 0.0)
    additive[:, 0] = 0.0  # keep every row feasible
    check_grads(weighted(lambda t: nm.masked_softmax(t, additive)), [scores])


def test_embedding_grad():
    rng = np.random.default_rng(12)
    table = rng.standard_normal((7, 4))
    ids = np.array([[0, 3, 3], [6, 1, 0]])
    check_grads(weighted(lambda t: nm.embedding(t, ids)), [table])


def test_cross_entropy_grad():
    rng = np.random.default_rng(13)
    logits = rng.standard_normal((2, 5, 9))
    targets = rng.integers(0, 9, size=(2, 5))
    weights = rng.random((2, 5))
    weights[0, 0] = 0.0
    check_grads(lambda t: nm.cross_entropy(t, targets, weights), [logits])


def test_composite_graph_grad():
    # a small MLP-with-norm graph: exercises fan-out and accumulation.
    # Draw until every relu pre-activation sits well away from the kink,
    # otherwise the FD probe steps across it and the check is meaningless.
    for seed in range(14, 200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6))
        w1 = rng.standard_normal((6, 5))
        if np.abs(x @ w1).min() > 0.05:
            break
    w2 = rng.standard_normal((5, 6))
    gain = np.ones(6)
    bias = np.zeros(6)

    def build(tx, tw1, tw2, tg, tb):
        h = nm.relu(nm.matmul(tx, tw1))
        y = nm.matmul(h, tw2)
        y = nm.layer_norm(nm.add(y, tx), tg, tb)
        # keep |loss| near 1 so the FD difference quotient stays clean
        return nm.scale(nm.total_sum(nm.mul(y, y)), 1.0 / y.value.size)

    check_grads(build, [x, w1, w2, gain, bias])


# ---------------------------------------------------------------------------
# backward() contracts
# ---------------------------------------------------------------------------


def test_backward_rejects_non_scalar():
    a = nm.parameter(np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        nm.backward(nm.add(a, a))


def test_backward_zero_fills_off_path_params():
    a = nm.parameter(np.ones(3), name="a")
    b = nm.parameter(np.ones(3), name="b")
    loss = nm.total_sum(a)
    nm.backward(loss, {"a": a, "b": b})
    assert np.array_equal(a.grad, np.ones(3))
    assert np.array_equal(b.grad, np.zeros(3))


def test_backward_accepts_param_list():
    a = nm.parameter(np.ones(2), name="a")
    b = nm.parameter(np.ones(2), name="b")
    nm.backward(nm.total_sum(a), [a, b])
    assert np.array_equal(b.grad, np.zeros(2))


def test_backward_clears_stale_grads():
    # parameters outlive graphs; a second pass must not accumulate into the first
    a = nm.parameter(np.ones(3), name="a")
    nm.backward(nm.total_sum(a), {"a": a})
    nm.backward(nm.total_sum(a), {"a": a})
    assert np.array_equal(a.grad, np.ones(3))


def test_backward_accumulates_fanout():
    a = nm.parameter(np.array([2.0]))
    loss = nm.total_sum(nm.add(a, a))
    nm.backward(loss)
    assert a.grad.tolist() == [2.0]


# ---------------------------------------------------------------------------
# masked softmax semantics
# ---------------------------------------------------------------------------


def test_masked_softmax_rows_sum_to_one():
    rng = np.random.default_rng(15)
    scores = nm.constant(rng.standard_normal((4, 6)))
    additive = np.zeros((4, 6))
    additive[:, 3:] = nm.NEG_MASK
    p = nm.masked_softmax(scores, additive).value
    assert np.allclose(p.sum(axis=-1), 1.0)


def test_masked_softmax_forbidden_exactly_zero():
    rng = np.random.default_rng(16)
    scores = nm.constant(rng.standard_normal((4, 6)))
    additive = np.zeros((4, 6))
    additive[:, 3:] = nm.NEG_MASK
    p = nm.masked_softmax(scores, additive).value
    assert (p[:, 3:] == 0.0).all()


def test_masked_softmax_matches_plain_softmax_when_open():
    rng = np.random.default_rng(17)
    s = rng.standard_normal((2, 5))
    p = nm.masked_softmax(nm.constant(s), np.zeros((2, 5))).value
    z = np.exp(s - s.max(axis=-1, keepdims=True))
    assert np.allclose(p, z / z.sum(axis=-1, keepdims=True))


def test_masked_softmax_broadcast_additive():
    # (1, 1, n, n) mask against (B, H, n, n) scores, as attention uses it
    rng = np.random.default_rng(18)
    scores = rng.standard_normal((2, 3, 4, 4))
    additive = np.zeros((1, 1, 4, 4))
    additive[0, 0, :, 2:] = nm.NEG_MASK
    p = nm.masked_softmax(nm.constant(scores), additive).value
    assert (p[..., 2:] == 0.0).all()
    assert np.allclose(p.sum(axis=-1), 1.0)


# ---------------------------------------------------------------------------
# cosine distance
# ---------------------------------------------------------------------------


def test_cosine_distance_identical_is_exactly_zero():
    x = np.array([0.3, -1.2, 4.0])
    assert nm.cosine_distance(x, x.copy()) == 0.0


def test_cosine_distance_reference_values():
    assert nm.cosine_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert nm.cosine_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(2.0)
    assert nm.cosine_distance([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.0, abs=1e-15)
    # 45 degrees
    assert nm.cosine_distance([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
        1.0 - 1.0 / np.sqrt(2.0)
    )


def test_cosine_distance_scale_invariant():
    rng = np.random.default_rng(19)
    x = rng.standard_normal(8)
    y = rng.standard_normal(8)
    d1 = nm.cosine_distance(x, y)
    d2 = nm.cosine_distance(3.7 * x, 0.01 * y)
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_cosine_distance_clamped_to_range():
    rng = np.random.default_rng(20)
    for _ in range(200):
        d = nm.cosine_distance(rng.standard_normal(4), rng.standard_normal(4))
        assert 0.0 <= d <= 2.0


def test_cosine_distance_degenerate_norm_convention(caplog):
    nm.reset_degenerate_warning()
    with caplog.at_level(logging.WARNING, logger="spantree.numerics"):
        assert nm.cosine_distance(np.zeros(3), np.ones(3)) == 1.0
        assert nm.cosine_distance(np.zeros(3), np.zeros(3)) == 1.0
        assert nm.cosine_distance([1e-13, 0.0, 0.0], np.ones(3)) == 1.0
    # logged once per run, not once per call
    hits = [r for r in caplog.records if "near-zero norm" in r.getMessage()]
    assert len(hits) == 1
    nm.reset_degenerate_warning()


def test_cosine_distance_shape_mismatch():
    with pytest.raises(ContractViolation):
        nm.cosine_distance(np.ones(3), np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cosine_distance_rejects_non_finite_input(bad):
    vec = np.array([1.0, bad, 2.0])
    with pytest.raises(ContractViolation, match="non-finite"):
        nm.cosine_distance(vec, np.ones(3))
    with pytest.raises(ContractViolation, match="non-finite"):
        nm.cosine_distance(np.ones(3), vec)
    with pytest.raises(ContractViolation, match="non-finite"):
        nm.cosine_distance(vec, vec)


# ---------------------------------------------------------------------------
# embedding / cross-entropy contracts
# ---------------------------------------------------------------------------


def test_embedding_out_of_range_names_position():
    table = nm.parameter(np.zeros((4, 2)))
    with pytest.raises(ContractViolation, match="flat position 3"):
        nm.embedding(table, np.array([[0, 1], [2, 9]]))


def test_embedding_repeated_ids_accumulate():
    table = nm.parameter(np.zeros((3, 2)))
    out = nm.embedding(table, np.array([1, 1, 1]))
    nm.backward(nm.total_sum(out))
    assert np.array_equal(table.grad, [[0, 0], [3, 3], [0, 0]])


def test_cross_entropy_uniform_logits_is_log_v():
    logits = nm.constant(np.zeros((4, 11)))
    targets = np.array([0, 3, 7, 10])
    loss = nm.cross_entropy(logits, targets)
    assert float(loss.value) == pytest.approx(np.log(11.0))


def test_cross_entropy_weighting():
    logits = np.zeros((2, 3))
    logits[0, 0] = 10.0  # near-certain correct at position 0
    t = nm.cross_entropy(nm.constant(logits), np.array([0, 1]), np.array([1.0, 0.0]))
    assert float(t.value) == pytest.approx(0.0, abs=1e-4)
    with pytest.raises(ContractViolation):
        nm.cross_entropy(nm.constant(logits), np.array([0, 1]), np.zeros(2))


# ---------------------------------------------------------------------------
# AdamW with warmup
# ---------------------------------------------------------------------------


def test_effective_lr_warmup_profile():
    st = nm.OptimizerState(base_lr=1e-4, warmup_steps=5000)
    assert st.effective_lr() == 0.0  # step 0 of warmup
    st.step_count = 2500
    assert st.effective_lr() == pytest.approx(5e-5)
    st.step_count = 5000
    assert st.effective_lr() == pytest.approx(1e-4)
    st.step_count = 99999
    assert st.effective_lr() == pytest.approx(1e-4)  # capped at base


def test_optimizer_first_step_matches_hand_computation():
    # one parameter, no warmup, no decay: after bias correction the first
    # update is exactly -lr * sign-ish g / (|g| + eps)
    p = nm.parameter(np.array([1.0, -2.0]), name="w")
    p.grad = np.array([0.5, -0.25])
    st = nm.OptimizerState(base_lr=0.1, warmup_steps=0, weight_decay=0.0)
    nm.optimizer_step({"w": p}, st)
    g = np.array([0.5, -0.25])
    expected = np.array([1.0, -2.0]) - 0.1 * (g / (np.abs(g) + nm.ADAM_EPS))
    assert np.allclose(p.value, expected, atol=1e-12)
    assert st.step_count == 1


def test_optimizer_second_step_matches_hand_computation():
    p = nm.parameter(np.array([0.5]), name="w")
    st = nm.OptimizerState(base_lr=0.01, warmup_steps=0, weight_decay=0.0)
    grads = [np.array([1.0]), np.array([-2.0])]
    m = np.zeros(1)
    v = np.zeros(1)
    x = np.array([0.5])
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        nm.optimizer_step({"w": p}, st)
        b1, b2 = nm.ADAM_BETA1, nm.ADAM_BETA2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - 0.01 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + nm.ADAM_EPS)
    assert np.allclose(p.value, x, atol=1e-15)


def test_weight_decay_is_decoupled():
    # zero gradient: the only movement is -lr * wd * w, independent of moments
    p = nm.parameter(np.array([4.0]), name="w")
    p.grad = np.zeros(1)
    st = nm.OptimizerState(base_lr=0.5, warmup_steps=0, weight_decay=0.1)
    nm.optimizer_step({"w": p}, st)
    assert p.value[0] == pytest.approx(4.0 - 0.5 * 0.1 * 4.0)


def test_warmup_zero_step_moves_nothing_but_counts():
    p = nm.parameter(np.array([1.0]), name="w")
    p.grad = np.array([123.0])
    st = nm.OptimizerState(base_lr=1.0, warmup_steps=10)
    nm.optimizer_step({"w": p}, st)
    assert p.value[0] == 1.0  # lr was exactly 0 at step 0
    assert st.step_count == 1
    nm.optimizer_step({"w": p}, st)
    assert p.value[0] != 1.0  # lr > 0 from step 1 on


def test_non_finite_gradient_names_parameter():
    p = nm.parameter(np.array([1.0]), name="enc.0.ff.w1")
    p.grad = np.array([np.nan])
    st = nm.OptimizerState()
    with pytest.raises(ContractViolation, match="enc.0.ff.w1"):
        nm.optimizer_step({"enc.0.ff.w1": p}, st)


def test_missing_grad_treated_as_zero_moves_only_by_decay():
    p = nm.parameter(np.array([2.0]), name="w")
    p.grad = None
    st = nm.OptimizerState(base_lr=0.1, warmup_steps=0, weight_decay=0.01)
    nm.optimizer_step({"w": p}, st)
    assert p.value[0] == pytest.approx(2.0 - 0.1 * 0.01 * 2.0)


# ---------------------------------------------------------------------------
# randomized FD sweep (same machinery the acceptance gate uses)
# ---------------------------------------------------------------------------


def test_randomized_shapes_sweep():
    rng = np.random.default_rng(42)
    for case in range(12):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        x = kink_free(rng, (n, d))
        w = rng.standard_normal((d, d))
        while np.abs(x @ w).min() < 0.05:  # keep relu kinks away from FD probes
            w = rng.standard_normal((d, d))

        def build(tx, tw):
            h = nm.relu(nm.matmul(tx, tw))
            p = nm.masked_softmax(h, np.zeros((n, d)))
            return nm.total_sum(nm.mul(p, nm.constant(np.arange(d) * 1.0)))

        check_grads(build, [x, w])


def test_fd_harness_catches_wrong_gradients():
    # sanity check on the checker itself: a deliberately broken vjp must fail
    a = np.array([1.0, 2.0])

    def build(t):
        out = nm.Tensor(t.value**2, (t,))
        out.vjp = lambda g: (g * t.value,)  # missing factor of 2
        return nm.total_sum(out)

    with pytest.raises(AssertionError):
        check_grads(build, [a])
