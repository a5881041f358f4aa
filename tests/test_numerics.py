"""Autodiff kernels against finite differences, plus the optimizer contract."""

import contextlib
import logging

import numpy as np
import pytest

from helpers import (
    check_grads,
    fd_grad,
    kink_free,
    ref_affine,
    ref_backward,
    ref_cross_entropy,
    ref_layer_norm,
    ref_masked_softmax,
    ref_optimizer_step,
    ref_permute,
    ref_pool,
    ref_unbroadcast,
    rel_err,
)
from spantree import numerics as nm
from spantree.datasets import Vocab
from spantree.encoder import EncoderConfig, TransformerModel
from spantree.errors import ContractViolation
from spantree.spanrep import POOLINGS, _pool


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


def test_affine_grads():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 4))
    w = rng.standard_normal((4, 5))
    b = rng.standard_normal((1, 5))
    check_grads(weighted(nm.affine), [x, w, b])
    check_grads(weighted(nm.affine), [x[0], w, b])  # one unbatched matrix
    check_grads(weighted(nm.affine), [x, w])  # no bias, as for attention keys


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
# tape-free mode
# ---------------------------------------------------------------------------


def composite(a, b):
    h = nm.layer_norm(nm.relu(nm.matmul(a, b)), nm.constant(np.ones(3)), nm.constant(np.zeros(3)))
    p = nm.masked_softmax(nm.scale(h, 0.5), 0.0)
    return nm.permute(nm.reshape(nm.add(p, h), (3, 3)), (1, 0))


def test_no_tape_keeps_values_only():
    rng = np.random.default_rng(3)
    a = nm.parameter(rng.standard_normal((3, 4)))
    b = nm.parameter(rng.standard_normal((4, 3)))
    recorded = composite(a, b)
    recorded_loss = nm.cross_entropy(recorded, np.array([0, 1, 2]))
    with nm.no_tape():
        bare = composite(a, b)
        loss = nm.cross_entropy(bare, np.array([0, 1, 2]))
    assert recorded.parents and recorded.vjp is not None
    # off the tape a kernel returns the plain array of its forward, no Tensor
    for out, taped in ((bare, recorded), (loss, recorded_loss)):
        assert type(out) is np.ndarray and type(taped) is nm.Tensor
        assert_same_bits(out, taped.value)


def test_backward_rejects_tensor_built_without_tape():
    a = nm.parameter(np.ones(3))
    with nm.no_tape():
        loss = nm.total_sum(a)
    with pytest.raises(ContractViolation, match="no_tape"):
        nm.backward(loss, [a])
    assert a.grad is None


def test_backward_rejects_a_plain_array_on_the_tape():
    # on the tape the operands are Tensors: an array there is refused by
    # name before any gradient is touched, not an AttributeError mid-walk
    a = nm.parameter(np.ones(3))
    loss = nm.total_sum(nm.mul(a, np.full(3, 2.0)))
    with pytest.raises(ContractViolation, match="pass it as a constant"):
        nm.backward(loss, [a])
    assert a.grad is None


def test_no_tape_restores_recording_on_exit_and_on_error():
    a = nm.parameter(np.ones(3))
    with nm.no_tape():
        with nm.no_tape():
            pass
        # a nested block leaves the outer one off
        assert not nm.taping() and type(nm.total_sum(a)) is np.ndarray
    assert nm.taping() and nm.total_sum(a).parents == (a,)
    with pytest.raises(RuntimeError):
        with nm.no_tape():
            raise RuntimeError("boom")
    loss = nm.total_sum(a)
    nm.backward(loss, [a])
    assert type(loss) is nm.Tensor and np.array_equal(a.grad, np.ones(3))


# ---------------------------------------------------------------------------
# bit identity with the kernels' earlier numpy expressions
# ---------------------------------------------------------------------------

# The encoder's shapes at the benchmark's width: batch, heads, tokens, model
# width, head width.
B, H, N, D = 3, 4, 7, 32
DH = D // H
TAPE_MODES = {"taped": contextlib.nullcontext, "no_tape": nm.no_tape}


def draw(rng, shape, layout):
    """Seeded normals of ``shape``, C-contiguous or as a transposed view (a
    strided one where a single row would make the transpose contiguous)."""
    if layout == "contiguous":
        return rng.standard_normal(shape)
    if len(shape) >= 2 and min(shape[-2:]) > 1:
        view = rng.standard_normal(shape[:-2] + shape[:-3:-1]).swapaxes(-1, -2)
    else:
        view = rng.standard_normal(shape[:-1] + (2 * shape[-1],))[..., ::2]
    assert view.shape == shape and not view.flags.c_contiguous
    return view


def run_kernel(mode, kernel, *args):
    """The kernel's output array in tape mode ``mode``, and its tape node on
    the tape (None off it).  Off the tape the kernel must return a plain
    ndarray with the bits of the taped node's value."""
    node = kernel(*args)
    assert type(node) is nm.Tensor
    if mode == "taped":
        return node.value, node
    with TAPE_MODES[mode]():
        out = kernel(*args)
    assert type(out) is np.ndarray
    assert_same_bits(out, node.value)
    return out, None


def assert_same_bits(got, want):
    # the bytes also tell 0.0 from -0.0, which np.array_equal treats as equal
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
@pytest.mark.parametrize("shape, axes", [
    ((B, N, H, DH), (0, 2, 1, 3)),  # split heads
    ((B, H, N, DH), (0, 1, 3, 2)),  # keys for the scores
    ((B, H, N, DH), (0, 2, 1, 3)),  # merge heads
    ((N, H, DH), (1, 2, 0)),  # 3-axis cycles, each the other's inverse
    ((N, H, DH), (2, 0, 1)),
    ((B, N, D), (0, 1, 2)),  # identity
])
def test_permute_matches_earlier_expression(mode, layout, shape, axes):
    rng = np.random.default_rng(20)
    x = draw(rng, shape, layout)
    out, node = run_kernel(mode, nm.permute, nm.constant(x), axes)
    g = rng.standard_normal(out.shape)
    want, want_grad = ref_permute(x, axes, g)
    assert_same_bits(out, want)
    if node is not None:
        assert_same_bits(node.vjp(g)[0], want_grad)


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
# width 24 too: dividing by 32 and multiplying by 1/32 agree bit for bit
@pytest.mark.parametrize("shape", [(B, N, D), (N, D), (1, 1, D), (B, N, 24)])
def test_layer_norm_matches_earlier_expression(mode, layout, shape):
    rng = np.random.default_rng(21)
    x = draw(rng, shape, layout)
    gain = rng.standard_normal((1, shape[-1])) * 0.5 + 1.0
    bias = rng.standard_normal((1, shape[-1])) * 0.1
    out, node = run_kernel(mode, nm.layer_norm, nm.constant(x), nm.constant(gain),
                           nm.constant(bias))
    g = draw(rng, shape, layout)
    want, want_grads = ref_layer_norm(x, gain, bias, g)
    assert_same_bits(out, want)
    if node is not None:
        for got_grad, want_grad in zip(node.vjp(g), want_grads):
            assert_same_bits(got_grad, want_grad)


def key_pad_mask(rng, nk):
    """A (B, 1, 1, nk) additive mask forbidding a random tail of keys per row."""
    additive = np.zeros((B, 1, 1, nk))
    for row, keep in enumerate(rng.integers(1, nk + 1, size=B)):
        additive[row, ..., keep:] = nm.NEG_MASK
    return additive


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("nq", [N, 1])  # self-attention, one decoding step
def test_masked_softmax_matches_earlier_expression(mode, layout, masked, nq):
    rng = np.random.default_rng(22)
    scores = draw(rng, (B, H, nq, N), layout) * 3.0
    additive = key_pad_mask(rng, N) if masked else 0.0
    out, node = run_kernel(mode, nm.masked_softmax, nm.constant(scores), additive)
    g = draw(rng, (B, H, nq, N), layout)
    want, want_grad = ref_masked_softmax(scores, additive, g)
    assert_same_bits(out, want)
    if node is not None:
        assert_same_bits(node.vjp(g)[0], want_grad)


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
def test_cross_entropy_matches_earlier_expression(mode, layout):
    rng = np.random.default_rng(23)
    logits = draw(rng, (B, N, 11), layout)
    targets = rng.integers(0, 11, size=(B, N))
    weights = (rng.random((B, N)) < 0.7).astype(np.float64)
    weights[0, 0] = 1.0
    out, node = run_kernel(mode, nm.cross_entropy, nm.constant(logits), targets, weights)
    want, want_grad = ref_cross_entropy(logits, targets, weights, np.float64(0.75))
    assert_same_bits(out, np.asarray(want))
    if node is not None:
        assert_same_bits(node.vjp(np.float64(0.75))[0], want_grad)


# Measured at most 7.5e-16 of the largest entry over 30 seeds per shape.
AFFINE_WEIGHT_GRAD_BOUND = 1e-14


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
@pytest.mark.parametrize("x_shape, m", [
    ((B, N, D), D),  # a batch through q, k, v or o
    ((20, 5, D), D),  # a chart's stack of 20 spans of length 5
    ((B, 1, D), D),  # one decoding step
    ((B, N, D), 128),  # into the feed-forward width and back out
    ((B, N, 128), D),
    ((N, D), D),  # one unbatched matrix
])
def test_affine_matches_two_node_layer(mode, layout, x_shape, m):
    rng = np.random.default_rng(26)
    k = x_shape[-1]
    x, w, b = draw(rng, x_shape, layout), draw(rng, (k, m), layout), rng.standard_normal((1, m))
    g = draw(rng, x_shape[:-1] + (m,), layout)
    for bs in ([nm.constant(b)], []):  # attention keys have no bias
        out, node = run_kernel(mode, nm.affine, nm.constant(x), nm.constant(w), *bs)
        ref = ref_affine(nm.constant(x), nm.constant(w), *bs)
        assert_same_bits(out, ref.value)
        if node is None:
            continue
        gx, gw, *gb = node.vjp(g)
        if bs:
            ref_g, ref_gb = ref.vjp(g)
            ref_gx, ref_gw = ref.parents[0].vjp(ref_g)
            assert_same_bits(gb[0], ref_gb)
        else:
            ref_gx, ref_gw = ref.vjp(g)
            assert gb == [] and len(node.parents) == 2
        assert_same_bits(gx, ref_gx)
        # one GEMM over every position sums the weight gradient in another order
        assert gw.shape == ref_gw.shape
        assert np.abs(gw - ref_gw).max() <= AFFINE_WEIGHT_GRAD_BOUND * np.abs(ref_gw).max()


def every_kernel(rng, layout):
    """(name, kernel, args) for each numerics kernel at the encoder's shapes;
    array operands go in as constants, as the tests above pass them."""

    def c(shape):
        return nm.constant(draw(rng, shape, layout))

    x, y, bias = c((B, N, D)), c((B, N, D)), nm.constant(rng.standard_normal((1, D)))
    ids = rng.integers(0, 11, size=(B, N))
    return [
        ("add, residual", nm.add, (x, y)),
        ("add, bias", nm.add, (x, bias)),
        ("sub", nm.sub, (x, y)),
        ("mul", nm.mul, (x, y)),
        ("scale", nm.scale, (x, 0.125)),
        ("matmul", nm.matmul, (c((B, H, N, DH)), c((B, H, DH, N)))),
        ("affine", nm.affine, (x, c((D, D)), bias)),
        ("relu", nm.relu, (x,)),
        ("reshape", nm.reshape, (x, (B, N, H, DH))),
        ("permute", nm.permute, (x, (0, 2, 1))),
        ("total_sum", nm.total_sum, (x,)),
        ("layer_norm", nm.layer_norm, (x, c((1, D)), bias)),
        ("masked_softmax", nm.masked_softmax, (c((B, H, N, N)), key_pad_mask(rng, N))),
        ("embedding", nm.embedding, (c((11, D)), ids)),
        ("cross_entropy", nm.cross_entropy, (c((B, N, 11)), ids)),
    ]


@pytest.mark.parametrize("layout", ["contiguous", "view"])
def test_every_kernel_off_the_tape_returns_its_taped_bits(layout):
    # one forward expression per kernel: under no_tape it is returned as a
    # plain ndarray, on the tape wrapped in a node, with the same bits
    for name, kernel, args in every_kernel(np.random.default_rng(29), layout):
        out, _ = run_kernel("no_tape", kernel, *args)
        assert type(out) is np.ndarray, name
        # array inputs in place of the constants give the same array
        with nm.no_tape():
            bare = kernel(*(a.value if type(a) is nm.Tensor else a for a in args))
        assert_same_bits(bare, out)


def bench_model_and_pairs():
    """A model at the benchmark's architecture and 32 seeded pairs."""
    words = [f"w{i}" for i in range(10)]
    vocab = Vocab(words)
    config = EncoderConfig(enc_layers=2, dec_layers=1, heads=4, d_model=32, d_ff=128,
                           vocab_size=len(vocab), max_len=40)
    model = TransformerModel(config, vocab, rng=0)
    rng = np.random.default_rng(27)
    ids = vocab.encode(words)
    pairs = [
        ([ids[i] for i in rng.integers(0, 10, size=rng.integers(1, 12))],
         [ids[i] for i in rng.integers(0, 10, size=rng.integers(1, 9))])
        for _ in range(32)
    ]
    return model, pairs


def test_backward_frees_interior_gradients_and_keeps_parameter_bits():
    # each interior node's gradient goes as soon as its VJP has used it;
    # the parameters' gradients keep the bits of a walk that keeps them all
    model, pairs = bench_model_and_pairs()
    loss = model.seq2seq_loss(pairs)
    interior = [node for node in nm._topo_order(loss) if node.vjp is not None]
    nm.backward(loss, model.params)
    assert interior and all(node.grad is None for node in interior)
    freed = {name: p.grad.copy() for name, p in model.params.items()}
    ref_backward(loss, model.params)  # the same graph: its closures are kept
    assert all(node.grad is not None for node in interior)
    for name, p in model.params.items():
        assert freed[name].tobytes() == p.grad.tobytes(), name


def test_seq2seq_loss_records_one_node_per_linear_layer(monkeypatch):
    # the benchmark's architecture on a fixed batch of 32 pairs, which the
    # loss packs into rows and runs as one group: its 23 linear layers
    # (encoder and decoder attention and feed-forward, cross-attention keys
    # and values, the output head) take one node each; the 19 with a bias
    # used to take two, and the 4 key projections, which have none, one
    # matmul.  The counts were 271 and 309 while the loss ran two
    # length-grouped halves, which paid every node twice.
    model, pairs = bench_model_and_pairs()
    linear = [name for name in model.params if name.rsplit(".", 1)[1] in
              ("w", "wq", "wk", "wv", "wo", "w1", "w2")]
    assert len(linear) == 23
    biased = [name for name in linear if not name.endswith(".wk")]

    def tape_nodes():  # parameters and other leaves count too
        return len(nm._topo_order(model.seq2seq_loss(pairs)))

    fused = tape_nodes()
    monkeypatch.setattr(TransformerModel, "_affine", lambda self, x, w, b=None: ref_affine(
        x, self._p(w), None if b is None else self._p(b)))
    two_node = tape_nodes()
    assert (fused, two_node) == (165, 184)
    assert two_node - fused == len(biased)


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("g_shape, shape", [
    ((B, N, D), (1, D)),  # bias and layer-norm gain
    ((B, N, D), (D,)),
    ((B, N, D), (B, 1, D)),
    ((B, N, D), ()),
    ((B, H, N, N), (B, 1, 1, N)),  # a key pad mask's shape
    ((B, N, D), (B, N, D)),  # equal shapes: a residual add
    ((N, 1), (N, 1)),
    ((1, D), (1, D)),
])
def test_unbroadcast_matches_earlier_expression(layout, g_shape, shape):
    g = draw(np.random.default_rng(24), g_shape, layout)
    got = nm._unbroadcast(g, shape)
    assert_same_bits(got, ref_unbroadcast(g, shape))
    if g_shape == shape:  # handed back as it is, with no copy
        assert got is g


@pytest.mark.parametrize("layout", ["contiguous", "view"])
@pytest.mark.parametrize("pooling", POOLINGS)
@pytest.mark.parametrize("shape", [(1, D), (5, D), (N - 2, 3, D), (1, N, D)])
def test_pool_matches_earlier_expression(layout, pooling, shape):
    vectors = draw(np.random.default_rng(25), shape, layout)
    assert_same_bits(_pool(vectors, pooling), ref_pool(vectors, pooling))


def test_tensor_values_are_float64_arrays():
    for value in (3, [1, 2], np.arange(4, dtype=np.int32), np.ones(2, dtype=np.float32),
                  np.arange(3, dtype=">f8"), np.float64(2.5)):
        v = nm.Tensor(value).value
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.dtype.isnative
        assert np.array_equal(v, np.asarray(value, dtype=np.float64))

    class Sub(np.ndarray):
        pass

    assert type(nm.Tensor(np.zeros(3).view(Sub)).value) is np.ndarray
    # a float64 array, contiguous or a view, is kept as is
    a = np.arange(6.0).reshape(2, 3)
    view = a.T
    assert nm.Tensor(a).value is a and nm.Tensor(view).value is view


def kernel_cases(rng):
    """(name, build, inputs) for the kernels that write into their own
    buffers; each input is a parameter so backward reaches it."""
    x = rng.standard_normal((B, N, D))
    gain = rng.standard_normal((1, D)) * 0.5 + 1.0
    bias = rng.standard_normal((1, D)) * 0.1
    scores = rng.standard_normal((B, H, N, N))
    return [
        ("layer_norm", nm.layer_norm, [x, gain, bias]),
        ("affine", nm.affine, [x, rng.standard_normal((D, D)), bias]),
        ("affine without bias", nm.affine, [x, rng.standard_normal((D, D))]),
        ("masked_softmax, scalar", lambda s: nm.masked_softmax(s, 0.0), [scores]),
        ("masked_softmax, array", lambda s: nm.masked_softmax(s, key_pad_mask(rng, N)),
         [scores]),
    ]


def test_kernels_leave_their_inputs_unchanged():
    # the kernels write into buffers they allocate; none may alias an input
    rng = np.random.default_rng(27)
    for name, build, inputs in kernel_cases(rng):
        params = [nm.parameter(v.copy()) for v in inputs]
        out = build(*params)
        nm.backward(nm.total_sum(nm.mul(out, nm.constant(rng.standard_normal(out.shape)))),
                    params)
        with nm.no_tape():
            build(*params)
        for p, v in zip(params, inputs):
            assert p.value.tobytes() == v.tobytes(), name


@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
def test_masked_softmax_all_zero_array_matches_scalar_zero(mode):
    # the scalar 0.0 skips its add, which could only have changed the sign
    # of a zero; -0.0 scores check that the exp erases it
    rng = np.random.default_rng(28)
    scores = rng.standard_normal((B, H, N, N))
    scores[0, 0, 0, :3] = -0.0
    scores[0, 0, 1, :] = -0.0
    g = rng.standard_normal(scores.shape)
    scalar, scalar_node = run_kernel(mode, nm.masked_softmax, nm.constant(scores), 0.0)
    array, array_node = run_kernel(mode, nm.masked_softmax, nm.constant(scores),
                                   np.zeros((1, 1, N, N)))
    assert_same_bits(scalar, array)
    if scalar_node is not None:
        assert_same_bits(scalar_node.vjp(g)[0], array_node.vjp(g)[0])


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
    # 0.0 == -0.0, so these are identical inputs though their bytes differ
    x = np.array([0.0, -1.2, 4.0, -0.0])
    y = np.array([-0.0, -1.2, 4.0, 0.0])
    assert x.tobytes() != y.tobytes()
    assert nm.cosine_distance(x, y) == 0.0
    assert nm.cosine_distance(x, x) == 0.0


def test_cosine_distance_one_ulp_apart_returns_the_computed_distance():
    # a near-zero distance only triggers the identity test; inputs that
    # differ get the clamped formula, which here is sometimes above zero
    positive = 0
    for seed in range(20):
        x = np.random.default_rng(seed).standard_normal(32)
        y = x.copy()
        y[3] = np.nextafter(y[3], np.inf)
        d = 1.0 - float(x.dot(y)) / (np.sqrt(x.dot(x)) * np.sqrt(y.dot(y)))
        got = nm.cosine_distance(x, y)
        assert got == min(2.0, max(0.0, d))
        positive += got > 0.0
    assert positive >= 2


def test_cosine_distance_accepts_lists_and_ints():
    assert nm.cosine_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert nm.cosine_distance([1, 0], np.array([0, 1])) == 1.0
    want = nm.cosine_distance(np.array([3.0, 4.0]), np.array([4.0, 3.0]))
    assert nm.cosine_distance([3, 4], (4, 3)) == want == pytest.approx(1.0 - 24.0 / 25.0)


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
    with pytest.raises(ContractViolation):
        nm.cosine_distance(np.ones((2, 2)), np.ones((2, 2)))


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
    with pytest.raises(ContractViolation, match="id -1 out of range at flat position 2"):
        nm.embedding(table, np.array([0, 3, -1]))
    assert nm.embedding(table, np.array([], dtype=np.int64)).value.shape == (0, 2)


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


@pytest.mark.parametrize("setting", [
    dict(base_lr=np.inf), dict(base_lr=np.nan), dict(base_lr=-1.0),
    dict(weight_decay=np.inf), dict(weight_decay=np.nan), dict(weight_decay=-0.5),
    dict(warmup_steps=-1),
])
def test_optimizer_refuses_non_finite_or_negative_settings(setting):
    # an infinite rate times the first warmup step's zero factor is NaN,
    # which used to be written into every parameter before the loss noticed
    with pytest.raises(ContractViolation, match="must be finite and >= 0"):
        nm.OptimizerState(**setting)


def test_non_finite_gradient_names_parameter():
    p = nm.parameter(np.array([1.0]), name="enc.0.ff.w1")
    p.grad = np.array([np.nan])
    st = nm.OptimizerState()
    with pytest.raises(ContractViolation, match="enc.0.ff.w1"):
        nm.optimizer_step({"enc.0.ff.w1": p}, st)


def test_non_finite_gradient_refuses_the_whole_step():
    # b and c are both non-finite: the error names b, the first in dict order,
    # and neither a (before it) nor the moments nor the step count move
    params = {name: nm.parameter(np.array([1.0, 2.0]), name=name) for name in "abcd"}
    st = nm.OptimizerState(base_lr=0.1, warmup_steps=0, weight_decay=0.01)
    for p in params.values():
        p.grad = np.array([0.5, -0.5])
    nm.optimizer_step(params, st)
    before = {name: p.value.copy() for name, p in params.items()}
    m, v = st.m.copy(), st.v.copy()
    params["b"].grad = np.array([0.5, np.nan])
    params["c"].grad = np.array([np.inf, 0.5])
    with pytest.raises(ContractViolation, match="'b'"):
        nm.optimizer_step(params, st)
    for name, p in params.items():
        assert np.array_equal(p.value, before[name])
    assert np.array_equal(st.m, m) and np.array_equal(st.v, v)
    assert st.step_count == 1


def test_one_pass_adamw_matches_per_parameter_loop():
    # warmup (the first step has lr 0), decay, a parameter left without a
    # gradient on alternate steps and one that never gets one
    rng = np.random.default_rng(27)
    shapes = {"w": (3, 4), "b": (1, 4), "unused": (2, 2), "emb": (5, 3)}
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: nm.parameter(v, name=name) for name, v in values.items()}
    ref = {name: nm.parameter(v, name=name) for name, v in values.items()}
    kw = dict(base_lr=0.05, warmup_steps=3, weight_decay=0.05)
    st, ref_st = nm.OptimizerState(**kw), nm.OptimizerState(**kw)
    ref_m, ref_v = {}, {}
    for step in range(7):
        for name, shape in shapes.items():
            g = None
            if name != "unused" and not (name == "emb" and step % 2):
                g = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 2)
            params[name].grad = ref[name].grad = g
        nm.optimizer_step(params, st)
        ref_optimizer_step(ref, ref_st, ref_m, ref_v)
        for name in shapes:
            assert np.array_equal(params[name].value, ref[name].value)
        assert np.array_equal(st.m, np.concatenate([ref_m[n].ravel() for n in shapes]))
        assert np.array_equal(st.v, np.concatenate([ref_v[n].ravel() for n in shapes]))
        assert st.step_count == ref_st.step_count == step + 1


def test_optimizer_refuses_a_changed_parameter_set():
    st = nm.OptimizerState(base_lr=0.1, warmup_steps=0)
    p = nm.parameter(np.ones(3), name="w")
    p.grad = np.ones(3)
    nm.optimizer_step({"w": p}, st)
    q = nm.parameter(np.ones(2), name="u")
    q.grad = np.ones(2)
    with pytest.raises(ContractViolation, match="moments"):
        nm.optimizer_step({"w": p, "u": q}, st)


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
