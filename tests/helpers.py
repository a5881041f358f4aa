"""Shared test utilities: finite-difference gradient checking, a
full-prefix greedy decoder, the kernels' earlier numpy expressions and the
one-group seq2seq loss and per-parameter AdamW loop.

The FD harness is deliberately independent of the autodiff engine: it only
calls forward passes on fresh graphs, so agreement with backward() is a real
two-route check, not a tautology.  The decoder is the oracle for the
package's incremental one: it recomputes every row's whole prefix at every
step, finished rows included, on a cache of its own each time.  The
``ref_*`` functions keep the kernels' expressions from before they called
numpy's ufunc reduces directly; the kernels must match them bit for bit.
``ref_affine`` is a linear layer as two tape nodes.  ``ref_*_additive`` are
the attention masks' spellings from before one rule built them all, and
``ref_t_mask_vector`` is the paper's T-masked span vector, the reference for
the package's span-sliced one.  ``ref_target_loss`` is
the teacher-forced loss of a batch padded to its longest target and
``ref_seq2seq_loss`` runs it on the whole batch padded as one group,
``ref_exact_match`` and
``ref_evaluate_probe`` decode evaluation chunks in the order given, and
``ref_optimizer_step`` updates one parameter at a time with per-name moments.
``ref_backward`` is the tape walk from before backward freed interior
gradients: every node it reaches keeps its gradient.  ``ref_tune_threshold``
is threshold tuning from before one call charted every t: one
``build_sci_chart`` per sentence and t.  ``ref_parse_sexpr`` (recursive descent)
and ``ref_delinearize`` (a balanced-prefix scan, a stack parse, then leaf
numbering) are the two tree parsers from before both went through one
reader.
"""

import math

import numpy as np

from spantree import numerics as nm
from spantree import training, treeval, trees
from spantree.encoder import DecoderCache, pad_ids
from spantree.errors import ContractViolation
from spantree.projector import exact_project, t_score
from spantree.spanrep import build_sci_chart
from spantree.training import EVAL_CHUNK


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    """Elementwise |a - n| / max(|a| + |n|, 1e-6), reduced to the max."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def check_grads(build, inputs, h=1e-5, tol=1e-4):
    """Compare backward() against central differences for every input.

    build(*tensors) must return a scalar Tensor.  Each element of ``inputs``
    becomes a named parameter; the numeric route re-runs the forward pass on
    plain constants with one coordinate nudged at a time.
    """
    inputs = [np.array(v, dtype=np.float64) for v in inputs]
    params = {f"p{i}": nm.parameter(v.copy(), name=f"p{i}") for i, v in enumerate(inputs)}
    tensors = list(params.values())
    loss = build(*tensors)
    nm.backward(loss, params)
    worst = 0.0
    for i in range(len(inputs)):
        def f(v, i=i):
            args = [nm.constant(inputs[j] if j != i else v) for j in range(len(inputs))]
            return float(build(*args).value)

        numeric = fd_grad(f, inputs[i], h=h)
        err = rel_err(tensors[i].grad, numeric)
        assert err < tol, f"input {i}: gradient mismatch, max rel err {err:.3e}"
        worst = max(worst, err)
    return worst


def kink_free(rng, shape, low=0.3, high=1.0):
    """Values bounded away from zero so relu kinks stay far from FD probes."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def full_prefix_greedy(model, memory, cross_additive, max_new):
    """Argmax decoding from BOS that reruns ``decoder_logits`` over the whole
    (B, step + 1) prefix of every row on a fresh cache at each step, until
    every row has emitted EOS; each row's tokens before its first EOS."""
    eos = model.vocab.eos
    ys = np.full((memory.shape[0], 1), model.vocab.bos, dtype=np.int64)
    with nm.no_tape():
        for _ in range(min(max_new, model.config.max_len - 1)):
            logits = model.decoder_logits(ys, DecoderCache(model, memory, cross_additive))
            ys = np.concatenate([ys, logits[:, -1:, :].argmax(axis=-1)], axis=1)
            if (ys == eos).any(axis=1).all():
                break
    rows = ys[:, 1:].tolist()
    return [row[: row.index(eos)] if eos in row else row for row in rows]


# ---------------------------------------------------------------------------
# the kernels' earlier expressions, through numpy's Python-level wrappers
# ---------------------------------------------------------------------------


def ref_unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def ref_permute(x, axes, g):
    """Forward value and input gradient of ``permute``."""
    inverse = tuple(np.argsort(axes))
    return np.transpose(x, axes), np.transpose(g, inverse)


def ref_layer_norm(x, gain, bias, g):
    """Forward value and the (x, gain, bias) gradients of ``layer_norm``."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + nm.LN_EPS)
    y = xc * inv
    dgain = ref_unbroadcast(g * y, gain.shape)
    dbias = ref_unbroadcast(g, bias.shape)
    dy = g * gain
    dx = inv * (
        dy
        - dy.mean(axis=-1, keepdims=True)
        - y * (dy * y).mean(axis=-1, keepdims=True)
    )
    return y * gain + bias, (dx, dgain, dbias)


def ref_masked_softmax(scores, additive, g):
    """Forward value and input gradient of ``masked_softmax``."""
    z = scores + additive
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p = p / p.sum(axis=-1, keepdims=True)
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p, p * (g - inner)


def ref_cross_entropy(logits, targets, weights, g):
    """Loss value and logits gradient of ``cross_entropy``."""
    wsum = weights.sum()
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    nll = lse - picked
    p = np.exp(z - lse[..., None])
    p_target = np.take_along_axis(p, targets[..., None], axis=-1)
    np.put_along_axis(p, targets[..., None], p_target - 1.0, axis=-1)
    return (weights * nll).sum() / wsum, p * (weights * (g / wsum))[..., None]


def ref_affine(x, w, b=None):
    """A linear layer as the two tape nodes it used to be; one without a bias
    was one ``matmul`` node."""
    out = nm.matmul(x, w)
    return out if b is None else nm.add(out, b)


def ref_pool(vectors, pooling):
    return vectors.mean(axis=-2) if pooling == "mean" else vectors.sum(axis=-2)


# ---------------------------------------------------------------------------
# attention masks
# ---------------------------------------------------------------------------


def ref_causal_additive(nt, offset):
    """The decoder's causal mask over ``nt`` new queries after ``offset``
    cached positions, as it was spelled before one rule built every mask."""
    return np.triu(np.full((nt, offset + nt), nm.NEG_MASK), k=offset + 1)


def ref_pad_additive(pad):
    """``TransformerModel.memory``'s (B, 1, 1, n) mask of a (B, n) pad map."""
    return np.where(pad, nm.NEG_MASK, 0.0)[:, None, None, :]


def ref_segment_additive(query, key, causal=False):
    """``pack_pairs``' (R, 1, nq, nk) pair mask of per-position pair indices."""
    allow = (query[:, :, None] == key[:, None, :]) | (query[:, :, None] < 0)
    if causal:
        allow &= np.tri(query.shape[1], dtype=bool)
    return np.where(allow, 0.0, nm.NEG_MASK)[:, None]


def ref_t_mask_vector(model, tokens, span, t):
    """The paper's literal context-free span vector: blocks below ``t`` run
    unrestricted over the whole sentence, every block from ``t`` up runs over
    the whole sentence under a T-shaped mask in which the span's rows see
    only the span (other rows stay unrestricted), then the final norm and a
    mean over the span's rows."""
    ids = pad_ids([tokens], model.vocab.pad)
    n = ids.shape[1]
    start, end = span
    allow = np.ones((n, n), dtype=bool)
    allow[start : end + 1] = False
    allow[start : end + 1, start : end + 1] = True
    t_mask_additive = np.where(allow, 0.0, nm.NEG_MASK)[None, None]
    with nm.no_tape():
        x = model.encoder_states_t(ids)[t]
        for i in range(t, model.config.enc_layers):
            x = model.encoder_block(i, x, t_mask_additive)
        final = model.final_norm(x)[0]
    return final[start : end + 1].mean(axis=0)


def ref_tune_threshold(model, examples, mode, samples_per_node=4, seed=0, limit=16):
    """Grid search over t in [0, L-1] that charts the first ``limit``
    examples one ``build_sci_chart`` call per sentence, once per t."""
    best_t, best_val = 0, -math.inf
    for t in range(model.config.enc_layers):
        subset = examples[:limit]
        charts = [build_sci_chart(model, model.vocab.encode(ex.source), t) for ex in subset]
        if mode == "parseval":
            pairs = [
                (exact_project(chart)[0], ex.tree)
                for chart, ex in zip(charts, subset)
                if ex.tree is not None
            ]
            val = treeval.corpus_parseval(pairs)[2]
        else:
            val = t_score(charts, samples_per_node, rng=np.random.default_rng([seed, 31, t]))
        if val > best_val:
            best_t, best_val = t, val
    return best_t


# ---------------------------------------------------------------------------
# the training step's earlier forms
# ---------------------------------------------------------------------------


def ref_target_loss(model, memory, cross_additive, targets):
    """Teacher-forced mean cross-entropy of ``targets`` (ids without
    sentinels) given the memory and mask ``TransformerModel.memory``
    returns.  BOS/EOS are added here, padding is excluded from the loss,
    and the whole prefix runs on a fresh ``DecoderCache``."""
    pad, bos, eos = model.vocab.pad, model.vocab.bos, model.vocab.eos
    tgt_in = pad_ids([[bos, *t] for t in targets], pad)
    tgt_out = pad_ids([[*t, eos] for t in targets], pad)
    weights = (tgt_out != pad).astype(np.float64)
    logits = model.decoder_logits(tgt_in, DecoderCache(model, memory, cross_additive))
    return nm.cross_entropy(logits, tgt_out, weights)


def ref_seq2seq_loss(model, pairs):
    """Teacher-forced loss of the whole batch padded as one group."""
    memory, additive = model.memory(pad_ids([s for s, _ in pairs], model.vocab.pad))
    return ref_target_loss(model, memory, additive, [t for _, t in pairs])


def ref_cut_decode(full, target, eos):
    """A decode run to EOS cut after its first token that differs from
    ``target`` followed by EOS: what decoding against ``target`` returns.
    A decode that never differs (it equals the target, or it ran out of
    steps on a prefix of it) is returned whole."""
    for k, (got, want) in enumerate(zip(full + [eos], target + [eos])):
        if got != want:
            return full[: k + 1]
    return full


def ref_exact_match(model, examples):
    """Exact-match accuracy and every example's greedy decode, decoding
    chunks of ``EVAL_CHUNK`` examples in the order given."""
    vocab = model.vocab
    max_new = max(len(ex.target) for ex in examples) + 2
    decodes = []
    for lo in range(0, len(examples), EVAL_CHUNK):
        batch = examples[lo : lo + EVAL_CHUNK]
        decodes += model.greedy_decode([vocab.encode(ex.source) for ex in batch], max_new)
    correct = sum(out == vocab.encode(ex.target) for out, ex in zip(decodes, examples))
    return correct / len(examples), decodes


def ref_evaluate_probe(probe, encoder, examples):
    """The probe's (precision, recall, F1, repaired, coerced) on held-out
    examples, decoding chunks of ``EVAL_CHUNK`` examples in the order given."""
    max_new = training._bracket_length(examples)
    pairs = []
    repaired_count = coerced_count = 0
    for lo in range(0, len(examples), EVAL_CHUNK):
        batch = examples[lo : lo + EVAL_CHUNK]
        memory, additive = encoder.frozen_memory(
            [encoder.vocab.encode(ex.source) for ex in batch]
        )
        decoded = probe.decode_with_memory(memory, additive, max_new)
        for out, ex in zip(decoded, batch):
            n_leaves = trees.leaf_count(ex.tree)
            tree, repaired, coerced = training.predicted_tree(probe.vocab.decode(out), n_leaves)
            repaired_count += int(repaired)
            coerced_count += int(coerced)
            pairs.append((tree, ex.tree))
    precision, recall, f1 = treeval.corpus_parseval(pairs)
    return precision, recall, f1, repaired_count, coerced_count


def ref_backward(loss, params):
    """``numerics.backward`` keeping every gradient it computes, interior
    nodes' included; ``params`` maps names to tensors."""
    order = nm._topo_order(loss)
    for node in order:
        node.grad = None
    for p in params.values():
        p.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = g
            else:
                parent.grad = parent.grad + g
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.value)


def ref_optimizer_step(params, state, m, v):
    """AdamW one parameter at a time; ``m`` and ``v`` map names to moments
    and are updated in place, ``state`` supplies the schedule and its step
    count is advanced."""
    lr = state.effective_lr()
    t = state.step_count + 1
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.value)
        mo = m.get(name, np.zeros_like(p.value))
        ve = v.get(name, np.zeros_like(p.value))
        mo = nm.ADAM_BETA1 * mo + (1.0 - nm.ADAM_BETA1) * g
        ve = nm.ADAM_BETA2 * ve + (1.0 - nm.ADAM_BETA2) * (g * g)
        m[name] = mo
        v[name] = ve
        m_hat = mo / (1.0 - nm.ADAM_BETA1**t)
        v_hat = ve / (1.0 - nm.ADAM_BETA2**t)
        p.value -= lr * (m_hat / (np.sqrt(v_hat) + nm.ADAM_EPS) + state.weight_decay * p.value)
    state.step_count += 1


def ref_parse_sexpr(text):
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    if not toks:
        raise ContractViolation("empty s-expression")
    pos = 0
    counter = [0]

    def parse():
        nonlocal pos
        if pos >= len(toks):
            raise ContractViolation("s-expression ended early")
        tok = toks[pos]
        pos += 1
        if tok == ")":
            raise ContractViolation(f"unexpected ')' at token {pos - 1}")
        if tok != "(":
            idx = counter[0]
            counter[0] += 1
            return idx
        left = parse()
        right = parse()
        if pos >= len(toks) or toks[pos] != ")":
            raise ContractViolation(f"expected ')' at token {pos}, node is binary")
        pos += 1
        return (left, right)

    tree = parse()
    if pos != len(toks):
        raise ContractViolation(f"trailing tokens after position {pos}")
    return tree


def ref_delinearize(seq):
    repaired = False
    depth = 0
    cut = 0
    for i, tok in enumerate(seq):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                break
        if depth == 0:
            cut = i + 1
    if cut < len(seq):
        repaired = True

    stack = [[]]
    for tok in seq[:cut]:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            group = stack.pop()
            if len(group) == 0:
                repaired = True
                continue
            if len(group) == 1:
                repaired = True
                item = group[0]
            else:
                if len(group) > 2:
                    repaired = True
                item = group[-1]
                for piece in reversed(group[:-1]):
                    item = (piece, item)
            stack[-1].append(item)
        else:
            stack[-1].append(tok)
    forest = stack[0]
    forest.extend(t for t in seq[cut:] if t not in ("(", ")"))
    if not forest:
        return None, True

    shape = forest[-1]
    for piece in reversed(forest[:-1]):
        shape = (piece, shape)
    counter = [0]

    def index(t):
        if isinstance(t, tuple):
            return index(t[0]), index(t[1])
        counter[0] += 1
        return counter[0] - 1

    return index(shape), repaired
