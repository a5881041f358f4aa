"""Shared test utilities: finite-difference gradient checking and a
full-prefix greedy decoder.

The FD harness is deliberately independent of the autodiff engine: it only
calls forward passes on fresh graphs, so agreement with backward() is a real
two-route check, not a tautology.  The decoder is the oracle for the
package's incremental one: it recomputes every row's whole prefix at every
step, finished rows included, and shares no cache with it.
"""

import numpy as np

from spantree import numerics as nm


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
    (B, step + 1) prefix of every row at each step, until every row has
    emitted EOS; each row's tokens before its first EOS."""
    eos = model.vocab.eos
    ys = np.full((memory.value.shape[0], 1), model.vocab.bos, dtype=np.int64)
    with nm.no_tape():
        for _ in range(min(max_new, model.config.max_len - 1)):
            logits = model.decoder_logits(ys, memory, cross_additive)
            ys = np.concatenate([ys, logits.value[:, -1:, :].argmax(axis=-1)], axis=1)
            if (ys == eos).any(axis=1).all():
                break
    rows = ys[:, 1:].tolist()
    return [row[: row.index(eos)] if eos in row else row for row in rows]
