"""Span representations and span-contextual-invariance (SCI) charts.

A span's *contextual* vector pools its tokens' final-layer states from an
ordinary full-sentence encode.  Its *context-free* vector comes from the same
model with a T-shaped restriction: layers below a threshold ``t`` run
unrestricted over the whole sentence; from layer ``t`` upward only the span's
positions are evaluated, attending within the span.  SCI is the cosine
distance between the two vectors — near zero when context barely shapes the
span's representation.

Because the restricted part of the computation touches only span positions,
a sentence's whole chart shares one unrestricted prefix: the full per-layer
states are computed once, and the spans of each length k are gathered from
the cached layer-t states into one (n-k+1, k, d) stack whose tails run in a
single pass, n - 1 passes per chart at t < L rather than one per span.
``context_free_vector`` recomputes that prefix on every call and runs the
same tail function on a stack of one, so the chart and a naive per-span
rebuild agree bit-for-bit.  Both run under ``no_tape``.  The paper's literal
form, a full-length encode under a T-shaped attention mask, is kept as the
test reference ``tests/helpers.ref_t_mask_vector``.

With no contextual mask, a span whose context-free side is its contextual
side runs no tail: its entry is ``cosine_distance(v, v)``, that is 0.0, or
1.0 for a near-zero norm, or a ContractViolation for a non-finite v, and a
row-wise norm settles the plain rows and ``cosine_distance`` the rest.  That
holds for every span at t = L, where the tail runs no layer, only the final
norm; and for the whole sentence at every t, whose tail runs the unrestricted
pass's own blocks on its own layer-t states, so the chart's one pass already
holds its context-free vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .encoder import LayerMask, TransformerModel, pad_ids
from .errors import ContractViolation
from .numerics import DEGENERATE_NORM, Tensor, cosine_distance, no_tape

Array = np.ndarray

POOLINGS = ("mean", "sum")

# Rows read off the contextual side whose row-wise norm lies below this many
# times DEGENERATE_NORM go through cosine_distance itself.
_NEAR_DEGENERATE = 4.0


class Span(NamedTuple):
    """Inclusive token range [start, end] within a sentence."""

    start: int
    end: int

    def validate(self, n: int) -> "Span":
        if not 0 <= self.start <= self.end < n:
            raise ContractViolation(
                f"span ({self.start}, {self.end}) out of range for n={n}"
            )
        return self

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def _as_span(span, n: int) -> Span:
    if not isinstance(span, Span):
        span = Span(int(span[0]), int(span[1]))
    return span.validate(n)


def _pool(vectors: Array, pooling: str) -> Array:
    """Pool over the token axis, the second to last: (k, d) -> (d,), or
    (spans, k, d) -> (spans, d) with each row pooled as on its own.  The
    ufunc reduce and the divide by k give ndarray.mean's and .sum's bits
    without their Python wrappers."""
    if pooling == "mean":
        return np.add.reduce(vectors, axis=-2) / vectors.shape[-2]
    if pooling == "sum":
        return np.add.reduce(vectors, axis=-2)
    raise ContractViolation(f"unknown pooling {pooling!r}; expected one of {POOLINGS}")


def contextual_span_vector(states, span, pooling: str = "mean") -> Array:
    """Pool the span's final-layer vectors from an unmasked encode."""
    final = np.asarray(states[-1])
    span = _as_span(span, final.shape[0])
    return _pool(final[span.start : span.end + 1], pooling)


def _span_tails(model: TransformerModel, stack: Array, t: int) -> Array:
    """Final states of a (spans, k, d) stack of equal-length spans' layer-t
    states after layers t..L-1 and the final norm, each span attending only
    within itself."""
    x = Tensor(stack)
    for layer in range(t, model.config.enc_layers):
        x = model.encoder_block(layer, x, 0.0)
    return model.final_norm(x).value


def context_free_vector(
    model: TransformerModel, tokens, span, t: int, pooling: str = "mean"
) -> Array:
    """Span vector with context cut off from layer t upward.

    Layers below t run unrestricted over the whole sentence; above the cut
    only the span's positions are evaluated (within-span attention), keeping
    their original absolute positions.  t=0 is fully context-free; t=L equals
    the contextual vector.
    """
    ids = pad_ids([tokens], model.vocab.pad)
    span = _as_span(span, ids.shape[1])
    if not 0 <= t <= model.config.enc_layers:
        raise ContractViolation(f"threshold {t} outside [0, {model.config.enc_layers}]")
    with no_tape():
        prefix = model.encoder_states_t(ids, None)[t].value
        tail = _span_tails(model, prefix[:, span.start : span.end + 1], t)
    return _pool(tail, pooling)[0]


@dataclass
class SciChart:
    """Upper-triangular span chart of one sentence: values[i, j] = SCI of
    span (i, j) at threshold ``threshold``.  It holds no checkpoint path or
    token ids; the caller that built it already has both."""

    n: int
    threshold: int
    values: Array

    def sci(self, i: int, j: int) -> float:
        span = _as_span((i, j), self.n)
        return float(self.values[span.start, span.end])

    def spans(self):
        for i in range(self.n):
            for j in range(i, self.n):
                yield Span(i, j)


def _self_distances(vectors: Array) -> Array:
    """``cosine_distance(v, v)`` for each row v of ``vectors``: 0.0, except
    1.0 for a norm below ``DEGENERATE_NORM`` and a ContractViolation for a
    non-finite row.  A row whose row-wise norm is finite and at least
    ``_NEAR_DEGENERATE`` times the cut reads 0.0; ``cosine_distance`` itself
    decides the others, so rounding in the row-wise sum, which is not
    ``x.dot(x)``'s, cannot move a row across the cut."""
    out = np.zeros(vectors.shape[0])
    norms = np.sqrt(np.add.reduce(vectors * vectors, axis=-1))
    clear = (norms >= _NEAR_DEGENERATE * DEGENERATE_NORM) & (norms < np.inf)
    for i in np.flatnonzero(~clear):
        out[i] = cosine_distance(vectors[i], vectors[i])
    return out


def build_sci_chart(
    model: TransformerModel,
    tokens,
    t: int,
    contextual_mask: LayerMask | None = None,
    pooling: str = "mean",
) -> SciChart:
    """SCI for every span of one sentence, sharing the unrestricted prefix.

    The full per-layer states are computed once; for each length k the
    context-free tails of all n-k+1 spans run as one stack gathered from the
    cached layer-t states, so per-span work is O((L-t) * |span|^2 * d) rather
    than a full re-encode, in n - 1 tail passes.  Without
    ``contextual_mask``, a span whose context-free side is its contextual
    side (every span at t = L, the whole sentence at every t) runs no tail
    and its entry is read off the contextual side (see the module
    docstring).  ``contextual_mask`` optionally restricts the *contextual*
    side's encode (used by the synthetic two-segment analyses); the
    context-free side always uses the unrestricted prefix, and then every
    span, the whole sentence too, runs its tail.
    """
    ids = pad_ids([tokens], model.vocab.pad)
    n = ids.shape[1]
    layers = model.config.enc_layers
    if not 0 <= t <= layers:
        raise ContractViolation(f"threshold {t} outside [0, {layers}]")
    values = np.zeros((n, n))
    with no_tape():
        raw = model.encoder_states_t(ids, None)
        prefix = raw[t].value[0]
        if contextual_mask is None:
            final = model.final_norm(raw[layers]).value[0]
        else:
            final = model.encode(tokens, contextual_mask)[-1]
        for k in range(1, n + 1):
            starts = np.arange(n - k + 1)
            windows = starts[:, None] + np.arange(k)
            contextual = _pool(final[windows], pooling)
            if contextual_mask is None and (t == layers or k == n):
                values[starts, starts + k - 1] = _self_distances(contextual)
                continue
            context_free = _pool(_span_tails(model, prefix[windows], t), pooling)
            values[starts, starts + k - 1] = [
                cosine_distance(c, f) for c, f in zip(contextual, context_free)
            ]
    return SciChart(n=n, threshold=t, values=values)

