"""Span representations and span-contextual-invariance (SCI) charts.

A span's *contextual* vector pools its tokens' final-layer states from an
ordinary full-sentence encode.  Its *context-free* vector comes from the same
model with a T-shaped restriction: layers below a threshold ``t`` run
unrestricted over the whole sentence; from layer ``t`` upward only the span's
positions are evaluated, attending within the span.  SCI is the cosine
distance between the two vectors — near zero when context barely shapes the
span's representation.

Because the restricted part of the computation touches only span positions,
a sentence's charts share one unrestricted prefix: the full per-layer states
are computed once, and they serve the contextual side and every threshold.
The spans of each length k are gathered from the cached layer-t states into
one (spans, k, d) stack whose tails run in a single pass.
``build_sci_chart`` stacks one sentence's n-k+1 spans, so a chart at t < L
runs n - 1 passes rather than one per span; ``build_sci_charts`` stacks the
length-k spans of many sentences, one pass per (t, k).  A span's tail reads
only its own rows, so its bits do not depend on which spans share its stack.
``context_free_vector`` recomputes that prefix on every call and runs the
same tail function on a stack of one, so the chart and a naive per-span
rebuild agree bit-for-bit.  Both run under ``no_tape``, where the encoder's
kernels take and return plain arrays: a tail stack goes in as the gathered
ndarray, and no ``Tensor`` is built.  The paper's literal form, a full-length
encode under a T-shaped attention mask, is kept as the test reference
``tests/helpers.ref_t_mask_vector``.

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
from .numerics import DEGENERATE_NORM, cosine_distance, no_tape

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
    within itself; run under ``no_tape``."""
    for layer in range(t, model.config.enc_layers):
        stack = model.encoder_block(layer, stack, 0.0)
    return model.final_norm(stack)


def _check_threshold(t: int, layers: int) -> None:
    if not 0 <= t <= layers:
        raise ContractViolation(f"threshold {t} outside [0, {layers}]")


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
    _check_threshold(t, model.config.enc_layers)
    with no_tape():
        prefix = model.encoder_states_t(ids, None)[t]
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


def _charts(model, raws, finals, thresholds, pooling) -> dict[int, list[SciChart]]:
    """Each threshold's charts of the sentences whose unrestricted per-layer
    states are ``raws``.  ``finals`` are the contextual side's (n, d) final
    states, or None to read them off ``raws``; then a span whose context-free
    side is its contextual side runs no tail."""
    layers = model.config.enc_layers
    own = finals is None
    if own:
        finals = [model.final_norm(raw[layers])[0] for raw in raws]
    lengths = [final.shape[0] for final in finals]
    values = {t: [np.zeros((n, n)) for n in lengths] for t in thresholds}
    for k in range(1, max(lengths) + 1):
        # (sentence, length-k windows, contextual vectors), pooled once for every t
        spans = []
        for s, n in enumerate(lengths):
            if n >= k:
                w = np.arange(n - k + 1)[:, None] + np.arange(k)
                spans.append((s, w, _pool(finals[s][w], pooling)))
        for t in thresholds:
            tails = []
            for s, w, contextual in spans:
                if own and (t == layers or lengths[s] == k):
                    values[t][s][w[:, 0], w[:, -1]] = _self_distances(contextual)
                else:
                    tails.append((s, w, contextual))
            if not tails:
                continue
            parts = [raws[s][t][0][w] for s, w, _ in tails]
            stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
            free = _pool(_span_tails(model, stack, t), pooling)
            end = 0
            for s, w, contextual in tails:
                rows, end = free[end : end + len(w)], end + len(w)
                values[t][s][w[:, 0], w[:, -1]] = [
                    cosine_distance(c, f) for c, f in zip(contextual, rows)
                ]
    return {
        t: [SciChart(n=n, threshold=t, values=v) for n, v in zip(lengths, values[t])]
        for t in thresholds
    }


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
    than a full re-encode.  Without ``contextual_mask``, a span whose
    context-free side is its contextual side (every span at t = L, the whole
    sentence at every t) runs no tail and its entry is read off the
    contextual side (see the module docstring), so a chart at t < L runs
    n - 1 tail stacks.  ``contextual_mask`` optionally restricts the
    *contextual* side's encode (used by the synthetic two-segment analyses);
    the context-free side always uses the unrestricted prefix, and then every
    span, the whole sentence too, runs its tail.  ``build_sci_charts`` runs
    the same tails for many sentences and thresholds at once.
    """
    ids = pad_ids([tokens], model.vocab.pad)
    _check_threshold(t, model.config.enc_layers)
    with no_tape():
        raw = model.encoder_states_t(ids, None)
        finals = None
        if contextual_mask is not None:
            finals = [model.encode(tokens, contextual_mask)[-1]]
        return _charts(model, [raw], finals, (t,), pooling)[t][0]


def build_sci_charts(
    model: TransformerModel,
    sentences,
    thresholds,
    pooling: str = "mean",
) -> dict[int, list[SciChart]]:
    """Each threshold's charts of ``sentences``, in sentence order; each chart
    has the bits of ``build_sci_chart`` on its sentence alone.

    One unrestricted encode per sentence serves its contextual side and every
    threshold's prefix, and for each (t, k) one tail stack holds the length-k
    spans of every sentence that needs a tail.  Sentences are never padded
    into one encode: padding would change the bits.  Every sentence's
    per-layer states are held at once.
    """
    batches = [pad_ids([tokens], model.vocab.pad) for tokens in sentences]
    thresholds = list(dict.fromkeys(thresholds))
    if not batches:
        raise ContractViolation("build_sci_charts: no sentences")
    if not thresholds:
        raise ContractViolation("build_sci_charts: no thresholds")
    for t in thresholds:
        _check_threshold(t, model.config.enc_layers)
    with no_tape():
        raws = [model.encoder_states_t(ids, None) for ids in batches]
        return _charts(model, raws, None, thresholds, pooling)
