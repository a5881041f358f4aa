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
single pass, n passes per chart rather than one per span.
``context_free_vector`` recomputes that prefix on every call and runs the
same tail function on a stack of one, so the chart and a naive per-span
rebuild agree bit-for-bit.  Both run under ``no_tape``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .encoder import LayerMask, TransformerModel
from .errors import ContractViolation
from .numerics import Tensor, cosine_distance, no_tape

Array = np.ndarray

POOLINGS = ("mean", "sum")


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
    (spans, k, d) -> (spans, d) with each row pooled as on its own."""
    if pooling == "mean":
        return vectors.mean(axis=-2)
    if pooling == "sum":
        return vectors.sum(axis=-2)
    raise ContractViolation(f"unknown pooling {pooling!r}; expected one of {POOLINGS}")


def build_t_mask(span, t: int, n: int, layers: int) -> LayerMask:
    """Attention permissions that cut the span off from context at layer t.

    Layers below ``t`` are unrestricted.  At layers >= t the span's rows may
    attend only within the span; rows outside the span stay unrestricted
    (their states are irrelevant to the span, which can no longer see them).
    """
    span = _as_span(span, n)
    if not 0 <= t <= layers:
        raise ContractViolation(f"threshold {t} outside [0, {layers}]")
    allow = []
    for layer in range(layers):
        a = np.ones((n, n), dtype=bool)
        if layer >= t:
            a[span.start : span.end + 1, :] = False
            a[span.start : span.end + 1, span.start : span.end + 1] = True
        allow.append(a)
    return LayerMask(allow)


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
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        raise ContractViolation("cannot encode an empty sentence")
    span = _as_span(span, n)
    if not 0 <= t <= model.config.enc_layers:
        raise ContractViolation(f"threshold {t} outside [0, {model.config.enc_layers}]")
    ids = np.asarray(tokens, dtype=np.int64)[None, :]
    with no_tape():
        prefix = model.encoder_states_t(ids, None, upto=t)[-1].value
        tail = _span_tails(model, prefix[:, span.start : span.end + 1], t)
    return _pool(tail, pooling)[0]


@dataclass
class SciChart:
    """Upper-triangular span chart: values[i, j] = SCI of span (i, j)."""

    n: int
    threshold: int
    values: Array
    provenance: dict = field(default_factory=dict)

    def sci(self, i: int, j: int) -> float:
        span = _as_span((i, j), self.n)
        return float(self.values[span.start, span.end])

    def spans(self):
        for i in range(self.n):
            for j in range(i, self.n):
                yield Span(i, j)


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
    than a full re-encode, in n tail passes.  ``contextual_mask`` optionally
    restricts the *contextual* side's encode (used by the synthetic
    two-segment analyses); the context-free side always uses the
    unrestricted prefix.
    """
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        raise ContractViolation("cannot build a chart for an empty sentence")
    layers = model.config.enc_layers
    if not 0 <= t <= layers:
        raise ContractViolation(f"threshold {t} outside [0, {layers}]")
    ids = np.asarray(tokens, dtype=np.int64)[None, :]
    values = np.zeros((n, n))
    with no_tape():
        raw = model.encoder_states_t(ids, None, upto=layers)
        prefix = raw[t].value[0]
        if contextual_mask is None:
            final = model.final_norm(raw[layers]).value[0]
        else:
            final = model.encode(tokens, contextual_mask)[-1]
        for k in range(1, n + 1):
            windows = np.arange(n - k + 1)[:, None] + np.arange(k)
            contextual = _pool(final[windows], pooling)
            context_free = _pool(_span_tails(model, prefix[windows], t), pooling)
            for i in range(n - k + 1):
                values[i, i + k - 1] = cosine_distance(contextual[i], context_free[i])
    return SciChart(
        n=n,
        threshold=t,
        values=values,
        provenance={"checkpoint": model.tag, "sentence": list(tokens)},
    )

