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
states are computed once and every span's tail is run from the cached layer-t
states.  ``context_free_vector`` recomputes that prefix on every call through
the same code path, so the cached chart and a naive per-span rebuild agree
bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .encoder import LayerMask, TransformerModel
from .errors import ContractViolation
from .numerics import Tensor, cosine_distance

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
    if pooling == "mean":
        return vectors.mean(axis=0)
    if pooling == "sum":
        return vectors.sum(axis=0)
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


def _span_tail(
    model: TransformerModel, prefix: Array, span: Span, t: int, pooling: str
) -> Array:
    """Run layers t..L-1 on the span's slice of the cached layer-t states."""
    x = Tensor(prefix[:, span.start : span.end + 1, :])
    zeros = np.zeros((1, 1, span.length, span.length))
    for layer in range(t, model.config.enc_layers):
        x = model.encoder_block(layer, x, zeros)
    x = model.final_norm(x)
    return _pool(x.value[0], pooling)


def _unmasked_prefix(model: TransformerModel, tokens, t: int) -> Array:
    ids = np.asarray(list(tokens), dtype=np.int64)[None, :]
    return model.encoder_states_t(ids, None, upto=t)[-1].value


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
    prefix = _unmasked_prefix(model, tokens, t)
    return _span_tail(model, prefix, span, t, pooling)


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.threshold,
            "checkpoint": self.provenance.get("checkpoint", ""),
            "entries": [
                [i, j, float(self.values[i, j])]
                for i in range(self.n)
                for j in range(i, self.n)
            ],
        }

    def dump_json(self, fh) -> None:
        json.dump(self.to_json_dict(), fh, indent=1)
        fh.write("\n")

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SciChart":
        n = int(payload["n"])
        values = np.zeros((n, n))
        for i, j, sci in payload["entries"]:
            values[int(i), int(j)] = float(sci)
        return cls(
            n=n,
            threshold=int(payload["t"]),
            values=values,
            provenance={"checkpoint": payload.get("checkpoint", "")},
        )


def build_sci_chart(
    model: TransformerModel,
    tokens,
    t: int,
    contextual_mask: LayerMask | None = None,
    pooling: str = "mean",
) -> SciChart:
    """SCI for every span of one sentence, sharing the unrestricted prefix.

    The full per-layer states are computed once; each span's context-free
    tail runs on its slice of the cached layer-t states, so per-span work is
    O((L-t) * |span|^2 * d) rather than a full re-encode.  ``contextual_mask``
    optionally restricts the *contextual* side's encode (used by the
    synthetic two-segment analyses); the context-free side always uses the
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
    if contextual_mask is None:
        raw = model.encoder_states_t(ids, None, upto=layers)
        final = model.final_norm(raw[layers]).value[0]
        prefix = raw[t].value
    else:
        if contextual_mask.n != n or contextual_mask.layers != layers:
            raise ContractViolation(
                f"contextual mask shape ({contextual_mask.n}, {contextual_mask.layers} "
                f"layers) does not fit sentence n={n}, {layers} layers"
            )
        additives = [contextual_mask.additive(i)[None, None] for i in range(layers)]
        final = model.encoder_states_t(ids, additives)[-1].value[0]
        prefix = _unmasked_prefix(model, tokens, t)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            span = Span(i, j)
            contextual = _pool(final[i : j + 1], pooling)
            context_free = _span_tail(model, prefix, span, t, pooling)
            values[i, j] = cosine_distance(contextual, context_free)
    return SciChart(
        n=n,
        threshold=t,
        values=values,
        provenance={"checkpoint": model.tag, "sentence": list(tokens)},
    )

