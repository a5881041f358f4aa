"""Dense float64 kernels with reverse-mode autodiff, plus AdamW.

Everything runs in double precision on C-contiguous numpy arrays; a "matrix"
throughout the package is a 2-d float64 ndarray in row-major order.  Tensors
form a tape: each op records its parents and a vector-Jacobian closure, and
``backward`` replays the tape in reverse topological order.  A tape is pure
given its inputs and is meant to be used from a single thread.

Inference runs inside ``no_tape()``: ops there compute their values from the
same numpy expressions but keep neither parents nor VJP closures, so no
graph outlives the op that built it.  Chart building (``spanrep``),
``TransformerModel.encode``, greedy decoding, masked-token accuracy and the
probe's frozen encoder memory use it; the training loop records as usual.

Attention masking is additive: forbidden logits receive ``NEG_MASK`` before
normalization, which is negative enough that ``exp`` underflows to exactly
0.0, so forbidden positions carry exactly zero probability and contribute
exact zeros downstream.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation

log = logging.getLogger(__name__)

Array = np.ndarray

# Additive mask sentinel.  exp(x) underflows to 0.0 for x < -745, so any
# realistic logit plus this sentinel normalizes to an exact zero.
NEG_MASK = -1.0e30

# Norms below this are treated as degenerate by cosine_distance.
DEGENERATE_NORM = 1e-12

# Variance floor of layer_norm; AdamW moment decay rates and denominator floor.
LN_EPS = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


# Whether new tensors record their parents and VJP; per thread and task.
_taping: ContextVar[bool] = ContextVar("taping", default=True)


@contextmanager
def no_tape():
    """Build tensors without recording them: inside the block every new
    Tensor keeps only its value (no parents, no VJP) and cannot be passed to
    ``backward``.  The previous mode is restored on exit, also on error."""
    token = _taping.set(False)
    try:
        yield
    finally:
        _taping.reset(token)


class Tensor:
    """One tape node: a float64 ndarray plus provenance for backprop.

    Leaf tensors (parameters, constants) have no parents.  ``grad`` is
    populated by ``backward`` and mirrors ``value``'s shape.  A tensor built
    under ``no_tape`` drops its parents and VJP and has ``taped`` False.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name", "taped")

    def __init__(self, value, parents=(), vjp=None, name: str = ""):
        self.value = _f64(value)
        self.grad: Array | None = None
        self.taped = taped = _taping.get()
        self.parents: tuple[Tensor, ...] = tuple(parents) if taped else ()
        # callable(grad_out) -> per-parent grads (None = no flow)
        self.vjp = vjp if taped else None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"


def parameter(value, name: str = "") -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(np.array(value, dtype=np.float64, copy=True), name=name)


def constant(value) -> Tensor:
    """Non-trainable leaf tensor (gradients still flow through, but callers
    simply never read them)."""
    return Tensor(value)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over the tape reachable from ``root``."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params=None) -> None:
    """Populate ``grad`` on every tensor reachable from ``loss``.

    ``loss`` must be scalar.  Gradients left over from earlier passes are
    cleared first (parameters outlive any single graph).  Parameters passed
    in ``params`` (a dict or iterable of tensors) that sit on no path to the
    loss receive an explicit zero gradient so optimizers can iterate
    uniformly.
    """
    if not loss.taped:
        raise ContractViolation("backward: the loss was built under no_tape")
    if loss.value.size != 1:
        raise ContractViolation(
            f"backward requires a scalar loss, got shape {loss.value.shape}"
        )
    param_list = []
    if params is not None:
        param_list = list(params.values() if hasattr(params, "values") else params)
    order = _topo_order(loss)
    for node in order:
        node.grad = None
    for p in param_list:
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
    for p in param_list:
        if p.grad is None:
            p.grad = np.zeros_like(p.value)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` down to ``shape``, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: (..., m, k) @ (..., k, n)."""

    def vjp(g):
        ga = np.matmul(g, b.value.swapaxes(-1, -2))
        gb = np.matmul(a.value.swapaxes(-1, -2), g)
        return _unbroadcast(ga, a.value.shape), _unbroadcast(gb, b.value.shape)

    return Tensor(np.matmul(a.value, b.value), (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    return Tensor(np.maximum(a.value, 0.0), (a,), lambda g: (g * (a.value > 0.0),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return Tensor(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return Tensor(np.transpose(a.value, axes), (a,), lambda g: (np.transpose(g, inverse),))


def total_sum(a: Tensor) -> Tensor:
    return Tensor(
        a.value.sum(), (a,), lambda g: (np.broadcast_to(g, a.value.shape).copy(),)
    )


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = xc * inv

    def vjp(g):
        dgain = _unbroadcast(g * y, gain.value.shape)
        dbias = _unbroadcast(g, bias.value.shape)
        dy = g * gain.value
        dx = inv * (
            dy
            - dy.mean(axis=-1, keepdims=True)
            - y * (dy * y).mean(axis=-1, keepdims=True)
        )
        return dx, dgain, dbias

    return Tensor(y * gain.value + bias.value, (x, gain, bias), vjp)


def masked_softmax(scores: Tensor, additive: Array | float) -> Tensor:
    """Row-wise softmax over the last axis after adding a mask.

    ``additive`` holds 0.0 at permitted positions and NEG_MASK at forbidden
    ones (broadcastable to ``scores``); the scalar 0.0 permits everything.
    Forbidden positions come out with exactly zero probability.  Every row
    must keep a permitted position; the mask builders guarantee it, so it is
    not re-checked here: ``LayerMask`` rejects a fully masked row,
    ``TransformerModel.memory`` an all-pad row, and a causal mask always
    permits the diagonal.
    """
    z = scores.value + additive
    z = z - z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p = p / p.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    return Tensor(p, (scores,), vjp)


def embedding(table: Tensor, ids: Array) -> Tensor:
    """Row gather: ids of any shape index the first axis of ``table``."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.value.shape[0]):
        bad = int(np.flatnonzero((ids < 0) | (ids >= table.value.shape[0]))[0])
        raise ContractViolation(
            f"embedding: id {int(ids.flat[bad])} out of range at flat position {bad}"
        )

    def vjp(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(table.value[ids], (table,), vjp)


def cross_entropy(logits: Tensor, targets: Array, weights: Array | None = None) -> Tensor:
    """Weighted mean cross-entropy from raw logits.

    logits (..., V), targets (...,) int ids, weights (...,) nonnegative.
    Returns a scalar tensor: sum(w * nll) / sum(w).
    """
    targets = np.asarray(targets)
    if weights is None:
        weights = np.ones(targets.shape, dtype=np.float64)
    weights = _f64(weights)
    wsum = weights.sum()
    if not wsum > 0:
        raise ContractViolation("cross_entropy: no positions carry weight")
    z = logits.value - logits.value.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    nll = lse - picked

    def vjp(g):
        p = np.exp(z - lse[..., None])
        p_target = np.take_along_axis(p, targets[..., None], axis=-1)
        np.put_along_axis(p, targets[..., None], p_target - 1.0, axis=-1)
        return (p * (weights * (g / wsum))[..., None],)

    return Tensor((weights * nll).sum() / wsum, (logits,), vjp)


# ---------------------------------------------------------------------------
# cosine distance
# ---------------------------------------------------------------------------

_degenerate_warned = False


def reset_degenerate_warning() -> None:
    """Re-arm the degenerate-norm log line, which is otherwise logged at most
    once per process.  Nothing in the package calls this; tests do, to observe
    the line again."""
    global _degenerate_warned
    _degenerate_warned = False


def cosine_distance(x: Array, y: Array) -> float:
    """1 - x.y / (|x||y|) of two 1-d vectors of one length, clamped to [0, 2].

    Identical inputs return exactly 0.0.  If either norm falls below 1e-12
    the distance is 1.0 by convention (logged once per process).  A NaN or
    infinite entry (any input whose norm is not finite) raises
    ContractViolation rather than yielding a plausible distance.
    """
    global _degenerate_warned
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ContractViolation(
            f"cosine_distance: needs two vectors of one length, got {x.shape} and {y.shape}"
        )
    # the same bits as np.linalg.norm, without its wrapper's per-call cost
    nx = math.sqrt(x.dot(x))
    ny = math.sqrt(y.dot(y))
    if not (math.isfinite(nx) and math.isfinite(ny)):
        raise ContractViolation(f"cosine_distance: non-finite input (norms {nx}, {ny})")
    if nx < DEGENERATE_NORM or ny < DEGENERATE_NORM:
        if not _degenerate_warned:
            log.warning("cosine_distance: near-zero norm, returning 1.0 by convention")
            _degenerate_warned = True
        return 1.0
    if (x == y).all():
        return 0.0
    d = 1.0 - float(x.dot(y)) / (nx * ny)
    return min(2.0, max(0.0, d))


# ---------------------------------------------------------------------------
# AdamW with linear warmup
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """AdamW moments plus schedule bookkeeping.

    The effective learning rate is base_lr * min(1, step_count / warmup_steps)
    <= base_lr: warmup runs linearly from zero, and the very first step (count
    0) applies a zero learning rate; ``warmup_steps`` 0 means no warmup.  The
    learning rate, warmup and weight decay must all be >= 0.
    """

    base_lr: float = 1e-4
    warmup_steps: int = 5000
    weight_decay: float = 0.01
    step_count: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for label, value in (("learning rate", self.base_lr),
                             ("warmup", self.warmup_steps),
                             ("weight decay", self.weight_decay)):
            if not value >= 0:
                raise ContractViolation(f"{label} must be >= 0, got {value}")

    def effective_lr(self) -> float:
        if self.step_count >= self.warmup_steps:
            return self.base_lr
        return self.base_lr * (self.step_count / self.warmup_steps)


def optimizer_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place AdamW update over ``params`` using their ``grad`` fields.

    Decoupled weight decay; moment bias correction uses the 1-indexed step.
    A non-finite gradient aborts, naming the offending parameter.
    """
    lr = state.effective_lr()
    t = state.step_count + 1
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.value)
        if not np.isfinite(g).all():
            raise ContractViolation(f"optimizer_step: non-finite gradient in {name!r}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.value)
            v = np.zeros_like(p.value)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.value -= lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + state.weight_decay * p.value)
    state.step_count += 1
