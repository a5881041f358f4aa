"""Dense float64 kernels with reverse-mode autodiff, plus AdamW.

Everything runs in double precision on C-contiguous numpy arrays; a "matrix"
throughout the package is a 2-d float64 ndarray in row-major order.  Tensors
form a tape: each op records its parents and a vector-Jacobian closure, and
``backward`` replays the tape in reverse topological order.  A tape is pure
given its inputs and is meant to be used from a single thread.  Backward
frees each interior node's gradient as soon as its VJP has consumed it, so
only the leaves' gradients (parameters, constants) outlive it; the parents
and closures stay until the caller drops the loss, which ends the tape.

Inference runs inside ``no_tape()``: there every kernel takes float64
ndarrays (a ``Tensor`` passed in is read through its value) and returns the
plain ndarray its forward computed, so inference builds no ``Tensor``, no
VJP closure and no graph.  On the tape the kernel wraps that same array in a
node with its VJP, so each forward expression is written once and both modes
give the same bits; its operands there are Tensors (``constant`` wraps an
array, and ``backward`` refuses an array it meets on the tape).  Under
``no_tape`` ``constant`` returns the array itself.  Chart building
(``spanrep``), ``TransformerModel.encode``, greedy decoding, masked-token
accuracy and the probe's frozen encoder memory use it; the training loop
records as usual.  A ``Tensor`` is always a tape node.

Kernels cost little beyond their numpy work, since inference calls them on
sentences of a few tokens where Python overhead would dominate.  Reductions
call the ufunc directly (``np.add.reduce``, ``np.maximum.reduce``; a mean
divides by the axis length), which gives the bits of ``ndarray.sum``,
``.max`` and ``.mean`` without numpy's Python-level wrappers; ``permute``
inverts its axes in plain Python and only when backward runs;
``_unbroadcast`` hands back a gradient whose shape already matches, as a
residual add's does; and a ``Tensor`` keeps a float64 ndarray as it is, as
``cosine_distance`` does.  Kernels also write into buffers they allocated,
never an input's, keeping the expressions and their order: ``affine`` adds
its bias into the fresh product, ``layer_norm`` turns its centred copy into
``y`` and its variance into ``inv``, and ``masked_softmax`` skips the add of
the scalar "no mask" 0.0 and normalises in place.
``optimizer_step`` runs AdamW once over all parameters concatenated, with
the per-element expressions of a per-parameter loop and so its bits.

``affine`` makes each of the model's linear layers one tape node with the
bits of ``matmul`` then any bias ``add``, except that its weight gradient
is one GEMM over all leading positions, which moves it by rounding only.

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


_F64 = np.dtype(np.float64)


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------


# Whether kernels record tape nodes; per thread and task.
_taping: ContextVar[bool] = ContextVar("taping", default=True)


@contextmanager
def no_tape():
    """Run kernels without recording them: inside the block every kernel
    returns the plain ndarray of its forward (no Tensor, parents or VJP),
    which ``backward`` refuses.  The previous mode is restored on exit, also
    on error."""
    token = _taping.set(False)
    try:
        yield
    finally:
        _taping.reset(token)


# Whether kernels record tape nodes here: False inside ``no_tape()``.  The
# ContextVar's own getter, so a caller pays no Python frame for it.
taping = _taping.get


class Tensor:
    """One tape node: a float64 ndarray plus what backprop needs.

    Leaf tensors (parameters, constants) have no parents.  ``grad`` is
    populated by ``backward`` and mirrors ``value``'s shape.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name")

    def __init__(self, value, parents=(), vjp=None, name: str = ""):
        # a float64 ndarray is kept as is, without np.asarray's per-call cost
        if type(value) is not np.ndarray or value.dtype is not _F64:
            value = _f64(value)
        self.value = value
        self.grad: Array | None = None
        self.parents: tuple[Tensor, ...] = tuple(parents)
        # callable(grad_out) -> per-parent grads (None = no flow)
        self.vjp = vjp
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag})"


# What a kernel takes and returns: a tape node, or under no_tape a plain array.
Operand = Tensor | Array


def parameter(value, name: str = "") -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(np.array(value, dtype=np.float64, copy=True), name=name)


def constant(value) -> Operand:
    """Non-trainable leaf tensor (gradients still flow through, but callers
    simply never read them); under ``no_tape`` the float64 array itself."""
    return Tensor(value) if _taping.get() else _f64(value)


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
        if type(node) is not Tensor:  # an array a kernel on the tape took as an operand
            raise ContractViolation("backward: a plain array is on the tape; pass it as a constant")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params=None) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``.  An interior
    node's gradient is dropped as soon as its VJP has used it; leaves keep
    theirs.

    ``loss`` must be scalar.  Gradients left over from earlier passes are
    cleared first (parameters outlive any single graph).  Parameters passed
    in ``params`` (a dict or iterable of tensors) that sit on no path to the
    loss receive an explicit zero gradient so optimizers can iterate
    uniformly.
    """
    if type(loss) is not Tensor:
        raise ContractViolation(
            f"backward: the loss is a {type(loss).__name__}, not a Tensor; "
            "kernels under no_tape return plain arrays"
        )
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
        node.grad = None
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
    if g.shape == shape:  # a residual add: nothing was broadcast
        return g
    # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    while g.ndim > len(shape):
        g = np.add.reduce(g, axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = np.add.reduce(g, axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


# Each kernel reads an operand's array as ``x.value if type(x) is Tensor else
# x``, written out rather than called: inference reads tens of thousands of
# operands per chart series, and a helper's frame would cost more than the read.


def add(a: Operand, b: Operand) -> Operand:
    av = a.value if type(a) is Tensor else a
    bv = b.value if type(b) is Tensor else b
    out = av + bv
    if not _taping.get():
        return out
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)))


def sub(a: Operand, b: Operand) -> Operand:
    av = a.value if type(a) is Tensor else a
    bv = b.value if type(b) is Tensor else b
    out = av - bv
    if not _taping.get():
        return out
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape)))


def mul(a: Operand, b: Operand) -> Operand:
    av = a.value if type(a) is Tensor else a
    bv = b.value if type(b) is Tensor else b
    out = av * bv
    if not _taping.get():
        return out
    return Tensor(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)),
    )


def scale(a: Operand, c: float) -> Operand:
    out = (a.value if type(a) is Tensor else a) * c
    if not _taping.get():
        return out
    return Tensor(out, (a,), lambda g: (g * c,))


def matmul(a: Operand, b: Operand) -> Operand:
    """Batched matrix product: (..., m, k) @ (..., k, n)."""
    av = a.value if type(a) is Tensor else a
    bv = b.value if type(b) is Tensor else b
    out = np.matmul(av, bv)
    if not _taping.get():
        return out

    def vjp(g):
        ga = np.matmul(g, bv.swapaxes(-1, -2))
        gb = np.matmul(av.swapaxes(-1, -2), g)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return Tensor(out, (a, b), vjp)


def affine(x: Operand, w: Operand, b: Operand | None = None) -> Operand:
    """A linear layer as one tape node: x (..., k) @ w (k, m) + b (1, m), or x @ w.

    The forward and the input and bias gradients are ``add(matmul(x, w), b)``'s
    expressions, so they keep its bits.  The weight gradient is one GEMM over
    every leading position, x (P, k).T @ g (P, m), in place of one product per
    batch item and a sum over the items: the same sum, rounded in another order.
    """
    xv = x.value if type(x) is Tensor else x
    wv = w.value if type(w) is Tensor else w
    out = np.matmul(xv, wv)
    if b is not None:
        # into the fresh product: the bits of ``+``, one buffer fewer
        out += b.value if type(b) is Tensor else b
    if not _taping.get():
        return out

    def vjp(g):
        k, m = wv.shape
        gx = np.matmul(g, wv.swapaxes(-1, -2))
        gw = xv.reshape(-1, k).T @ g.reshape(-1, m)
        return (gx, gw) if b is None else (gx, gw, _unbroadcast(g, b.value.shape))

    return Tensor(out, (x, w) if b is None else (x, w, b), vjp)


def relu(a: Operand) -> Operand:
    av = a.value if type(a) is Tensor else a
    out = np.maximum(av, 0.0)
    if not _taping.get():
        return out
    return Tensor(out, (a,), lambda g: (g * (av > 0.0),))


def reshape(a: Operand, shape: tuple[int, ...]) -> Operand:
    av = a.value if type(a) is Tensor else a
    out = av.reshape(shape)
    if not _taping.get():
        return out
    return Tensor(out, (a,), lambda g: (g.reshape(av.shape),))


def permute(a: Operand, axes: tuple[int, ...]) -> Operand:
    out = (a.value if type(a) is Tensor else a).transpose(axes)
    if not _taping.get():
        return out

    # the inverse axes are worked out only when backward runs, in plain
    # Python: np.argsort of a few ints costs more in its wrapper than here
    def vjp(g):
        inverse = [0] * len(axes)
        for i, axis in enumerate(axes):
            inverse[axis] = i
        return (g.transpose(inverse),)

    return Tensor(out, (a,), vjp)


def total_sum(a: Operand) -> Operand:
    av = a.value if type(a) is Tensor else a
    out = _f64(av.sum())
    if not _taping.get():
        return out
    return Tensor(out, (a,), lambda g: (np.broadcast_to(g, av.shape).copy(),))


def layer_norm(x: Operand, gain: Operand, bias: Operand) -> Operand:
    """Normalize the last axis to zero mean / unit variance, then affine.
    ``gain`` and ``bias`` broadcast to x's shape."""
    # each mean is np.add.reduce over the last axis divided by its length:
    # the bits of ndarray.mean, without its Python wrapper.  Later passes
    # write into the kernel's own buffers, never an input's: xc becomes y,
    # the variance becomes inv, and the squares' buffer holds the output.
    xv = x.value if type(x) is Tensor else x
    gv = gain.value if type(gain) is Tensor else gain
    bv = bias.value if type(bias) is Tensor else bias
    d = xv.shape[-1]
    mu = np.add.reduce(xv, axis=-1, keepdims=True)
    mu /= d
    xc = xv - mu
    sq = xc * xc
    var = np.add.reduce(sq, axis=-1, keepdims=True)
    var /= d
    var += LN_EPS
    inv = np.divide(1.0, np.sqrt(var, out=var), out=var)
    y = np.multiply(xc, inv, out=xc)
    out = np.multiply(y, gv, out=sq)
    out += bv
    if not _taping.get():
        return out

    def vjp(g):
        dgain = _unbroadcast(g * y, gv.shape)
        dbias = _unbroadcast(g, bv.shape)
        dy = g * gv
        dx = inv * (
            dy
            - np.add.reduce(dy, axis=-1, keepdims=True) / d
            - y * (np.add.reduce(dy * y, axis=-1, keepdims=True) / d)
        )
        return dx, dgain, dbias

    return Tensor(out, (x, gain, bias), vjp)


def masked_softmax(scores: Operand, additive: Array | float) -> Operand:
    """Row-wise softmax over the last axis after adding a mask.

    ``additive`` holds 0.0 at permitted positions and NEG_MASK at forbidden
    ones (broadcastable to ``scores``); the scalar 0.0 permits everything.
    Forbidden positions come out with exactly zero probability.  Every row
    must keep a permitted position; the mask builders guarantee it, so it is
    not re-checked here: ``LayerMask`` rejects a fully masked row,
    ``TransformerModel.memory`` an all-pad row, a causal mask always permits
    the diagonal, and ``pack_pairs``' segment masks let a real query see its
    own pair and a pad query every key.
    """
    # the ufunc reduces ndarray.max and .sum run, without their Python
    # wrappers.  The scalar 0.0 skips its add: x + 0.0 differs from x only
    # in the sign of a zero, which the max subtraction and exp erase.  After
    # the subtraction every pass writes into z, never into scores.
    z = scores.value if type(scores) is Tensor else scores
    if type(additive) is not float or additive != 0.0:
        z = z + additive
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    p = np.exp(z, out=z)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    if not _taping.get():
        return p

    def vjp(g):
        inner = np.add.reduce(g * p, axis=-1, keepdims=True)
        return (p * (g - inner),)

    return Tensor(p, (scores,), vjp)


def embedding(table: Operand, ids: Array) -> Operand:
    """Row gather: ids of any shape index the first axis of ``table``."""
    ids = np.asarray(ids)
    tv = table.value if type(table) is Tensor else table
    rows = tv.shape[0]
    # one reduce checks both ends: a negative id wraps to a huge unsigned one
    if ids.size and np.maximum.reduce(ids.astype(np.uint64), axis=None) >= rows:
        bad = int(np.flatnonzero((ids < 0) | (ids >= rows))[0])
        raise ContractViolation(
            f"embedding: id {int(ids.flat[bad])} out of range at flat position {bad}"
        )
    out = tv[ids]
    if not _taping.get():
        return out

    def vjp(g):
        gt = np.zeros_like(tv)
        np.add.at(gt, ids, g)
        return (gt,)

    return Tensor(out, (table,), vjp)


def cross_entropy(logits: Operand, targets: Array, weights: Array | None = None) -> Operand:
    """Weighted mean cross-entropy from raw logits.

    logits (..., V), targets (...,) int ids, weights (...,) nonnegative.
    Returns a scalar: sum(w * nll) / sum(w).
    """
    targets = np.asarray(targets)
    if weights is None:
        weights = np.ones(targets.shape, dtype=np.float64)
    weights = _f64(weights)
    # the ufunc reduces behind ndarray.sum and .max, without their wrappers
    wsum = np.add.reduce(weights, axis=None)
    if not wsum > 0:
        raise ContractViolation("cross_entropy: no positions carry weight")
    lv = logits.value if type(logits) is Tensor else logits
    z = lv - np.maximum.reduce(lv, axis=-1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(z), axis=-1))
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    nll = lse - picked
    out = _f64(np.add.reduce(weights * nll, axis=None) / wsum)
    if not _taping.get():
        return out

    def vjp(g):
        p = np.exp(z - lse[..., None])
        p_target = np.take_along_axis(p, targets[..., None], axis=-1)
        np.put_along_axis(p, targets[..., None], p_target - 1.0, axis=-1)
        return (p * (weights * (g / wsum))[..., None],)

    return Tensor(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# cosine distance
# ---------------------------------------------------------------------------

_degenerate_warned = False

# For x == y of n entries, x.dot(y) and nx * ny both lie within (n + 2)
# roundings of x.x, whatever order the dot product sums in, so |d| stays
# below (n + 2) * eps; this is eight times that per entry.
_SAME_ULPS = 8 * float(np.finfo(np.float64).eps)


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
    # a float64 ndarray is kept as is, without np.asarray's per-call cost
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = _f64(x)
    if type(y) is not np.ndarray or y.dtype is not _F64:
        y = _f64(y)
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
    d = 1.0 - float(x.dot(y)) / (nx * ny)
    # identical inputs leave d within rounding of 0, so only a d that close
    # needs the element-wise test
    if abs(d) <= (x.shape[0] + 2) * _SAME_ULPS and (x == y).all():
        return 0.0
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
    learning rate, warmup and weight decay must all be finite and >= 0 (an
    infinite rate times that zero is NaN).  ``m`` and ``v`` are flat: every
    parameter's moments, raveled and concatenated in the order of the params
    dict; they are empty until the first step.
    """

    base_lr: float = 1e-4
    warmup_steps: int = 5000
    weight_decay: float = 0.01
    step_count: int = 0
    m: Array = field(default_factory=lambda: np.zeros(0))
    v: Array = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        for label, value in (("learning rate", self.base_lr),
                             ("warmup", self.warmup_steps),
                             ("weight decay", self.weight_decay)):
            if not 0 <= value < math.inf:
                raise ContractViolation(f"{label} must be finite and >= 0, got {value}")

    def effective_lr(self) -> float:
        if self.step_count >= self.warmup_steps:
            return self.base_lr
        return self.base_lr * (self.step_count / self.warmup_steps)


def optimizer_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One in-place AdamW update over ``params`` using their ``grad`` fields.

    Decoupled weight decay; moment bias correction uses the 1-indexed step.
    The update runs once over every parameter at the same time: gradients
    (None counts as zeros) and values are concatenated in dict order, the
    per-element AdamW expressions run on the flat arrays, and each parameter
    subtracts its own slice in place.  Elementwise arithmetic does not depend
    on the layout, so the bits equal a per-parameter loop's.  A non-finite
    gradient refuses the whole step before anything is written, naming the
    first offending parameter in dict order.
    """
    tensors = list(params.values())
    g = np.concatenate([
        (np.zeros(p.value.size) if p.grad is None else p.grad.ravel()) for p in tensors
    ])
    if not np.isfinite(g).all():
        bad = next(name for name, p in params.items()
                   if p.grad is not None and not np.isfinite(p.grad).all())
        raise ContractViolation(f"optimizer_step: non-finite gradient in {bad!r}")
    if state.m.size == 0:
        state.m = np.zeros_like(g)
        state.v = np.zeros_like(g)
    elif state.m.size != g.size:
        raise ContractViolation(
            f"optimizer_step: {g.size} parameter values, but moments for {state.m.size}"
        )
    w = np.concatenate([p.value.ravel() for p in tensors])
    lr = state.effective_lr()
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * (g * g)
    state.m = m
    state.v = v
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    update = lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + state.weight_decay * w)
    start = 0
    for p in tensors:
        stop = start + p.value.size
        p.value -= update[start:stop].reshape(p.value.shape)
        start = stop
    state.step_count += 1
