"""The model's array layers and reverse rules, and the small tape the
estimators record on.

The tape holds float64 :class:`Tensor` values; scalars are shape-() arrays.
A graph is recorded on the active :class:`Tape` (one per training example,
discarded after backward). Operations called while no tape is active
compute values only. The program needs few ops on it: the model's forward
runs on plain arrays (:func:`gru_values`, :func:`attention_values`), and a
scored pass is recorded as a single :func:`node` whose reverse rule runs
backpropagation through time with :func:`gru_grads`,
:func:`attention_grads` and :func:`step_sum`; :func:`log_likelihood`
scores token sequences on top of it, and objectives combine scores with
``add`` and ``neg``. The only broadcasting is scalar-with-tensor. The
elementary ops the tests rebuild the model from (matmul, softmax,
embedding rows, ...) live beside those tests and record on this tape.

A backward pass returns one gradient vector: the parameters' entries one
after another, in their mapping's order, which :func:`split` names. The
scored pass's node writes each weight gradient straight into its view of
that vector (``step_sum(..., out=)``), so nothing is copied.

The reverse pass sums every gradient in the order a tape of one node per
GRU step, attention and output layer did: steps from last to first.
Floating-point addition is not associative, so another order changes the
last bits of every gradient and every trained model: a deliberate change of
numerics, not a refactor. The loop through time therefore computes only the
recurrent chain (state gradients and per-step deltas), and each weight
gradient is then one :func:`step_sum` over the stacked steps. That is
numpy's ``einsum`` without ``optimize``, with the step axis outermost and
walked last step first, each step's rounded product added into the output
in turn, which is the tape's order exactly. :func:`step_sum` hands it the
steps reversed, with one operand of positive and one of negative stride
along them: a reversed copy of the terms and a reversed view of the inputs
or, for a plain sum, a reversed view of the terms and a vector of ones
(multiplying by one is exact). Four things break the order. A BLAS GEMM
(``@``, ``tensordot``, ``einsum(..., optimize=True)``) splits and reorders
the sum over steps. ``np.add.reduce`` over the step axis sums pairwise.
Operands whose step strides are all negative are flipped to memory order
when ``einsum`` writes into a given ``out``, which sums first step first.
And a step axis that is innermost and contiguous (a Fortran-ordered stack,
or the reversed copy when the output has one entry) lets ``einsum``'s
reduction loop keep several partial sums. The one difference from a
per-step loop is the sign of zero: ``einsum`` starts from +0.0, so an entry
whose terms are all -0.0 reads +0.0, which compares equal.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "parameter",
    "split",
    "node",
    "add",
    "neg",
    "log_likelihood",
    "gru_values",
    "step_sum",
    "gru_grads",
    "attention_values",
    "attention_grads",
]


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


class Tensor:
    """A node in the computation graph: a float64 array plus a gradient slot.

    Leaf tensors (parameters, constants) have no backward rule. Interior
    nodes carry a closure that scatters the incoming gradient to their
    parents' ``grad`` accumulators.
    """

    __slots__ = ("data", "grad", "name", "_backward")

    def __init__(self, data, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.name = name
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"


_state = threading.local()


def _active_tape():
    return getattr(_state, "tape", None)


class Tape:
    """Ordered record of operations; creation order is a topological order."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        self._outer = _active_tape()
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = self._outer
        return False

    def backward(self, root, params, out=None):
        """Backpropagate from a scalar ``root``; return the gradient of the
        parameters ``params`` (name -> leaf Tensor) as one vector laid out
        as :func:`split` names it, written into ``out`` when given. Those
        the root does not depend on get zeros. Gradients on the tape and
        on the parameters are cleared first, so repeated calls on one tape
        (e.g. for two roots sharing subgraphs) are independent.

        The first :func:`node` to run its reverse rule writes every entry
        of that vector; with none, it starts from zeros. The elementary
        ops' gradients, collected on the parameters, are added to it last.
        """
        if root.data.shape != ():
            raise ValueError(
                f"backward root must be a scalar, got shape {root.data.shape}"
            )
        for node in self.nodes:
            node.grad = None
        for p in params.values():
            p.grad = None
        grad = np.empty(sum(p.data.size for p in params.values())) \
            if out is None else out
        self._params, self._grad, self._written = params, grad, False
        _state.reverse = self
        root.grad = np.ones(())
        try:
            for node in reversed(self.nodes):
                if node.grad is not None and node._backward is not None:
                    node._backward(node.grad)
        finally:
            _state.reverse = self._params = self._grad = None
        if not self._written:
            grad.fill(0.0)
        if any(p.grad is not None for p in params.values()):
            for view, p in zip(split(grad, params).values(), params.values()):
                if p.grad is not None:
                    view += p.grad
                    p.grad = None
        return grad

    def _write(self, backward, g):
        """Run a node's reverse rule ``backward(g, out)``, which writes
        every parameter's gradient into ``out``, named views of a vector:
        the vector being built for the first node, a new one added to it
        for each later node."""
        if not self._written:
            self._written = True
            backward(g, split(self._grad, self._params))
        else:
            extra = np.empty_like(self._grad)
            backward(g, split(extra, self._params))
            self._grad += extra


def parameter(name, data):
    """Named leaf tensor; gradients are collected for it by ``backward``."""
    return Tensor(data, name=name)


def split(vector, like):
    """Named views of ``vector``: the entries of each array or tensor of
    ``like`` (name -> anything with a ``shape``) in turn, in the mapping's
    order."""
    views, start = {}, 0
    for name, t in like.items():
        stop = start + math.prod(t.shape)
        views[name] = vector[start:stop].reshape(t.shape)
        start = stop
    return views


def _as_tensor(x):
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _accum(t, g):
    if t.grad is None:
        t.grad = np.array(g)  # copy: g may view a buffer someone else owns
    else:
        t.grad += g


def _make(data, backward):
    out = Tensor(data)
    tape = _active_tape()
    if tape is not None:
        out._backward = backward
        tape.nodes.append(out)
    return out


def _reduce_to(g, shape):
    # Only scalar-with-tensor broadcasting exists, so the sole reduction is
    # summing a full gradient down to a scalar operand.
    if shape == () and g.shape != ():
        return g.sum()
    return g


def _check_binary_shapes(op, a, b):
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def _sigmoid_values(x):
    # tanh form: numerically stable and a single ufunc call
    return 0.5 * np.tanh(0.5 * x) + 0.5


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes("add", a, b)

    def backward(g):
        _accum(a, _reduce_to(g, a.shape))
        _accum(b, _reduce_to(g, b.shape))

    return _make(a.data + b.data, backward)


def neg(a):
    a = _as_tensor(a)

    def backward(g):
        _accum(a, -g)

    return _make(-a.data, backward)


def log_likelihood(logits, tokens, negated_step=0):
    """Sum over steps t of ``log softmax(l_t)[tokens[t]]``, where ``l_t`` is
    row t of the logits [T, V], or its negation at the 1-based step
    ``negated_step``. The step terms are added first to last; one node."""
    logits = _as_tensor(logits)
    data = logits.data
    if data.ndim != 2 or data.shape[0] != len(tokens):
        raise ShapeError(f"log_likelihood: {len(tokens)} tokens for logits "
                         f"of shape {data.shape}")
    tokens = [int(tok) for tok in tokens]
    if tokens and not 0 <= min(tokens) <= max(tokens) < data.shape[1]:
        raise IndexError(f"log_likelihood: token out of range for "
                         f"{data.shape[1]} logits")
    total = None
    probs = []
    for t, tok in enumerate(tokens):
        l = -data[t] if negated_step == t + 1 else data[t]
        m = l.max()
        ex = np.exp(l - m)
        s = ex.sum()
        term = l[tok] - (m + np.log(s))
        total = term if total is None else total + term
        probs.append(ex / s)

    def backward(g):
        d = np.empty_like(data)
        for t, (tok, p) in enumerate(zip(tokens, probs)):
            dl = (-g) * p
            dl[tok] += g
            d[t] = -dl if negated_step == t + 1 else dl
        _accum(logits, d)

    return _make(total, backward)


def node(data, backward):
    """Record a node whose reverse rule is written outside this module:
    ``backward(g, out)`` writes the gradient of every parameter into
    ``out``, named views of a gradient vector, every entry of it (see
    :meth:`Tape.backward`)."""
    return _make(data, lambda g: _state.reverse._write(backward, g))


# ---------------------------------------------------------------------------
# The model's layers on plain arrays: forward values and, for one row, their
# reverse rules. Leading axes are batch axes; a weight product is one
# ``x @ W.T`` over all rows: one matrix-vector call for a batch of one, as in
# training, and one GEMM for a corpus batch, whose rows then equal the
# single-row values to rounding, not bit for bit.
# ---------------------------------------------------------------------------


def gru_values(x, h, wz, uz, bz, wr, ur, br, wh, uh, bh):
    """The GRU transition ``z = sig(Wz x + Uz h + bz)``, ``r = sig(Wr x +
    Ur h + br)``, ``c = tanh(Wh x + Uh (r*h) + bh)``, ``h' = (1-z)*h +
    z*c``; returns the new state and the intermediates ``(h', z, r, r*h,
    c)``."""
    z = _sigmoid_values(x @ wz.T + h @ uz.T + bz)
    r = _sigmoid_values(x @ wr.T + h @ ur.T + br)
    rh = r * h
    c = np.tanh(x @ wh.T + rh @ uh.T + bh)
    return (1.0 - z) * h + z * c, z, r, rh, c


def step_sum(terms, inputs=None, out=None):
    """Sum over the leading step axis of ``terms`` [T, ...] or, given
    ``inputs`` [T, J], of the outer products ``terms[t] x inputs[t]``: one
    rounded term per step added into the sum, from the last step to the
    first, written into ``out`` when given. Equals the loop ``acc +=
    terms[t][:, None] * inputs[t]`` for t = T-1, ..., 0 bit for bit, up to
    the sign of an all-zero entry; the module docstring says why the order
    holds."""
    if inputs is None:
        return np.einsum("t...,t->...", np.ascontiguousarray(terms)[::-1],
                         np.ones(len(terms)), out=out)
    return np.einsum("ti,tj->ij", np.ascontiguousarray(terms[::-1]),
                     np.ascontiguousarray(inputs)[::-1], out=out)


def gru_grads(g, h, z, r, c, weights):
    """Reverse of :func:`gru_values` for one row, given the gradient ``g`` of
    the new state: returns the gradients of ``h`` and ``x`` and the deltas
    ``(da_z, da_r, da_c)`` of the three gates' pre-activations. A gate's
    weight gradients are its delta times the step's ``x`` (W), ``h`` (Uz,
    Ur) or ``r*h`` (Uh), and the delta itself (b), summed over steps with
    :func:`step_sum`."""
    wz, uz, _, wr, ur, _, wh, uh, _ = weights
    dz = g * (c - h)
    da_c = (g * z) * (1.0 - c * c)
    dh = g * (1.0 - z)
    drh = uh.T @ da_c
    dh += drh * r
    da_r = (drh * h) * r * (1.0 - r)
    dh += ur.T @ da_r
    da_z = dz * z * (1.0 - z)
    dh += uz.T @ da_z
    return dh, wh.T @ da_c + wr.T @ da_r + wz.T @ da_z, (da_z, da_r, da_c)


def attention_values(state, proj, w, v):
    """Alignment weights ``softmax(tanh(proj + W state) . v)`` over the T
    positions of ``proj`` [..., T, A] for ``state`` [..., H]; returns
    ``(alpha, t)`` with ``t = tanh(proj + W state)``."""
    t = np.tanh(proj + (state @ w.T)[..., None, :])
    e = t @ v
    ex = np.exp(e - e.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True), t


def attention_grads(g, alpha, t, w, v):
    """Reverse of :func:`attention_values` for one row, given the gradient
    ``g`` of ``alpha``: returns the gradients of ``v`` and ``proj``, the
    gradient ``dq`` of ``W state``, and the gradient of ``state``. The
    gradient of ``W`` is ``dq`` times the state, summed over steps with
    :func:`step_sum`."""
    de = alpha * (g - g @ alpha)
    dp = (de[:, None] * v) * (1.0 - t * t)
    dq = dp.sum(axis=0)
    return t.T @ de, dp, dq, w.T @ dq
