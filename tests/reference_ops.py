"""Elementary tape ops: the reference the model's reverse rules are checked
against.

Rank-2 matmul, matrix-vector products, the usual elementwise functions,
softmax/logsumexp, embedding rows, concatenation and stacking, each with
its reverse rule. They record on the tape of :mod:`banditseq.autodiff`
(:class:`~banditseq.autodiff.Tensor`, :class:`~banditseq.autodiff.Tape`)
through its own node helpers, so a graph built from them mixes freely with
the program's ``add``, ``neg``, ``log_likelihood`` and model nodes. No
program path calls them: ``tests/test_model.py`` rebuilds the model from
them, ``tests/test_autodiff.py`` checks each rule, and ``tests/oracles.py``
combines scores with ``exp`` and ``mul``.
"""

from __future__ import annotations

import numpy as np

from banditseq.autodiff import ShapeError, Tensor, _accum, _as_tensor, \
    _check_binary_shapes, _make, _reduce_to, _sigmoid_values, matvec_rows


def constant(data):
    return Tensor(data)


def matmul(a, b):
    """Rank-2 matrix product with the standard reverse rules."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, backward)


def matvec(m, v):
    """Matrix [r,c] times vector [c] -> vector [r]."""
    m, v = _as_tensor(m), _as_tensor(v)
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"matvec: incompatible shapes {m.shape} and {v.shape}")

    def backward(g):
        _accum(m, g[:, None] * v.data)
        _accum(v, m.data.T @ g)

    return _make(matvec_rows(m.data, v.data), backward)


def dot(a, b):
    """Inner product of two equal-length vectors -> scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: incompatible shapes {a.shape} and {b.shape}")

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data @ b.data, backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_binary_shapes("mul", a, b)

    def backward(g):
        _accum(a, _reduce_to(g * b.data, a.shape))
        _accum(b, _reduce_to(g * a.data, b.shape))

    return _make(a.data * b.data, backward)


def tanh(a):
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def backward(g):
        _accum(a, g * (1.0 - y * y))

    return _make(y, backward)


def sigmoid(a):
    a = _as_tensor(a)
    y = _sigmoid_values(a.data)

    def backward(g):
        _accum(a, g * y * (1.0 - y))

    return _make(y, backward)


def exp(a):
    a = _as_tensor(a)
    y = np.exp(a.data)

    def backward(g):
        _accum(a, g * y)

    return _make(y, backward)


def softmax(a):
    """Softmax of a rank-1 vector, computed with max-subtraction."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.shape[0] == 0:
        raise ShapeError(f"softmax: expected non-empty rank-1 input, got {a.shape}")
    z = a.data - a.data.max()
    e = np.exp(z)
    y = e / e.sum()

    def backward(g):
        _accum(a, y * (g - g @ y))

    return _make(y, backward)


def logsumexp(a):
    """log(sum(exp(x))) of a rank-1 vector -> scalar, max-subtracted."""
    a = _as_tensor(a)
    if a.data.ndim != 1 or a.shape[0] == 0:
        raise ShapeError(f"logsumexp: expected non-empty rank-1 input, got {a.shape}")
    m = a.data.max()
    e = np.exp(a.data - m)
    s = e.sum()
    y = m + np.log(s)
    p = e / s

    def backward(g):
        _accum(a, g * p)

    return _make(y, backward)


def pick(a, index):
    """Select entry ``index`` of a rank-1 vector -> scalar."""
    a = _as_tensor(a)
    if a.data.ndim != 1:
        raise ShapeError(f"pick: expected rank-1 input, got {a.shape}")
    index = int(index)
    if not 0 <= index < a.shape[0]:
        raise IndexError(f"pick: index {index} out of range for length {a.shape[0]}")

    def backward(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[index] += g

    return _make(a.data[index], backward)


def vsum(a):
    """Sum of all entries -> scalar."""
    a = _as_tensor(a)

    def backward(g):
        _accum(a, np.full_like(a.data, g))

    return _make(a.data.sum(), backward)


def concat(parts):
    """Concatenate rank-1 vectors into one vector."""
    parts = [_as_tensor(p) for p in parts]
    if not parts or any(p.data.ndim != 1 for p in parts):
        raise ShapeError("concat: expects a non-empty list of rank-1 tensors")
    sizes = [p.shape[0] for p in parts]

    def backward(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accum(p, g[off:off + n])
            off += n

    return _make(np.concatenate([p.data for p in parts]), backward)


def stack(scalars):
    """Stack scalar tensors into a rank-1 vector."""
    scalars = [_as_tensor(s) for s in scalars]
    if not scalars or any(s.data.shape != () for s in scalars):
        raise ShapeError("stack: expects a non-empty list of scalar tensors")

    def backward(g):
        for i, s in enumerate(scalars):
            _accum(s, g[i])

    return _make(np.array([s.data for s in scalars]), backward)


def embedding_lookup(table, index):
    """Copy row ``index`` of a rank-2 table; backward scatters into that row."""
    table = _as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: expected rank-2 table, got {table.shape}")
    index = int(index)
    if not 0 <= index < table.shape[0]:
        raise IndexError(
            f"embedding_lookup: row {index} out of range for table with "
            f"{table.shape[0]} rows"
        )

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[index] += g

    return _make(table.data[index].copy(), backward)


def stack_rows(vectors):
    """Stack rank-1 tensors of equal length into a rank-2 matrix."""
    vectors = [_as_tensor(v) for v in vectors]
    if not vectors or any(v.data.ndim != 1 for v in vectors):
        raise ShapeError("stack_rows: expects a non-empty list of rank-1 tensors")

    def backward(g):
        for i, v in enumerate(vectors):
            _accum(v, g[i])

    return _make(np.stack([v.data for v in vectors]), backward)
