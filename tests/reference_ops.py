"""Tape ops the model no longer builds, kept as reference implementations.

mul, exp, softmax, reshape, transpose and cosine_sims were ops of
``sliceseg.tensor`` until the cross-slice weights and the decoder's patch
reassembly became one node each (``cross_slice`` and ``unpatchify``).
Tests use them to build scalar losses and as the op chains those nodes
are checked against, arithmetic for arithmetic.
"""

import math
from typing import Sequence

import numpy as np

from sliceseg import tensor as T
from sliceseg.errors import ContractError, DomainError, ShapeError
from sliceseg.tensor import Tensor


def mul(a, b) -> Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)

    def backward(g):
        return (
            (a, T._unbroadcast(g * b.data, a.shape)),
            (b, T._unbroadcast(g * a.data, b.shape)),
        )

    return T._node(T._broadcasting(np.multiply, a, b, "mul"), (a, b), backward, "mul")


def exp(a) -> Tensor:
    a = T.as_tensor(a)
    out_data = np.exp(a.data)
    return T._node(out_data, (a,), lambda g: ((a, g * out_data),), "exp")


def softmax(a) -> Tensor:
    """Numerically stable softmax along the last axis (max-subtraction)."""
    a = T.as_tensor(a)
    if a.size == 0:
        raise DomainError("softmax of empty input")
    if not np.all(np.isfinite(a.data)):
        raise DomainError("softmax requires finite input")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return ((a, out_data * (g - inner)),)

    return T._node(out_data, (a,), backward, "softmax")


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = T.as_tensor(a)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}")
    return T._node(a.data.reshape(shape), (a,), lambda g: ((a, g.reshape(a.shape)),), "reshape")


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = T.as_tensor(a)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return T._node(a.data.transpose(axes), (a,), lambda g: ((a, g.transpose(inverse)),), "transpose")


def cosine_sims(query, vectors: Sequence[Tensor]) -> Tensor:
    """Cosine similarity of a 1-D query with each vector, as one (n,) node;
    a pair with either norm at or below 1e-12 gives 0 and no gradient."""
    query = T.as_tensor(query)
    vectors = [T.as_tensor(v) for v in vectors]
    if not vectors:
        raise ContractError("cosine_sims requires at least one vector")
    if query.data.ndim != 1 or any(v.shape != query.shape for v in vectors):
        raise ShapeError(f"cosine_sims expects 1-D vectors matching the query {query.shape}")
    q = query.data
    E = np.stack([v.data for v in vectors])
    sims = T.cosines(q, E)

    def backward(g):
        nq, ne, live, denom = T._norms(q, E)
        w = np.where(live, g / denom, 0.0)
        gq = w @ E - (g * sims).sum() * q / (nq * nq) if live.any() else None
        grads = [(query, gq)]
        for j, vec in enumerate(vectors):
            if live[j]:
                grads.append((vec, w[j] * q - g[j] * sims[j] * E[j] / (ne[j] * ne[j])))
        return grads

    return T._node(sims, (query, *vectors), backward, "cosine")
