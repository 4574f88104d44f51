"""Tape ops and helpers the model no longer uses, kept as reference
implementations.

mul, exp, softmax, reshape, transpose and cosine_sims were ops of
``sliceseg.tensor`` until the cross-slice weights and the decoder's patch
reassembly became one node each; weighted_sum and unpatchify were ops
until the memory fusion and the decoder became one node each (``fuse``
and ``decode``). Tests use them to build scalar losses and as the op
chains those nodes are checked against, arithmetic for arithmetic.
estimate_distance was ``sliceseg.attention``'s similarity-derived
distance, which ``cross_slice_weights`` computes from its context's cosines.
scored_context builds that context the way ``forward_sequence`` does, the
cosines scored by ``tensor.cosines``.
matmul was an op until a LoRA merge became one node (``lora``), and
sigmoid until the decoder's node emitted the probabilities itself.
"""

import math
from typing import Sequence

import numpy as np

from sliceseg import tensor as T
from sliceseg.attention import DISTANCE_SCALE_UM, AttentionContext
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


def sigmoid(a) -> Tensor:
    """1 / (1 + exp(-a)), computed in place in one new array."""
    a = T.as_tensor(a)
    out_data = np.negative(a.data, out=np.empty_like(a.data))
    np.exp(out_data, out=out_data)
    out_data += 1.0
    np.divide(1.0, out_data, out=out_data)

    def backward(g):
        return ((a, g * out_data * (1.0 - out_data)),)

    return T._node(out_data, (a,), backward, "sigmoid")


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


def matmul(a, b) -> Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return T._node(a.data @ b.data, (a, b), backward, "matmul")


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
        if live is None:  # every pair live
            live = np.ones(len(E), dtype=bool)
        w = np.where(live, g / denom, 0.0)
        gq = w @ E - (g * sims).sum() * q / (nq * nq) if live.any() else None
        grads = [(query, gq)]
        for j, vec in enumerate(vectors):
            if live[j]:
                grads.append((vec, w[j] * q - g[j] * sims[j] * E[j] / (ne[j] * ne[j])))
        return grads

    return T._node(sims, (query, *vectors), backward, "cosine")


def weighted_sum(alpha, grids: Sequence[Tensor]) -> Tensor:
    """sum_j alpha[j] * grids[j] as one node, for a (n,) weight vector and
    n tensors of one shape."""
    alpha = T.as_tensor(alpha)
    grids = [T.as_tensor(m) for m in grids]
    if alpha.data.ndim != 1 or alpha.size != len(grids) or not grids:
        raise ShapeError(f"weighted_sum: {alpha.shape} weights for {len(grids)} tensors")
    for m in grids[1:]:
        if m.shape != grids[0].shape:
            raise ShapeError(f"weighted_sum: tensor shape {m.shape} != {grids[0].shape}")
    a = alpha.data
    out = a[0] * grids[0].data
    scratch = np.empty_like(out)  # every later product in turn, not a temporary each
    for w, m in zip(a[1:], grids[1:]):
        out += np.multiply(w, m.data, out=scratch)

    def backward(g):
        scratch = np.empty_like(g)
        ga = np.array([np.multiply(g, m.data, out=scratch).sum() for m in grids])
        return [(alpha, ga)] + [(m, w * g) for w, m in zip(a, grids)]

    return T._node(out, (alpha, *grids), backward, "weighted_sum")


def unpatchify(a, grid: int, patch: int) -> Tensor:
    """(grid*grid, patch*patch) patch rows -> (grid*patch, grid*patch)
    image, one node: row p of a fills the patch*patch window at grid
    cell (p // grid, p % grid), in row-major order."""
    a = T.as_tensor(a)
    if a.shape != (grid * grid, patch * patch):
        raise ShapeError(f"unpatchify: {a.shape} is not {grid}x{grid} patches of {patch}x{patch}")

    def backward(g):
        return ((a, g.reshape(grid, patch, grid, patch).transpose(0, 2, 1, 3).reshape(a.shape)),)

    out = a.data.reshape(grid, grid, patch, patch).transpose(0, 2, 1, 3)
    return T._node(out.reshape(grid * patch, grid * patch), (a,), backward, "unpatchify")


def estimate_distance(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """Similarity-derived distance: DISTANCE_SCALE_UM * (1 - cos(F_i, F_j)).
    A degenerate pair has cosine 0, so it lands at DISTANCE_SCALE_UM itself."""
    return DISTANCE_SCALE_UM * (1.0 - float(T.cosines(np.ravel(f_i), np.ravel(f_j)[None])[0]))


def scored_context(query, embeddings, distances) -> AttentionContext:
    """The context of the slots `embeddings` at `distances`, each with its
    cosine against `query` as memory scoring gives it."""
    slots = np.array([T.as_tensor(e).data for e in embeddings])
    return AttentionContext(query, embeddings, distances, T.cosines(T.as_tensor(query).data, slots))


def plain_layer_norm(a) -> Tensor:
    """layer_norm with unit gain and zero bias: the normalization alone."""
    a = T.as_tensor(a)
    return T.layer_norm(a, np.ones(a.shape[-1]), np.zeros(a.shape[-1]))


def fuse_chain(patch_feats, memory_patch_feats, alpha) -> Tensor:
    """The chain the ``fuse`` node replaced: layer_norm(weighted_sum(...))."""
    return plain_layer_norm(weighted_sum(alpha, [patch_feats, *memory_patch_feats]))


def decode_chain(fused_features, params) -> tuple[np.ndarray, Tensor]:
    """The chain the ``decode`` node replaced: linear, tanh, linear, unpatchify,
    sigmoid; the logits as an array and the probabilities, as ``decode_mask``."""
    cfg = params.config
    h1 = T.tanh(T.linear(fused_features, params["decoder.fc1.W"], params["decoder.fc1.b"]))
    patch_logits = T.linear(h1, params["decoder.fc2.W"], params["decoder.fc2.b"])
    logits = unpatchify(patch_logits, cfg.grid, cfg.patch_size)
    return logits.data, sigmoid(logits)
