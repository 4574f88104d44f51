"""Distance-aware cross-slice attention.

Attention weights over a set of memory slices are the softmax of
similarity-times-modulation logits: logit_j = cos(F_query, F_j) *
exp(-lambda * d_j^2). The modulation discounts physically distant
slices; lambda is a learned non-negative scalar, initialized to 0.1.
``cross_slice_weights`` computes the whole chain as one tape node with a
hand-written backward; ``distance_modulation`` is its numpy factor. The
context carries each slot's cosine as memory scoring gave it (the
sequence pipeline passes the slots' entries of the cosine block it scored
the bank with), so the forward scores nothing again, and only the
backward stacks the slots.
``fuse_memory`` blends the patch grids by those weights and
layer-normalizes the blend, also as one node.

The caller decides which slots enter the context. The sequence pipeline
always includes the current slice itself as slot 0 (similarity 1,
distance 0), so a slice with no memory degenerates to self-attention.

A slot's distance is its z gap when both slices have a z position; the
context holds None otherwise, and ``cross_slice_weights`` estimates the
gap from the slot's cosine: DISTANCE_SCALE_UM * (1 - cos), so identical
features sit at 0, orthogonal ones at the scale and opposite ones at
twice the scale (a degenerate pair, cosine 0, at the scale). An
estimated gap moves with the cosine, and its gradient flows with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, ShapeError
from .tensor import Tensor, _node

LAMBDA_INIT = 0.1

# Scale (micrometers) for similarity-estimated distances; chosen to land
# inside the synthetic z-gap range so the modulation behaves comparably
# whether distances come from metadata or from features.
DISTANCE_SCALE_UM = 10.0

# The largest double whose square is finite; the next one's square overflows.
MAX_SQUARABLE = 1.3407807929942596e154


@dataclass
class AttentionContext:
    """Query embedding plus what the caller knows of each memory slot it
    attends over: a plain record, which ``cross_slice_weights`` checks.

    distances[j] is the physical gap (micrometers, finite, >= 0) between
    the query slice and memory slot j, or None when it is not known;
    cosines[j] is ``tensor.cosines``' value for the query and slot j. All
    three are one per slot.
    """

    query: Tensor
    memory_embeddings: list[Tensor]
    distances: list[float | None]
    cosines: np.ndarray


def distance_modulation(d, lam: float) -> np.ndarray:
    """exp(-lam * d^2) for a distance or an array of them. A negative or
    NaN distance, or one whose square overflows, is a DomainError naming
    it (the modulation would be 0 and lambda's gradient NaN); so is a
    negative lambda, and one that is not finite or whose product with the
    largest d^2 is not, checked before numpy would warn."""
    d = np.asarray(d, dtype=np.float64)
    top = float(d.max(initial=0.0))
    # min(0, d...) and max(0, d...): both comparisons are false for NaN
    if not (d.min(initial=0.0) >= 0.0 and top <= MAX_SQUARABLE):
        raise DomainError(f"distance must be >= 0 with a finite square, got {d}")
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {float(lam)}")
    if not math.isfinite(float(lam) * (top * top)):  # inf * 0 is NaN: an infinite lambda fails too
        raise DomainError(f"lambda * d^2 must be finite, got lambda {float(lam)} and distance {top}")
    return np.exp(lam * -(d * d))


def cross_slice_weights(ctx: AttentionContext, lam: Tensor) -> Tensor:
    """Softmax over the context of cos-similarity times distance decay, as
    one node (op ``cross_slice``).

    The logit is the plain product of the two factors, unscaled. Output
    weights are positive and sum to 1 (within 1e-12); gradient flows to
    the query, the embeddings and lambda, not through which slots were
    chosen. A gap of None is DISTANCE_SCALE_UM * (1 - cosine), and the
    gradient also flows through it. An embedding or query at or below the
    cosine norm floor has cosine 0 and gets no gradient. The forward reads
    only the context's cosines and gaps, so an embedding that is not finite
    is refused where it is read, in the backward: stacking six 64-wide slots
    in the forward only to check them takes about 7 us on a 2-CPU VM, paid
    on every slice. An empty context, unequal lists or cosines not one per slot
    are a ContractError."""
    n = len(ctx.distances)
    if not ctx.memory_embeddings:
        raise ContractError("cross_slice_weights on an empty context")
    if len(ctx.memory_embeddings) != n:
        raise ContractError(f"context has {len(ctx.memory_embeddings)} embeddings but {n} distances")
    if np.shape(ctx.cosines) != (n,):
        raise ContractError(f"context has {n} slots but cosines of shape {np.shape(ctx.cosines)}")
    query, embeddings = T.as_tensor(ctx.query), [T.as_tensor(e) for e in ctx.memory_embeddings]
    if query.data.ndim != 1 or any(e.shape != query.shape for e in embeddings):
        raise ShapeError(
            f"cross_slice_weights expects 1-D embeddings matching the query {query.shape}, "
            f"got {[e.shape for e in embeddings]}"
        )
    q, sims = query.data, np.asarray(ctx.cosines, dtype=np.float64)
    if not np.isfinite(sims).all():  # so the logits and the estimated gaps are finite
        raise DomainError("cross-slice logits must be finite")
    d = np.asarray(ctx.distances, dtype=np.float64)  # a None reads as NaN here ...
    estimated = np.equal(ctx.distances, None) if None in ctx.distances else None
    if estimated is not None:  # ... and is replaced, so only a NaN gap stays NaN
        d[estimated] = DISTANCE_SCALE_UM * (1.0 - sims[estimated])
    modulation = distance_modulation(d, lam.data)  # finite, in [0, 1]
    logits = sims * modulation
    alpha = logits - logits.max()  # the stable softmax, in this one buffer
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum()

    def backward(g):
        # the products of the chain softmax(cosines * exp(lam * -d^2)), in its order
        g_logits = alpha * (g - (g * alpha).sum())
        g_sims = g_logits * modulation
        if estimated is not None:  # d = S (1 - c) moves with c: d(logit)/dc = m (1 + 2 lam S c d)
            g_sims[estimated] *= 1.0 + 2.0 * lam.data * DISTANCE_SCALE_UM * (sims * d)[estimated]
        g_lam = (g_logits * sims * modulation * -(d * d)).sum()
        E = np.array([e.data for e in embeddings])
        nq, ne, live, denom = T._norms(q, E)
        w = g_sims / denom  # d(loss)/d(dot) per pair
        if live is not None:
            w = np.where(live, w, 0.0)
        gq = w @ E - (g_sims * sims).sum() * q / (nq * nq) if live is None or live.any() else None
        grads = [(query, gq)]
        for j, e in enumerate(embeddings):
            if live is None or live[j]:
                grads.append((e, w[j] * q - g_sims[j] * sims[j] * E[j] / (ne[j] * ne[j])))
        grads.append((lam, g_lam))
        return grads

    return _node(alpha, (query, *embeddings, lam), backward, "cross_slice")


def fuse_memory(
    patch_feats: Tensor,
    memory_patch_feats: list[Tensor],
    alpha: Tensor,
) -> Tensor:
    """Convex combination of patch grids followed by layer normalization
    (no gain or bias), as one node (op ``fuse``).

    alpha[0] weights the current slice's own grid; alpha[1:] weight the
    memory grids in order. All grids must share the self grid's shape.
    The backward repeats the products of the chain it replaces, a
    weighted sum then ``layer_norm``, in their order; a constant weight
    vector or grid (the self-only weight ``Tensor([1.0])``) gets no
    gradient.
    """
    alpha = T.as_tensor(alpha)
    grids = [T.as_tensor(m) for m in (patch_feats, *memory_patch_feats)]
    if alpha.data.ndim != 1:
        raise ShapeError(f"fuse: weights {alpha.shape} are not a vector")
    if alpha.size != len(grids):
        raise ContractError(
            f"alpha has {alpha.size} weights for {len(memory_patch_feats)} memory grids + self"
        )
    for m in grids[1:]:
        if m.shape != grids[0].shape:
            raise ShapeError(f"fuse: grid shape {m.shape} != {grids[0].shape}")
    a = alpha.data
    out = a[0] * grids[0].data
    scratch = np.empty_like(out)  # every later product in turn, not a temporary each
    for w, m in zip(a[1:], grids[1:]):
        out += np.multiply(w, m.data, out=scratch)
    xhat, inv = T._normalize(out, out=out)

    def backward(g):
        g = T._normalize_backward(g, xhat, inv)  # d(loss)/d(the weighted sum)
        grads = []
        if T._taped(alpha):
            scratch = np.empty_like(g)
            grads.append((alpha, np.array([np.multiply(g, m.data, out=scratch).sum() for m in grids])))
        return grads + [(m, w * g) for w, m in zip(a, grids) if T._taped(m)]

    return _node(xhat, (alpha, *grids), backward, "fuse")
