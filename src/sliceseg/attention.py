"""Distance-aware cross-slice attention.

Attention weights over a set of memory slices are the softmax of
similarity-times-modulation logits: logit_j = cos(F_query, F_j) *
exp(-lambda * d_j^2). The modulation discounts physically distant
slices; lambda is a learned non-negative scalar, initialized to 0.1.
``cross_slice_weights`` computes the whole chain as one tape node with a
hand-written backward; ``distance_modulation`` is its numpy factor.

The caller decides which slots enter the context. The sequence pipeline
always includes the current slice itself as slot 0 (similarity 1,
distance 0), so a slice with no memory degenerates to self-attention.

Distances come from the slices' z metadata when both positions are
known. Otherwise ``estimate_distance`` derives one from the embeddings:
DISTANCE_SCALE_UM * (1 - cos), so identical features sit at 0, orthogonal
ones at the scale and opposite ones at twice the scale. The sequence
pipeline applies it to the cosines it already scored the memory bank with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, ShapeError
from .tensor import Tensor, _node

LAMBDA_INIT = 0.1

# Scale (micrometers) for similarity-estimated distances; chosen to land
# inside the synthetic z-gap range so the modulation behaves comparably
# whether distances come from metadata or from features.
DISTANCE_SCALE_UM = 10.0


@dataclass
class AttentionContext:
    """Query embedding plus the memory slots it attends over.

    distances[j] is the physical gap (micrometers, finite, >= 0) between
    the query slice and memory slot j; lists must be the same length.
    """

    query: Tensor
    memory_embeddings: list[Tensor] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)

    def __post_init__(self):
        if len(self.memory_embeddings) != len(self.distances):
            raise ContractError(
                f"context has {len(self.memory_embeddings)} embeddings "
                f"but {len(self.distances)} distances"
            )


def estimate_distance(f_i: np.ndarray, f_j: np.ndarray) -> float:
    """Similarity-derived distance: DISTANCE_SCALE_UM * (1 - cos(F_i, F_j)).

    Used only when z metadata is absent. A degenerate pair has cosine 0,
    so it lands at DISTANCE_SCALE_UM itself.
    """
    return DISTANCE_SCALE_UM * (1.0 - float(T.cosines(np.ravel(f_i), np.ravel(f_j)[None])[0]))


def distance_modulation(d, lam: float) -> np.ndarray:
    """exp(-lam * d^2) for a distance or an array of them. A negative or
    NaN distance, or one whose square overflows, is a DomainError naming
    it (the modulation would be 0 and lambda's gradient NaN); so is a
    negative lambda."""
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(over="ignore"):
        square = d * d
    if not np.all(np.isfinite(square) & (d >= 0.0)):
        raise DomainError(f"distance must be >= 0 with a finite square, got {d}")
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {float(lam)}")
    return np.exp(lam * -square)


def cross_slice_weights(ctx: AttentionContext, lam: Tensor) -> Tensor:
    """Softmax over the context of cos-similarity times distance decay, as
    one node (op ``cross_slice``).

    The logit is the plain product of the two factors, unscaled. Output
    weights are positive and sum to 1 (within 1e-12); gradient flows to
    the query, the embeddings and lambda, not through which slots were
    chosen. An embedding or query at or below the cosine norm floor has
    cosine 0 and gets no gradient.
    """
    if not ctx.memory_embeddings:
        raise ContractError("cross_slice_weights on an empty context")
    query, embeddings = T.as_tensor(ctx.query), [T.as_tensor(e) for e in ctx.memory_embeddings]
    if query.data.ndim != 1 or any(e.shape != query.shape for e in embeddings):
        raise ShapeError(
            f"cross_slice_weights expects 1-D embeddings matching the query {query.shape}, "
            f"got {[e.shape for e in embeddings]}"
        )
    q, E = query.data, np.array([e.data for e in embeddings])
    d = np.asarray(ctx.distances, dtype=np.float64)
    sims = T.cosines(q, E)
    modulation = distance_modulation(d, lam.data)
    logits = sims * modulation
    if not np.all(np.isfinite(logits)):
        raise DomainError("cross-slice logits must be finite")
    alpha = logits - logits.max()  # the stable softmax, in this one buffer
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum()

    def backward(g):
        # the products of the chain softmax(cosines * exp(lam * -d^2)), in its order
        g_logits = alpha * (g - (g * alpha).sum())
        g_sims = g_logits * modulation
        g_lam = (g_logits * sims * modulation * -(d * d)).sum()
        nq, ne, live, denom = T._norms(q, E)
        w = np.where(live, g_sims / denom, 0.0)  # d(loss)/d(dot) per pair
        grads = [(query, w @ E - (g_sims * sims).sum() * q / (nq * nq) if live.any() else None)]
        for j, e in enumerate(embeddings):
            if live[j]:
                grads.append((e, w[j] * q - g_sims[j] * sims[j] * E[j] / (ne[j] * ne[j])))
        grads.append((lam, g_lam))
        return grads

    return _node(alpha, (query, *embeddings, lam), backward, "cross_slice")


def fuse_memory(
    patch_feats: Tensor,
    memory_patch_feats: list[Tensor],
    alpha: Tensor,
) -> Tensor:
    """Convex combination of patch grids followed by layer normalization.

    alpha[0] weights the current slice's own grid; alpha[1:] weight the
    memory grids in order. All grids must share the self grid's shape.
    """
    if alpha.size != len(memory_patch_feats) + 1:
        raise ContractError(
            f"alpha has {alpha.size} weights for {len(memory_patch_feats)} memory grids + self"
        )
    return T.layer_norm(T.weighted_sum(alpha, [patch_feats, *memory_patch_feats]))
