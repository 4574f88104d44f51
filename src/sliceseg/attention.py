"""Distance-aware cross-slice attention.

Attention weights over a set of memory slices are the softmax of
similarity-times-modulation logits: logit_j = cos(F_query, F_j) *
exp(-lambda * d_j^2). The modulation discounts physically distant
slices; lambda is a learned non-negative scalar, initialized to 0.1.

The caller decides which slots enter the context. The sequence pipeline
always includes the current slice itself as slot 0 (similarity 1,
distance 0), so a slice with no memory degenerates to self-attention.

Distances come from the slices' z metadata when both positions are
known. Otherwise ``estimate_distance`` derives one from the embeddings:
DISTANCE_SCALE_UM * (1 - cos), so identical features sit at 0, orthogonal
ones at the scale and opposite ones at twice the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError
from .tensor import Tensor

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


def distance_modulation(d, lam: Tensor) -> Tensor:
    """exp(-lambda * d^2) for a distance or an array of them, differentiable
    in lambda. A distance whose square overflows is a DomainError naming
    it: the modulation would be 0 and lambda's gradient NaN."""
    d = np.asarray(d, dtype=np.float64)
    with np.errstate(over="ignore"):
        square = d * d
    if not np.all(np.isfinite(square) & (d >= 0.0)):
        raise DomainError(f"distance must be >= 0 with a finite square, got {d}")
    if float(lam.data) < 0.0:
        raise DomainError(f"lambda must be >= 0, got {float(lam.data)}")
    return T.exp(T.mul(lam, -square))


def cross_slice_weights(ctx: AttentionContext, lam: Tensor) -> Tensor:
    """Softmax over the context of cos-similarity times distance decay.

    The logit is the plain product of the two factors, unscaled. Output
    weights are positive and sum to 1 (within 1e-12); gradient flows to
    the embeddings and to lambda, not through which slots were chosen.
    """
    if not ctx.memory_embeddings:
        raise ContractError("cross_slice_weights on an empty context")
    sims = T.cosine_sims(ctx.query, ctx.memory_embeddings)
    return T.softmax(T.mul(sims, distance_modulation(ctx.distances, lam)))


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
