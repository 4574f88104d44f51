"""Per-sequence memory bank and adaptive slice selection.

The bank is the list of the earlier slices' predictions, as in SAM2's
memory bank (Ravi et al. 2024): each holds the slice's pooled embedding
and the confidence of its predicted mask, and its position in the list
is its slice index. Later slices pull back the top-K positions ranked by
cosine similarity to the current embedding times stored confidence.
Selection is a hard, discrete choice on detached values; no gradient
flows through it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError
from .tensor import Tensor, cosines


def prediction_confidence(p: np.ndarray) -> float:
    """Mean pixel margin |2p - 1|: 0 at p=0.5 everywhere, 1 at hard masks."""
    if not np.all((p >= 0.0) & (p <= 1.0)):  # false for NaN too
        raise DomainError("probabilities must lie in [0, 1]")
    return float(np.abs(2.0 * p - 1.0).mean())


def select_memory(bank: list, query_embedding: Tensor, k: int) -> list[int]:
    """Positions of the top-k predictions in `bank` (a list of
    `SlicePrediction`) by similarity*confidence, descending score.

    Ties go to the later position. Returns every position when the bank
    holds at most k predictions. Scores are computed on detached values;
    the choice itself carries no gradient.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if not bank:
        return []
    sims = cosines(query_embedding.data, np.stack([p.pooled_embedding.data for p in bank]))
    scores = sims * np.array([p.confidence for p in bank])
    order = np.lexsort((np.arange(len(bank)), scores))[::-1]
    return order[:k].tolist()
