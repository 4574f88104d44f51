"""Per-sequence memory bank and adaptive slice selection.

The bank holds the earlier slices' predictions, as in SAM2's memory bank
(Ravi et al. 2024): ``forward_sequence`` holds two arrays, the pooled
embeddings (n, d), filled before the memory loop, and the confidences (n,)
of the predicted masks, filled as it goes, so a row index is a slice index.
Slice t scores rows [0, t) by cosine similarity to its own embedding (row t
of its chunk's one cosine block) times stored confidence, and pulls back
the top-K. Selection is a hard, discrete choice on
detached values; no gradient flows through it.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError


def prediction_confidence(p: np.ndarray) -> float:
    """Mean pixel margin |2p - 1|: 0 at p=0.5 everywhere, 1 at hard masks."""
    if p.dtype.kind not in "biuf":
        raise ContractError(f"probability map dtype {p.dtype} is not a real number type")
    if p.size == 0:
        raise DomainError("confidence of an empty probability map")
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # false for NaN too
        raise DomainError("probabilities must lie in [0, 1]")
    return float(np.abs(2.0 * p - 1.0).sum() / p.size)  # the bits of .mean(), without its wrapper


def select_memory(scores: np.ndarray, k: int) -> list[int]:
    """Positions of the top-k scores, in descending score order.

    Ties go to the later position. Returns every position when there are
    at most k scores.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return np.lexsort((np.arange(len(scores)), scores))[::-1][:k].tolist()
