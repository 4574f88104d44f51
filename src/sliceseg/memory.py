"""Per-sequence memory bank and adaptive slice selection.

Each processed slice deposits one entry: its pooled embedding, its
patch-feature grid, and the confidence of its predicted mask. Later
slices pull back the top-K entries ranked by cosine similarity to the
current embedding times stored confidence. Selection is a hard, discrete
choice on detached values; no gradient flows through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .tensor import Tensor, cosines


@dataclass
class MemoryEntry:
    slice_index: int
    pooled_embedding: Tensor
    patch_features: Tensor
    confidence: float
    z_position_um: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise DomainError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.slice_index < 0:
            raise ContractError(f"slice_index must be >= 0, got {self.slice_index}")


class MemoryBank:
    """Entries of one sequence, kept in strictly increasing slice order."""

    def __init__(self):
        self.entries: list[MemoryEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, entry: MemoryEntry) -> None:
        if self.entries and entry.slice_index <= self.entries[-1].slice_index:
            raise ContractError(
                f"out-of-order insert: index {entry.slice_index} after "
                f"{self.entries[-1].slice_index}"
            )
        self.entries.append(entry)


def prediction_confidence(prob_mask: Tensor | np.ndarray) -> float:
    """Mean pixel margin |2p - 1|: 0 at p=0.5 everywhere, 1 at hard masks."""
    p = prob_mask.data if isinstance(prob_mask, Tensor) else np.asarray(prob_mask, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):  # false for NaN too
        raise DomainError("probabilities must lie in [0, 1]")
    return float(np.abs(2.0 * p - 1.0).mean())


def select_memory(bank: MemoryBank, query_embedding: Tensor, k: int) -> list[MemoryEntry]:
    """Top-k entries by similarity*confidence, descending score.

    Ties go to the more recent slice (larger index). Returns everything
    when the bank holds at most k entries. Scores are computed on
    detached values; the choice itself carries no gradient.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    entries = bank.entries
    if not entries:
        return []
    sims = cosines(query_embedding.data, np.stack([e.pooled_embedding.data for e in entries]))
    scores = sims * np.array([e.confidence for e in entries])
    order = np.lexsort(([e.slice_index for e in entries], scores))[::-1]
    return [entries[i] for i in order[:k]]
