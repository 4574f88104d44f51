"""Memory bank: confidence, insertion ordering and top-K selection
against an exhaustive subset-enumeration oracle."""

import itertools

import numpy as np
import pytest

from sliceseg.errors import ContractError, DomainError
from sliceseg.memory import (
    MemoryBank,
    MemoryEntry,
    prediction_confidence,
    select_memory,
)
from sliceseg.tensor import Tensor


def entry(index: int, sim: float, conf: float) -> MemoryEntry:
    """Entry whose cosine against the unit-x query is exactly `sim`."""
    emb = Tensor([sim, np.sqrt(max(0.0, 1.0 - sim * sim))])
    return MemoryEntry(
        slice_index=index,
        pooled_embedding=emb,
        patch_features=Tensor(np.zeros((2, 2))),
        confidence=conf,
    )


QUERY = Tensor([1.0, 0.0])


# ----------------------------------------------------------- confidence


def test_confidence_maximal_uncertainty():
    assert prediction_confidence(np.full((4, 4), 0.5)) == 0.0


def test_confidence_maximal_certainty():
    hard = np.zeros((4, 4))
    hard[:2] = 1.0
    assert prediction_confidence(hard) == 1.0


def test_confidence_hand_average():
    # half at 0.9 (margin 0.8), half at 0.5 (margin 0) -> 0.4
    p = np.concatenate([np.full(8, 0.9), np.full(8, 0.5)]).reshape(4, 4)
    assert prediction_confidence(p) == pytest.approx(0.4, abs=1e-12)


def test_confidence_rejects_out_of_range():
    with pytest.raises(DomainError):
        prediction_confidence(np.array([[1.5]]))


def test_confidence_rejects_nan():
    with pytest.raises(DomainError):
        prediction_confidence(np.array([[0.5, np.nan]]))


# ------------------------------------------------------------ insertion


def test_insert_into_empty_bank():
    bank = MemoryBank()
    bank.insert(entry(0, 0.5, 0.5))
    assert len(bank) == 1


def test_sequential_inserts_stay_sorted():
    bank = MemoryBank()
    for i in range(3):
        bank.insert(entry(i, 0.5, 0.5))
    assert [e.slice_index for e in bank.entries] == [0, 1, 2]


def test_duplicate_index_rejected():
    bank = MemoryBank()
    bank.insert(entry(1, 0.5, 0.5))
    with pytest.raises(ContractError):
        bank.insert(entry(1, 0.5, 0.5))


def test_entry_validates_confidence():
    with pytest.raises(DomainError):
        entry(0, 0.5, 1.2)


# ------------------------------------------------------------ selection


def test_select_from_empty_bank():
    assert select_memory(MemoryBank(), QUERY, 5) == []


def test_select_fewer_candidates_than_k():
    bank = MemoryBank()
    for i in range(3):
        bank.insert(entry(i, 0.5, 0.5))
    assert len(select_memory(bank, QUERY, 5)) == 3


def test_select_k_below_one_rejected():
    with pytest.raises(ContractError):
        select_memory(MemoryBank(), QUERY, 0)


def test_select_derived_tie_case():
    # scores 0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3 at indices 0..6, K=5:
    # tie at 0.85 resolves toward index 3; output in descending-score order.
    scores = [0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3]
    bank = MemoryBank()
    for i, s in enumerate(scores):
        bank.insert(entry(i, 1.0, s))
    chosen = select_memory(bank, QUERY, 5)
    assert [e.slice_index for e in chosen] == [0, 3, 2, 5, 6]


def oracle_select(bank: MemoryBank, query: np.ndarray, k: int) -> list[int]:
    """Enumerate all subsets of size min(k, n), pick the max-score subset
    under the recency tie rule, return its indices in output order."""

    def score(e: MemoryEntry) -> float:
        emb = e.pooled_embedding.data
        nq, ne = np.linalg.norm(query), np.linalg.norm(emb)
        sim = 0.0 if nq <= 1e-12 or ne <= 1e-12 else float(emb @ query) / (ne * nq)
        return sim * e.confidence

    n = len(bank.entries)
    m = min(k, n)
    best_key = None
    best_subset = None
    for subset in itertools.combinations(range(n), m):
        key = sorted(
            ((score(bank.entries[i]), bank.entries[i].slice_index) for i in subset),
            reverse=True,
        )
        if best_key is None or key > best_key:
            best_key = key
            best_subset = subset
    ordered = sorted(
        (bank.entries[i] for i in best_subset),
        key=lambda e: (score(e), e.slice_index),
        reverse=True,
    )
    return [e.slice_index for e in ordered]


@pytest.mark.parametrize("seed", range(200))
def test_select_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    bank = MemoryBank()
    for i in range(n):
        # quantized scores force frequent ties
        sim = float(rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0]))
        conf = float(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
        bank.insert(entry(i, sim, conf))
    got = [e.slice_index for e in select_memory(bank, QUERY, k)]
    assert got == oracle_select(bank, QUERY.data, k)


def test_selected_indices_all_precede_current_slice():
    rng = np.random.default_rng(42)
    bank = MemoryBank()
    t = 6
    for i in range(t):
        bank.insert(entry(i, float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))))
    for e in select_memory(bank, QUERY, 4):
        assert e.slice_index < t


def test_selection_scores_use_detached_embeddings():
    emb = Tensor([1.0, 0.0], requires_grad=True)
    bank = MemoryBank()
    bank.insert(
        MemoryEntry(0, pooled_embedding=emb, patch_features=Tensor(np.zeros((2, 2))), confidence=0.9)
    )
    select_memory(bank, QUERY, 1)
    assert emb.grad is None  # selection is gradient-free
