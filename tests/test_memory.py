"""Memory bank: confidence and top-K selection over the list of earlier
predictions, against an exhaustive subset-enumeration oracle."""

import itertools

import numpy as np
import pytest

from sliceseg.errors import ContractError, DomainError
from sliceseg.memory import prediction_confidence, select_memory
from sliceseg.model import SlicePrediction
from sliceseg.tensor import Tensor


def prediction(sim: float, conf: float, embedding: Tensor | None = None) -> SlicePrediction:
    """Prediction whose embedding's cosine against the unit-x query is exactly `sim`."""
    if embedding is None:
        embedding = Tensor([sim, np.sqrt(max(0.0, 1.0 - sim * sim))])
    grid = Tensor(np.zeros((2, 2)))
    return SlicePrediction(logits=grid, probabilities=grid, confidence=conf, pooled_embedding=embedding)


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


# ------------------------------------------------------------ selection


def test_select_from_empty_bank():
    assert select_memory([], QUERY, 5) == []


def test_select_fewer_candidates_than_k():
    bank = [prediction(0.5, 0.5) for _ in range(3)]
    assert len(select_memory(bank, QUERY, 5)) == 3


def test_select_k_below_one_rejected():
    with pytest.raises(ContractError):
        select_memory([], QUERY, 0)


def test_select_derived_tie_case():
    # scores 0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3 at positions 0..6, K=5:
    # tie at 0.85 resolves toward position 3; output in descending-score order.
    scores = [0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3]
    bank = [prediction(1.0, s) for s in scores]
    assert select_memory(bank, QUERY, 5) == [0, 3, 2, 5, 6]


def oracle_select(bank: list[SlicePrediction], query: np.ndarray, k: int) -> list[int]:
    """Enumerate all subsets of size min(k, n), pick the max-score subset
    under the recency tie rule, return its positions in output order."""

    def score(i: int) -> float:
        emb = bank[i].pooled_embedding.data
        nq, ne = np.linalg.norm(query), np.linalg.norm(emb)
        sim = 0.0 if nq <= 1e-12 or ne <= 1e-12 else float(emb @ query) / (ne * nq)
        return sim * bank[i].confidence

    n = len(bank)
    m = min(k, n)
    best_key = None
    best_subset = None
    for subset in itertools.combinations(range(n), m):
        key = sorted(((score(i), i) for i in subset), reverse=True)
        if best_key is None or key > best_key:
            best_key = key
            best_subset = subset
    return sorted(best_subset, key=lambda i: (score(i), i), reverse=True)


@pytest.mark.parametrize("seed", range(200))
def test_select_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    bank = []
    for _ in range(n):
        # quantized scores force frequent ties
        sim = float(rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75, 1.0]))
        conf = float(rng.choice([0.0, 0.2, 0.5, 0.8, 1.0]))
        bank.append(prediction(sim, conf))
    assert select_memory(bank, QUERY, k) == oracle_select(bank, QUERY.data, k)


def test_selected_indices_all_precede_current_slice():
    rng = np.random.default_rng(42)
    t = 6
    bank = [prediction(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))) for _ in range(t)]
    for i in select_memory(bank, QUERY, 4):
        assert 0 <= i < t


def test_selection_scores_use_detached_embeddings():
    emb = Tensor([1.0, 0.0], requires_grad=True)
    select_memory([prediction(1.0, 0.9, embedding=emb)], QUERY, 1)
    assert emb.grad is None  # selection is gradient-free
