"""Memory bank: confidence and top-K selection over the scored bank,
against an exhaustive subset-enumeration oracle."""

import itertools

import numpy as np
import pytest

from sliceseg import model
from sliceseg.data_io import SliceData, SliceSequence
from sliceseg.errors import ContractError, DomainError
from sliceseg.memory import prediction_confidence, select_memory
from sliceseg.model import MICRO_CONFIG, forward_sequence, init_params
from sliceseg.tensor import cosines


def entry(sim: float, conf: float) -> tuple[np.ndarray, float]:
    """(embedding, confidence) whose cosine against the unit-x query is exactly `sim`."""
    return np.array([sim, np.sqrt(max(0.0, 1.0 - sim * sim))]), conf


QUERY = np.array([1.0, 0.0])


def scores(bank: list[tuple[np.ndarray, float]]) -> np.ndarray:
    """similarity * confidence of each entry, as forward_sequence scores its bank."""
    return cosines(QUERY, np.stack([e for e, _ in bank])) * np.array([c for _, c in bank])


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


def test_confidence_of_an_empty_map_is_a_domain_error():
    with pytest.raises(DomainError, match="empty"):
        prediction_confidence(np.zeros((0, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, 1.0 + 2.0**-52, None])
def test_confidence_range_check_is_the_elementwise_rule(bad):
    # one min/max pair accepts exactly the maps the elementwise test accepts
    p = np.random.default_rng(0).uniform(0.0, 1.0, (4, 4))
    p[0, :2] = [0.0, 1.0]
    p[0, 2] = -0.0
    if bad is not None:
        p[3, 1] = bad
    if np.all((p >= 0.0) & (p <= 1.0)):
        assert prediction_confidence(p) == float(np.abs(2.0 * p - 1.0).mean())
    else:
        with pytest.raises(DomainError):
            prediction_confidence(p)


# ------------------------------------------------------------ selection


def test_select_from_empty_bank():
    assert select_memory(np.empty(0), 5) == []


def test_select_fewer_candidates_than_k():
    bank = [entry(0.5, 0.5) for _ in range(3)]
    assert len(select_memory(scores(bank), 5)) == 3


def test_select_k_below_one_rejected():
    with pytest.raises(ContractError):
        select_memory(np.empty(0), 0)


def test_select_derived_tie_case():
    # scores 0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3 at positions 0..6, K=5:
    # tie at 0.85 resolves toward position 3; output in descending-score order.
    bank = [entry(1.0, s) for s in [0.9, 0.1, 0.85, 0.85, 0.2, 0.7, 0.3]]
    assert select_memory(scores(bank), 5) == [0, 3, 2, 5, 6]


def oracle_select(bank: list[tuple[np.ndarray, float]], query: np.ndarray, k: int) -> list[int]:
    """Enumerate all subsets of size min(k, n), pick the max-score subset
    under the recency tie rule, return its positions in output order."""

    def score(i: int) -> float:
        emb, conf = bank[i]
        nq, ne = np.linalg.norm(query), np.linalg.norm(emb)
        sim = 0.0 if nq <= 1e-12 or ne <= 1e-12 else float(emb @ query) / (ne * nq)
        return sim * conf

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
        bank.append(entry(sim, conf))
    assert select_memory(scores(bank), k) == oracle_select(bank, QUERY, k)


def test_selected_indices_all_precede_current_slice():
    rng = np.random.default_rng(42)
    t = 6
    bank = [entry(float(rng.uniform(-1, 1)), float(rng.uniform(0, 1))) for _ in range(t)]
    for i in select_memory(scores(bank), 4):
        assert 0 <= i < t


def test_selection_scores_use_detached_embeddings(monkeypatch):
    # a taped forward scores slice t's bank as one plain array of t entries
    seen = []

    def recording(row, k):
        seen.append(row)
        return select_memory(row, k)

    monkeypatch.setattr(model, "select_memory", recording)
    rng = np.random.default_rng(5)
    seq = SliceSequence("s", [SliceData(rng.uniform(0, 1, (8, 8, 1)), None, 2.0 * t) for t in range(4)])
    preds = forward_sequence(seq, init_params(MICRO_CONFIG, seed=0))
    assert all(p.pooled_embedding._parents for p in preds)
    assert [type(row) for row in seen] == [np.ndarray] * 3
    assert [len(row) for row in seen] == [1, 2, 3]
