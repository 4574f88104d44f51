"""Loss terms, the combined objective and the Dice metric."""

import math

import numpy as np
import pytest

from sliceseg.errors import ContractError, DomainError, ShapeError
from sliceseg.gradcheck import max_rel_error
from sliceseg.losses import (
    LossWeights,
    bce_loss,
    combined_loss,
    consistency_loss,
    consistency_pairs,
    dice_loss,
    dice_score,
)
from sliceseg.tensor import Tensor


def test_dice_loss_perfect_match():
    # 16 ones of 16 pixels: 1 - 33/33 = 0
    assert dice_loss(np.ones((4, 4)), np.ones((4, 4))) == pytest.approx(0.0, abs=1e-15)


def test_dice_loss_disjoint_halves_hand_value():
    # p = left half, y = right half on 16 pixels: 1 - (0 + 1)/(8 + 8 + 1)
    p = np.zeros((4, 4))
    p[:, :2] = 1.0
    y = np.zeros((4, 4))
    y[:, 2:] = 1.0
    out = dice_loss(p, y)
    assert out == pytest.approx(1.0 - 1.0 / 17.0, abs=1e-12)
    assert out == pytest.approx(0.941176, abs=1e-6)


def test_dice_loss_empty_masks_smoothing_convention():
    assert dice_loss(np.zeros((4, 4)), np.zeros((4, 4))) == 0.0


def test_dice_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        dice_loss(np.zeros((2, 2)), np.zeros((3, 3)))


def test_bce_uniform_uncertainty():
    p = np.full((4, 4), 0.5)
    y = (np.arange(16).reshape(4, 4) % 2).astype(float)
    assert bce_loss(p, y) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_near_zero_floor_on_perfect_prediction():
    y = (np.arange(16).reshape(4, 4) % 2).astype(float)
    assert bce_loss(y, y) <= 1e-6


def test_bce_single_pixel_derived():
    assert bce_loss(np.array([[0.9]]), np.array([[1.0]])) == pytest.approx(
        -math.log(0.9), abs=1e-12
    )


def test_consistency_identical_predictions_is_exactly_zero():
    p = np.random.default_rng(0).uniform(0, 1, (4, 4))
    e = Tensor(np.ones(3))
    assert consistency_loss([p, p.copy()], [e, e]) == 0.0


def test_consistency_single_slice_has_no_pairs():
    assert consistency_loss([np.ones((2, 2))], [Tensor(np.ones(3))]) == 0.0


def test_consistency_hand_value():
    # sim = 0.9 > tau, p1 all ones, p2 all zeros -> 0.9 * 1
    e1 = Tensor([1.0, 0.0])
    e2 = Tensor([0.9, math.sqrt(1 - 0.81)])
    out = consistency_loss([np.ones((3, 3)), np.zeros((3, 3))], [e1, e2])
    assert out == pytest.approx(0.9, abs=1e-12)


def test_consistency_below_threshold_pairs_drop_out():
    e1 = Tensor([1.0, 0.0])
    e2 = Tensor([0.0, 1.0])  # sim 0 < 0.7
    assert consistency_loss([np.ones((2, 2)), np.zeros((2, 2))], [e1, e2]) == 0.0


def test_consistency_length_mismatch():
    with pytest.raises(ContractError):
        consistency_loss([np.ones((2, 2))], [])


def test_argument_errors_are_typed():
    one = [Tensor(np.ones((2, 2)))]
    with pytest.raises(ContractError, match="1 predictions vs 0 targets"):
        combined_loss(one, [], one)
    with pytest.raises(ContractError, match="empty sequence"):
        combined_loss([], [], [])
    with pytest.raises(ShapeError, match=r"consistency_loss: .*\(1, 2\).*\(2, 2\)"):
        consistency_loss([np.ones((1, 2)), np.ones((2, 2))], [Tensor(np.ones(3))] * 2)
    two = [Tensor(np.ones((2, 2)))] * 2
    widths = [Tensor(np.ones(3)), Tensor(np.ones(4))]
    with pytest.raises(ShapeError, match=r"embedding shapes differ: \[\(3,\), \(4,\)\]"):
        combined_loss(two, two, widths)
    with pytest.raises(ShapeError, match="embedding shapes differ"):
        consistency_pairs(widths[::-1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_an_embedding_whose_norm_is_not_finite_is_a_domain_error_naming_it(bad):
    # it used to be degenerate: its pairs silently dropped, a finite loss
    embs = [Tensor([1.0, 0.0]), Tensor([0.9, 0.1]), Tensor([bad, 1.0]), Tensor([1.0, 0.1])]
    maps = [Tensor(np.full((2, 2), 0.5), requires_grad=True) for _ in embs]
    with pytest.raises(DomainError, match="row 2 has a norm that is not finite"):
        consistency_pairs(embs)
    with pytest.raises(DomainError, match="row 2 has a norm that is not finite"):
        combined_loss(maps, maps, embs)


@pytest.mark.parametrize("bad", [math.nan, -1e-3, 1.0 + 1e-12, math.inf])
def test_a_probability_map_outside_the_unit_interval_is_a_domain_error_naming_its_slice(bad):
    # a NaN map used to give a NaN loss, caught only by train_step's finiteness check
    maps = [Tensor(np.full((2, 2), 0.5), requires_grad=True) for _ in range(4)]
    maps[2].data[1, 0] = bad
    embs = [Tensor(np.eye(3)[t % 3]) for t in range(4)]
    with pytest.raises(DomainError, match=r"^slice 2: probabilities must lie in \[0, 1\]$"):
        combined_loss(maps, [Tensor(np.ones((2, 2)))] * 4, embs)
    maps[2].data[1, 0] = 1.0  # the ends of the interval are in it
    maps[3].data[0, 0] = 0.0
    assert math.isfinite(combined_loss(maps, [Tensor(np.ones((2, 2)))] * 4, embs).item())


def test_consistency_invariant_to_slice_reordering():
    rng = np.random.default_rng(5)
    preds = [rng.uniform(0, 1, (3, 3)) for _ in range(4)]
    embs = [Tensor(rng.standard_normal(4) + 2.0) for _ in range(4)]
    base = consistency_loss(preds, embs)
    perm = rng.permutation(4)
    shuffled = consistency_loss([preds[i] for i in perm], [embs[i] for i in perm])
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_combined_matches_component_sum():
    rng = np.random.default_rng(3)
    n = 3
    preds = [Tensor(rng.uniform(0.01, 0.99, (4, 4))) for _ in range(n)]
    targets = [Tensor((rng.random((4, 4)) < 0.5).astype(float)) for _ in range(n)]
    embs = [Tensor(rng.standard_normal(5) + 1.0) for _ in range(n)]
    w = LossWeights()
    total = combined_loss(preds, targets, embs, w).item()
    per_slice = np.mean(
        [
            w.w_dice * dice_loss(p.data, y.data, w.smooth) + w.w_bce * bce_loss(p.data, y.data)
            for p, y in zip(preds, targets)
        ]
    )
    cons = consistency_loss([p.data for p in preds], embs, w.similarity_threshold)
    assert abs(total - (per_slice + w.w_consistency * cons)) <= 1e-12


def test_combined_zero_consistency_weight_reduces_to_slice_mean():
    rng = np.random.default_rng(4)
    preds = [Tensor(rng.uniform(0.01, 0.99, (2, 2))) for _ in range(2)]
    targets = [Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))]
    embs = [Tensor(np.ones(3)), Tensor(np.ones(3))]
    w = LossWeights(w_consistency=0.0)
    total = combined_loss(preds, targets, embs, w).item()
    expected = np.mean(
        [
            w.w_dice * dice_loss(p.data, y.data) + w.w_bce * bce_loss(p.data, y.data)
            for p, y in zip(preds, targets)
        ]
    )
    assert total == expected


def test_combined_near_zero_for_perfect_identical_predictions():
    y = (np.arange(16).reshape(4, 4) % 3 == 0).astype(float)
    preds = [Tensor(y.copy()), Tensor(y.copy())]
    targets = [Tensor(y.copy()), Tensor(y.copy())]
    embs = [Tensor(np.ones(3)), Tensor(np.ones(3))]
    assert combined_loss(preds, targets, embs).item() <= 1e-5


def test_default_weights_are_paper_coefficients():
    w = LossWeights()
    assert (w.w_dice, w.w_bce, w.w_consistency) == (1.0, 0.5, 0.2)


@pytest.mark.parametrize("seed", range(5))
def test_loss_ranges_and_gradients(seed):
    rng = np.random.default_rng(seed)
    p = Tensor(rng.uniform(0.05, 0.95, (4, 4)), requires_grad=True)
    y = Tensor((rng.random((4, 4)) < 0.5).astype(float))
    assert 0.0 <= dice_loss(p.data, y.data) < 1.0
    assert bce_loss(p.data, y.data) >= 0.0
    other = Tensor(rng.uniform(0.05, 0.95, (4, 4)))
    embs = [Tensor(np.ones(3)), Tensor(np.ones(3))]
    # each term alone, through the one sequence_loss node
    for w in (
        LossWeights(w_bce=0.0, w_consistency=0.0),
        LossWeights(w_dice=0.0, w_consistency=0.0),
        LossWeights(w_dice=0.0, w_bce=0.0, w_consistency=1.0),
    ):
        p.zero_grad()
        combined_loss([p, other], [y, y], embs, w).backward()
        assert max_rel_error(lambda: combined_loss([p, other], [y, y], embs, w), p) <= 1e-3


def test_dice_score_identical_masks():
    m = (np.arange(16).reshape(4, 4) % 2).astype(np.uint8)
    assert dice_score(m, m) == 1.0


def test_dice_score_disjoint_masks():
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[0], b[1] = 1, 1
    assert dice_score(a, b) == 0.0


def test_dice_score_hand_count():
    # |A| = |B| = 8, |A & B| = 4 -> 0.5
    a = np.zeros((4, 4), dtype=np.uint8)
    b = np.zeros((4, 4), dtype=np.uint8)
    a[:2] = 1
    b[1:3] = 1
    assert dice_score(a, b) == 0.5


def test_dice_score_both_empty_is_one():
    z = np.zeros((4, 4), dtype=np.uint8)
    assert dice_score(z, z) == 1.0


def test_dice_score_symmetric_and_bounded():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = (rng.random((5, 5)) < 0.4).astype(np.uint8)
        b = (rng.random((5, 5)) < 0.4).astype(np.uint8)
        s = dice_score(a, b)
        assert 0.0 <= s <= 1.0
        assert s == dice_score(b, a)


def test_dice_score_rejects_non_binary():
    with pytest.raises(ContractError):
        dice_score(np.full((2, 2), 0.5), np.zeros((2, 2)))


@pytest.mark.parametrize("seed", range(5))
def test_consistency_pairs_match_nested_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(6)
    # near copies of one direction clear the threshold, the rest mostly not
    embeddings = [Tensor(base + rng.normal(0.0, rng.choice([0.1, 2.0]), 6)) for _ in range(7)]
    embeddings[3] = Tensor(np.zeros(6))  # degenerate: similarity 0
    expected = []
    for i in range(len(embeddings)):
        for j in range(i + 1, len(embeddings)):
            ei, ej = embeddings[i].data, embeddings[j].data
            ni, nj = np.linalg.norm(ei), np.linalg.norm(ej)
            sim = 0.0 if ni <= 1e-12 or nj <= 1e-12 else float(ei @ ej) / (ni * nj)
            if sim > 0.7:
                expected.append((i, j, sim))
    got = consistency_pairs(embeddings, 0.7)
    assert isinstance(got, list)
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in expected]
    assert all(abs(a[2] - b[2]) <= 1e-15 for a, b in zip(got, expected))
    assert 0 < len(got) < 21
