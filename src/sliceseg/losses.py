"""Segmentation losses and the Dice evaluation metric.

The training objective per sequence is

    mean_t [ w_dice * dice(p_t, y_t) + w_bce * bce(p_t, y_t) ]
        + w_consistency * consistency(predictions, embeddings)

with default weights 1.0 / 0.5 / 0.2. The consistency term penalizes
squared prediction differences between slice pairs whose (detached)
embedding similarity exceeds a threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor

BCE_CLIP = 1e-7


@dataclass
class LossWeights:
    w_dice: float = 1.0
    w_bce: float = 0.5
    w_consistency: float = 0.2
    smooth: float = 1.0
    similarity_threshold: float = 0.7


def _check_pair(p: Tensor, y: Tensor, op: str) -> None:
    if p.shape != y.shape:
        raise ShapeError(f"{op}: prediction shape {p.shape} != target shape {y.shape}")


def dice_loss(p: Tensor, y: Tensor, smooth: float = 1.0) -> Tensor:
    """Soft Dice: 1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps)."""
    _check_pair(p, y, "dice_loss")
    overlap = T.tensor_sum(T.mul(p, y))
    total = T.add(T.tensor_sum(p), T.tensor_sum(y))
    return T.sub(1.0, T.div(T.add(T.mul(overlap, 2.0), smooth), T.add(total, smooth)))


def bce_loss(p: Tensor, y: Tensor) -> Tensor:
    """Pixel-mean binary cross entropy; p clipped to [1e-7, 1-1e-7]."""
    _check_pair(p, y, "bce_loss")
    pc = T.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    pos = T.mul(y, T.log(pc))
    neg = T.mul(T.sub(1.0, y), T.log(T.sub(1.0, pc)))
    return T.mul(T.mean(T.add(pos, neg)), -1.0)


def consistency_pairs(
    embeddings: list[Tensor],
    threshold: float = 0.7,
) -> list[tuple[int, int, float]]:
    """High-similarity slice pairs (i, j, sim) with i < j and sim > threshold.

    Similarities are computed on detached values: the consistency term
    shapes predictions, not features, so these act as fixed weights.
    """
    data = [e.data for e in embeddings]
    pairs = []
    for i in range(len(data) - 1):
        sims = T.cosines(data[i], np.stack(data[i + 1 :]))
        pairs.extend((i, i + 1 + j, float(s)) for j, s in enumerate(sims) if s > threshold)
    return pairs


def consistency_loss(
    predictions: list[Tensor],
    embeddings: list[Tensor],
    threshold: float = 0.7,
    pairs: list[tuple[int, int, float]] | None = None,
) -> Tensor:
    """Similarity-weighted squared discrepancy over high-similarity pairs.

    Returns 0 when no pair clears the threshold. A precomputed `pairs`
    list pins the (detached) weights, e.g. so a finite-difference probe
    sees the same objective the tape differentiates.
    """
    if len(predictions) != len(embeddings):
        raise ContractError(
            f"{len(predictions)} predictions vs {len(embeddings)} embeddings"
        )
    if pairs is None:
        pairs = consistency_pairs(embeddings, threshold)
    terms = []
    for i, j, sim in pairs:
        diff = T.sub(predictions[i], predictions[j])
        terms.append(T.mul(T.mean(T.mul(diff, diff)), sim))
    if not terms:
        return Tensor(0.0)
    return T.div(functools.reduce(T.add, terms), float(len(terms)))


def combined_loss(
    predictions: list[Tensor],
    targets: list[Tensor],
    embeddings: list[Tensor],
    weights: LossWeights | None = None,
    pairs: list[tuple[int, int, float]] | None = None,
) -> Tensor:
    """Sequence loss: slice-mean of weighted Dice+BCE plus consistency."""
    if weights is None:
        weights = LossWeights()
    if len(predictions) != len(targets):
        raise ContractError(f"{len(predictions)} predictions vs {len(targets)} targets")
    per_slice = []
    for p, y in zip(predictions, targets):
        term = T.add(
            T.mul(dice_loss(p, y, weights.smooth), weights.w_dice),
            T.mul(bce_loss(p, y), weights.w_bce),
        )
        per_slice.append(term)
    total = T.div(functools.reduce(T.add, per_slice), float(len(per_slice)))
    cons = consistency_loss(predictions, embeddings, weights.similarity_threshold, pairs=pairs)
    return T.add(total, T.mul(cons, weights.w_consistency))


def dice_score(pred_mask: np.ndarray, gt_mask: np.ndarray) -> float:
    """2|A&B| / (|A|+|B|) on binary masks; 1.0 when both are empty."""
    a = np.asarray(pred_mask)
    b = np.asarray(gt_mask)
    if a.shape != b.shape:
        raise ShapeError(f"dice_score: shapes {a.shape} vs {b.shape}")
    if not np.isin(a, (0, 1)).all() or not np.isin(b, (0, 1)).all():
        raise ContractError("dice_score requires binary masks")
    denom = a.sum() + b.sum()
    if denom == 0:
        return 1.0
    return float(2.0 * np.logical_and(a, b).sum() / denom)
