"""Segmentation losses and the Dice evaluation metric.

The training objective per sequence is

    mean_t [ w_dice * dice(p_t, y_t) + w_bce * bce(p_t, y_t) ]
        + w_consistency * consistency(predictions, embeddings)

with default weights 1.0 / 0.5 / 0.2. The consistency term penalizes
squared prediction differences between slice pairs whose (detached)
embedding similarity exceeds a threshold.

``combined_loss`` puts the whole objective on the tape as one node, op
``sequence_loss``, whose hand-written backward routes one gradient to
each probability map. Its forward calls ``dice_loss``, ``bce_loss`` and
``consistency_loss``, which are plain numpy: arrays in, a float out.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DomainError, ShapeError
from .tensor import Tensor, _node

BCE_CLIP = 1e-7


@dataclass
class LossWeights:
    w_dice: float = 1.0
    w_bce: float = 0.5
    w_consistency: float = 0.2
    smooth: float = 1.0
    similarity_threshold: float = 0.7


def _check_pair(p: np.ndarray, y: np.ndarray, op: str) -> None:
    if p.shape != y.shape:
        raise ShapeError(f"{op}: prediction shape {p.shape} != target shape {y.shape}")


def dice_loss(p: np.ndarray, y: np.ndarray, smooth: float = 1.0) -> float:
    """Soft Dice: 1 - (2*sum(p*y) + eps) / (sum(p) + sum(y) + eps)."""
    _check_pair(p, y, "dice_loss")
    return float(1.0 - ((p * y).sum() * 2.0 + smooth) / (p.sum() + y.sum() + smooth))


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Pixel-mean binary cross entropy; p clipped to [1e-7, 1-1e-7]."""
    _check_pair(p, y, "bce_loss")
    pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
    return float((y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum() / p.size * -1.0)


def consistency_pairs(
    embeddings: list[Tensor],
    threshold: float = 0.7,
) -> list[tuple[int, int, float]]:
    """High-similarity slice pairs (i, j, sim) with i < j and sim > threshold.

    Similarities are computed on detached values: the consistency term
    shapes predictions, not features, so these act as fixed weights.
    """
    if not embeddings:
        return []
    if len(shapes := sorted({e.shape for e in embeddings})) > 1:
        raise ShapeError(f"consistency_pairs: embedding shapes differ: {shapes}")
    E = np.stack([e.data for e in embeddings])
    sims = T.cosines(E[:-1], E)  # one block against all rows, so an error's row is the index
    return [(i, j, float(sims[i, j])) for i, j in np.argwhere(np.triu(sims > threshold, 1)).tolist()]


def consistency_loss(
    predictions: list[np.ndarray],
    embeddings: list[Tensor],
    threshold: float = 0.7,
    pairs: list[tuple[int, int, float]] | None = None,
) -> float:
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
        _check_pair(predictions[i], predictions[j], "consistency_loss")
        diff = predictions[i] - predictions[j]
        terms.append((diff * diff).sum() / diff.size * sim)
    if not terms:
        return 0.0
    return float(functools.reduce(operator.add, terms) / float(len(terms)))


def combined_loss(
    predictions: list[Tensor],
    targets: list[Tensor],
    embeddings: list[Tensor],
    weights: LossWeights | None = None,
    pairs: list[tuple[int, int, float]] | None = None,
) -> Tensor:
    """Sequence loss: slice-mean of weighted Dice+BCE plus consistency, as
    one ``sequence_loss`` node.

    Gradient flows to the predictions only; targets and the detached pair
    weights are constants. `pairs` as in ``consistency_loss``. A map with
    a value outside [0, 1] (NaN included), or a target with a value other
    than 0 or 1, is a DomainError naming its slice.
    """
    if weights is None:
        weights = LossWeights()
    if len(predictions) != len(targets):
        raise ContractError(f"{len(predictions)} predictions vs {len(targets)} targets")
    if not predictions:
        raise ContractError("combined_loss of an empty sequence")
    if pairs is None:
        pairs = consistency_pairs(embeddings, weights.similarity_threshold)
    maps = [p.data for p in predictions]
    masks = [y.data for y in targets]
    for t, (p, y) in enumerate(zip(maps, masks)):
        if not (p.min() >= 0.0 and p.max() <= 1.0):  # false for NaN too
            raise DomainError(f"slice {t}: probabilities must lie in [0, 1]")
        binary = (y == 0.0) | (y == 1.0)  # false for NaN too
        if not binary.all():
            raise DomainError(f"slice {t}: target must be 0 or 1, got {y[~binary][0]}")
    per_slice = [
        dice_loss(p, y, weights.smooth) * weights.w_dice + bce_loss(p, y) * weights.w_bce
        for p, y in zip(maps, masks)
    ]
    total = functools.reduce(operator.add, per_slice) / float(len(per_slice))
    cons = consistency_loss(maps, embeddings, pairs=pairs)

    def backward(g):
        # the old op chain's backward, product for product, so the gradients
        # keep its bits (the test oracle rebuilds that chain)
        g_slice = g / len(maps)
        g_dice = -(g_slice * weights.w_dice)
        g_bce = g_slice * weights.w_bce * -1.0
        grads = []
        for p, y in zip(maps, masks):
            num = (p * y).sum() * 2.0 + weights.smooth
            den = p.sum() + y.sum() + weights.smooth
            grad = (g_dice / den * 2.0) * y
            grad += -g_dice * num / (den * den)
            pc = np.clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
            g_mean = g_bce / p.size
            g_pc = (g_mean * y) / pc - (g_mean * (1.0 - y)) / (1.0 - pc)
            grad += g_pc * ((p > BCE_CLIP) & (p < 1.0 - BCE_CLIP))
            grads.append(grad)
        for i, j, sim in pairs:
            c = g * weights.w_consistency / len(pairs) * sim / maps[i].size
            d = (maps[i] - maps[j]) * (c * 2.0)  # the chain's c*diff + c*diff
            grads[i] += d
            grads[j] -= d
        return zip(predictions, grads)

    return _node(total + cons * weights.w_consistency, predictions, backward, "sequence_loss")


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
