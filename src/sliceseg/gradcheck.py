"""Central finite-difference verification of tape gradients, and the
gradient verification report of the micro model.

The numeric side only ever calls the forward pass, so it stays an
independent oracle for whatever backward rule it is checking.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .data_io import SliceData, SliceSequence
from .errors import ContractError
from .losses import LossWeights, combined_loss, consistency_pairs
from .model import MICRO_CONFIG, ModelConfig, ModelParams, forward_sequence, init_params
from .rng import substream
from .tensor import Tensor
from .training import _sequence_targets

FD_STEP = 1e-4
# Relative error floor: below this gradient magnitude the comparison is
# effectively absolute, keeping h^2 truncation noise out of the verdict.
REL_FLOOR = 1e-3
# The largest max relative error per parameter group that passes grad_check.
TOLERANCE = 1e-3


def numeric_grad(
    loss_fn: Callable[[], Tensor],
    param: Tensor,
    indices: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], float]:
    """Central differences, step FD_STEP, of loss_fn with respect to the
    entries of `param` at `indices`.

    Mutates param.data in place around each probe and restores it, also
    when loss_fn raises.
    """
    out: dict[tuple[int, ...], float] = {}
    for idx in indices:
        orig = param.data[idx]
        try:
            param.data[idx] = orig + FD_STEP
            up = loss_fn().item()
            param.data[idx] = orig - FD_STEP
            down = loss_fn().item()
        finally:
            param.data[idx] = orig
        out[idx] = (up - down) / (2.0 * FD_STEP)
    return out


def max_rel_error(
    loss_fn: Callable[[], Tensor],
    param: Tensor,
    max_checks: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst relative disagreement between tape and numeric gradients.

    Assumes param.grad is already populated from a backward pass of the
    same loss. Checks every coordinate unless `max_checks` caps it, in
    which case a random subset is probed.
    """
    if param.grad is None:
        raise ContractError("param has no gradient to compare against")
    all_indices = list(np.ndindex(param.data.shape))
    if max_checks is not None and len(all_indices) > max_checks:
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(len(all_indices), size=max_checks, replace=False)
        all_indices = [all_indices[i] for i in chosen]
    numeric = numeric_grad(loss_fn, param, all_indices)
    worst = 0.0
    for idx, num in numeric.items():
        analytic = float(param.grad[idx])
        worst = max(worst, abs(analytic - num) / max(abs(analytic), abs(num), REL_FLOOR))
    return worst


def _micro_sequence(seed: int, config: ModelConfig, n_slices: int = 2):
    rng = substream(seed, "gradcheck-data")
    size = config.image_size
    slices = []
    z = 0.0
    for _ in range(n_slices):
        image = rng.uniform(0.0, 1.0, size=(size, size, config.channels))
        mask = (rng.random((size, size)) < 0.4).astype(np.uint8)
        slices.append(SliceData(image=image, mask=mask, z_position_um=z))
        z += float(rng.uniform(2.0, 10.0))
    return SliceSequence(sequence_id="gradcheck", slices=slices)


def grad_check(seed: int = 0, max_checks_per_tensor: int = 24) -> dict:
    """Compare tape gradients against central finite differences.

    Builds the 2-slice micro-model, evaluates the full combined loss,
    and probes up to `max_checks_per_tensor` coordinates per tensor.
    Reports the max relative error per parameter group; the run passes
    when every group stays within TOLERANCE.
    """
    groups = group_errors(_micro_sequence(seed, MICRO_CONFIG), seed, max_checks_per_tensor)
    passed = all(g["max_rel_err"] <= TOLERANCE for g in groups.values())
    return {"seed": seed, "pass": passed, "groups": groups, "tolerance": TOLERANCE}


def group_errors(seq: SliceSequence, seed: int, max_checks_per_tensor: int) -> dict[str, dict]:
    """{group: max relative error and tensor count} of the micro model, seeded
    by `seed`, on `seq`: `grad_check`'s comparison for any micro sequence."""
    config = MICRO_CONFIG
    params = init_params(config, seed=seed)
    # Nudge the adapters off their zero init so their gradients are alive.
    nudge = substream(seed, "gradcheck-nudge")
    for name, t in params.tensors.items():
        if name.startswith("lora.") and name.endswith(".B"):
            t.data = nudge.normal(0.0, 0.02, size=t.data.shape)
    targets, weights = _sequence_targets(seq), LossWeights()

    def loss_of(preds, pairs) -> Tensor:
        embeddings = [p.pooled_embedding for p in preds]
        return combined_loss([p.probabilities for p in preds], targets, embeddings, weights, pairs)

    # One taped forward gives both the analytic gradients and the consistency
    # pairs, found once from its embeddings, as training's loss would find them.
    preds = forward_sequence(seq, params)
    frozen_pairs = consistency_pairs([p.pooled_embedding for p in preds], weights.similarity_threshold)
    loss_of(preds, frozen_pairs).backward()
    # The probes only read loss values, so they run on constants sharing the
    # parameters' arrays: numeric_grad's writes reach the view, and no probe
    # builds a tape. They hold the detached consistency weights at their
    # unperturbed values, so finite differences verify the defined gradient.
    view = ModelParams(config, {n: Tensor(t.data) for n, t in params.tensors.items()}, params.frozen)

    def loss_fn() -> Tensor:
        return loss_of(forward_sequence(seq, view), frozen_pairs)

    pick = substream(seed, "gradcheck-pick")
    groups: dict[str, dict] = {}
    for name, tensor in sorted(params.trainable().items()):
        if tensor.grad is None:
            tensor.grad = np.zeros_like(tensor.data)
        err = max_rel_error(loss_fn, tensor, max_checks=max_checks_per_tensor, rng=pick)
        entry = groups.setdefault(params.group_of(name), {"max_rel_err": 0.0, "tensors": 0})
        entry["max_rel_err"] = max(entry["max_rel_err"], err)
        entry["tensors"] += 1
    return groups
