"""Central finite-difference verification of tape gradients.

The numeric side only ever calls the forward pass, so it stays an
independent oracle for whatever backward rule it is checking.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

FD_STEP = 1e-4
# Relative error floor: below this gradient magnitude the comparison is
# effectively absolute, keeping h^2 truncation noise out of the verdict.
REL_FLOOR = 1e-3


def numeric_grad(
    loss_fn: Callable[[], Tensor],
    param: Tensor,
    indices: Sequence[tuple[int, ...]],
) -> dict[tuple[int, ...], float]:
    """Central differences, step FD_STEP, of loss_fn with respect to the
    entries of `param` at `indices`.

    Mutates param.data in place around each probe and restores it.
    """
    out: dict[tuple[int, ...], float] = {}
    for idx in indices:
        orig = param.data[idx]
        param.data[idx] = orig + FD_STEP
        up = loss_fn().item()
        param.data[idx] = orig - FD_STEP
        down = loss_fn().item()
        param.data[idx] = orig
        out[idx] = (up - down) / (2.0 * FD_STEP)
    return out


def rel_error(analytic: float, numeric: float) -> float:
    scale = max(abs(analytic), abs(numeric), REL_FLOOR)
    return abs(analytic - numeric) / scale


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
        raise ValueError("param has no gradient to compare against")
    all_indices = list(np.ndindex(param.data.shape))
    if max_checks is not None and len(all_indices) > max_checks:
        if rng is None:
            rng = np.random.default_rng(0)
        chosen = rng.choice(len(all_indices), size=max_checks, replace=False)
        all_indices = [all_indices[i] for i in chosen]
    numeric = numeric_grad(loss_fn, param, all_indices)
    worst = 0.0
    for idx, num in numeric.items():
        worst = max(worst, rel_error(float(param.grad[idx]), num))
    return worst
