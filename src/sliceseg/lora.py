"""Low-rank adaptation of frozen projection matrices.

The effective weight is W + (alpha/r) * B @ A with W frozen, A drawn
from N(0, 0.02^2) and B zeroed, so a fresh adapter is an exact no-op.
alpha defaults to r, making the scale factor 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .rng import substream
from .tensor import Tensor

A_INIT_STD = 0.02
DEFAULT_RANK = 8


@dataclass
class LoraAdapter:
    base: Tensor  # (d_out, d_in), frozen
    A: Tensor  # (r, d_in), trainable
    B: Tensor  # (d_out, r), trainable
    rank: int
    alpha: float

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


def init_lora(
    d_in: int,
    d_out: int,
    rank: int = DEFAULT_RANK,
    alpha: float | None = None,
    seed: int = 0,
    base: Tensor | None = None,
    name: str = "lora",
) -> LoraAdapter:
    """Fresh adapter around `base` (random frozen base if not given)."""
    if rank < 1 or rank > min(d_in, d_out):
        raise ContractError(
            f"rank must be in [1, {min(d_in, d_out)}] for a {d_out}x{d_in} base, got {rank}"
        )
    rng = substream(seed, name)
    if base is None:
        base = Tensor(rng.standard_normal((d_out, d_in)) / d_in**0.5)
    elif base.shape != (d_out, d_in):
        raise ShapeError(f"base shape {base.shape} != ({d_out}, {d_in})")
    a = Tensor(rng.normal(0.0, A_INIT_STD, size=(rank, d_in)), requires_grad=True)
    b = Tensor(np.zeros((d_out, rank)), requires_grad=True)
    return LoraAdapter(base=base, A=a, B=b, rank=rank, alpha=rank if alpha is None else alpha)


def lora_forward(x: Tensor, adapter: LoraAdapter) -> Tensor:
    """y = x (W + (alpha/r) B A)^T; gradients reach A and B only."""
    return T.linear(x, merge(adapter))


def merge(adapter: LoraAdapter) -> Tensor:
    """Collapse the adapter into a single weight: W + (alpha/r) B A."""
    return T.add(adapter.base, T.mul(T.matmul(adapter.B, adapter.A), adapter.scale))
