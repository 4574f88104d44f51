"""Low-rank adaptation of frozen projection matrices.

An adapted projection is three tensors: the frozen base W (d_out, d_in)
and the trainable factors A (r, d_in) and B (d_out, r). Its effective
weight is W + B @ A; with B zeroed at init it is exactly W. The scale
alpha/r of the LoRA formulation is fixed at 1 (alpha = r).
"""

from __future__ import annotations

from . import tensor as T
from .tensor import Tensor


def lora_forward(x: Tensor, W: Tensor, A: Tensor, B: Tensor) -> Tensor:
    """y = x (W + B A)^T; gradients reach A and B only."""
    return T.linear(x, merge(W, A, B))


def merge(W: Tensor, A: Tensor, B: Tensor) -> Tensor:
    """Collapse the adapter into a single weight: W + B A."""
    return T.add(W, T.matmul(B, A))
