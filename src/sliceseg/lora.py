"""Low-rank adaptation of frozen projection matrices.

An adapted projection is three tensors: the frozen base W (d_out, d_in)
and the trainable factors A (r, d_in) and B (d_out, r). Its effective
weight is W + B @ A, one tape node (op ``lora``); with B zeroed at init it
is exactly W. The scale alpha/r of the LoRA formulation is fixed at 1
(alpha = r).
"""

from __future__ import annotations

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor, _node


def lora_forward(x: Tensor, W: Tensor, A: Tensor, B: Tensor) -> Tensor:
    """y = x (W + B A)^T; gradients reach A and B only."""
    return T.linear(x, merge(W, A, B))


def merge(W: Tensor, A: Tensor, B: Tensor) -> Tensor:
    """Collapse the adapter into a single weight, W + B A, as one node.

    Its backward sends B^T g to A and g A^T to B, and g to W only when W
    is taped: the products of the ``add(W, matmul(B, A))`` chain it
    replaces, to the same bits."""
    W, A, B = T.as_tensor(W), T.as_tensor(A), T.as_tensor(B)
    fits = A.data.ndim == B.data.ndim == 2 and B.shape[1] == A.shape[0]
    if not fits or W.shape != (B.shape[0], A.shape[1]):
        raise ShapeError(f"lora: base {W.shape}, A {A.shape} and B {B.shape} do not fit W + B A")

    def backward(g):
        grads = [(A, B.data.T @ g), (B, g @ A.data.T)]
        if T._taped(W):
            grads.append((W, g))
        return grads

    return _node(W.data + B.data @ A.data, (W, A, B), backward, "lora")
