"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit tape: the output tensor keeps
references to its parents and a closure that routes the upstream gradient
to them. ``Tensor.backward()`` on a scalar walks the tape in reverse
topological order and accumulates gradients additively into every
``requires_grad`` tensor (call ``zero_grad`` between steps).

The op set is 11 of the 13 ops the model builds: ``add``, ``tanh``,
``sigmoid``, ``mean``, ``matmul``, ``take`` (row i of the first axis) and
``layer_norm`` (which optionally folds the affine gain and bias,
``gamma`` and ``beta``, both or neither, each as wide as the last axis,
into its one node), plus fused primitives that each replace a whole op
chain of the model with one node and a hand-written backward: ``linear``
and ``multi_head_attention`` (op ``attention``), which both take any
leading axes so one node serves a chunk of slices, ``weighted_sum`` and
``unpatchify`` (patch rows back to an image). The other two are
``cross_slice`` (the distance-aware memory weights, in ``attention``) and
``sequence_loss`` (the training objective, in ``losses``). ``Tensor`` has
no operator overloads. ``cosines`` is the detached numpy kernel of cosine
similarity; memory scoring, cross-slice weights and consistency pairs use it.
Shapes are checked eagerly; only numpy-style broadcasting needed by the
model is supported. Kernels compute in place only in arrays they allocated,
never in an input's ``data`` or in the upstream gradient.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

NORM_EPS = 1e-12
# Added to the variance under layer_norm's square root.
LN_EPS = 1e-5


class Tensor:
    """A node in the autodiff tape wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"

    # ---------------------------------------------------------------- basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(op={self._op}, shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------- autodiff

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad tensor.

        Repeated calls without zeroing add up, matching the per-sequence
        loss accumulation the training loop relies on.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g
            if node._backward is not None:
                node._backward_route(g, flowing)

    def _backward_route(self, g: np.ndarray, flowing: dict[int, np.ndarray]) -> None:
        for parent, pg in self._backward(g):
            if pg is None:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    out = Tensor(data)
    out._op = op
    for p in parents:
        if p.requires_grad or p._parents:
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes numpy broadcast to reach its shape."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _broadcasting(fn, a: Tensor, b: Tensor, op: str) -> np.ndarray:
    """fn(a.data, b.data), with numpy's broadcast failure as a ShapeError."""
    try:
        return fn(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ------------------------------------------------------------- elementwise


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        return ((a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape)))

    return _node(_broadcasting(np.add, a, b, "add"), (a, b), backward, "add")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        return ((a, g * (1.0 - out_data * out_data)),)

    return _node(out_data, (a,), backward, "tanh")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.negative(a.data, out=np.empty_like(a.data))
    np.exp(out_data, out=out_data)
    out_data += 1.0
    np.divide(1.0, out_data, out=out_data)

    def backward(g):
        return ((a, g * out_data * (1.0 - out_data)),)

    return _node(out_data, (a,), backward, "sigmoid")


# --------------------------------------------------------------- reductions


def mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.shape[axis]

    def backward(g):
        if axis is None:
            return ((a, np.broadcast_to(g / count, a.shape).copy()),)
        return ((a, np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy()),)

    return _node(a.data.mean(axis=axis), (a,), backward, "mean")


# ------------------------------------------------------------------ linear


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ, {a.shape} vs {b.shape}")

    def backward(g):
        return ((a, g @ b.data.T), (b, a.data.T @ g))

    return _node(a.data @ b.data, (a, b), backward, "matmul")


def linear(x, W, b=None) -> Tensor:
    """x @ W.T (+ b) as one node: x (..., d_in), W (d_out, d_in), b (d_out,).
    Leading axes of x are flattened into the rows of one 2-D product."""
    x, W = as_tensor(x), as_tensor(W)
    parents = (x, W)
    if W.data.ndim != 2 or x.shape[-1:] != W.shape[1:]:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {W.shape}")
    rows = x.data.reshape(-1, W.shape[1])
    out_data = rows @ W.data.T
    if b is not None:
        b = as_tensor(b)
        parents += (b,)
        if b.shape != (W.shape[0],):
            raise ShapeError(f"linear: bias {b.shape} does not match weight {W.shape}")
        out_data += b.data

    def backward(g):
        g = g.reshape(out_data.shape)
        # a constant input (the pixel rows) gets no gradient: one product fewer
        gx = (g @ W.data).reshape(x.shape) if x.requires_grad or x._parents else None
        grads = [(x, gx), (W, (rows.T @ g).T)]
        if b is not None:
            grads.append((b, g.sum(axis=0)))
        return grads

    return _node(out_data.reshape(x.shape[:-1] + W.shape[:1]), parents, backward, "linear")


def multi_head_attention(q, k, v, heads: int) -> Tensor:
    """Scaled dot-product self-attention over `heads` column groups, one node.

    q, k, v are (..., N, d) with d divisible by heads; each leading index
    attends within its own N rows. Head h reads columns
    [h*d/heads, (h+1)*d/heads) of each, and the head outputs are laid
    side by side in the same columns of the (..., N, d) result.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention expects equal (..., N, d) q/k/v, got {q.shape}, {k.shape}, {v.shape}"
        )
    d = q.shape[-1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a: np.ndarray) -> np.ndarray:  # (..., N, d) -> (..., heads, N, dh)
        return a.reshape(q.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    def join(a: np.ndarray) -> np.ndarray:  # (..., heads, N, dh) -> (..., N, d)
        return a.swapaxes(-3, -2).reshape(q.shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = qh @ kh.swapaxes(-1, -2)  # scores, then the softmax, in this one buffer
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g)
        gs = gh @ vh.swapaxes(-1, -2)  # d(loss)/dp, then d(loss)/d(scores)
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        return (
            (q, join(gs @ kh)),
            (k, join(gs.swapaxes(-1, -2) @ qh)),
            (v, join(p.swapaxes(-1, -2) @ gh)),
        )

    return _node(join(p @ vh), (q, k, v), backward, "attention")


# -------------------------------------------------------------- structural


def take(a, i: int) -> Tensor:
    """a[i] along the first axis, as one node; its gradient is g in row i
    of zeros shaped like a."""
    a = as_tensor(a)
    if a.data.ndim == 0 or not 0 <= i < a.shape[0]:
        raise ShapeError(f"take: index {i} out of range for shape {a.shape}")

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[i] = g
        return ((a, ga),)

    return _node(a.data[i], (a,), backward, "take")


def unpatchify(a, grid: int, patch: int) -> Tensor:
    """(grid*grid, patch*patch) patch rows -> (grid*patch, grid*patch)
    image, one node: row p of a fills the patch*patch window at grid
    cell (p // grid, p % grid), in row-major order."""
    a = as_tensor(a)
    if a.shape != (grid * grid, patch * patch):
        raise ShapeError(f"unpatchify: {a.shape} is not {grid}x{grid} patches of {patch}x{patch}")

    def backward(g):
        return ((a, g.reshape(grid, patch, grid, patch).transpose(0, 2, 1, 3).reshape(a.shape)),)

    out = a.data.reshape(grid, grid, patch, patch).transpose(0, 2, 1, 3)
    return _node(out.reshape(grid * patch, grid * patch), (a,), backward, "unpatchify")


# ---------------------------------------------------------------- compound


def layer_norm(a, gamma=None, beta=None) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance, then
    (given both) scale by gamma and shift by beta, each of shape
    (a.shape[-1],); their gradients sum over every leading axis."""
    a = as_tensor(a)
    if (gamma is None) != (beta is None):
        raise ContractError("layer_norm takes gamma and beta together or neither")
    # np.var's exact arithmetic, without its second pass for the mean
    xhat = a.data - a.data.mean(axis=-1, keepdims=True)  # centred, then scaled in place
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat *= inv
    if gamma is None:
        parents, out_data = (a,), xhat
    else:
        gamma, beta = as_tensor(gamma), as_tensor(beta)
        width = a.shape[-1:]
        if gamma.shape != width or beta.shape != width:
            raise ShapeError(
                f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must both be {width} "
                f"for input {a.shape}"
            )
        parents = (a, gamma, beta)
        out_data = xhat * gamma.data
        out_data += beta.data

    def backward(g):
        grads = []
        if gamma is not None:
            grads += [(gamma, _unbroadcast(g * xhat, width)), (beta, _unbroadcast(g, width))]
            g = g * gamma.data
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        ga = g - gm
        ga -= xhat * gx
        ga *= inv
        return [(a, ga), *grads]

    return _node(out_data, parents, backward, "layer_norm")


def _norms(q: np.ndarray, E: np.ndarray):
    """|q|, |E_j|, live pairs (both norms > NORM_EPS), cosine denominators."""
    nq = np.sqrt((q * q).sum())
    ne = np.sqrt((E * E).sum(axis=1))
    live = (ne > NORM_EPS) & (nq > NORM_EPS)
    return nq, ne, live, np.where(live, nq * ne, 1.0)


def cosines(q: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Detached cosine of the 1-D array q with each row of E, as an (n,)
    array; 0 wherever either norm is at or below NORM_EPS."""
    _, _, live, denom = _norms(q, E)
    return np.where(live, (E * q).sum(axis=1) / denom, 0.0)


def weighted_sum(alpha, grids: Sequence[Tensor]) -> Tensor:
    """sum_j alpha[j] * grids[j] as one node, for a (n,) weight vector and
    n tensors of one shape."""
    alpha = as_tensor(alpha)
    grids = [as_tensor(m) for m in grids]
    if alpha.data.ndim != 1 or alpha.size != len(grids) or not grids:
        raise ShapeError(f"weighted_sum: {alpha.shape} weights for {len(grids)} tensors")
    for m in grids[1:]:
        if m.shape != grids[0].shape:
            raise ShapeError(f"weighted_sum: tensor shape {m.shape} != {grids[0].shape}")
    a = alpha.data
    out = a[0] * grids[0].data
    scratch = np.empty_like(out)  # every later product in turn, not a temporary each
    for w, m in zip(a[1:], grids[1:]):
        out += np.multiply(w, m.data, out=scratch)

    def backward(g):
        scratch = np.empty_like(g)
        ga = np.array([np.multiply(g, m.data, out=scratch).sum() for m in grids])
        return [(alpha, ga)] + [(m, w * g) for w, m in zip(a, grids)]

    return _node(out, (alpha, *grids), backward, "weighted_sum")
