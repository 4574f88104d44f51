"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit tape: the output tensor keeps
references to its parents and a closure that routes the upstream gradient
to them. ``Tensor.backward()`` on a scalar walks the tape in reverse
topological order and accumulates gradients additively into every
``requires_grad`` tensor (call ``zero_grad`` between steps).

The op set is 9 of the 13 ops the model builds: ``add``, ``tanh``,
``sigmoid``, ``mean``, ``matmul``, ``take`` (row i of the first axis) and
``layer_norm`` (which optionally folds the affine gain and bias,
``gamma`` and ``beta``, both or neither, each as wide as the last axis,
into its one node), plus two fused primitives that each replace a whole
op chain with one node and a hand-written backward, ``linear`` and
``multi_head_attention`` (op ``attention``); both take any leading axes,
so one node serves a chunk of slices. The other four are fused too:
``cross_slice`` (the distance-aware memory weights) and ``fuse`` (their
weighted sum of patch grids, layer-normalized) in ``attention``,
``decode`` (the per-patch MLP decoder and the patch reassembly) in
``model``, and ``sequence_loss`` (the training objective) in ``losses``.
``Tensor`` has no operator overloads. ``cosines`` is the detached numpy
kernel of cosine similarity; memory scoring, cross-slice weights and
consistency pairs use it.
Shapes are checked eagerly; only numpy-style broadcasting needed by the
model is supported. Kernels compute in place only in arrays they allocated,
never in an input's ``data`` or in the upstream gradient.

The module owns the package's one helper thread, the *lane*: a daemon
started the first time ``run_pair`` can use it (a forked child gets a
fresh one). ``run_pair(helper_job, own_job)`` runs helper_job on the lane
beside own_job, given at least 2 CPUs and a free lane, and else both on
the caller, as it does when own_job ends before the lane has begun.
``multi_head_attention`` runs its forward and its backward as two halves
of the leading indices this way; ``model`` encodes a stack's chunks on it.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

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


def _taped(t: Tensor) -> bool:
    """Whether a gradient routed to t can reach a requires_grad leaf; a
    constant input gets none, so its product is never formed."""
    return t.requires_grad or bool(t._parents)


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


# ----------------------------------------------------------------- the lane


class _Lane:
    """One daemon helper thread, started the first time it is needed, that
    runs the jobs handed to it, one at a time."""

    def __init__(self):
        self.claim = threading.Lock()  # held by the caller the lane works for
        self.jobs: queue.SimpleQueue = queue.SimpleQueue()  # taken by the lane, or back
        self.done = threading.Lock()  # released by the lane when a job ends
        self.done.acquire()
        self.error: BaseException | None = None
        self.thread: threading.Thread | None = None

    def serve(self) -> None:
        while True:
            job = self.jobs.get()
            try:
                job()
            except BaseException as exc:  # handed to run_pair, which raises it
                self.error = exc
            job = None  # the job's arrays are not kept alive until the next one
            self.done.release()

    def take_back(self) -> Callable[[], None] | None:
        """The job handed over, if the lane has not begun it."""
        try:
            return self.jobs.get_nowait()
        except queue.Empty:
            return None


_LANE = _Lane()


def _fresh_lane() -> None:
    # a forked child has no lane thread, and a claim its parent held stays held
    global _LANE
    _LANE = _Lane()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lane)


def run_pair(helper_job: Callable[[], None], own_job: Callable[[], None]) -> None:
    """Run both jobs: helper_job on the lane while own_job runs here, when
    the process may use at least 2 CPUs and the lane is free; else both
    here, in that order. A job running on the lane that calls run_pair
    finds it busy, so at most two threads ever compute. If the lane has
    not begun helper_job when own_job ends (its CPU was busy elsewhere),
    helper_job runs here after all. An error from helper_job is raised
    after own_job ends."""
    lane = _LANE
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2 or not lane.claim.acquire(blocking=False):
        helper_job()
        own_job()
        return
    try:
        if lane.thread is None:
            lane.thread = threading.Thread(target=lane.serve, name="sliceseg-lane", daemon=True)
            lane.thread.start()
        lane.jobs.put(helper_job)
        try:
            own_job()
        finally:
            taken_back = lane.take_back()
            if taken_back is None:  # the lane has it: wait for it to end
                lane.done.acquire()
                error, lane.error = lane.error, None
                if error is not None:  # the helper's error first, as run in order
                    raise error
    finally:
        lane.claim.release()
    if taken_back is not None:
        taken_back()


def _in_halves(n: int, job: Callable[[slice], None]) -> None:
    """job over the index ranges [h, n) and [0, h) at once (``run_pair``),
    with h = ceil(n / 2); one call over [0, n) when n < 2."""
    if n < 2:
        job(slice(0, n))
        return
    h = (n + 1) // 2
    run_pair(lambda: job(slice(h, n)), lambda: job(slice(0, h)))


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

    return _node(a.data.sum(axis=axis) / count, (a,), backward, "mean")


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
        gx = (g @ W.data).reshape(x.shape) if _taped(x) else None
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
    side by side in the same columns of the (..., N, d) result. Given at
    least 2 leading indices, forward and backward each run as two halves
    of them at once (``run_pair``), to the same bits: every product goes
    into a buffer allocated here, through head-split views.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.data.ndim < 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention expects equal (..., N, d) q/k/v, got {q.shape}, {k.shape}, {v.shape}"
        )
    n, d = q.shape[-2:]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} does not split into {heads} heads")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    rows = math.prod(q.shape[:-2])  # the leading indices, as one axis

    def split(a: np.ndarray) -> np.ndarray:  # (..., N, d) -> (rows, heads, N, dh), a view
        return a.reshape(rows, n, heads, dh).swapaxes(1, 2)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = np.empty((rows, heads, n, n))  # the scores, then the softmax
    out = np.empty(q.shape)

    def forward(s: slice) -> None:
        ps = p[s]
        np.matmul(qh[s], kh[s].swapaxes(-1, -2), out=ps)
        ps *= scale
        ps -= ps.max(axis=-1, keepdims=True)
        np.exp(ps, out=ps)
        ps /= ps.sum(axis=-1, keepdims=True)
        np.matmul(ps, vh[s], out=split(out)[s])

    _in_halves(rows, forward)

    def backward(g):
        gh = split(g)
        gs = np.empty_like(p)  # d(loss)/dp, then d(loss)/d(scores)
        scratch = np.empty((rows, n, n))  # gs * p, one head at a time
        gq, gk, gv = np.empty(q.shape), np.empty(q.shape), np.empty(q.shape)

        def half(s: slice) -> None:
            gss, ps = gs[s], p[s]
            np.matmul(gh[s], vh[s].swapaxes(-1, -2), out=gss)
            for h in range(heads):
                prod = np.multiply(gss[:, h], ps[:, h], out=scratch[s])
                gss[:, h] -= prod.sum(axis=-1, keepdims=True)
            gss *= ps
            gss *= scale
            np.matmul(gss, kh[s], out=split(gq)[s])
            np.matmul(gss.swapaxes(-1, -2), qh[s], out=split(gk)[s])
            np.matmul(ps.swapaxes(-1, -2), gh[s], out=split(gv)[s])

        _in_halves(rows, half)
        return ((q, gq), (k, gk), (v, gv))

    return _node(out, (q, k, v), backward, "attention")


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


# ---------------------------------------------------------------- compound


def _normalize(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """x centred and scaled over its last axis to zero mean and unit
    variance, into out (which may be x itself) or a new array, and the
    scale 1 / sqrt(var + LN_EPS): layer_norm without gain and bias."""
    # np.var's exact arithmetic, without its second pass for the mean; each
    # mean is sum / n, the bits of ndarray.mean without its Python wrapper
    n = x.shape[-1]
    xhat = np.subtract(x, x.sum(axis=-1, keepdims=True) / n, out=out)
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / n + LN_EPS)
    xhat *= inv
    return xhat, inv


def _normalize_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """d(loss)/dx of ``_normalize`` for the upstream gradient g, in a new array."""
    n = xhat.shape[-1]
    gm = g.sum(axis=-1, keepdims=True) / n
    gx = (g * xhat).sum(axis=-1, keepdims=True) / n
    ga = g - gm
    ga -= xhat * gx
    ga *= inv
    return ga


def layer_norm(a, gamma=None, beta=None) -> Tensor:
    """Normalize over the last axis to zero mean, unit variance, then
    (given both) scale by gamma and shift by beta, each of shape
    (a.shape[-1],); their gradients sum over every leading axis."""
    a = as_tensor(a)
    if (gamma is None) != (beta is None):
        raise ContractError("layer_norm takes gamma and beta together or neither")
    xhat, inv = _normalize(a.data)
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
        return [(a, _normalize_backward(g, xhat, inv)), *grads]

    return _node(out_data, parents, backward, "layer_norm")


def _norms(q: np.ndarray, E: np.ndarray):
    """|q|, |E_j|, live pairs (both norms > NORM_EPS), cosine denominators;
    live is None when every pair is live, so callers skip the masking.
    A norm that is NaN or infinite is a DomainError naming the row (checked
    first) or the query: it is not a degenerate vector."""
    nq = np.sqrt((q * q).sum())
    ne = np.sqrt((E * E).sum(axis=1))
    if not math.isfinite(ne.max(initial=nq)):  # the max of the norms is NaN or inf if one is
        bad = np.flatnonzero(~np.isfinite(ne))
        where = f"row {bad[0]}" if bad.size else "the query"
        raise DomainError(f"cosine: {where} has a norm that is not finite")
    if nq > NORM_EPS and ne.min(initial=math.inf) > NORM_EPS:
        return nq, ne, None, nq * ne
    live = (ne > NORM_EPS) & (nq > NORM_EPS)
    return nq, ne, live, np.where(live, nq * ne, 1.0)


def cosines(q: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Detached cosine of the 1-D array q with each row of E, as an (n,)
    array; 0 wherever either norm is at or below NORM_EPS, and a
    DomainError where one is not finite."""
    _, _, live, denom = _norms(q, E)
    sims = (E * q).sum(axis=1) / denom
    return sims if live is None else np.where(live, sims, 0.0)
