"""Tensor core: forward semantics and tape gradients vs finite differences."""

import ast
import fnmatch
import functools
import math
import os
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import attention, lora, losses, model
from sliceseg import tensor as T
from sliceseg.attention import cross_slice_weights, fuse_memory
from sliceseg.data_io import SynthConfig, generate_dataset, load_dataset
from sliceseg.errors import ContractError, DomainError, ShapeError
from sliceseg.gradcheck import max_rel_error, numeric_grad
from sliceseg.losses import BCE_CLIP, LossWeights, combined_loss, consistency_pairs
from sliceseg.model import ModelConfig, decode_mask, forward_sequence, init_params
from sliceseg.tensor import Tensor

from reference_ops import (
    cosine_sims, exp, matmul, mul, plain_layer_norm, reshape, scored_context, sigmoid, softmax, transpose,
    unpatchify, weighted_sum,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_annihilator():
    z = Tensor(np.zeros((2, 3)))
    m = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(matmul(z, m).data, np.zeros((2, 4)))


def test_matmul_hand_product():
    # hand multiplication oracle
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


@pytest.mark.parametrize("seed", range(5))
def test_matmul_associativity(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    assert np.abs(left - right).max() <= 1e-9


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0])).data
    assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_stability_under_large_inputs():
    out = softmax(Tensor([1000.0, 1000.0])).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


def test_softmax_derived_values():
    # independent direct evaluation of exp(x_i) / sum exp(x_k)
    x = [1.0, 2.0, 3.0]
    e = [math.exp(v) for v in x]
    expected = [v / sum(e) for v in e]
    out = softmax(Tensor(x)).data
    assert np.allclose(out, expected, atol=1e-12)
    assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal(6)
        out = softmax(Tensor(x)).data
        assert abs(out.sum() - 1.0) <= 1e-12
        shifted = softmax(Tensor(x + 123.456)).data
        assert np.abs(out - shifted).max() <= 1e-12


def test_softmax_empty_is_domain_error():
    with pytest.raises(DomainError):
        softmax(Tensor(np.zeros(0)))


def _cosine_of_pair(u: Tensor, v: Tensor) -> Tensor:
    """cosine_sims of one query against one vector, as a scalar."""
    return reshape(cosine_sims(u, [v]), ())


def test_cosine_sim_scale_invariance():
    u = Tensor([1.0, -2.0, 3.0])
    assert _cosine_of_pair(u, Tensor(2.0 * u.data)).item() == pytest.approx(1.0, abs=1e-12)


def test_cosine_sim_orthogonal():
    assert _cosine_of_pair(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_sim_hand_value():
    # dot/(norm*norm) = 4/5 by hand
    assert _cosine_of_pair(Tensor([1.0, 2.0]), Tensor([2.0, 1.0])).item() == pytest.approx(0.8, abs=1e-12)


def test_cosine_sim_degenerate_zero_vector():
    u = Tensor(np.zeros(3), requires_grad=True)
    v = Tensor([1.0, 2.0, 3.0])
    out = _cosine_of_pair(u, v)
    assert out.item() == 0.0
    out.backward()
    assert u.grad is None  # no gradient through the degenerate pair


# ------------------------------------------------------------------ dtypes


def test_only_a_constant_keeps_a_float32_array():
    a = np.arange(6, dtype=np.float32).reshape(2, 3)
    assert Tensor(a).data is a  # kept, not copied
    assert Tensor(a, requires_grad=True).data.dtype == np.float64
    for other in (a.astype(np.float16), a.astype(np.int64), np.float32(1.5), [1.0, 2.0], 3):
        assert Tensor(other).data.dtype == np.float64


def _float32_ops(x, W, b, gamma, A, B) -> dict:
    """One node per op the encoder builds, over the given tensors."""
    return {
        "add": T.add(x, b),
        "tanh": T.tanh(x),
        "mean": T.mean(x, axis=1),
        "take": T.take(x, 1),
        "linear": T.linear(x, W, b),
        "layer_norm": T.layer_norm(x, gamma, b),
        "attention": T.multi_head_attention(x, x, x, 2),
        "lora": lora.merge(W, A, B),
    }


def test_ops_over_float32_constants_stay_float32_and_near_their_float64_values():
    rng = np.random.default_rng(40)
    shapes = [(3, 5, 8), (8, 8), (8,), (8,), (2, 8), (8, 2)]
    arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    narrow = _float32_ops(*(Tensor(a) for a in arrays))
    wide = _float32_ops(*(Tensor(a.astype(np.float64)) for a in arrays))
    for op, out in narrow.items():
        assert out.data.dtype == np.float32 and out._parents == (), op
        assert wide[op].data.dtype == np.float64, op
        np.testing.assert_allclose(out.data, wide[op].data, rtol=1e-5, atol=1e-5, err_msg=op)


def test_a_trainable_input_puts_the_op_on_a_float64_tape():
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal((3, 5, 8)).astype(np.float32))
    leaves = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in ((8, 8), (8,))]
    W, b = leaves
    for op, out in _float32_ops(x, W, b, b, Tensor(np.ones((2, 8))), Tensor(np.ones((8, 2)))).items():
        # tanh, mean, take and attention read only the float32 constant x
        assert (out.data.dtype == np.float64) == bool(out._parents), op
    mixed = T.multi_head_attention(x, T.linear(x, W), x, 2)
    assert mixed.data.dtype == np.float64 and mixed._parents


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        mul(x, 2.0).backward()


def test_backward_linear_case():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.mean(x).backward()
    assert np.array_equal(x.grad, [1 / 3, 1 / 3, 1 / 3])


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    mul(x, x).backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    T.mean(x).backward()
    T.mean(x).backward()
    assert np.array_equal(x.grad, [1.0, 1.0])
    x.zero_grad()
    assert x.grad is None


def test_one_graph_backs_up_once():
    # each node drops its closure once it has routed its gradient: a second walk, or a loss
    # built over a consumed graph, is a ContractError before any gradient moves
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.tanh(x)
    loss = T.mean(y)
    loss.backward()
    grad = x.grad.copy()
    for again in (loss, T.mean(T.add(y, 1.0))):
        with pytest.raises(ContractError, match="backs up once"):
            again.backward()
        assert np.array_equal(x.grad, grad)
    assert loss._parents == (y,) and y._parents == (x,)  # the graph can still be read


# The old training loss's ops. sub, div, log, clip and tensor_sum were tape
# ops until the objective became the one sequence_loss node; they stay here
# as the reference chain that node is checked against, with their own
# gradient cases in test_each_op_gradient.


def sub(a, b) -> Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)

    def backward(g):
        return ((a, T._unbroadcast(g, a.shape)), (b, T._unbroadcast(-g, b.shape)))

    return T._node(a.data - b.data, (a, b), backward, "sub")


def div(a, b) -> Tensor:
    a, b = T.as_tensor(a), T.as_tensor(b)

    def backward(g):
        return (
            (a, T._unbroadcast(g / b.data, a.shape)),
            (b, T._unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
        )

    return T._node(a.data / b.data, (a, b), backward, "div")


def log(a) -> Tensor:
    a = T.as_tensor(a)
    return T._node(np.log(a.data), (a,), lambda g: ((a, g / a.data),), "log")


def clip(a, lo: float, hi: float) -> Tensor:
    a = T.as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return T._node(np.clip(a.data, lo, hi), (a,), lambda g: ((a, g * mask),), "clip")


def tensor_sum(a) -> Tensor:
    a = T.as_tensor(a)
    return T._node(a.data.sum(), (a,), lambda g: ((a, np.broadcast_to(g, a.shape).copy()),), "sum")


def _old_combined_loss(predictions, targets, pairs, w: LossWeights) -> Tensor:
    """The sequence loss as the op chain it was built from before it
    became one node, arithmetic for arithmetic."""
    per_slice = []
    for p, y in zip(predictions, targets):
        overlap = tensor_sum(mul(p, y))
        total = T.add(tensor_sum(p), tensor_sum(y))
        dice = sub(1.0, div(T.add(mul(overlap, 2.0), w.smooth), T.add(total, w.smooth)))
        pc = clip(p, BCE_CLIP, 1.0 - BCE_CLIP)
        pos = mul(y, log(pc))
        neg = mul(sub(1.0, y), log(sub(1.0, pc)))
        bce = mul(T.mean(T.add(pos, neg)), -1.0)
        per_slice.append(T.add(mul(dice, w.w_dice), mul(bce, w.w_bce)))
    total = div(functools.reduce(T.add, per_slice), float(len(per_slice)))
    terms = []
    for i, j, sim in pairs:
        diff = sub(predictions[i], predictions[j])
        terms.append(mul(T.mean(mul(diff, diff)), sim))
    cons = div(functools.reduce(T.add, terms), float(len(terms))) if terms else Tensor(0.0)
    return T.add(total, mul(cons, w.w_consistency))


# sigmoid(x + offset) puts these pixels inside BCE's clip band (within 1e-7
# of 1 or of 0) or at exactly 1; a zero of _KEEP makes a pixel exactly 0.
_OFFSETS = np.zeros((3, 4))
_OFFSETS[0, 1], _OFFSETS[1, 2], _OFFSETS[2, 0] = 18.5, -18.5, 45.0
_KEEP = np.ones((3, 4))
_KEEP[1, 3] = 0.0


def _probability_rows(x: Tensor) -> list[Tensor]:
    """The rows of sigmoid(x + _OFFSETS) * _KEEP, as three probability maps."""
    probs = mul(sigmoid(T.add(x, _OFFSETS)), _KEEP)
    return [T.take(probs, t) for t in range(3)]


def _columns(lo: int, hi: int, width: int) -> np.ndarray:
    """(width, hi - lo) 0/1 matrix: a @ it is columns [lo, hi) of a, and
    b @ it.T puts b's columns back there with zeros elsewhere, both exact."""
    return np.eye(width)[:, lo:hi]


def _composite(x: Tensor, c: Tensor) -> Tensor:
    """Exercises most of the op set in one scalar graph."""
    a = sigmoid(matmul(x, transpose(c, (1, 0))))
    b = plain_layer_norm(T.tanh(T.add(a, 0.3)))
    d = softmax(mul(b, 1.7))
    left, right = _columns(0, 2, 4), _columns(2, 4, 4)
    e = T.add(
        matmul(matmul(d, left), left.T),
        matmul(exp(matmul(d, right)), right.T),
    )
    # sqrt(x^2 + 1) as exp(log(.) / 2)
    root = exp(mul(log(T.add(mul(x, x), 1.0)), 0.5))
    return T.add(T.mean(mul(e, e)), T.mean(root))


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((4, 4)))
    loss = _composite(x, c)
    loss.backward()
    assert max_rel_error(lambda: _composite(x, c), x) <= 1e-3


# a decoder for (4, 3) inputs: a 2x2 grid of 2x2 patches, 3 features
_DECODER = init_params(
    ModelConfig(image_size=4, patch_size=2, d_model=3, heads=1, encoder_blocks=0, lora_rank=1, decoder_hidden=5),
    seed=0,
)


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda x, c: T.mean(mul(T.add(x, c), c))),
        ("sub", lambda x, c: T.mean(mul(sub(c, x), c))),
        ("mul", lambda x, c: T.mean(mul(mul(x, c), c))),
        ("div", lambda x, c: T.mean(div(c, T.add(mul(x, x), 1.0)))),
        ("exp", lambda x, c: T.mean(exp(x))),
        ("sigmoid", lambda x, c: T.mean(mul(sigmoid(x), c))),
        ("tanh", lambda x, c: T.mean(mul(T.tanh(x), c))),
        ("mean", lambda x, c: T.mean(mul(x, c))),
        ("mean_axis", lambda x, c: T.mean(T.mean(mul(x, c), axis=0))),
        ("reshape", lambda x, c: T.mean(mul(reshape(x, (4, 3)), reshape(c, (4, 3))))),
        ("transpose", lambda x, c: T.mean(mul(transpose(x, (1, 0)), transpose(c, (1, 0))))),
        ("layer_norm", lambda x, c: T.mean(mul(plain_layer_norm(x), c))),
        ("softmax", lambda x, c: T.mean(mul(softmax(x), c))),
        ("clip", lambda x, c: T.mean(clip(mul(x, c), -0.5, 0.5))),
        ("linear", lambda x, c: T.mean(T.tanh(T.linear(x, c, T.mean(c, axis=1))))),
        (
            "lora",
            lambda x, c: T.mean(
                mul(
                    lora.merge(T.tanh(matmul(transpose(c, (1, 0)), x)), x, transpose(T.tanh(x), (1, 0))),
                    c.data.T @ c.data,
                )
            ),
        ),
        (
            "attention",
            lambda x, c: T.mean(mul(T.multi_head_attention(x, mul(x, c), c, 2), c)),
        ),
        (
            "cosine_sims",
            lambda x, c: T.mean(
                mul(
                    cosine_sims(T.mean(x, axis=0), [T.mean(mul(x, c), axis=0), c.data[0]]),
                    [1.0, -2.0],
                )
            ),
        ),
        (
            "weighted_sum",
            lambda x, c: T.mean(mul(weighted_sum(T.mean(x, axis=0), [x, c, T.tanh(x), c]), c)),
        ),
        (
            "fuse",
            lambda x, c: T.mean(mul(fuse_memory(x, [c, T.tanh(x), c], T.mean(x, axis=0)), c)),
        ),
        ("take", lambda x, c: T.mean(mul(T.take(T.tanh(x), 1), c.data[2]))),
        (
            "decode",
            lambda x, c: T.mean(mul(decode_mask(transpose(x, (1, 0)), _DECODER)[1], c.data.T @ c.data)),
        ),
        ("unpatchify", lambda x, c: T.mean(mul(unpatchify(matmul(c.data.T, x), 2, 2), c.data.T @ c.data))),
        (
            "cross_slice",
            lambda x, c: T.mean(
                mul(
                    cross_slice_weights(
                        scored_context(T.mean(x, axis=0), [T.take(x, 1), T.tanh(T.take(x, 2)), c.data[0]],
                                       [0.0, 3.0, 5.0]),
                        Tensor(0.05),
                    ),
                    [1.0, -2.0, 0.5],
                )
            ),
        ),
        (
            "sequence_loss",
            lambda x, c: combined_loss(
                _probability_rows(x),
                [Tensor((row > 0.0).astype(float)) for row in c.data],
                [Tensor(np.ones(2))] * 3,
                pairs=[(0, 1, 0.9), (0, 2, 0.8), (1, 2, 0.75)],
            ),
        ),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_op_gradient(name, build, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal((3, 4)))
    build(x, c).backward()
    assert max_rel_error(lambda: build(x, c), x) <= 1e-3, name


def test_cosine_sim_gradients():
    rng = np.random.default_rng(3)
    u = Tensor(rng.standard_normal(5), requires_grad=True)
    v = Tensor(rng.standard_normal(5), requires_grad=True)
    _cosine_of_pair(u, v).backward()
    assert max_rel_error(lambda: _cosine_of_pair(u, v), u) <= 1e-3
    assert max_rel_error(lambda: _cosine_of_pair(u, v), v) <= 1e-3


def _assert_gradients_reach(build, parents):
    """Tape gradient of build() against finite differences, per parent."""
    for t in parents:
        t.zero_grad()
    build().backward()
    for i, t in enumerate(parents):
        assert t.grad is not None, f"parent {i} got no gradient"
        assert max_rel_error(build, t) <= 1e-3, f"parent {i}"


def _leaves(rng, *shapes):
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("seed", range(3))
def test_linear_gradients_reach_every_parent(seed):
    rng = np.random.default_rng(seed)
    x, W, b = _leaves(rng, (5, 4), (3, 4), (3,))
    c = Tensor(rng.standard_normal((5, 3)))
    _assert_gradients_reach(
        lambda: T.mean(mul(T.tanh(T.linear(x, W, b)), c)), [x, W, b]
    )
    assert np.array_equal(T.linear(x, W, b).data, x.data @ W.data.T + b.data)
    assert np.array_equal(T.linear(x, W).data, x.data @ W.data.T)


@pytest.mark.parametrize("seed", range(2))
def test_linear_over_leading_axes_is_the_2d_op_per_index(seed):
    rng = np.random.default_rng(seed)
    x, W, b = _leaves(rng, (3, 5, 4), (6, 4), (6,))
    c = Tensor(rng.standard_normal((3, 5, 6)))
    out = T.linear(x, W, b)
    assert out.shape == (3, 5, 6)
    for s in range(3):
        assert np.array_equal(out.data[s], T.linear(x.data[s], W, b).data)
    _assert_gradients_reach(lambda: T.mean(mul(T.tanh(T.linear(x, W, b)), c)), [x, W, b])


def test_linear_shape_errors():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match=r"\(\).*\(4, 2\)"):
        T.linear(Tensor(1.0), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="bias"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(3)))


def _linear_backward_oracle(x, W, b, g):
    """numpy of linear's backward on one thread, one new array per product:
    [(x, grad x), (W, grad W), (b, grad b)], grad x None for a constant x."""
    rows, g = x.data.reshape(-1, W.shape[1]), g.reshape(-1, W.shape[0])
    grads = [(x, (g @ W.data).reshape(x.shape) if x.requires_grad else None), (W, (rows.T @ g).T)]
    return grads + [(b, g.sum(axis=0))] * (b is not None)


@pytest.mark.parametrize("switch_interval", [None, 1e-6])
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("taped", [True, False])
@pytest.mark.parametrize("x_shape,w_shape", [
    ((6, 64, 64), (64, 64)),  # an encoder projection over a chunk of 6 slices
    ((6, 4, 8), (8, 8)),  # the micro config's
    ((2, 4, 16), (8, 16)),  # the micro config's patch embedding
    ((5, 4), (3, 4)),
])
def test_linear_backward_on_the_lane_is_the_inline_backward_bitwise(
    x_shape, w_shape, taped, bias, switch_interval, monkeypatch
):
    # on 2 CPUs the lane forms the weight gradient while the caller forms the rest
    rng = np.random.default_rng(math.prod(x_shape) + w_shape[0])
    x = Tensor(rng.standard_normal(x_shape), requires_grad=taped)
    W, b = _leaves(rng, w_shape, w_shape[:1])
    b = b if bias else None
    g = rng.standard_normal(x_shape[:-1] + w_shape[:1])
    out = T.linear(x, W, b)
    expected = _linear_backward_oracle(x, W, b, g)
    interval = sys.getswitchinterval()
    try:
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        for cpus in (1, 2, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            grads = out._backward(g)
            assert [p for p, _ in grads] == [p for p, _ in expected]  # same tensors, same order
            for (_, got), (_, want) in zip(grads, expected):
                assert got is None if want is None else got.tobytes() == want.tobytes()
                assert want is None or got.shape == want.shape
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bias", [True, False])
def test_linear_backward_pairs_its_products_only_for_a_taped_input(bias, monkeypatch):
    _two_cpus(monkeypatch)
    calls, pair = [], T.run_pair
    monkeypatch.setattr(T, "run_pair", lambda helper, own: (calls.append(helper), pair(helper, own)))
    rng = np.random.default_rng(3)
    W, b = _leaves(rng, (8, 16), (8,))
    for taped, pairs in ((False, 0), (True, 1)):
        x = Tensor(rng.standard_normal((2, 4, 16)), requires_grad=taped)
        T.mean(T.linear(x, W, b if bias else None)).backward()
        assert len(calls) == pairs, f"taped={taped}"
        assert W.grad is not None and (x.grad is not None) == taped


def test_an_error_in_linear_backward_on_the_lane_propagates_and_the_lane_works_after(monkeypatch):
    _two_cpus(monkeypatch)
    pair, begun, ran_on = T.run_pair, threading.Event(), []

    def failing(helper):
        def job():
            ran_on.append(threading.current_thread())
            begun.set()
            helper()
            raise DomainError("from the weight gradient")
        return job

    monkeypatch.setattr(T, "run_pair", lambda helper, own: pair(failing(helper), _after(begun, own)))
    x, W = _leaves(np.random.default_rng(4), (6, 4, 8), (8, 8))
    with pytest.raises(DomainError, match="from the weight gradient"):
        T.mean(T.linear(x, W)).backward()
    assert ran_on == [T._LANE.thread]
    assert not T._LANE.claim.locked()
    monkeypatch.setattr(T, "run_pair", pair)
    test_run_pair_runs_the_helper_job_on_the_lane(monkeypatch)


def _per_head_attention(q, k, v, heads):
    """The per-head slice/softmax/join chain, op by op on the tape; a
    head's columns are cut out and put back by exact 0/1 matmuls."""
    d = q.shape[1]
    dh = d // heads
    outs = []
    for h in range(heads):
        cols = _columns(h * dh, (h + 1) * dh, d)
        qh, kh, vh = (matmul(t, cols) for t in (q, k, v))
        scores = mul(matmul(qh, transpose(kh, (1, 0))), 1.0 / np.sqrt(dh))
        outs.append(matmul(matmul(softmax(scores), vh), cols.T))
    return functools.reduce(T.add, outs)


@pytest.mark.parametrize("seed,heads", [(0, 1), (1, 2), (2, 4), (3, 4)])
def test_multi_head_attention_matches_per_head_oracle(seed, heads):
    rng = np.random.default_rng(seed)
    q, k, v = _leaves(rng, (6, 8), (6, 8), (6, 8))
    c = Tensor(rng.standard_normal((6, 8)))
    fused = T.multi_head_attention(q, k, v, heads)
    oracle = _per_head_attention(q, k, v, heads)
    assert np.abs(fused.data - oracle.data).max() <= 1e-12
    T.mean(mul(oracle, c)).backward()
    oracle_grads = [t.grad for t in (q, k, v)]
    _assert_gradients_reach(
        lambda: T.mean(mul(T.multi_head_attention(q, k, v, heads), c)), [q, k, v]
    )
    for t, g in zip((q, k, v), oracle_grads):
        assert np.abs(t.grad - g).max() <= 1e-12


@pytest.mark.parametrize("seed", range(2))
def test_multi_head_attention_over_leading_axes_is_the_2d_op_per_index(seed):
    rng = np.random.default_rng(seed)
    q, k, v = _leaves(rng, (3, 6, 8), (3, 6, 8), (3, 6, 8))
    c = Tensor(rng.standard_normal((3, 6, 8)))
    out = T.multi_head_attention(q, k, v, 4)
    assert out.shape == (3, 6, 8)
    for s in range(3):
        assert np.array_equal(out.data[s], T.multi_head_attention(q.data[s], k.data[s], v.data[s], 4).data)
    _assert_gradients_reach(
        lambda: T.mean(mul(T.multi_head_attention(q, k, v, 4), c)), [q, k, v]
    )


def _attention_oracle(q, k, v, heads, g):
    """numpy of attention's earlier expressions, one new array per step:
    (output, grad q, grad k, grad v) for an upstream gradient g."""
    dh = q.shape[-1] // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a):
        return a.reshape(q.shape[:-1] + (heads, dh)).swapaxes(-3, -2)

    def join(a):
        return a.swapaxes(-3, -2).reshape(q.shape)

    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = gh @ vh.swapaxes(-1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    return join(p @ vh), join(gs @ kh), join(gs.swapaxes(-1, -2) @ qh), join(p.swapaxes(-1, -2) @ gh)


@pytest.mark.parametrize("shape,heads", [((6, 8), 1), ((6, 8), 2), ((6, 8), 4), ((3, 6, 8), 4)])
@pytest.mark.parametrize("seed", range(2))
def test_multi_head_attention_is_the_old_expression_bitwise(seed, shape, heads, monkeypatch):
    rng = np.random.default_rng(seed)
    q, k, v = _leaves(rng, shape, shape, shape)
    c = Tensor(rng.standard_normal(shape))
    out = T.multi_head_attention(q, k, v, heads)
    T.mean(mul(out, c)).backward()  # upstream gradient is exactly c / c.size
    expected = _attention_oracle(q.data, k.data, v.data, heads, (1.0 / c.size) * c.data)
    for got, want in zip((out.data, q.grad, k.grad, v.grad), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # score rows holding ties, -inf, +inf and NaN: the row max (np.fmax) ignores a NaN
    # that the old max returned, but such a row comes out all-NaN either way
    qs, ks = np.abs(q.data) + 0.5, k.data.copy()  # positive queries
    ks[..., 1, :] = ks[..., 2, :] = 10.0  # every row's max is a tie of columns 1 and 2
    ks[..., 5, :] = -np.inf  # column 5 scores -inf in every row
    qs[..., 3, 0] = np.inf  # row 3 of head 0 holds +inf (and -inf)
    qs[..., 4, -1] = np.nan  # row 4 of the last head is NaN
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # errstate is per thread
    with np.errstate(all="ignore"):
        out = T.multi_head_attention(*(Tensor(a, requires_grad=True) for a in (qs, ks, v.data)), heads)
        grads = [pg for _, pg in out._backward(c.data)]
        expected = _attention_oracle(qs, ks, v.data, heads, c.data)
    assert 0 < np.isnan(out.data).sum() < out.data.size
    for got, want in zip((out.data, *grads), expected):
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("leading", [1, 2, 3, 6, 8])
def test_attention_in_slice_halves_is_the_old_expression_bitwise(leading, cpus, monkeypatch):
    # the encoder's (slices, patches, d_model) at 4 heads; on 2 CPUs the
    # halves run at once on the calling thread and the lane
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    rng = np.random.default_rng(leading)
    shape = (leading, 64, 64)
    q, k, v = _leaves(rng, shape, shape, shape)
    g = rng.standard_normal(shape)
    out = T.multi_head_attention(q, k, v, 4)
    grads = [pg for _, pg in out._backward(g)]
    expected = _attention_oracle(q.data, k.data, v.data, 4, g)
    for got, want in zip((out.data, *grads), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _after(event, job=lambda: None):
    """An own job that first waits (at most 10 s) until the lane has begun."""
    return lambda: (event.wait(10.0), job())


def test_run_pair_runs_the_helper_job_on_the_lane(monkeypatch):
    _two_cpus(monkeypatch)
    ran, begun = {}, threading.Event()
    T.run_pair(
        lambda: (ran.setdefault("helper", threading.current_thread()), begun.set()),
        _after(begun, lambda: ran.setdefault("own", threading.current_thread())),
    )
    assert ran == {"helper": T._LANE.thread, "own": threading.current_thread()}


def test_run_pair_on_one_cpu_runs_both_jobs_here_in_order(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ran = []
    T.run_pair(lambda: ran.append(("helper", threading.current_thread())),
               lambda: ran.append(("own", threading.current_thread())))
    assert ran == [("helper", threading.current_thread()), ("own", threading.current_thread())]


def test_run_pair_inside_a_lane_job_runs_inline(monkeypatch):
    # the lane is busy: no third thread computes
    _two_cpus(monkeypatch)
    inner, begun = [], threading.Event()

    def nested():
        begun.set()
        T.run_pair(lambda: inner.append(threading.current_thread()),
                   lambda: inner.append(threading.current_thread()))

    T.run_pair(nested, _after(begun))
    assert inner == [T._LANE.thread] * 2


def test_a_helper_job_the_lane_has_not_begun_runs_after_the_own_job_here(monkeypatch):
    # a lane whose thread never takes a job, as when its CPU is busy elsewhere
    _two_cpus(monkeypatch)
    asleep = T._Lane()
    asleep.thread = threading.Thread(target=lambda: None)  # counts as started; never serves
    monkeypatch.setattr(T, "_LANE", asleep)
    ran = []
    for _ in range(2):
        T.run_pair(lambda: ran.append("helper"), lambda: ran.append("own"))
    assert ran == ["own", "helper"] * 2
    assert not asleep.claim.locked() and asleep.jobs.empty()


def test_a_failing_helper_job_raises_after_the_own_job_and_the_lane_works_after(monkeypatch):
    _two_cpus(monkeypatch)
    ran, begun = [], threading.Event()

    def helper():
        begun.set()
        raise DomainError("from the helper")

    with pytest.raises(DomainError, match="from the helper"):
        T.run_pair(helper, _after(begun, lambda: ran.append("own")))
    assert ran == ["own"]
    with pytest.raises(ShapeError, match="from the own job"):  # no stale helper error
        T.run_pair(lambda: None, functools.partial(_raise, ShapeError("from the own job")))
    test_run_pair_runs_the_helper_job_on_the_lane(monkeypatch)


def _raise(exc):
    raise exc


class _StandInLibc:
    """A libc whose mallopt records each call and returns `answer`."""

    def __init__(self, answer):
        self.answer, self.calls = answer, []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answer


def _keep_freed_heap_with(monkeypatch, libc, libc_ver=("glibc", "2.36"), **env):
    """Run the import-time malloc helper against a stand-in libc and environment."""
    for name in list(os.environ):
        if name == "GLIBC_TUNABLES" or fnmatch.fnmatchcase(name, "MALLOC_*_"):
            monkeypatch.delenv(name)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(T.platform, "libc_ver", lambda: libc_ver)
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: libc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        T._keep_freed_heap()
    assert caught == []


# malloc.h: M_TRIM_THRESHOLD is -1, M_MMAP_THRESHOLD is -3
def test_keep_freed_heap_sets_the_mmap_threshold_then_the_trim_threshold(monkeypatch):
    libc = _StandInLibc(1)
    _keep_freed_heap_with(monkeypatch, libc)
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_keep_freed_heap_leaves_trimming_dynamic_when_the_mmap_threshold_is_refused(monkeypatch):
    libc = _StandInLibc(0)
    _keep_freed_heap_with(monkeypatch, libc)
    assert libc.calls == [(-3, 32 << 20)]


@pytest.mark.parametrize("case", [
    {"libc": object()},  # no mallopt
    {"libc_ver": ("", "")},  # musl and others
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
])
def test_keep_freed_heap_does_nothing_off_glibc_or_when_the_environment_tunes_malloc(case, monkeypatch):
    libc = _StandInLibc(1)
    _keep_freed_heap_with(monkeypatch, **{"libc": libc, **case})
    assert libc.calls == []


@pytest.mark.parametrize("shape", [(), (5,), (3, 6, 8)])
@pytest.mark.parametrize("seed", range(2))
def test_sigmoid_is_the_old_expression_bitwise(seed, shape):
    rng = np.random.default_rng(seed)
    (a,) = _leaves(rng, shape)
    a.data = a.data * 8.0
    c = Tensor(rng.standard_normal(shape))
    out = sigmoid(a)
    T.mean(mul(out, c)).backward()
    want = 1.0 / (1.0 + np.exp(-a.data))
    want_grad = (1.0 / c.size) * c.data * want * (1.0 - want)
    assert out.shape == shape and out.data.tobytes() == want.tobytes()
    assert a.grad.shape == shape and a.grad.tobytes() == want_grad.tobytes()


def test_multi_head_attention_shape_errors():
    with pytest.raises(ShapeError):
        T.multi_head_attention(*(Tensor(np.zeros((4, 6))) for _ in range(3)), heads=4)
    with pytest.raises(ShapeError):
        T.multi_head_attention(*(Tensor(np.zeros(6)) for _ in range(3)), heads=2)
    with pytest.raises(ShapeError):
        T.multi_head_attention(
            Tensor(np.zeros((4, 6))), Tensor(np.zeros((3, 6))), Tensor(np.zeros((4, 6))), heads=2
        )


@pytest.mark.parametrize("seed", range(3))
def test_cosine_sims_gradients_reach_query_and_each_vector(seed):
    rng = np.random.default_rng(seed)
    query, *vectors = _leaves(rng, (5,), (5,), (5,), (5,))
    weights = Tensor(rng.standard_normal(3))
    _assert_gradients_reach(
        lambda: T.mean(mul(cosine_sims(query, vectors), weights)), [query, *vectors]
    )
    pairwise = [_norm_formula_cosine(query.data, v.data) for v in vectors]
    assert np.abs(cosine_sims(query, vectors).data - pairwise).max() <= 1e-15


def test_cosine_sims_degenerate_vector_gets_zero_and_no_gradient():
    query = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    zero = Tensor(np.zeros(3), requires_grad=True)
    live = Tensor([3.0, -1.0, 0.5], requires_grad=True)
    out = cosine_sims(query, [zero, live])
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(_norm_formula_cosine(query.data, live.data), abs=1e-15)
    T.mean(out).backward()
    assert zero.grad is None
    assert live.grad is not None and query.grad is not None


def test_cosine_sims_degenerate_query_gets_zeros_and_no_gradient():
    query = Tensor(np.zeros(3), requires_grad=True)
    vectors = [Tensor(v, requires_grad=True) for v in ([1.0, 2.0, 3.0], [0.5, 0.0, 1.0])]
    out = cosine_sims(query, vectors)
    assert np.array_equal(out.data, [0.0, 0.0])
    T.mean(out).backward()
    assert query.grad is None
    assert all(v.grad is None for v in vectors)


@pytest.mark.parametrize("seed", range(3))
def test_weighted_sum_gradients_reach_alpha_and_each_grid(seed):
    rng = np.random.default_rng(seed)
    alpha, *grids = _leaves(rng, (3,), (4, 2), (4, 2), (4, 2))
    c = Tensor(rng.standard_normal((4, 2)))
    _assert_gradients_reach(
        lambda: T.mean(mul(weighted_sum(alpha, grids), c)), [alpha, *grids]
    )
    expected = sum(a * g.data for a, g in zip(alpha.data, grids))
    assert np.abs(weighted_sum(alpha, grids).data - expected).max() <= 1e-15


def test_weighted_sum_shape_errors():
    with pytest.raises(ShapeError):
        weighted_sum(Tensor([0.5, 0.5]), [Tensor(np.zeros((2, 2)))])
    with pytest.raises(ShapeError):
        weighted_sum(Tensor([0.5, 0.5]), [Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2)))])


def _layer_norm_chain_oracle(a, gamma, beta, g):
    """numpy of the old chain add(mul(layer_norm(a), gamma), beta), with
    layer_norm's variance from np.var: (output, grad a, grad gamma, grad
    beta) for an upstream gradient g."""
    mu = a.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(a.var(axis=-1, keepdims=True) + T.LN_EPS)
    xhat = (a - mu) * inv
    out = xhat * gamma + beta
    g_gamma, g_beta = g * xhat, g
    while g_gamma.ndim > 1:  # the leading axes, one at a time
        g_gamma, g_beta = g_gamma.sum(axis=0), g_beta.sum(axis=0)
    gn = g * gamma
    gm = gn.mean(axis=-1, keepdims=True)
    gx = (gn * xhat).mean(axis=-1, keepdims=True)
    return out, inv * (gn - gm - xhat * gx), g_gamma, g_beta


@pytest.mark.parametrize("shape", [(5,), (7, 6), (2, 3, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_affine_layer_norm_is_the_old_chain_bitwise(seed, shape):
    rng = np.random.default_rng(seed)
    a, gamma, beta = _leaves(rng, shape, shape[-1:], shape[-1:])
    a.data = a.data * 3.0 + 1.5
    c = Tensor(rng.standard_normal(shape))
    out = T.layer_norm(a, gamma, beta)
    T.mean(mul(out, c)).backward()  # upstream gradient is exactly c / c.size
    expected = _layer_norm_chain_oracle(a.data, gamma.data, beta.data, (1.0 / c.size) * c.data)
    for got, want in zip((out.data, a.grad, gamma.grad, beta.grad), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert out._op == "layer_norm"


@pytest.mark.parametrize("seed", range(3))
def test_affine_layer_norm_gradients_reach_every_input(seed):
    rng = np.random.default_rng(seed)
    a, gamma, beta = _leaves(rng, (4, 5), (5,), (5,))
    c = Tensor(rng.standard_normal((4, 5)))
    _assert_gradients_reach(
        lambda: T.mean(mul(T.tanh(T.layer_norm(a, gamma, beta)), c)), [a, gamma, beta]
    )


def test_affine_layer_norm_argument_errors():
    a, w = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    for gamma, beta in [(np.ones(3), w), (w, np.ones((1, 4))), (np.ones((3, 4)), np.ones((3, 4)))]:
        with pytest.raises(ShapeError, match=r"layer_norm: gamma .* \(4,\) for input \(3, 4\)"):
            T.layer_norm(a, gamma, beta)


def test_accumulating_kernels_leave_their_inputs_unmodified():
    """Kernels write only into arrays they allocated: neither the forward
    nor the backward touches an input's data or the upstream gradient."""
    rng = np.random.default_rng(4)
    x, W, b, a, gamma, beta, alpha, g0, g1, g2, q, k, v, f = _leaves(
        rng, (5, 4), (3, 4), (3,), (5, 4), (4,), (4,), (3,), (2, 2), (2, 2), (2, 2),
        (2, 6, 4), (2, 6, 4), (2, 6, 4), (4, 3),
    )
    inputs = [x, W, b, a, gamma, beta, alpha, g0, g1, g2, q, k, v, f, *_DECODER.tensors.values()]
    before = [t.data.copy() for t in inputs]
    nodes = [
        T.linear(x, W, b),
        T.layer_norm(a, gamma, beta),
        fuse_memory(g0, [g1, g2], alpha),
        decode_mask(f, _DECODER)[1],
        T.multi_head_attention(q, k, v, 2),
        cross_slice_weights(scored_context(b, [b, alpha, x.data[0, :3]], [0.0, 2.0, 4.0]), Tensor(0.1)),
    ]
    for node in nodes:
        g = rng.standard_normal(node.shape)
        snapshot = g.copy()
        node._backward(g)
        assert g.tobytes() == snapshot.tobytes(), node._op
    for t, data in zip(inputs, before):
        assert t.data.tobytes() == data.tobytes()


def test_item_is_the_value_of_any_one_element_tensor():
    # numpy 2 refuses float() of a (1,) array; backward accepts such a loss, so item does too
    assert [Tensor(v).item() for v in (2.5, [2.5], [[[2.5]]])] == [2.5, 2.5, 2.5]
    assert type(Tensor([2.5]).item()) is float
    x = Tensor([1.5, -0.5])
    assert numeric_grad(lambda: Tensor(3.0 * x.data[:1]), x, [(0,)]) == {(0,): pytest.approx(3.0)}
    for bad in ([1.0, 2.0], np.zeros((0,)), np.ones((2, 1))):
        with pytest.raises(ContractError, match=r"item of a tensor of shape"):
            Tensor(bad).item()


def test_take_is_a_row_and_rejects_an_index_out_of_range():
    a = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(T.take(a, 2).data, a.data[2])
    for i in (-1, 3):
        with pytest.raises(ShapeError, match=rf"take: index {i} out of range for shape \(3, 4\)"):
            T.take(a, i)
    with pytest.raises(ShapeError, match=r"shape \(\)"):
        T.take(Tensor(1.0), 0)


@pytest.mark.parametrize("grid,patch", [(1, 1), (2, 3), (8, 8)])
def test_unpatchify_is_the_old_chain_bitwise(grid, patch):
    # the decoder's reshape -> transpose -> reshape chain, forward and backward
    rng = np.random.default_rng(grid * patch)
    (a,) = _leaves(rng, (grid * grid, patch * patch))
    c = Tensor(rng.standard_normal((grid * patch, grid * patch)))
    chain = reshape(transpose(reshape(a, (grid, grid, patch, patch)), (0, 2, 1, 3)), c.shape)
    T.mean(mul(T.tanh(chain), c)).backward()
    want = a.grad
    a.zero_grad()
    out = unpatchify(a, grid, patch)
    T.mean(mul(T.tanh(out), c)).backward()
    assert out._op == "unpatchify" and out.data.tobytes() == chain.data.tobytes()
    assert a.grad.shape == want.shape and a.grad.tobytes() == want.tobytes()


def test_unpatchify_shape_error():
    with pytest.raises(ShapeError, match=r"unpatchify: \(4, 9\) is not 2x2 patches of 2x2"):
        unpatchify(Tensor(np.zeros((4, 9))), 2, 2)


@pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4)])
def test_linear_gives_a_constant_input_no_gradient(shape):
    # the weight and bias gradients are those of a taped input, to the bit;
    # an input computed from a taped leaf is not constant and gets one
    rng = np.random.default_rng(len(shape))
    W, b = _leaves(rng, (6, 4), (6,))
    data = rng.standard_normal(shape)
    c = rng.standard_normal(shape[:-1] + (6,))
    leaf = Tensor(np.arcsinh(data), requires_grad=True)
    grads = []
    for x, constant in [(Tensor(data, requires_grad=True), False), (sigmoid(leaf), False), (Tensor(data), True)]:
        W.zero_grad()
        b.zero_grad()
        out = T.linear(x, W, b)
        routed = {id(t): g for t, g in out._backward(c)}
        assert (routed[id(x)] is None) == constant
        T.mean(mul(out, c)).backward()
        grads.append((W.grad, b.grad))
    for taped, constant in zip(grads[0], grads[2]):
        assert taped.tobytes() == constant.tobytes()


@pytest.mark.parametrize("n", [1, 2, 6])
def test_weighted_sum_is_the_old_expression_bitwise(n):
    rng = np.random.default_rng(n)
    alpha, *grids = _leaves(rng, (n,), *[(4, 3)] * n)
    c = Tensor(rng.standard_normal((4, 3)))
    out = weighted_sum(alpha, grids)
    T.mean(mul(out, c)).backward()  # upstream gradient is exactly c / c.size
    a, g = alpha.data, (1.0 / c.size) * c.data
    want = a[0] * grids[0].data
    for w, m in zip(a[1:], grids[1:]):
        want = want + w * m.data
    assert out.data.tobytes() == want.tobytes()
    assert alpha.grad.tobytes() == np.array([(g * m.data).sum() for m in grids]).tobytes()
    for w, m in zip(a, grids):
        assert m.grad.tobytes() == (w * g).tobytes()


@pytest.mark.parametrize("op", [T.add, mul])
def test_elementwise_shape_error_names_both_shapes(op):
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


def test_forward_outputs_finite():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((4, 4)))
    out = _composite(x, Tensor(rng.standard_normal((4, 4))))
    assert np.isfinite(out.data).all()


def test_reshape_size_mismatch():
    with pytest.raises(ShapeError):
        reshape(Tensor(np.zeros((2, 3))), (4, 2))


def test_grad_shape_matches_data():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    T.mean(mul(x, x)).backward()
    assert x.grad.shape == x.data.shape


def _norm_formula_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """The per-pair np.linalg.norm formula the kernel replaced."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return 0.0 if na <= 1e-12 or nb <= 1e-12 else float(a @ b) / (na * nb)


@pytest.mark.parametrize("seed", range(5))
def test_cosines_matches_norm_formula(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(16)
    E = rng.standard_normal((7, 16))
    expected = [_norm_formula_cosine(q, e) for e in E]
    assert np.abs(T.cosines(q, E) - expected).max() <= 1e-15


def test_cosines_degenerate_side_gives_zero():
    E = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1e-13, 0.0, 0.0]])
    assert np.array_equal(T.cosines(np.zeros(3), E), [0.0, 0.0, 0.0])
    sims = T.cosines(np.array([1.0, 0.0, 0.0]), E)
    assert sims[0] > 0.0 and sims[1] == 0.0 and sims[2] == 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1e300 squared
@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300])
def test_cosines_reject_a_norm_that_is_not_finite_naming_the_row_or_the_query(bad):
    E = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, bad]])
    with pytest.raises(DomainError, match="row 2 has a norm that is not finite"):
        T.cosines(np.array([1.0, 0.0]), E)
    with pytest.raises(DomainError, match="the query has a norm that is not finite"):
        T.cosines(np.array([bad, 0.0]), E[:2])


def _cosines_outcome(q, E):
    """The bytes of T.cosines(q, E), or the message of the DomainError it raises."""
    try:
        return T.cosines(q, E).tobytes()
    except DomainError as exc:
        return str(exc)


@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 9),
    n=st.integers(1, 20),
    d=st.sampled_from([1, 2, 3, 8, 64, 130]),
    special=st.sampled_from(
        ["none", "zero_query", "zero_row", "eps_query", "eps_row", "nan_row", "inf_query", "nan_both"]
    ),
)
@settings(max_examples=300, deadline=None)
def test_block_cosines_are_the_row_calls_bitwise(seed, m, n, d, special):
    # row i of an (m, d) block of queries has the bits of the 1-D call for query i; zero
    # rows and rows at the NORM_EPS floor score 0, and a norm that is not finite raises
    # the error the first failing row call raises
    rng = np.random.default_rng(seed)
    E = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, (n, 1))
    Q = np.concatenate([E[rng.integers(0, n, m // 2)], rng.standard_normal((m - m // 2, d))])
    at_floor = np.zeros(d)
    at_floor[0] = rng.choice([T.NORM_EPS, np.nextafter(T.NORM_EPS, 1.0)])
    i, j = int(rng.integers(0, m)), int(rng.integers(0, n))
    if special in ("zero_query", "eps_query"):
        Q[i] = 0.0 if special == "zero_query" else at_floor
    if special in ("zero_row", "eps_row"):
        E[j] = 0.0 if special == "zero_row" else at_floor
    if special in ("nan_row", "nan_both"):
        E[j, -1] = np.nan
    if special in ("inf_query", "nan_both"):
        Q[i, 0] = np.inf
    rows = [_cosines_outcome(q, E) for q in Q]
    errors = [r for r in rows if isinstance(r, str)]
    got = _cosines_outcome(Q, E)
    if errors:
        assert got == errors[0]
    else:
        assert T.cosines(Q, E).shape == (m, n)
        assert got == b"".join(rows)


@pytest.mark.parametrize("seed", range(3))
def test_cosine_sims_forward_is_the_kernel_bitwise(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(8)
    E = rng.standard_normal((4, 8))
    E[2] = 0.0
    out = cosine_sims(Tensor(q), [Tensor(e) for e in E])
    assert np.array_equal(out.data, T.cosines(q, E))


def test_tensor_defines_exactly_the_ops_a_training_loss_builds(tmp_path):
    defined = {
        call.args[-1].value
        for module in (T, attention, losses, lora, model)
        for call in ast.walk(ast.parse(Path(module.__file__).read_text()))
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_node"
    }
    generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=3, seed=1), tmp_path)
    [seq] = load_dataset(tmp_path)
    preds = forward_sequence(seq, init_params(ModelConfig(), seed=1))
    loss = combined_loss(
        [p.probabilities for p in preds],
        [Tensor(sl.mask.astype(np.float64)) for sl in seq.slices],
        [p.pooled_embedding for p in preds],
    )
    on_tape, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            on_tape.add(node._op)
            stack.extend(node._parents)
    assert defined == on_tape - {"leaf"}
    assert len(defined) == 12


def _loss_case(seed: int, n: int, similar: bool):
    """n 5x5 probability maps with pixels at exactly 0 and 1 and inside
    the clip band, binary targets, and embeddings that are near copies of
    one direction (pairs clear the threshold) or orthogonal (none do)."""
    rng = np.random.default_rng(seed)
    maps = rng.uniform(0.0, 1.0, (n, 5, 5))
    maps[:, 0, :4] = [0.0, 1.0, 0.5 * BCE_CLIP, 1.0 - 0.5 * BCE_CLIP]
    preds = [Tensor(m, requires_grad=True) for m in maps]
    targets = [Tensor((rng.random((5, 5)) < 0.4).astype(float)) for _ in range(n)]
    if similar:
        base = rng.standard_normal(6)
        embs = [Tensor(base + rng.normal(0.0, 0.1, 6)) for _ in range(n)]
    else:
        embs = [Tensor(np.eye(6)[t]) for t in range(n)]
    return preds, targets, embs


@pytest.mark.parametrize(
    "weights", [LossWeights(), LossWeights(w_dice=0.7, w_bce=1.3, w_consistency=0.4, smooth=0.5)]
)
@pytest.mark.parametrize("n,similar", [(4, True), (3, False), (1, True)], ids=["pairs", "no_pairs", "one_slice"])
@pytest.mark.parametrize("seed", range(2))
def test_sequence_loss_is_the_old_op_chain(seed, n, similar, weights):
    preds, targets, embs = _loss_case(seed, n, similar)
    pairs = consistency_pairs(embs, weights.similarity_threshold)
    assert bool(pairs) == (similar and n > 1)
    old = _old_combined_loss(preds, targets, pairs, weights)
    old.backward()
    old_grads = [p.grad for p in preds]
    for p in preds:
        p.zero_grad()
    new = combined_loss(preds, targets, embs, weights)
    assert new._op == "sequence_loss" and new._parents == tuple(preds)
    new.backward()
    assert new.item().hex() == old.item().hex()
    for p, g in zip(preds, old_grads):
        assert np.abs(p.grad - g).max() <= 1e-12 * np.abs(g).max()
