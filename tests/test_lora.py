"""Low-rank adapters: rank bounds, dual-path equivalence, gradients."""

import numpy as np
import pytest

from sliceseg import tensor as T
from sliceseg.errors import ConfigError, ShapeError
from sliceseg.gradcheck import max_rel_error
from sliceseg.lora import lora_forward, merge
from sliceseg.model import ModelConfig, init_params
from sliceseg.tensor import Tensor

from reference_ops import matmul, mul


def adapter(d_in, d_out, r, rng, zero_b=False):
    """(W, A, B) with a frozen W and trainable A and B, all drawn from rng."""
    W = Tensor(rng.standard_normal((d_out, d_in)))
    A = Tensor(rng.standard_normal((r, d_in)), requires_grad=True)
    b = np.zeros((d_out, r)) if zero_b else rng.standard_normal((d_out, r))
    return W, A, Tensor(b, requires_grad=True)


def test_init_rank_bound():
    ModelConfig(d_model=8, heads=2, lora_rank=8)
    for rank in (0, 9):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=8, heads=2, lora_rank=rank)


def test_zero_init_is_exact_identity():
    W, A, B = adapter(10, 6, 3, np.random.default_rng(1), zero_b=True)
    x = Tensor(np.random.default_rng(2).standard_normal((5, 10)))
    out = lora_forward(x, W, A, B).data
    plain = (x.data @ W.data.T)
    assert np.array_equal(out, plain)  # bitwise, zero tolerance


def test_zero_input_gives_zero_output():
    W, A, B = adapter(4, 4, 2, np.random.default_rng(0))
    out = lora_forward(Tensor(np.zeros((3, 4))), W, A, B).data
    assert np.array_equal(out, np.zeros((3, 4)))


def test_merge_with_zero_b_is_base():
    W, A, B = adapter(5, 7, 2, np.random.default_rng(3), zero_b=True)
    assert np.array_equal(merge(W, A, B).data, W.data)


def test_merge_rank_one_outer_product():
    # A = [1, 0], B = [0, 1]^T: adds one outer-product entry
    W = Tensor(np.random.default_rng(0).standard_normal((2, 2)))
    A = Tensor(np.array([[1.0, 0.0]]), requires_grad=True)
    B = Tensor(np.array([[0.0], [1.0]]), requires_grad=True)
    expected = W.data + np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(merge(W, A, B).data, expected)


@pytest.mark.parametrize("w_taped", [False, True], ids=["frozen_w", "taped_w"])
@pytest.mark.parametrize("seed", range(5))
def test_merge_is_the_add_matmul_chain_bitwise(seed, w_taped):
    # forward, the A and B gradients, and W's gradient when W is taped
    rng = np.random.default_rng(200 + seed)
    d_in, d_out = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    W, A, B = adapter(d_in, d_out, int(rng.integers(1, min(d_in, d_out) + 1)), rng)
    W.requires_grad = w_taped
    x = rng.standard_normal((3, d_in))
    c = rng.standard_normal((3, d_out))
    runs = []
    for weight in (lambda: merge(W, A, B), lambda: T.add(W, matmul(B, A))):
        for t in (W, A, B):
            t.zero_grad()
        merged = weight()
        T.mean(mul(T.linear(x, merged), c)).backward()
        runs.append([merged.data, A.grad, B.grad, W.grad])
    (fused, *fused_grads), (chain, *chain_grads) = runs
    assert fused.tobytes() == chain.tobytes()
    assert (W.grad is not None) == w_taped
    for a, b in zip(fused_grads, chain_grads):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "shapes", [((5, 4), (2, 4), (5, 3)), ((5, 4), (2, 3), (5, 2)), ((6, 4), (2, 4), (5, 2)), ((5, 4), (4,), (5, 1))]
)
def test_merge_of_adapter_shapes_that_do_not_fit_is_a_shape_error(shapes):
    W, A, B = (Tensor(np.zeros(shape)) for shape in shapes)
    with pytest.raises(ShapeError, match=r"lora: base .* do not fit W \+ B A"):
        merge(W, A, B)


def test_dual_path_equivalence_seed7():
    rng = np.random.default_rng(7)
    W, A, B = adapter(6, 5, 2, rng)
    x = Tensor(rng.standard_normal((4, 6)))
    via_forward = lora_forward(x, W, A, B).data
    via_merge = x.data @ merge(W, A, B).data.T
    assert np.abs(via_forward - via_merge).max() <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_dual_path_equivalence_random_adapters(seed):
    rng = np.random.default_rng(seed)
    d_in, d_out = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    r = int(rng.integers(1, min(d_in, d_out) + 1))
    W, A, B = adapter(d_in, d_out, r, rng)
    x = rng.standard_normal((3, d_in))
    assert np.abs(lora_forward(Tensor(x), W, A, B).data - x @ merge(W, A, B).data.T).max() <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_forward_matches_factored_form(seed):
    # numpy oracle of the factored path: x W^T + (x A^T) B^T
    rng = np.random.default_rng(100 + seed)
    d_in, d_out = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    r = int(rng.integers(1, min(d_in, d_out) + 1))
    W, A, B = adapter(d_in, d_out, r, rng)
    x = rng.standard_normal((3, d_in))
    factored = x @ W.data.T + (x @ A.data.T) @ B.data.T
    assert np.abs(lora_forward(Tensor(x), W, A, B).data - factored).max() <= 1e-10


def test_gradients_reach_adapters_only():
    W, A, B = adapter(4, 3, 2, np.random.default_rng(5))
    B.data *= 0.1
    x = Tensor(np.random.default_rng(6).standard_normal((2, 4)))

    def loss():
        return T.mean(mul(lora_forward(x, W, A, B), lora_forward(x, W, A, B)))

    loss().backward()
    assert A.grad is not None and B.grad is not None
    assert W.grad is None
    assert max_rel_error(loss, A) <= 1e-3
    assert max_rel_error(loss, B) <= 1e-3


def test_trainable_parameter_count():
    for d, r, blocks in [(64, 8, 2), (12, 3, 1)]:
        params = init_params(ModelConfig(d_model=d, heads=4, lora_rank=r, encoder_blocks=blocks))
        lora = [t for n, t in params.tensors.items() if n.startswith("lora.")]
        assert sum(t.size for t in lora) == blocks * 2 * r * (d + d)
