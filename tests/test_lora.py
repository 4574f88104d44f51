"""Low-rank adapters: init contracts, dual-path equivalence, gradients."""

import numpy as np
import pytest

from sliceseg import tensor as T
from sliceseg.errors import ContractError
from sliceseg.gradcheck import max_rel_error
from sliceseg.lora import init_lora, lora_forward, merge
from sliceseg.tensor import Tensor


def test_init_shapes_and_zero_b():
    ad = init_lora(64, 64, rank=8, seed=0)
    assert ad.A.shape == (8, 64)
    assert ad.B.shape == (64, 8)
    assert np.count_nonzero(ad.B.data) == 0
    assert ad.A.requires_grad and ad.B.requires_grad
    assert not ad.base.requires_grad


def test_init_deterministic_per_seed():
    a1 = init_lora(16, 12, rank=4, seed=7)
    a2 = init_lora(16, 12, rank=4, seed=7)
    assert np.array_equal(a1.A.data, a2.A.data)
    assert np.array_equal(a1.base.data, a2.base.data)


def test_init_rank_bound():
    with pytest.raises(ContractError):
        init_lora(8, 6, rank=7)


def test_zero_init_is_exact_identity():
    ad = init_lora(10, 6, rank=3, seed=1)
    x = Tensor(np.random.default_rng(2).standard_normal((5, 10)))
    out = lora_forward(x, ad).data
    plain = (x.data @ ad.base.data.T)
    assert np.array_equal(out, plain)  # bitwise, zero tolerance


def test_zero_input_gives_zero_output():
    ad = init_lora(4, 4, rank=2, seed=0)
    ad.B.data = np.random.default_rng(0).standard_normal(ad.B.shape)
    out = lora_forward(Tensor(np.zeros((3, 4))), ad).data
    assert np.array_equal(out, np.zeros((3, 4)))


def test_merge_with_zero_b_is_base():
    ad = init_lora(5, 7, rank=2, seed=3)
    assert np.array_equal(merge(ad).data, ad.base.data)


def test_merge_rank_one_outer_product():
    # A = [1, 0], B = [0, 1]^T, alpha = 1, r = 1: adds one outer-product entry
    ad = init_lora(2, 2, rank=1, alpha=1.0, seed=0)
    ad.A.data = np.array([[1.0, 0.0]])
    ad.B.data = np.array([[0.0], [1.0]])
    expected = ad.base.data + np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(merge(ad).data, expected)


def test_dual_path_equivalence_seed7():
    rng = np.random.default_rng(7)
    ad = init_lora(6, 5, rank=2, alpha=2.0, seed=7)
    ad.A.data = rng.standard_normal(ad.A.shape)
    ad.B.data = rng.standard_normal(ad.B.shape)
    x = Tensor(rng.standard_normal((4, 6)))
    via_forward = lora_forward(x, ad).data
    via_merge = x.data @ merge(ad).data.T
    assert np.abs(via_forward - via_merge).max() <= 1e-10


@pytest.mark.parametrize("seed", range(50))
def test_dual_path_equivalence_random_adapters(seed):
    rng = np.random.default_rng(seed)
    d_in, d_out = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    r = int(rng.integers(1, min(d_in, d_out) + 1))
    ad = init_lora(d_in, d_out, rank=r, alpha=float(rng.uniform(0.5, 2 * r)), seed=seed)
    ad.A.data = rng.standard_normal(ad.A.shape)
    ad.B.data = rng.standard_normal(ad.B.shape)
    x = rng.standard_normal((3, d_in))
    assert np.abs(lora_forward(Tensor(x), ad).data - x @ merge(ad).data.T).max() <= 1e-10


@pytest.mark.parametrize("seed", range(10))
def test_forward_matches_factored_form(seed):
    # numpy oracle of the factored path: x W^T + (alpha/r) (x A^T) B^T
    rng = np.random.default_rng(100 + seed)
    d_in, d_out = int(rng.integers(2, 12)), int(rng.integers(2, 12))
    r = int(rng.integers(1, min(d_in, d_out) + 1))
    ad = init_lora(d_in, d_out, rank=r, alpha=float(rng.uniform(0.5, 2 * r)), seed=seed)
    ad.A.data = rng.standard_normal(ad.A.shape)
    ad.B.data = rng.standard_normal(ad.B.shape)
    x = rng.standard_normal((3, d_in))
    factored = x @ ad.base.data.T + ad.scale * (x @ ad.A.data.T) @ ad.B.data.T
    assert np.abs(lora_forward(Tensor(x), ad).data - factored).max() <= 1e-10


def test_gradients_reach_adapters_only():
    ad = init_lora(4, 3, rank=2, seed=5)
    ad.B.data = np.random.default_rng(5).standard_normal(ad.B.shape) * 0.1
    x = Tensor(np.random.default_rng(6).standard_normal((2, 4)))

    def loss():
        return T.tensor_sum(T.mul(lora_forward(x, ad), lora_forward(x, ad)))

    loss().backward()
    assert ad.A.grad is not None and ad.B.grad is not None
    assert ad.base.grad is None
    assert max_rel_error(loss, ad.A) <= 1e-3
    assert max_rel_error(loss, ad.B) <= 1e-3


def test_trainable_parameter_count():
    for d_in, d_out, r in [(64, 64, 8), (10, 6, 3)]:
        ad = init_lora(d_in, d_out, rank=r)
        assert ad.A.size + ad.B.size == r * (d_in + d_out)
