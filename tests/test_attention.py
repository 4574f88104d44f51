"""Distance modulation, cross-slice weights and memory fusion."""

import math
import warnings

import numpy as np
import pytest

from sliceseg import tensor as T
from sliceseg.attention import (
    LAMBDA_INIT,
    AttentionContext,
    cross_slice_weights,
    distance_modulation,
    fuse_memory,
)
from sliceseg.errors import ContractError, DomainError, ShapeError
from sliceseg.gradcheck import max_rel_error
from sliceseg.model import MICRO_CONFIG, init_params
from sliceseg.tensor import Tensor

from reference_ops import cosine_sims, exp, mul, softmax


def embedding_with_sim(sim: float) -> Tensor:
    """2-D unit vector whose cosine against [1, 0] is exactly `sim`."""
    return Tensor([sim, math.sqrt(1.0 - sim * sim)])


QUERY = Tensor([1.0, 0.0])


def test_modulation_at_zero_distance():
    assert distance_modulation(0.0, 3.7) == 1.0


def test_modulation_with_lambda_zero():
    assert distance_modulation(123.0, 0.0) == 1.0


def test_modulation_derived_value():
    # exp(-0.1 * 2^2) evaluated directly
    out = float(distance_modulation(2.0, 0.1))
    assert out == pytest.approx(math.exp(-0.4), abs=1e-12)
    assert out == pytest.approx(0.670320, abs=1e-6)


def test_modulation_rejects_negative_inputs():
    with pytest.raises(DomainError):
        distance_modulation(-1.0, 0.1)
    with pytest.raises(DomainError):
        distance_modulation(1.0, -0.1)
    # NaN and +-Inf are rejected, not turned into a NaN weight and a RuntimeWarning
    for bad in (math.nan, math.inf, -math.inf, [2.0, math.nan]):
        for lam in (0.1, 0.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="finite"):
                    distance_modulation(bad, lam)


def test_distance_whose_square_overflows_is_a_domain_error_naming_it():
    # exp(-lambda * inf) would be 0 and lambda's gradient NaN, blamed on lambda
    lam = Tensor(LAMBDA_INIT, requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"distance .*finite square.*1\.?e\+200"):
            distance_modulation([0.0, 1e200], LAMBDA_INIT)
        with pytest.raises(DomainError, match="finite square"):
            cross_slice_weights(AttentionContext(QUERY, [QUERY], [1.4e154]), lam)
    # the largest distances whose square is finite still modulate to 0 with a finite gradient
    ctx = AttentionContext(QUERY, [QUERY, embedding_with_sim(0.5)], [0.0, 1.3e154])
    T.mean(mul(cross_slice_weights(ctx, lam), [2.0, -1.0])).backward()
    assert np.isfinite(lam.grad)


def test_modulation_monotone_in_distance():
    values = distance_modulation(np.linspace(0, 30, 40), 0.05)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_weights_symmetry():
    ctx = AttentionContext(
        query=QUERY,
        memory_embeddings=[embedding_with_sim(0.6), embedding_with_sim(0.6)],
        distances=[5.0, 5.0],
    )
    out = cross_slice_weights(ctx, Tensor(0.1)).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-12)


def test_weights_lambda_zero_reduces_to_softmax_of_sims():
    ctx = AttentionContext(
        query=QUERY,
        memory_embeddings=[embedding_with_sim(0.2), embedding_with_sim(0.9)],
        distances=[3.0, 17.0],
    )
    out = cross_slice_weights(ctx, Tensor(0.0)).data
    expected = softmax(Tensor([0.2, 0.9])).data
    assert np.abs(out - expected).max() <= 1e-12
    assert np.allclose(out, [0.331812, 0.668188], atol=1e-6)


def test_weights_derived_distance_case():
    # sims [1, 1], distances [0, 10], lambda 0.1 -> softmax([1, exp(-10)])
    ctx = AttentionContext(
        query=QUERY,
        memory_embeddings=[QUERY, Tensor([1.0, 0.0])],
        distances=[0.0, 10.0],
    )
    out = cross_slice_weights(ctx, Tensor(0.1)).data
    expected = softmax(Tensor([1.0, math.exp(-10.0)])).data
    assert np.abs(out - expected).max() <= 1e-12
    assert np.allclose(out, [0.731049, 0.268951], atol=1e-6)


def test_weights_empty_context_is_contract_error():
    with pytest.raises(ContractError):
        cross_slice_weights(AttentionContext(query=QUERY), Tensor(0.1))


def test_context_validates_lengths_and_distances():
    with pytest.raises(ContractError):
        AttentionContext(query=QUERY, memory_embeddings=[QUERY], distances=[])
    # distances are checked once, by the modulation the weights apply
    for bad in (-2.0, math.nan, math.inf):
        ctx = AttentionContext(query=QUERY, memory_embeddings=[QUERY], distances=[bad])
        with pytest.raises(DomainError):
            cross_slice_weights(ctx, Tensor(0.1))


@pytest.mark.parametrize("seed", range(20))
def test_weights_sum_to_one_random_contexts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    ctx = AttentionContext(
        query=Tensor(rng.standard_normal(8)),
        memory_embeddings=[Tensor(rng.standard_normal(8)) for _ in range(n)],
        distances=list(rng.uniform(0, 40, n)),
    )
    out = cross_slice_weights(ctx, Tensor(rng.uniform(0, 0.5))).data
    assert abs(out.sum() - 1.0) <= 1e-12
    assert (out > 0).all()


@pytest.mark.parametrize("seed", range(10))
def test_weight_never_increases_with_distance(seed):
    # non-negative sims: with a negative similarity the product logit
    # rises toward 0 as the modulation decays, so the claim only holds
    # in the sim >= 0 regime the mechanism operates in
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 6))
    embeddings = [Tensor(rng.uniform(0.1, 1.0, 8)) for _ in range(n)]
    distances = list(rng.uniform(0, 20, n))
    lam = Tensor(rng.uniform(0.01, 0.3))
    query = Tensor(rng.uniform(0.1, 1.0, 8))
    j = int(rng.integers(0, n))
    before = cross_slice_weights(
        AttentionContext(query, embeddings, distances), lam
    ).data[j]
    for bump in (1.0, 5.0, 20.0):
        farther = list(distances)
        farther[j] = distances[j] + bump
        after = cross_slice_weights(
            AttentionContext(query, embeddings, farther), lam
        ).data[j]
        assert after <= before + 1e-15


def test_lambda_gradient_matches_finite_differences():
    lam = Tensor(LAMBDA_INIT, requires_grad=True)
    ctx = AttentionContext(
        query=Tensor([0.3, 1.2, -0.5]),
        memory_embeddings=[Tensor([1.0, 0.4, 0.2]), Tensor([-0.2, 0.9, 0.1])],
        distances=[4.0, 11.0],
    )

    def loss():
        w = cross_slice_weights(ctx, lam)
        return T.mean(mul(w, Tensor([2.0, -1.0])))

    loss().backward()
    assert lam.grad is not None
    assert max_rel_error(loss, lam) <= 1e-3


def _chain_weights(ctx: AttentionContext, lam: Tensor) -> Tensor:
    """The cross-slice weights as the op chain they were built from before
    they became one node: softmax(cosines * exp(lambda * -d^2))."""
    d = np.asarray(ctx.distances, dtype=np.float64)
    modulation = exp(mul(lam, -(d * d)))
    return softmax(mul(cosine_sims(ctx.query, ctx.memory_embeddings), modulation))


def _weights_and_grads(weights, query, embeddings, distances, lam, c, self_slot):
    """Forward bytes and every gradient of mean(weights * c) on fresh
    leaves; with self_slot the query is also slot 0, as in forward_sequence."""
    q = Tensor(query, requires_grad=True)
    es = [Tensor(e, requires_grad=True) for e in embeddings]
    lam = Tensor(lam, requires_grad=True)
    slots = [q, *es] if self_slot else es
    out = weights(AttentionContext(q, slots, distances), lam)
    T.mean(mul(out, c)).backward()
    return [out.data] + [t.grad for t in (q, *es, lam)]


@pytest.mark.parametrize(
    "case", ["random", "self_slot", "zero_embedding", "zero_query", "lambda_zero", "boundary_distance"]
)
@pytest.mark.parametrize("seed", range(4))
def test_cross_slice_node_is_the_old_chain_bitwise(seed, case):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    query = rng.standard_normal(8) * (0.0 if case == "zero_query" else 1.0)
    embeddings = list(rng.standard_normal((n, 8)))
    if case == "zero_embedding":
        embeddings[int(rng.integers(0, n))][:] = 0.0
    self_slot = case in ("self_slot", "boundary_distance")
    distances = list(rng.uniform(0.0, 40.0, n + self_slot))
    if self_slot:
        distances[0] = 0.0
    if case == "boundary_distance":
        distances[-1] = 1.3e154  # the largest distances whose square is finite
    lam = 0.0 if case == "lambda_zero" else float(rng.uniform(0.01, 0.3))
    c = rng.standard_normal(n + self_slot)
    args = (query, embeddings, distances, lam, c, self_slot)
    fused = _weights_and_grads(cross_slice_weights, *args)
    chain = _weights_and_grads(_chain_weights, *args)
    for got, want in zip(fused, chain, strict=True):
        if want is None:  # a zero-norm vector gets no gradient
            assert got is None
        else:
            assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if case == "zero_embedding":
        assert sum(g is None for g in fused) == 1
    if case == "zero_query":
        assert all(g is None for g in fused[1:-1]) and fused[-1] is not None


def test_cross_slice_weights_is_one_node_and_checks_shapes():
    lam = Tensor(0.1, requires_grad=True)
    out = cross_slice_weights(AttentionContext(QUERY, [QUERY, embedding_with_sim(0.3)], [0.0, 4.0]), lam)
    assert out._op == "cross_slice" and out._parents[-1] is lam
    with pytest.raises(ShapeError, match=r"\(2,\)"):
        cross_slice_weights(AttentionContext(QUERY, [Tensor([1.0, 0.0, 0.0])], [1.0]), lam)
    with pytest.raises(DomainError, match="lambda"):
        cross_slice_weights(AttentionContext(QUERY, [QUERY], [1.0]), Tensor(-0.1))
    with pytest.raises(DomainError, match="finite"):  # NaN passes the lambda >= 0 check
        cross_slice_weights(AttentionContext(QUERY, [QUERY], [1.0]), Tensor(np.nan))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cross_slice_weights_reject_an_embedding_or_query_whose_norm_is_not_finite(bad):
    # a NaN embedding used to count as degenerate: cosine 0, finite weights, no gradient
    lam = Tensor(0.1, requires_grad=True)
    with pytest.raises(DomainError, match="row 1 has a norm that is not finite"):
        cross_slice_weights(AttentionContext(QUERY, [QUERY, Tensor([bad, 1.0])], [0.0, 1.0]), lam)
    with pytest.raises(DomainError, match="the query has a norm that is not finite"):
        cross_slice_weights(AttentionContext(Tensor([bad, 1.0]), [QUERY], [1.0]), lam)


def test_lambda_initialized_to_point_one():
    assert init_params(MICRO_CONFIG, seed=0)["lambda"].item() == 0.1


def test_fuse_empty_memory_is_layer_norm_passthrough():
    rng = np.random.default_rng(0)
    grid = Tensor(rng.standard_normal((6, 4)))
    out = fuse_memory(grid, [], Tensor([1.0]))
    assert np.array_equal(out.data, T.layer_norm(grid).data)


def test_fuse_convex_combination_of_equal_grids():
    rng = np.random.default_rng(1)
    grid = Tensor(rng.standard_normal((6, 4)))
    alpha = Tensor([0.2, 0.5, 0.3])
    out = fuse_memory(grid, [Tensor(grid.data), Tensor(grid.data)], alpha)
    assert np.abs(out.data - T.layer_norm(grid).data).max() <= 1e-12


def test_fuse_hand_computed_combination():
    # self zeros, one memory grid of ones, alpha [0.5, 0.5]
    zeros = Tensor(np.zeros((3, 4)))
    ones = Tensor(np.ones((3, 4)))
    out = fuse_memory(zeros, [ones], Tensor([0.5, 0.5]))
    expected = T.layer_norm(Tensor(0.5 * np.ones((3, 4)))).data
    assert np.abs(out.data - expected).max() <= 1e-12


def test_fuse_shape_mismatch():
    with pytest.raises(ShapeError):
        fuse_memory(Tensor(np.zeros((3, 4))), [Tensor(np.zeros((2, 4)))], Tensor([0.5, 0.5]))
    with pytest.raises(ShapeError, match=r"fuse: weights \(1, 2\) are not a vector"):
        fuse_memory(Tensor(np.zeros((3, 4))), [Tensor(np.zeros((3, 4)))], Tensor([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        fuse_memory(Tensor(np.zeros((3, 4))), [], Tensor([0.5, 0.5]))


@pytest.mark.parametrize("seed", range(5))
def test_fuse_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    grid = Tensor(rng.standard_normal((5, 3)))
    mems = [Tensor(rng.standard_normal((5, 3))) for _ in range(4)]
    weights = rng.dirichlet(np.ones(5))
    out = fuse_memory(grid, mems, Tensor(weights)).data
    perm = rng.permutation(4)
    out_perm = fuse_memory(
        grid,
        [mems[i] for i in perm],
        Tensor(np.concatenate([[weights[0]], weights[1:][perm]])),
    ).data
    assert np.abs(out - out_perm).max() <= 1e-12
