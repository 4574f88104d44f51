"""Encoder/decoder shapes, sequence pipeline causality and determinism."""

import dataclasses
import fnmatch
import hashlib
import os
import platform
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from sliceseg import model
from sliceseg import tensor as T
from sliceseg.data_io import (
    MAX_EXTENT,
    SliceData,
    SliceSequence,
    SynthConfig,
    dataclass_from_dict,
    generate_dataset,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
)
from sliceseg.errors import ConfigError, ContractError, DomainError, FormatError, ShapeError
from sliceseg.model import (
    MICRO_CONFIG,
    ModelConfig,
    decode_mask,
    encode_slice,
    forward_sequence,
    init_params,
    load_params,
    save_params,
)
from sliceseg.attention import fuse_memory
from sliceseg.lora import lora_forward
from sliceseg.losses import combined_loss
from sliceseg.memory import prediction_confidence
from sliceseg.tensor import Tensor
from sliceseg.training import AdamState, TrainConfig, train_step

from reference_ops import decode_chain, fuse_chain, mul


def make_sequence(rng, config, n, with_z=True):
    slices = []
    z = 0.0
    for _ in range(n):
        img = rng.uniform(0, 1, (config.image_size, config.image_size, config.channels))
        mask = (rng.random((config.image_size, config.image_size)) < 0.4).astype(np.uint8)
        slices.append(SliceData(image=img, mask=mask, z_position_um=z if with_z else None))
        z += float(rng.uniform(2, 40))
    return SliceSequence(sequence_id="t", slices=slices)


@pytest.fixture(scope="module")
def micro_params():
    return init_params(MICRO_CONFIG, seed=0)


def test_default_patch_count():
    cfg = ModelConfig()
    assert cfg.num_patches == (64 // 8) ** 2 == 64


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(image_size=65)
    with pytest.raises(ConfigError):
        ModelConfig(d_model=63)
    with pytest.raises(ConfigError):
        ModelConfig(lora_rank=0)
    with pytest.raises(ConfigError, match="encoder_blocks must be >= 0, got -1"):
        ModelConfig(encoder_blocks=-1)


@pytest.mark.parametrize(
    "size", ["image_size", "patch_size", "channels", "d_model", "heads", "decoder_hidden"]
)
def test_zero_size_is_config_error(size):
    # a zero patch_size or heads would otherwise divide by zero in the checks
    with pytest.raises(ConfigError, match=">= 1"):
        ModelConfig(**{size: 0})


@pytest.mark.parametrize(
    "size",
    ["image_size", "patch_size", "channels", "d_model", "heads", "decoder_hidden", "encoder_blocks"],
)
@pytest.mark.parametrize("value", [MAX_EXTENT + 1, 10**400])
def test_a_size_above_max_extent_is_a_config_error_naming_it(size, value):
    # refused before any layout is drawn: init_params would allocate first
    with pytest.raises(ConfigError, match=rf"^{size} must be <= {MAX_EXTENT}$"):
        ModelConfig(**{size: value})
    with pytest.raises(ConfigError, match=rf"^{size} must be <= {MAX_EXTENT}$"):
        dataclass_from_dict(ModelConfig, {size: value})
    assert ModelConfig(encoder_blocks=MAX_EXTENT).encoder_blocks == MAX_EXTENT


def test_encode_rejects_wrong_shape(micro_params):
    with pytest.raises(ShapeError, match=r"image shape \(4, 4, 1\)"):
        encode_slice(np.zeros((1, 4, 4, 1)), micro_params)


def test_encode_deterministic(micro_params):
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (3, 8, 8, 1))
    f1 = encode_slice(images, micro_params)
    f2 = encode_slice(images, micro_params)
    assert np.array_equal(f1.data, f2.data)


def test_encode_zero_image_depends_only_on_positions(micro_params):
    feats = encode_slice(np.zeros((2, 8, 8, 1)), micro_params).data
    assert np.array_equal(feats[0], feats[1])
    assert np.isfinite(feats).all()


def test_encode_output_shapes(micro_params):
    feats = encode_slice(np.zeros((3, 8, 8, 1)), micro_params)
    assert feats.shape == (3, MICRO_CONFIG.num_patches, MICRO_CONFIG.d_model)


def test_decode_zero_weights_gives_half_probabilities(micro_params):
    params = init_params(MICRO_CONFIG, seed=0)
    for name in ("decoder.fc1.W", "decoder.fc1.b", "decoder.fc2.W", "decoder.fc2.b"):
        params.tensors[name].data = np.zeros_like(params.tensors[name].data)
    logits, probabilities = decode_mask(Tensor(np.zeros((4, 8))), params)
    assert np.array_equal(logits, np.zeros((8, 8)))
    assert np.array_equal(probabilities.data, np.full((8, 8), 0.5))


def test_decode_output_shape(micro_params):
    logits, probabilities = decode_mask(Tensor(np.random.default_rng(0).standard_normal((4, 8))), micro_params)
    assert logits.shape == probabilities.shape == (8, 8)
    with pytest.raises(ShapeError):
        decode_mask(Tensor(np.zeros((3, 8))), micro_params)


def test_decoder_patch_reassembly_layout():
    # patch p's logits must land in the patch's own spatial window;
    # patch index 2 on the 2x2 grid is (row 1, col 0): rows 4..8, cols 0..4
    params = init_params(MICRO_CONFIG, seed=0)
    params.tensors["decoder.fc1.W"].data = np.ones_like(params.tensors["decoder.fc1.W"].data)
    params.tensors["decoder.fc1.b"].data = np.zeros(8)
    params.tensors["decoder.fc2.W"].data = np.ones_like(params.tensors["decoder.fc2.W"].data)
    params.tensors["decoder.fc2.b"].data = np.zeros(16)
    feats = np.zeros((4, 8))
    feats[2] = 5.0
    logits, _ = decode_mask(Tensor(feats), params)
    window = logits[4:8, 0:4]
    rest = logits.copy()
    rest[4:8, 0:4] = 0.0
    assert (window > 1.0).all()
    assert np.array_equal(rest, np.zeros((8, 8)))


def test_single_slice_equals_memoryless_path(micro_params):
    rng = np.random.default_rng(1)
    seq = make_sequence(rng, MICRO_CONFIG, 1)
    [pred] = forward_sequence(seq, micro_params)
    feats = T.take(encode_slice([seq.slices[0].image], micro_params), 0)
    fused = fuse_memory(feats, [], Tensor([1.0]))
    logits, probabilities = decode_mask(fused, micro_params)
    assert np.array_equal(pred.logits.data, logits)
    assert np.array_equal(pred.probabilities.data, probabilities.data)


def test_duplicated_slice_prediction_matches_first():
    params = init_params(MICRO_CONFIG, seed=2)
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, (8, 8, 1))
    seq = SliceSequence(
        "dup",
        [
            SliceData(image=img, mask=None, z_position_um=0.0),
            SliceData(image=img.copy(), mask=None, z_position_um=0.0),
        ],
    )
    p0, p1 = forward_sequence(seq, params)
    assert np.abs(p0.probabilities.data - p1.probabilities.data).max() <= 1e-9


def test_sequence_cardinality(micro_params):
    rng = np.random.default_rng(3)
    seq = make_sequence(rng, MICRO_CONFIG, 6)
    preds = forward_sequence(seq, micro_params)
    assert len(preds) == 6


def test_empty_sequence_rejected(micro_params):
    with pytest.raises(ContractError):
        forward_sequence(SliceSequence("e", []), micro_params)


def test_missing_z_is_estimated(micro_params):
    rng = np.random.default_rng(4)
    seq = make_sequence(rng, MICRO_CONFIG, 3, with_z=False)
    assert len(forward_sequence(seq, micro_params)) == 3


def _sequence_loss(seq, params):
    preds = forward_sequence(seq, params)
    loss = combined_loss(
        [p.probabilities for p in preds],
        [Tensor(sl.mask.astype(np.float64)) for sl in seq.slices],
        [p.pooled_embedding for p in preds],
    )
    return preds, loss


def test_chunk_bounds_split_a_stack_into_an_even_number_of_chunks_of_at_most_16():
    for n in range(1, 201):
        bounds = model.chunk_bounds(n)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n and sizes.min() >= 1, n
        assert sizes.max() - sizes.min() <= 1 and sizes.max() <= model.ENCODE_CHUNK == 16, n
        assert len(sizes) == 1 if n <= 8 else len(sizes) % 2 == 0, n
    sizes = {n: np.diff(model.chunk_bounds(n)).tolist() for n in (64, 40, 16, 9)}
    assert sizes == {64: [16] * 4, 40: [10] * 4, 16: [8, 8], 9: [5, 4]}


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 33, 64])
def test_chunked_encoding_equals_one_slice_chunks(n, monkeypatch):
    # sizes straddling the chunk rule: one chunk (1, 8), two (9, 16, 17), four (33, 64)
    params = init_params(ModelConfig(), seed=1)
    seq = make_sequence(np.random.default_rng(n), ModelConfig(), n)
    preds, loss = _sequence_loss(seq, params)
    params.zero_grad()
    loss.backward()
    grads = {name: t.grad for name, t in params.trainable().items()}
    monkeypatch.setattr(model, "chunk_bounds", lambda n: list(range(n + 1)))
    solo, solo_loss = _sequence_loss(seq, params)
    for p, q in zip(preds, solo, strict=True):
        for a, b in [(p.logits, q.logits), (p.pooled_embedding, q.pooled_embedding)]:
            assert np.array_equal(a.data, b.data)
        assert p.confidence == q.confidence
    assert loss.item() == solo_loss.item()
    # one product over the chunk's rows sums weight gradients in another order
    params.zero_grad()
    solo_loss.backward()
    for name, t in params.trainable().items():
        if t.grad is None:  # lambda, with no memory slot to weigh
            assert grads[name] is None, name
            continue
        assert np.abs(grads[name] - t.grad).max() <= 1e-12 * np.abs(t.grad).max(), name


@pytest.mark.parametrize("bad", [3, 9])
def test_a_mis_sized_slice_is_a_shape_error(bad, micro_params):
    seq = make_sequence(np.random.default_rng(8), MICRO_CONFIG, 10)
    seq.slices[bad].image = np.zeros((4, 4, 1))
    with pytest.raises(ShapeError, match=rf"^slice {bad}: image shape \(4, 4, 1\) != expected \(8, 8, 1\)$"):
        forward_sequence(seq, micro_params)


@pytest.mark.parametrize("seed", range(5))
def test_causality_prediction_ignores_future_slices(seed, micro_params):
    rng = np.random.default_rng(seed)
    seq = make_sequence(rng, MICRO_CONFIG, 4)
    before = forward_sequence(seq, micro_params)
    t = int(rng.integers(0, 3))
    seq.slices[t + 1].image = rng.uniform(0, 1, (8, 8, 1))
    after = forward_sequence(seq, micro_params)
    for i in range(t + 1):
        assert np.array_equal(before[i].logits.data, after[i].logits.data)


def test_k_zero_equals_independent_per_slice():
    params = init_params(dataclasses.replace(MICRO_CONFIG, k_memory=0), seed=0)
    rng = np.random.default_rng(6)
    seq = make_sequence(rng, MICRO_CONFIG, 4)
    preds = forward_sequence(seq, params)
    for sl, pred in zip(seq.slices, preds):
        feats = T.take(encode_slice([sl.image], params), 0)
        logits, _ = decode_mask(fuse_memory(feats, [], Tensor([1.0])), params)
        assert np.array_equal(pred.logits.data, logits)


def test_forward_deterministic_across_runs(micro_params):
    rng = np.random.default_rng(7)
    seq = make_sequence(rng, MICRO_CONFIG, 3)
    a = forward_sequence(seq, micro_params)
    b = forward_sequence(seq, micro_params)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.probabilities.data, pb.probabilities.data)
        assert pa.confidence == pb.confidence


def test_init_deterministic_per_seed():
    p1 = init_params(MICRO_CONFIG, seed=5)
    p2 = init_params(MICRO_CONFIG, seed=5)
    assert set(p1.tensors) == set(p2.tensors)
    for name in p1.tensors:
        assert np.array_equal(p1.tensors[name].data, p2.tensors[name].data)


def test_frozen_set_is_qv_bases():
    params = init_params(MICRO_CONFIG, seed=0)
    assert params.frozen == {
        "encoder.block0.attn.q.W",
        "encoder.block0.attn.v.W",
        "encoder.block1.attn.q.W",
        "encoder.block1.attn.v.W",
    }
    for name in params.frozen:
        assert not params.tensors[name].requires_grad


def test_params_checkpoint_round_trip(tmp_path):
    params = init_params(MICRO_CONFIG, seed=1)
    # f32-representable values so the wire round-trip is exact
    for t in params.tensors.values():
        t.data = t.data.astype(np.float32).astype(np.float64)
    save_params(tmp_path / "p.psc", params)
    back = load_params(tmp_path / "p.psc")
    assert back.config == params.config
    assert back.frozen == params.frozen
    for name, t in params.tensors.items():
        assert np.array_equal(back.tensors[name].data, t.data)
        # a checkpoint serves constants; the frozen set still round-trips above
        assert not back.tensors[name].requires_grad


@pytest.mark.parametrize(
    "config, seed, digest",
    [
        (MICRO_CONFIG, 0, "6d59f03d5e5089638f5ab745a14c93b88811feeb24ef665c39c1c1955e36b621"),
        (ModelConfig(), 3, "de027bed0aaba3ad14eebafa3389efa22278637eac649fa497a4f915999c3dde"),
    ],
)
def test_init_draws_are_pinned(config, seed, digest):
    # names, order, values and trainability of a seeded init never move
    h = hashlib.sha256()
    for name, t in init_params(config, seed=seed).tensors.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
        h.update(str(t.requires_grad).encode())
    assert h.hexdigest() == digest


def _rewrite_checkpoint(path, edit) -> None:
    """Load a checkpoint's parts, let `edit` change them, save them back."""
    arrays, config, frozen = load_checkpoint(path)
    edit(arrays, frozen)
    save_checkpoint(path, arrays, config, frozen=frozen)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda a, f: a.pop("lambda"), "holds 39 tensors; its config implies 40 "),
        (lambda a, f: a.update(extra=np.zeros(2)), "holds 41 tensors; its config implies 40 "),
        (lambda a, f: a.update(extra=a.pop("lambda")), r"missing \['lambda'\], unexpected \['extra'\]"),
        (lambda a, f: a.update({"decoder.fc1.b": np.zeros(3)}), r"wrong shape \['decoder"),
        (lambda a, f: f.pop(), "freezes"),
        (lambda a, f: f.append("decoder.fc1.W"), "freezes"),
    ],
    ids=["missing", "unexpected", "renamed", "wrong_shape", "unfrozen_base", "frozen_extra"],
)
def test_load_params_rejects_a_manifest_its_config_does_not_imply(tmp_path, edit, match):
    path = tmp_path / "p.psc"
    save_params(path, init_params(MICRO_CONFIG, seed=0))
    _rewrite_checkpoint(path, edit)
    with pytest.raises(FormatError, match=match):
        load_params(path)


@pytest.mark.parametrize("blocks", [0, 1, 2, 5])
def test_the_implied_tensor_count_is_the_layout_length(blocks):
    cfg = dataclasses.replace(MICRO_CONFIG, encoder_blocks=blocks)
    assert len(model._layout(cfg)) == 8 + 16 * blocks


@pytest.mark.parametrize(
    "blocks, error, match",
    [
        (10**6, FormatError, "holds 40 tensors; its config implies 16000008 "),
        (10**18, ConfigError, rf"^encoder_blocks must be <= {MAX_EXTENT}$"),
    ],
)
def test_a_header_with_huge_encoder_blocks_fails_fast_and_briefly(tmp_path, blocks, error, match):
    # the tensor count is compared before the config's layout is built
    path = tmp_path / "p.psc"
    save_params(path, init_params(ModelConfig(), seed=0))
    arrays, config, frozen = load_checkpoint(path)
    save_checkpoint(path, arrays, {**config, "encoder_blocks": blocks}, frozen=frozen)
    start = time.perf_counter()
    with pytest.raises(error, match=match) as err:
        load_params(path)
    assert time.perf_counter() - start < 1.0
    assert len(str(err.value)) < 1024
    if error is FormatError:
        assert err.value.offset == 12


def test_fresh_checkpoint_contains_lambda_at_point_one(tmp_path):
    params = init_params(MICRO_CONFIG, seed=0)
    save_params(tmp_path / "f.psc", params)
    back = load_params(tmp_path / "f.psc")
    assert float(back.tensors["lambda"].data) == pytest.approx(0.1, abs=1e-8)
    lora_names = [n for n in back.tensors if n.startswith("lora.")]
    assert sorted(lora_names) == sorted(
        f"lora.block{i}.{p}.{m}" for i in range(2) for p in ("q", "v") for m in ("A", "B")
    )


def test_init_gives_zero_lora_b_and_base_forward():
    params = init_params(MICRO_CONFIG, seed=0)
    d, r = MICRO_CONFIG.d_model, MICRO_CONFIG.lora_rank
    x = Tensor(np.random.default_rng(2).standard_normal((4, d)))
    for i in range(MICRO_CONFIG.encoder_blocks):
        for proj in "qv":
            W = params[f"encoder.block{i}.attn.{proj}.W"]
            A, B = params[f"lora.block{i}.{proj}.A"], params[f"lora.block{i}.{proj}.B"]
            assert (A.shape, B.shape) == ((r, d), (d, r))
            assert A.requires_grad and B.requires_grad and not W.requires_grad
            assert np.count_nonzero(B.data) == 0 and np.count_nonzero(A.data) == A.size
            # bitwise, zero tolerance
            assert np.array_equal(lora_forward(x, W, A, B).data, T.linear(x, W).data)


def _tape_nodes(root: Tensor) -> Counter:
    """Non-leaf nodes reachable from root through _parents, per op."""
    seen, stack, count = set(), [root], Counter()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op != "leaf":
            count[node._op] += 1
        stack.extend(node._parents)
    return count


def test_reference_train_step_tape_size(tmp_path):
    # seq_000 of dataset seed 1 at init seed 1, default config; written and
    # read back so the images carry the on-disk f32 rounding
    generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=6, seed=1), tmp_path)
    [seq] = load_dataset(tmp_path)
    _, loss = _sequence_loss(seq, init_params(ModelConfig(), seed=1))
    nodes = _tape_nodes(loss)
    assert nodes == Counter(
        add=5, attention=2, cross_slice=5, decode=6, fuse=6, layer_norm=4, linear=13, lora=4,
        mean=6, sequence_loss=1, take=6, tanh=2,
    )
    assert sum(nodes.values()) == 60


def test_load_params_keeps_the_encoder_in_float32_and_widens_the_rest(tmp_path):
    save_params(tmp_path / "m.psc", init_params(ModelConfig(), seed=0))
    params = load_params(tmp_path / "m.psc")
    wide = {n for n, t in params.tensors.items() if t.data.dtype == np.float64}
    narrow = {n for n, t in params.tensors.items() if t.data.dtype == np.float32}
    assert wide == {"lambda", "decoder.fc1.W", "decoder.fc1.b", "decoder.fc2.W", "decoder.fc2.b"}
    assert narrow == set(params.tensors) - wide
    assert all(n.startswith(("encoder.", "lora.")) for n in narrow)
    seq = make_sequence(np.random.default_rng(24), ModelConfig(), 9)
    assert encode_slice([sl.image for sl in seq.slices[:8]], params).data.dtype == np.float32
    # pooling, memory and decoding compute in float64 from the widened chunk outputs
    for chunk in model._encode_chunks([sl.image for sl in seq.slices], params):
        assert chunk.data.dtype == np.float64
    for p in forward_sequence(seq, params):
        assert p.probabilities.data.dtype == p.pooled_embedding.data.dtype == np.float64


def test_initialized_params_and_a_train_step_tape_are_float64():
    params = init_params(MICRO_CONFIG, seed=0)
    assert {t.data.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}
    seq = make_sequence(np.random.default_rng(25), MICRO_CONFIG, 3)
    for sl in seq.slices:
        sl.image = sl.image.astype(np.float32)  # as read from disk
    _, loss = _sequence_loss(seq, params)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            assert node.data.dtype == np.float64, node._op
            stack.extend(node._parents)
    assert len(seen) > 50
    train_step(params, seq, AdamState(), TrainConfig(model=MICRO_CONFIG, seed=0))
    assert {t.data.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}


@pytest.fixture(scope="module")
def stack64(tmp_path_factory):
    """A 64-slice stack (data seed 3, 30 % corrupted) and the default model
    at init seed 1, saved as a checkpoint."""
    root = tmp_path_factory.mktemp("stack64")
    synth = SynthConfig(num_sequences=1, slices_per_sequence=64, seed=3, corrupt_prob=0.3)
    [seq] = load_dataset(generate_dataset(synth, root / "data"))
    save_params(root / "m.psc", init_params(ModelConfig(), seed=1))
    return seq, root / "m.psc"


def test_forward_on_a_loaded_checkpoint_builds_no_tape(stack64):
    seq, ckpt = stack64
    preds = forward_sequence(seq, load_params(ckpt))
    for p in preds:
        for t in (p.logits, p.probabilities, p.pooled_embedding):
            assert t._parents == () and not t.requires_grad


def _widened(params) -> model.ModelParams:
    """params as float64 constants: a loaded checkpoint's values at the encoder's old precision."""
    tensors = {n: Tensor(t.data.astype(np.float64)) for n, t in params.tensors.items()}
    return model.ModelParams(params.config, tensors, params.frozen)


def test_loaded_forward_is_the_taped_forward_on_the_loaded_encoder_output_bitwise(stack64, monkeypatch):
    # everything after the encoder computes as it did: given the float32 encoder's
    # output, widened, the taped float64 forward gives the loaded forward's bits
    seq, ckpt = stack64
    loaded = load_params(ckpt)
    got = forward_sequence(seq, loaded)
    assert not any(p.probabilities._parents for p in got)
    taped = init_params(ModelConfig(), seed=1)
    for t in taped.tensors.values():
        t.data = t.data.astype(np.float32).astype(np.float64)
    encode = model.encode_slice
    outputs = []

    def loaded_encoder(images, params):
        outputs.append(encode(images, loaded).data)
        return Tensor(outputs[-1].astype(np.float64))

    monkeypatch.setattr(model, "encode_slice", loaded_encoder)
    expected = forward_sequence(seq, taped)
    assert {x.dtype for x in outputs} == {np.dtype(np.float32)}
    assert len(outputs) == len(model.chunk_bounds(64)) - 1 == 4
    assert all(p.probabilities._parents for p in expected)
    for e, g in zip(expected, got, strict=True):
        for name in ("probabilities", "logits", "pooled_embedding"):
            assert getattr(e, name).data.tobytes() == getattr(g, name).data.tobytes(), name
        assert e.confidence.hex() == g.confidence.hex()


def test_the_float32_encoder_is_within_1e_6_of_the_float64_encoder(stack64, monkeypatch):
    # the one precision change: probabilities and pooled embeddings move by at most
    # 1e-6 (1.6e-7 and 1.7e-7 measured), no thresholded pixel flips, and every
    # slice chooses the same memory slots
    seq, ckpt = stack64
    select, chosen = model.select_memory, []
    monkeypatch.setattr(model, "select_memory", lambda *a: chosen.append(select(*a)) or chosen[-1])
    loaded = load_params(ckpt)
    runs = [forward_sequence(seq, params) for params in (loaded, _widened(loaded))]
    half = len(chosen) // 2
    assert half == 63 and all(np.array_equal(a, b) for a, b in zip(chosen[:half], chosen[half:]))
    for a, b in zip(*runs, strict=True):
        assert a.probabilities.data.dtype == a.pooled_embedding.data.dtype == np.float64
        assert np.abs(a.probabilities.data - b.probabilities.data).max() <= 1e-6
        assert np.abs(a.pooled_embedding.data - b.pooled_embedding.data).max() <= 1e-6
        assert np.array_equal(a.probabilities.data >= 0.5, b.probabilities.data >= 0.5)


def _probabilities_digest(seq, params) -> str:
    h = hashlib.sha256()
    for p in forward_sequence(seq, params):
        h.update(p.probabilities.data.tobytes())
    return h.hexdigest()[:16]


def _without_z(seq, drop) -> SliceSequence:
    """seq with the z position of every slice t where drop(t) removed."""
    return SliceSequence(
        seq.sequence_id,
        [dataclasses.replace(sl, z_position_um=None) if drop(t) else sl for t, sl in enumerate(seq.slices)],
    )


def test_stack_probabilities_are_pinned(stack64):
    # 64 slices with k=5: top-k truncation and the tie rule pick the slots
    seq, ckpt = stack64
    assert _probabilities_digest(seq, _widened(load_params(ckpt))) == "502eca44f3595d86"


def test_stack_without_z_is_pinned(stack64):
    # every memory distance is estimated from the scored cosines
    seq, ckpt = stack64
    assert _probabilities_digest(_without_z(seq, lambda t: True), _widened(load_params(ckpt))) == "514d5e32221a66f1"


def test_stack_with_every_third_z_removed_is_pinned(stack64):
    # slices 0, 3, 6, ...: a slot's distance is the z gap only when both slices have z
    seq, ckpt = stack64
    mixed = _without_z(seq, lambda t: t % 3 == 0)
    assert _probabilities_digest(mixed, _widened(load_params(ckpt))) == "61f65a4ad55df2fa"


@pytest.mark.parametrize(
    "drop, digest",
    [
        (lambda t: False, "85c6e934e143d3c0"),
        (lambda t: True, "7fe960f7c09de697"),
        (lambda t: t % 3 == 0, "b03645f203109fbb"),
    ],
    ids=["z", "no_z", "every_third_z"],
)
def test_a_loaded_stack_with_its_float32_encoder_is_pinned(stack64, drop, digest):
    # the three stacks above, on the checkpoint as loaded: encoder and adapters in float32
    seq, ckpt = stack64
    assert _probabilities_digest(_without_z(seq, drop), load_params(ckpt)) == digest


def test_memory_scoring_rejects_an_embedding_whose_norm_is_not_finite(micro_params, monkeypatch):
    # slice 0's NaN pooled embedding used to score as orthogonal (cosine 0)
    # from slice 1 on; its features are poisoned after the image check, and
    # the confidence check that catches its NaN map is bypassed, so scoring
    # is the first to see it
    encode = model.encode_slice

    def poisoned(images, params):
        feats = encode(images, params)
        feats.data[0] = np.nan
        return feats

    monkeypatch.setattr(model, "encode_slice", poisoned)
    monkeypatch.setattr(model, "prediction_confidence", lambda p: 0.5)
    seq = make_sequence(np.random.default_rng(16), MICRO_CONFIG, 3)
    with pytest.raises(DomainError, match="row 0 has a norm that is not finite"):
        forward_sequence(seq, micro_params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("t", [0, 5, 11])
def test_a_non_finite_pixel_is_a_domain_error_naming_its_slice(micro_params, t, bad):
    # before any product, so numpy warns of nothing (warnings are errors here)
    seq = make_sequence(np.random.default_rng(17), MICRO_CONFIG, 12)
    seq.slices[t].image[3, 2, 0] = bad
    with pytest.raises(DomainError, match=rf"^slice {t}: image has a pixel that is not finite$"):
        forward_sequence(seq, micro_params)


@pytest.mark.parametrize("bad", [1e300, -1e300, 3.5e38])
@pytest.mark.parametrize("t", [0, 5, 11])
def test_a_pixel_beyond_the_float32_range_is_a_domain_error_naming_its_slice(micro_params, t, bad):
    # finite, but no raster holds it, and the encoder's products would overflow
    seq = make_sequence(np.random.default_rng(17), MICRO_CONFIG, 12)
    seq.slices[t].image[3, 2, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^slice {t}: image has a pixel beyond the float32 range$"):
            forward_sequence(seq, micro_params)


# slice 1 of an in-memory stack, poisoned: what forward_sequence must say, or None for a finite result
POISONED_SLICES = {
    "float16_image": (lambda sl: setattr(sl, "image", sl.image.astype(np.float16)), None),
    "str_image": (lambda sl: setattr(sl, "image", np.full(sl.image.shape, "0.5")), "image dtype <U3"),
    "complex_image": (lambda sl: setattr(sl, "image", sl.image + 0.5j), "image dtype complex128"),
    "str_z": (lambda sl: setattr(sl, "z_position_um", "3"), "z_position_um .* got '3'"),
    "bool_z": (lambda sl: setattr(sl, "z_position_um", True), "z_position_um .* got True"),
}


@pytest.mark.parametrize("case", POISONED_SLICES)
def test_a_poisoned_in_memory_slice_ends_in_a_typed_error_or_a_finite_result(micro_params, case):
    poison, message = POISONED_SLICES[case]
    seq = make_sequence(np.random.default_rng(23), MICRO_CONFIG, 4)
    poison(seq.slices[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            preds = forward_sequence(seq, micro_params)
            assert all(np.isfinite(p.probabilities.data).all() for p in preds)
        else:
            with pytest.raises(ContractError, match=rf"^slice 1: {message}"):
                forward_sequence(seq, micro_params)


@pytest.mark.parametrize("config", [ModelConfig(), MICRO_CONFIG], ids=["default", "micro"])
def test_a_pixel_at_the_float32_limit_gives_finite_probabilities(config):
    seq = make_sequence(np.random.default_rng(22), config, 12)
    limit = float(np.finfo(np.float32).max)
    seq.slices[3].image[3, 2, 0] = limit
    seq.slices[7].image = seq.slices[7].image.astype(np.float32)
    seq.slices[7].image[0, 5, 0] = -limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        preds = forward_sequence(seq, init_params(config, seed=1))
    assert all(np.isfinite(p.probabilities.data).all() for p in preds)


@pytest.mark.parametrize("pixel", [model.F32_MAX, -model.F32_MAX, 1e20], ids=["max", "min", "1e20"])
@pytest.mark.parametrize("config", [ModelConfig(), MICRO_CONFIG], ids=["default", "micro"])
def test_a_pixel_at_the_float32_limit_gives_finite_probabilities_on_a_loaded_checkpoint(
    config, pixel, tmp_path
):
    # a float32 encoder overflows on such a pixel, so its stack is encoded in float64
    save_params(tmp_path / "m.psc", init_params(config, seed=1))
    seq = make_sequence(np.random.default_rng(22), config, 12)
    seq.slices[3].image = seq.slices[3].image.astype(np.float32)
    seq.slices[3].image[3, 2, 0] = pixel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        preds = forward_sequence(seq, load_params(tmp_path / "m.psc"))
    assert all(np.isfinite(p.probabilities.data).all() for p in preds)


def test_a_confidence_error_names_its_slice(monkeypatch):
    params = init_params(MICRO_CONFIG, seed=0)
    seq = make_sequence(np.random.default_rng(18), MICRO_CONFIG, 4)
    confidence, seen = model.prediction_confidence, []

    def refuse_the_third(p):
        seen.append(p)
        return confidence(np.full_like(p, np.nan) if len(seen) == 3 else p)

    monkeypatch.setattr(model, "prediction_confidence", refuse_the_third)
    with pytest.raises(DomainError, match=r"^slice 2: probabilities must lie in \[0, 1\]$"):
        forward_sequence(seq, params)


@pytest.mark.parametrize(
    "name,k",
    [
        ("decoder.fc2.b", 5),  # every slice's map has a NaN pixel: the probability check fails
        ("encoder.block1.mlp.fc2.W", 5),  # every pooled embedding is NaN: the cosine check fails
        ("encoder.block1.mlp.fc2.W", 0),  # no memory, so no cosines: the probability check fails
    ],
)
def test_a_non_finite_parameter_is_named_by_the_forward_error(name, k, monkeypatch):
    params = init_params(dataclasses.replace(MICRO_CONFIG, k_memory=k), seed=0)
    seq = make_sequence(np.random.default_rng(18), MICRO_CONFIG, 4)
    scans = []
    blame = model._blame
    monkeypatch.setattr(model, "_blame", lambda *a: scans.append(a) or blame(*a))
    forward_sequence(seq, params)
    assert scans == []  # a finite forward scans no parameter
    params[name].data[0] = np.nan
    with pytest.raises(DomainError, match=rf"^parameter '{name}' has a value that is not finite$"):
        forward_sequence(seq, params)
    assert len(scans) == 1


def test_a_decoder_logit_past_the_exp_range_is_probability_zero_without_a_warning():
    # pytest turns a RuntimeWarning into an error: exp(1e300) overflows to inf
    params = init_params(MICRO_CONFIG, seed=0)
    params["decoder.fc2.W"].data *= 1e300
    preds = forward_sequence(make_sequence(np.random.default_rng(3), MICRO_CONFIG, 3), params)
    for pred in preds:
        logits, probs = pred.logits.data, pred.probabilities.data
        with np.errstate(over="ignore"):
            assert np.array_equal(probs, 1.0 / (1.0 + np.exp(-logits)))
        assert (probs[logits < -710] == 0.0).all() and (logits < -710).any()


def _train_on_a_string_mask():
    seq = make_sequence(np.random.default_rng(4), MICRO_CONFIG, 3)
    seq.slices[1].mask = np.full((8, 8), "1")
    train_step(init_params(MICRO_CONFIG, seed=0), seq, AdamState(), TrainConfig(model=MICRO_CONFIG))


@pytest.mark.parametrize(
    "run, message",
    [
        (_train_on_a_string_mask, r"^slice 1: mask dtype <U1 is not a real number type$"),
        (
            lambda: prediction_confidence(np.full((8, 8), "0.7")),
            r"^probability map dtype <U3 is not a real number type$",
        ),
    ],
    ids=["mask", "probabilities"],
)
def test_a_mask_or_probability_map_of_strings_is_a_contract_error(run, message):
    with pytest.raises(ContractError, match=message):
        run()


@pytest.mark.parametrize("n, blocks", [(64, 4), (40, 3)])
def test_a_stack_is_scored_in_cosine_blocks_of_encode_chunk_rows(n, blocks, monkeypatch):
    # one call per ENCODE_CHUNK slices, not one per slice, and none in the cross-slice forward
    seq = make_sequence(np.random.default_rng(19), MICRO_CONFIG, n)
    params = init_params(MICRO_CONFIG, seed=1)
    calls = Counter()

    def counting(where, kernel):
        def cosines(q, E):
            calls[where] += 1
            return kernel(q, E)

        return cosines

    monkeypatch.setattr(model, "cosines", counting("forward_sequence", model.cosines))
    monkeypatch.setattr(T, "cosines", counting("elsewhere", T.cosines))
    forward_sequence(seq, params)
    assert calls == {"forward_sequence": -(-n // model.ENCODE_CHUNK)} == {"forward_sequence": blocks}


def test_one_slice_encoding_and_scoring_equal_the_default_forward_bitwise(monkeypatch):
    # ENCODE_CHUNK sets both the encoder chunks and the scoring blocks
    seq = make_sequence(np.random.default_rng(20), MICRO_CONFIG, 40)
    params = init_params(MICRO_CONFIG, seed=2)
    preds = forward_sequence(seq, params)
    monkeypatch.setattr(model, "ENCODE_CHUNK", 1)
    assert len(model.chunk_bounds(40)) == 41
    solo = forward_sequence(seq, params)
    for p, q in zip(preds, solo, strict=True):
        for a, b in [(p.logits, q.logits), (p.probabilities, q.probabilities),
                     (p.pooled_embedding, q.pooled_embedding)]:
            assert a.data.tobytes() == b.data.tobytes()
        assert p.confidence == q.confidence


# ------------------------------------------------ the decode and fuse nodes

DECODE_CONFIGS = {
    "default": ModelConfig(),
    "micro": MICRO_CONFIG,
    "odd": ModelConfig(image_size=12, patch_size=3, d_model=6, heads=2, lora_rank=2, decoder_hidden=5),
}


def _decoded(build, x, params, c):
    """The logits' and the probabilities' bytes, then every gradient's bytes, of
    mean(probabilities * c) for (logits, probabilities) = build(x)."""
    for t in (x, *params.tensors.values()):
        t.zero_grad()
    logits, out = build(x, params)
    T.mean(mul(out, c)).backward()
    names = [f"decoder.{n}" for n in ("fc1.W", "fc1.b", "fc2.W", "fc2.b")]
    grads = [t.grad.tobytes() for t in [x] + [params[n] for n in names]]
    return [logits.tobytes(), out.data.tobytes()] + grads


@pytest.mark.parametrize("name", DECODE_CONFIGS)
def test_decode_is_the_old_chain_bitwise(name):
    config = DECODE_CONFIGS[name]
    params = init_params(config, seed=2)
    rng = np.random.default_rng(len(name))
    for t in params.tensors.values():  # zero biases would hide a swapped bias gradient
        t.data = t.data + rng.normal(0.0, 0.1, t.shape)
    x = Tensor(rng.standard_normal((config.num_patches, config.d_model)), requires_grad=True)
    c = rng.standard_normal((config.image_size, config.image_size))
    _, out = decode_mask(x, params)
    assert out._op == "decode" and out._parents[0] is x
    assert _decoded(decode_mask, x, params, c) == _decoded(decode_chain, x, params, c)


@pytest.mark.parametrize("name", DECODE_CONFIGS)
def test_decode_probabilities_are_the_sigmoid_of_its_logits_bitwise(name):
    # decoder weights scaled so the logits reach past +-40, where the sigmoid saturates
    config = DECODE_CONFIGS[name]
    params = init_params(config, seed=3)
    params.tensors["decoder.fc2.W"].data = params["decoder.fc2.W"].data * 60.0
    rng = np.random.default_rng(len(name) + 7)
    x = Tensor(rng.standard_normal((config.num_patches, config.d_model)), requires_grad=True)
    logits, probabilities = decode_mask(x, params)
    assert np.abs(logits).max() > 40.0
    assert probabilities.data.tobytes() == (1.0 / (1.0 + np.exp(-logits))).tobytes()
    # the node's gradient is the sigmoid oracle's on top of the logits' chain
    c = rng.standard_normal(logits.shape)
    assert _decoded(decode_mask, x, params, c) == _decoded(decode_chain, x, params, c)


def test_decode_gives_a_constant_input_no_gradient(micro_params):
    rng = np.random.default_rng(19)
    data = rng.standard_normal((4, 8))
    g = rng.standard_normal((8, 8))
    taped, constant = (decode_mask(Tensor(data, requires_grad=req), micro_params)[1] for req in (True, False))
    routed_taped = [(t, gt.tobytes()) for t, gt in taped._backward(g)]
    routed_constant = [(t, gt.tobytes()) for t, gt in constant._backward(g)]
    assert routed_taped[-1][0] is taped._parents[0]
    assert routed_constant == routed_taped[:-1]  # the weights' gradients, to the bit


def _fuse_grads(build, grids, alpha, c):
    for t in (alpha, *grids):
        t.zero_grad()
    out = build(grids[0], grids[1:], alpha)
    T.mean(mul(out, c)).backward()
    return [out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes() for t in (alpha, *grids)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("name", ["default", "micro"])
def test_fuse_is_the_old_chain_bitwise(name, n):
    config = DECODE_CONFIGS[name]
    rng = np.random.default_rng(n)
    shape = (config.num_patches, config.d_model)
    grids = [Tensor(rng.standard_normal(shape) * 2.0 + 0.5, requires_grad=True) for _ in range(n)]
    alpha = Tensor(rng.dirichlet(np.ones(n)), requires_grad=True)
    c = rng.standard_normal(shape)
    out = fuse_memory(grids[0], grids[1:], alpha)
    assert out._op == "fuse" and out._parents == (alpha, *grids)
    assert _fuse_grads(fuse_memory, grids, alpha, c) == _fuse_grads(fuse_chain, grids, alpha, c)


@pytest.mark.parametrize("name", ["default", "micro"])
def test_fuse_gives_the_self_only_weight_and_a_constant_grid_no_gradient(name):
    config = DECODE_CONFIGS[name]
    rng = np.random.default_rng(20)
    shape = (config.num_patches, config.d_model)
    grid = Tensor(rng.standard_normal(shape), requires_grad=True)
    c = rng.standard_normal(shape)
    one = Tensor([1.0])  # the self-only fusion of a slice with no memory
    new, old = (_fuse_grads(build, [grid], one, c) for build in (fuse_memory, fuse_chain))
    assert new == old and new[1] is None
    routed = fuse_memory(grid, [], one)._backward(c)
    assert [t for t, _ in routed] == [grid]
    # a constant memory grid: the weights and the taped grid as the old chain, the constant none
    memory = Tensor(rng.standard_normal(shape))
    alpha = Tensor([0.3, 0.7], requires_grad=True)
    new, old = (_fuse_grads(build, [grid, memory], alpha, c) for build in (fuse_memory, fuse_chain))
    assert new == old
    routed = fuse_memory(grid, [memory], alpha)._backward(c)
    assert [t for t, _ in routed] == [alpha, grid]


def _step_bytes(config, seq):
    """The loss, every probability map and every gradient of one sequence's loss, as bytes."""
    params = init_params(config, seed=1)
    preds = forward_sequence(seq, params)
    loss = combined_loss(
        [p.probabilities for p in preds],
        [Tensor(sl.mask.astype(np.float64)) for sl in seq.slices],
        [p.pooled_embedding for p in preds],
    )
    loss.backward()
    grads = [t.grad.tobytes() for _, t in sorted(params.trainable().items())]
    return [loss.data.tobytes()] + [p.probabilities.data.tobytes() for p in preds] + grads


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", ["default", "micro"])
def test_a_sequence_loss_through_decode_and_fuse_is_the_old_chains_bitwise(name, cpus, monkeypatch):
    config = DECODE_CONFIGS[name]
    _cpus(monkeypatch, cpus)
    seq = make_sequence(np.random.default_rng(21), config, 6)
    fused = _step_bytes(config, seq)
    monkeypatch.setattr(model, "decode_mask", decode_chain)
    monkeypatch.setattr(model, "fuse_memory", fuse_chain)
    assert _step_bytes(config, seq) == fused


def test_loaded_forward_memory_does_not_grow_with_a_tape(stack64):
    # the memory bank would keep every slice's taped features alive:
    # about 119 MiB for this stack with a tape, under 7 MiB without
    seq, ckpt = stack64
    params = load_params(ckpt)
    tracemalloc.start()
    try:
        forward_sequence(seq, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# ------------------------------------ chunks and attention halves on the lane


def _cpus(monkeypatch, n):
    """Make the affinity query report n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


def _only_the_lane(started):
    """The lane starts once per process, as a daemon, and no other thread starts."""
    lane = T._LANE.thread
    assert lane is not None and lane.daemon and lane.is_alive()
    assert started in ([], [lane])  # started here unless an earlier test started it


def test_one_cpu_forward_equals_the_threaded_forward_bitwise(stack64, monkeypatch, started):
    seq, ckpt = stack64
    params = load_params(ckpt)
    runs = {}
    for n in (1, 2):
        _cpus(monkeypatch, n)
        runs[n] = forward_sequence(seq, params)
        if n == 1:
            assert started == []
    _only_the_lane(started)
    for a, b in zip(runs[1], runs[2], strict=True):
        for name in ("probabilities", "logits", "pooled_embedding"):
            assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes(), name
        assert a.confidence.hex() == b.confidence.hex()


def _spoil(seq, t, bad):
    """Make slice t's image misshapen or give it a NaN pixel; the error and message it raises."""
    if bad == "misshapen":
        seq.slices[t].image = np.zeros((4, 4, 1))
        return ShapeError, r"image shape \(4, 4, 1\) != expected \(8, 8, 1\)"
    seq.slices[t].image[3, 2, 0] = np.nan
    return DomainError, "image has a pixel that is not finite"


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("t", [3, 40])
@pytest.mark.parametrize("bad", ["misshapen", "nan"])
def test_a_stack_with_a_bad_slice_encodes_no_chunk(bad, t, cpus, micro_params, monkeypatch):
    # slice 3 is in chunk 0, the caller's half, slice 40 in chunk 2, the lane's; slice 60
    # is bad the other way too, so the earliest bad slice is the one named
    _cpus(monkeypatch, cpus)
    seq = make_sequence(np.random.default_rng(9), MICRO_CONFIG, 64)
    error, message = _spoil(seq, t, bad)
    _spoil(seq, 60, "nan" if bad == "misshapen" else "misshapen")
    calls = []
    encode = model.encode_slice

    def recorded(images, params):
        calls.append(len(images))
        return encode(images, params)

    monkeypatch.setattr(model, "encode_slice", recorded)
    with pytest.raises(error, match=rf"^slice {t}: {message}$"):
        forward_sequence(seq, micro_params)
    assert calls == []


def test_every_chunk_is_encoded_once_under_fast_thread_switching(micro_params, monkeypatch):
    # 200 slices make 14 chunks, 7 in the caller's half; a chunk encoded twice or never
    # would show here
    seq = make_sequence(np.random.default_rng(13), MICRO_CONFIG, 200)
    _cpus(monkeypatch, 1)
    expected = forward_sequence(seq, micro_params)
    _cpus(monkeypatch, 2)
    firsts = []
    encode = model.encode_slice

    def recorded(images, params):
        firsts.append(id(images[0]))
        return encode(images, params)

    monkeypatch.setattr(model, "encode_slice", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = forward_sequence(seq, micro_params)
    finally:
        sys.setswitchinterval(interval)
    starts = model.chunk_bounds(200)[:-1]
    assert len(starts) == 14
    assert sorted(firsts) == sorted(id(seq.slices[t].image) for t in starts)
    for a, b in zip(expected, got, strict=True):
        assert a.logits.data.tobytes() == b.logits.data.tobytes()


def test_the_lane_is_one_daemon_thread_reused_across_forwards(micro_params, monkeypatch, started):
    _cpus(monkeypatch, 2)
    seq = make_sequence(np.random.default_rng(10), MICRO_CONFIG, 20)
    assert len(forward_sequence(seq, micro_params)) == 20
    _only_the_lane(started)
    lane, before = T._LANE.thread, threading.enumerate()
    assert len(forward_sequence(seq, micro_params)) == 20
    assert len(forward_sequence(make_sequence(np.random.default_rng(11), MICRO_CONFIG, 6), micro_params)) == 6
    encode = model.encode_slice
    bounds = model.chunk_bounds(20)
    assert bounds == [0, 10, 20]

    def failing(images, params):
        if images[0] is seq.slices[bounds[1]].image:  # chunk 1, the lane's half
            raise ShapeError("chunk 1 failed")
        return encode(images, params)

    monkeypatch.setattr(model, "encode_slice", failing)
    with pytest.raises(ShapeError, match="chunk 1 failed"):
        forward_sequence(seq, micro_params)
    assert not T._LANE.claim.locked()
    monkeypatch.setattr(model, "encode_slice", encode)
    assert len(forward_sequence(seq, micro_params)) == 20
    assert threading.enumerate() == before
    assert T._LANE.thread is lane
    _only_the_lane(started)


def test_the_lane_encodes_the_second_half_of_a_stacks_chunks(micro_params, monkeypatch):
    # 40 slices make 4 chunks: chunks 0 and 1 are the caller's half, chunks 2 and 3 the
    # lane's; the caller's first chunk waits, so the lane begins its half before it could
    # be taken back
    _cpus(monkeypatch, 2)
    seq = make_sequence(np.random.default_rng(14), MICRO_CONFIG, 40)
    encoded_on = {}
    encode = model.encode_slice

    def recorded(images, params):
        first = next(t for t, sl in enumerate(seq.slices) if sl.image is images[0])
        encoded_on[first] = threading.current_thread()
        if first == 0:
            time.sleep(0.1)
        return encode(images, params)

    monkeypatch.setattr(model, "encode_slice", recorded)
    assert len(forward_sequence(seq, micro_params)) == 40
    caller, lane = threading.current_thread(), T._LANE.thread
    starts = model.chunk_bounds(40)[:-1]
    assert encoded_on == dict(zip(starts, [caller, caller, lane, lane])) and starts == [0, 10, 20, 30]


def test_a_forward_and_a_train_step_on_one_cpu_start_no_thread(micro_params, monkeypatch, started):
    _cpus(monkeypatch, 1)
    for n in (6, 20):
        seq = make_sequence(np.random.default_rng(n), MICRO_CONFIG, n)
        assert len(forward_sequence(seq, micro_params)) == n
    config = TrainConfig(seed=2, model=MICRO_CONFIG)
    train_step(init_params(MICRO_CONFIG, seed=2), seq, AdamState(), config)
    assert started == []


def _train(config, seq, cpus, monkeypatch, steps=3):
    _cpus(monkeypatch, cpus)
    params, state = init_params(config.model, seed=config.seed), AdamState()
    losses = [train_step(params, seq, state, config) for _ in range(steps)]
    return losses, {name: t.data.tobytes() for name, t in params.tensors.items()}


def test_training_through_the_helper_thread_is_bitwise_the_same(monkeypatch, started):
    # 19 slices: two chunks, so the lane encodes one in every forward,
    # and every backward runs attention in halves on it
    config = TrainConfig(seed=2)
    seq = make_sequence(np.random.default_rng(12), config.model, 19)
    one_cpu = _train(config, seq, 1, monkeypatch)
    assert started == []
    assert _train(config, seq, 2, monkeypatch) == one_cpu
    _only_the_lane(started)


def test_a_six_slice_train_step_is_bitwise_the_same_on_one_and_two_cpus(monkeypatch):
    # one chunk: attention runs in halves on the lane, forward and backward
    config = TrainConfig(seed=4)
    seq = make_sequence(np.random.default_rng(14), config.model, 6)
    assert _train(config, seq, 1, monkeypatch) == _train(config, seq, 2, monkeypatch)


def test_a_process_starts_one_lane_for_every_forward_and_train_step(tmp_path):
    # in a fresh process, so that no earlier test has started the lane
    script = tmp_path / "lane.py"
    script.write_text(textwrap.dedent("""
        import os, threading
        import numpy as np
        os.sched_getaffinity = lambda pid: {0, 1}
        started = []
        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()
        threading.Thread = Recorded
        from sliceseg.data_io import SliceData, SliceSequence
        from sliceseg.model import MICRO_CONFIG, forward_sequence, init_params
        from sliceseg.training import AdamState, TrainConfig, train_step
        rng = np.random.default_rng(0)
        def seq(n):
            return SliceSequence("t", [
                SliceData(rng.random((8, 8, 1)), (rng.random((8, 8)) < 0.4).astype(np.uint8), float(t))
                for t in range(n)
            ])
        params, state = init_params(MICRO_CONFIG), AdamState()
        for n in (20, 6, 20):
            forward_sequence(seq(n), params)
        for n in (6, 20):
            train_step(params, seq(n), state, TrainConfig(model=MICRO_CONFIG))
        print(len(started), all(t.daemon and t.is_alive() for t in started))
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_warm_forwards_with_the_lane_make_few_page_faults(tmp_path):
    # in a fresh process with malloc as sliceseg leaves it; with glibc's dynamic
    # trim threshold the lane's arena was re-faulted every chunk: 1,600-6,000 per forward
    script = tmp_path / "faults.py"
    script.write_text(textwrap.dedent("""
        import os, resource, sys
        from pathlib import Path
        os.sched_getaffinity = lambda pid: {0, 1}
        from sliceseg.data_io import SynthConfig, generate_dataset, load_dataset
        from sliceseg.model import ModelConfig, forward_sequence, init_params, load_params, save_params
        root = Path(sys.argv[1])
        synth = SynthConfig(num_sequences=1, slices_per_sequence=64, seed=3, corrupt_prob=0.3)
        [seq] = load_dataset(generate_dataset(synth, root / "data"))
        save_params(root / "m.psc", init_params(ModelConfig(), seed=1))
        params = load_params(root / "m.psc")
        for _ in range(2):
            forward_sequence(seq, params)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            forward_sequence(seq, params)
        print(seq.slices[0].image.dtype, (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
    """))
    env = {
        k: v for k, v in os.environ.items()
        if k != "GLIBC_TUNABLES" and not fnmatch.fnmatchcase(k, "MALLOC_*_")
    }
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    dtype, faults = done.stdout.split()
    assert dtype == "float32"
    assert float(faults) < 400  # 13-26 with the thresholds pinned


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_encodes_two_chunks_on_a_lane_of_its_own(micro_params, monkeypatch):
    _cpus(monkeypatch, 2)
    seq = make_sequence(np.random.default_rng(15), MICRO_CONFIG, 12)
    forward_sequence(seq, micro_params)  # the lane is running when the process forks
    assert T._LANE.thread is not None
    pid = os.fork()
    if pid == 0:  # the child: the parent's lane thread does not exist here
        code = 1
        try:
            done = len(forward_sequence(seq, micro_params)) == 12
            code = 0 if done and T._LANE.thread.is_alive() else 1  # its own lane did the work
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish a 2-chunk forward in 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# ------------------------------------------- float32 images as read from disk


def _as_float64(seq) -> SliceSequence:
    """seq with every image cast to float64."""
    images = [dataclasses.replace(sl, image=sl.image.astype(np.float64)) for sl in seq.slices]
    return SliceSequence(seq.sequence_id, images)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_loaded_stack_forwards_bitwise_as_its_float64_copy(stack64, monkeypatch, cpus):
    # the encoder's cast is the one widening, and it is exact
    seq, ckpt = stack64
    assert {sl.image.dtype for sl in seq.slices} == {np.dtype(np.float32)}
    params = load_params(ckpt)
    _cpus(monkeypatch, cpus)
    got, expected = (forward_sequence(s, params) for s in (seq, _as_float64(seq)))
    for a, b in zip(got, expected, strict=True):
        for name in ("probabilities", "logits", "pooled_embedding"):
            assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes(), name
        assert a.confidence.hex() == b.confidence.hex()


def test_a_train_step_on_a_loaded_sequence_is_bitwise_its_float64_copys(tmp_path, monkeypatch):
    generate_dataset(SynthConfig(num_sequences=1, slices_per_sequence=6, seed=1), tmp_path)
    [seq] = load_dataset(tmp_path)
    config = TrainConfig(seed=1)
    (losses, params), expected = (_train(config, s, 2, monkeypatch, steps=2) for s in (seq, _as_float64(seq)))
    assert [loss.hex() for loss in losses] == [loss.hex() for loss in expected[0]]
    assert params == expected[1]


def test_a_sequence_of_float32_and_float64_images_runs(micro_params):
    seq = make_sequence(np.random.default_rng(23), MICRO_CONFIG, 10)
    for sl in seq.slices[::2]:  # the chunk mixes the two dtypes
        sl.image = sl.image.astype(np.float32)
    got = forward_sequence(seq, micro_params)
    expected = forward_sequence(_as_float64(seq), micro_params)
    assert [p.probabilities.data.tobytes() for p in got] == [p.probabilities.data.tobytes() for p in expected]
