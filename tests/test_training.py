"""Adam, the training loop, evaluation reports and grad-check."""

import dataclasses
import json

import numpy as np
import pytest

from sliceseg.attention import fuse_memory
from sliceseg.data_io import SynthConfig, dataclass_from_dict, generate_dataset, load_dataset
from sliceseg.errors import ConfigError, ContractError, DomainError
from sliceseg.losses import LossWeights, dice_score
from sliceseg.model import (
    MICRO_CONFIG,
    ModelConfig,
    decode_mask,
    encode_slice,
    forward_sequence,
    init_params,
    load_params,
)
from sliceseg import gradcheck
from sliceseg import tensor as T
from sliceseg.gradcheck import grad_check
from sliceseg.tensor import Tensor
from sliceseg.training import (
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    train,
    train_step,
    write_report,
)


def small_model_config():
    return ModelConfig(
        image_size=16, patch_size=4, d_model=16, heads=2, encoder_blocks=1,
        lora_rank=2, k_memory=3, decoder_hidden=16,
    )


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(num_sequences=2, slices_per_sequence=3, image_size=16, seed=1)
    return generate_dataset(cfg, root)


# ----------------------------------------------------------------- config


def test_unknown_config_key_rejected_by_name():
    with pytest.raises(ConfigError, match="bogus"):
        dataclass_from_dict(TrainConfig, {"bogus": 1})
    with pytest.raises(ConfigError, match="model.*typo"):
        dataclass_from_dict(TrainConfig, {"model": {"typo": 1}})
    with pytest.raises(ConfigError, match="loss.*nope"):
        dataclass_from_dict(TrainConfig, {"loss": {"nope": 1}})


def test_top_level_k_memory_is_config_error():
    # the memory size lives in the model config only, which the checkpoint records
    with pytest.raises(ConfigError, match="k_memory"):
        dataclass_from_dict(TrainConfig, {"k_memory": 0})
    assert dataclass_from_dict(TrainConfig, {"model": {"k_memory": 0}}).model.k_memory == 0


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"beta1": 0.9}, "beta1"),
        ({"beta2": 0.999}, "beta2"),
        ({"eps": 1e-8}, "eps"),
        ({"model": {"lora_alpha": 8}}, "lora_alpha"),
    ],
)
def test_removed_settings_are_unknown_keys(doc, key):
    # Adam's betas and eps and the LoRA alpha are constants now
    with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
        dataclass_from_dict(TrainConfig, doc)


@pytest.mark.parametrize(
    "doc, key, shown",
    [
        ({"steps": "5"}, "steps", "'5'"),
        ({"model": {"d_model": "64"}}, "model.d_model", "'64'"),
        ({"steps": 2.5}, "steps", "2.5"),
        ({"steps": True}, "steps", "True"),
        ({"learning_rate": False}, "learning_rate", "False"),
        ({"learning_rate": float("nan")}, "learning_rate", "nan"),
        ({"loss": {"w_bce": "0.5"}}, "loss.w_bce", "'0.5'"),
        ({"checkpoint_every": 1.0}, "checkpoint_every", "1.0"),
    ],
)
def test_wrongly_typed_config_value_is_config_error(doc, key, shown):
    with pytest.raises(ConfigError, match=f"'{key}' must be .*, got {shown}$"):
        dataclass_from_dict(TrainConfig, doc)


@pytest.mark.parametrize("sign", [1, -1])
def test_an_int_beyond_the_float_range_is_not_a_finite_number(sign):
    # JSON reads 1 followed by 400 zeros as an int, which math.isfinite cannot convert
    with pytest.raises(ConfigError, match="'learning_rate' must be a finite number, got -?10{400}$"):
        dataclass_from_dict(TrainConfig, {"learning_rate": sign * 10**400})


def test_config_values_of_the_declared_types_load():
    cfg = dataclass_from_dict(
        TrainConfig,
        {"learning_rate": 1, "checkpoint_every": None, "loss": {"w_dice": 2}},
    )
    assert (cfg.learning_rate, cfg.checkpoint_every, cfg.loss.w_dice) == (1, None, 2)
    assert dataclass_from_dict(TrainConfig, {"checkpoint_every": 3}).checkpoint_every == 3
    with pytest.raises(ConfigError, match="section 'model' must be an object"):
        dataclass_from_dict(TrainConfig, {"model": 64})


def test_config_from_nested_dict():
    cfg = dataclass_from_dict(
        TrainConfig,
        {"steps": 7, "loss": {"w_bce": 0.25}, "model": {"image_size": 16, "patch_size": 4}},
    )
    assert cfg.steps == 7
    assert cfg.loss.w_bce == 0.25
    assert cfg.model.image_size == 16


def test_invalid_train_config():
    with pytest.raises(ConfigError):
        TrainConfig(steps=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)


# ------------------------------------------------------------------- adam


def test_adam_zero_gradients_leave_params_unchanged():
    params = init_params(MICRO_CONFIG, seed=0)
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    for t in params.trainable().values():
        t.grad = np.zeros_like(t.data)
    adam_step(params, AdamState(), TrainConfig())
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n]), n


def test_adam_first_step_hand_value():
    # scalar parameter, g = 1: bias-corrected step is lr * 1/(1 + eps)
    params = init_params(MICRO_CONFIG, seed=0)
    lam = params.tensors["lambda"]
    theta = float(lam.data)
    lam.grad = np.asarray(1.0)
    cfg = TrainConfig(learning_rate=1e-3)
    adam_step(params, AdamState(), cfg)
    expected = theta - 1e-3 * 1.0 / (1.0 + ADAM_EPS)
    assert float(lam.data) == pytest.approx(expected, abs=1e-12)


def test_adam_clamps_lambda_nonnegative():
    params = init_params(MICRO_CONFIG, seed=0)
    lam = params.tensors["lambda"]
    lam.data = np.asarray(1e-6)
    lam.grad = np.asarray(100.0)  # drives lambda negative
    adam_step(params, AdamState(), TrainConfig(learning_rate=0.5))
    assert float(lam.data) == 0.0


def test_adam_never_touches_frozen_tensors():
    params = init_params(MICRO_CONFIG, seed=0)
    frozen_name = next(iter(params.frozen))
    before = params.tensors[frozen_name].data.copy()
    for t in params.tensors.values():
        t.grad = np.ones_like(t.data)
    adam_step(params, AdamState(), TrainConfig(learning_rate=0.1))
    assert np.array_equal(params.tensors[frozen_name].data, before)


# ---------------------------------------------------------------- training


def test_non_finite_loss_raises_before_adam_moves(tiny_dataset):
    # weights this large overflow the summed slice terms to inf
    huge = LossWeights(w_dice=1e308, w_bce=1e308)
    cfg = TrainConfig(steps=1, seed=0, loss=huge, model=small_model_config())
    params = init_params(cfg.model, seed=0)
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    state = AdamState()
    seq = load_dataset(tiny_dataset)[1]
    with np.errstate(over="ignore"), pytest.raises(
        DomainError, match=r"non-finite loss inf at step 1 on sequence 'seq_001'"
    ):
        train_step(params, seq, state, cfg)
    assert state.step == 0
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n]), n


def test_forward_domain_error_names_the_step_and_sequence(tiny_dataset):
    # a NaN bias makes NaN probabilities, which the memory's confidence refuses; the
    # forward then names the bias
    cfg = TrainConfig(steps=1, seed=0, model=small_model_config())
    params = init_params(cfg.model, seed=0)
    params["decoder.fc2.b"].data[0] = np.nan
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    state = AdamState()
    seq = load_dataset(tiny_dataset)[1]
    with pytest.raises(
        DomainError,
        match=r"parameter 'decoder.fc2.b' has a value that is not finite at step 1 on sequence 'seq_001'",
    ):
        train_step(params, seq, state, cfg)
    assert (state.step, state.m, state.v) == (0, {}, {})
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n], equal_nan=True), n


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_with_finite_loss_raises_before_adam_moves(tiny_dataset, monkeypatch, poison):
    cfg = TrainConfig(steps=1, seed=0, model=small_model_config())
    params = init_params(cfg.model, seed=0)
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    state = AdamState()
    seq = load_dataset(tiny_dataset)[1]
    backward = Tensor.backward

    def poisoned_backward(self):
        backward(self)
        params["encoder.block0.mlp.fc1.b"].grad[3] = poison

    monkeypatch.setattr(Tensor, "backward", poisoned_backward)
    with pytest.raises(
        DomainError,
        match=r"non-finite gradient of encoder\.block0\.mlp\.fc1\.b at step 1 on sequence 'seq_001'",
    ):
        train_step(params, seq, state, cfg)
    assert (state.step, state.m, state.v) == (0, {}, {})
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n]), n


def test_train_step_refuses_loaded_params_before_anything_moves(tiny_dataset, tmp_path):
    cfg = TrainConfig(steps=1, seed=0, model=small_model_config())
    train(cfg, tiny_dataset, tmp_path / "m.psc")
    params = load_params(tmp_path / "m.psc")
    before = {n: (t.data.copy(), t.grad) for n, t in params.tensors.items()}
    state = AdamState()
    seq = load_dataset(tiny_dataset)[0]
    with pytest.raises(ContractError, match=r"trainable tensor decoder\.fc1\.W does not require grad"):
        train_step(params, seq, state, cfg)
    assert (state.step, state.m, state.v) == (0, {}, {})
    for n, t in params.tensors.items():
        assert np.array_equal(t.data, before[n][0]) and t.grad is before[n][1], n


def test_single_step_training(tiny_dataset, tmp_path):
    cfg = TrainConfig(steps=1, seed=0, model=small_model_config())
    trace = train(cfg, tiny_dataset, tmp_path / "m.psc")
    assert len(trace) == 1
    trace_file = tmp_path / "m.psc.trace.jsonl"
    records = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert len(records) == 1
    assert records[0]["step"] == 1
    assert records[0]["loss"] == trace[0]


def test_training_deterministic_bitwise(tiny_dataset, tmp_path):
    cfg = TrainConfig(steps=12, seed=3, model=small_model_config())
    train(cfg, tiny_dataset, tmp_path / "a.psc")
    train(cfg, tiny_dataset, tmp_path / "b.psc")
    assert (tmp_path / "a.psc").read_bytes() == (tmp_path / "b.psc").read_bytes()


def test_training_empty_dataset_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(ConfigError):
        train(TrainConfig(steps=1), tmp_path / "empty", tmp_path / "x.psc")


def test_periodic_checkpoints(tiny_dataset, tmp_path):
    cfg = TrainConfig(steps=4, seed=0, checkpoint_every=2, model=small_model_config())
    train(cfg, tiny_dataset, tmp_path / "m.psc")
    assert (tmp_path / "m.psc.step2").exists()
    assert (tmp_path / "m.psc").exists()


def test_loss_decreases_on_short_run(tiny_dataset, tmp_path):
    cfg = TrainConfig(steps=40, seed=0, model=small_model_config())
    trace = train(cfg, tiny_dataset, tmp_path / "m.psc")
    assert np.mean(trace[-10:]) < np.mean(trace[:10])


# -------------------------------------------------------------- evaluation


@pytest.fixture(scope="module")
def trained(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "m.psc"
    cfg = TrainConfig(steps=30, seed=0, model=small_model_config())
    train(cfg, tiny_dataset, out)
    return out


def test_evaluate_report_consistency(tiny_dataset, trained, tmp_path):
    report = evaluate(tiny_dataset, trained)
    per_slice = [d for s in report.sequences for d in s["dice"]]
    assert report.num_slices == len(per_slice) == 6
    assert report.mean_dice == pytest.approx(np.mean(per_slice), abs=1e-9)
    assert report.sd_dice == pytest.approx(np.std(per_slice), abs=1e-9)
    write_report(report, tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["mean_dice"] == report.mean_dice


def test_micro_loss_trace_is_pinned(tmp_path):
    data = generate_dataset(
        SynthConfig(num_sequences=2, slices_per_sequence=3, image_size=8, seed=1), tmp_path / "d"
    )
    trace = train(TrainConfig(steps=3, seed=0, model=MICRO_CONFIG), data, tmp_path / "m.psc")
    assert [x.hex() for x in trace] == [
        "0x1.00cca5490b7f7p+0", "0x1.e442ba36c96ffp-1", "0x1.fef9f8696b2d1p-1",
    ]


def test_evaluate_single_slice_sd_zero(tmp_path):
    cfg = SynthConfig(num_sequences=1, slices_per_sequence=1, image_size=16, seed=2)
    data = generate_dataset(cfg, tmp_path / "d")
    out = tmp_path / "m.psc"
    train(TrainConfig(steps=1, seed=0, model=small_model_config()), data, out)
    report = evaluate(data, out)
    assert report.num_slices == 1
    assert report.sd_dice == 0.0


def test_k_zero_training_is_served_without_memory(tiny_dataset, tmp_path):
    out = tmp_path / "k0.psc"
    model = dataclasses.replace(small_model_config(), k_memory=0)
    train(TrainConfig(steps=3, seed=0, model=model), tiny_dataset, out)
    params = load_params(out)
    assert params.config.k_memory == 0
    report = evaluate(tiny_dataset, out)
    assert report.config["model"] == dataclasses.asdict(model)
    assert "k_override" not in report.config
    for seq, entry in zip(load_dataset(tiny_dataset), report.sequences):
        preds = forward_sequence(seq, params)
        for sl, pred in zip(seq.slices, preds):
            feats = T.take(encode_slice([sl.image], params), 0)
            logits, _ = decode_mask(fuse_memory(feats, [], Tensor([1.0])), params)
            assert np.array_equal(pred.logits.data, logits)
        expected = [
            dice_score((p.probabilities.data >= 0.5).astype(np.uint8), sl.mask)
            for sl, p in zip(seq.slices, preds)
        ]
        assert entry["dice"] == expected


def test_evaluate_does_not_mutate_inputs(tiny_dataset, trained):
    ckpt_before = trained.read_bytes()
    files = sorted(p for p in tiny_dataset.rglob("*") if p.is_file())
    data_before = [p.read_bytes() for p in files]
    evaluate(tiny_dataset, trained)
    assert trained.read_bytes() == ckpt_before
    assert [p.read_bytes() for p in files] == data_before


# -------------------------------------------------------------- grad-check


def test_grad_check_passes_and_covers_lambda():
    report = grad_check(seed=0)
    assert report["pass"]
    assert set(report["groups"]) == {"encoder", "decoder", "lambda", "lora_A", "lora_B"}
    for group, entry in report["groups"].items():
        assert entry["max_rel_err"] <= 1e-3, group


def test_grad_check_probes_run_on_constants_and_restore_the_flags(monkeypatch):
    made, probe_parents = [], []

    def capture(config, seed):
        made.append(init_params(config, seed=seed))
        return made[-1]

    def probe(loss_fn, tensor, **kwargs):
        probe_parents.append(loss_fn()._parents)
        return 0.0

    monkeypatch.setattr(gradcheck, "init_params", capture)
    monkeypatch.setattr(gradcheck, "max_rel_error", probe)
    assert grad_check(seed=0, max_checks_per_tensor=1)["pass"]
    assert probe_parents and all(parents == () for parents in probe_parents)
    assert all(t.requires_grad for t in made[-1].trainable().values())

    def failing(loss_fn, tensor, **kwargs):
        raise DomainError("probe failed")

    monkeypatch.setattr(gradcheck, "max_rel_error", failing)
    with pytest.raises(DomainError, match="probe failed"):
        grad_check(seed=0, max_checks_per_tensor=1)
    assert all(t.requires_grad for t in made[-1].trainable().values())


def test_grad_check_forwards_and_probes_in_float64(monkeypatch):
    # its constant view shares the float64 parameters: none of it takes the float32 encoder
    seen = []
    forward = gradcheck.forward_sequence

    def recording(seq, params):
        seen.append({t.data.dtype for t in params.tensors.values()})
        return forward(seq, params)

    monkeypatch.setattr(gradcheck, "forward_sequence", recording)
    assert grad_check(seed=0, max_checks_per_tensor=1)["pass"]
    assert len(seen) > 2 and all(dtypes == {np.dtype(np.float64)} for dtypes in seen)


def test_grad_check_builds_one_tape(monkeypatch):
    taped, probes = [], []
    max_rel_error = gradcheck.max_rel_error

    def counting(seq, params):
        preds = forward_sequence(seq, params)
        taped.append(any(p.probabilities._parents for p in preds))
        return preds

    def probing(loss_fn, tensor, **kwargs):
        probes.append(min(kwargs["max_checks"], tensor.size))
        return max_rel_error(loss_fn, tensor, **kwargs)

    monkeypatch.setattr(gradcheck, "forward_sequence", counting)
    monkeypatch.setattr(gradcheck, "max_rel_error", probing)
    assert grad_check(seed=0, max_checks_per_tensor=1)["pass"]
    # the taped forward comes first and is the only one besides the probes' loss
    # evaluations, two per probed entry
    assert taped[0] and taped.count(True) == 1
    assert taped.count(False) == 2 * sum(probes) == 72


@pytest.mark.parametrize(
    "seed, max_checks, groups",
    [
        (1, 1, {
            "decoder": ("0x1.15051061538d7p-24", 4),
            "encoder": ("0x1.8472d16f7f5d7p-26", 23),
            "lambda": ("0x1.2ef6dc67b8000p-23", 1),
            "lora_A": ("0x1.ace8227900000p-32", 4),
            "lora_B": ("0x1.5d19d51fc0000p-31", 4),
        }),
        (0, 24, {
            "decoder": ("0x1.f799dd1200000p-26", 4),
            "encoder": ("0x1.9bec14443423dp-24", 23),
            "lambda": ("0x1.1653270887be3p-23", 1),
            "lora_A": ("0x1.43537cfa00000p-30", 4),
            "lora_B": ("0x1.6b04210000000p-30", 4),
        }),
    ],
)
def test_grad_check_report_is_pinned(seed, max_checks, groups):
    report = grad_check(seed=seed, max_checks_per_tensor=max_checks)
    assert report["pass"] and report["seed"] == seed and report["tolerance"] == 1e-3
    got = {g: (e["max_rel_err"].hex(), e["tensors"]) for g, e in report["groups"].items()}
    assert got == groups


@pytest.mark.parametrize(
    "n_slices, missing", [(2, 1), (8, 1), (12, 3)], ids=["2_no_z", "8_no_z", "12_every_third"]
)
@pytest.mark.parametrize("seed", range(2))
def test_estimated_gaps_pass_the_finite_difference_check(seed, n_slices, missing):
    # a slot whose slice lacks z has its gap estimated from its cosine, so the gap
    # moves with the embeddings; the tape carries that, as the forward computes it
    seq = gradcheck._micro_sequence(seed, MICRO_CONFIG, n_slices)
    for sl in seq.slices[::missing]:
        sl.z_position_um = None
    groups = gradcheck.group_errors(seq, seed, max_checks_per_tensor=4)
    assert set(groups) == {"encoder", "decoder", "lambda", "lora_A", "lora_B"}
    for group, entry in groups.items():
        assert entry["max_rel_err"] <= 1e-3, group


def test_numeric_grad_restores_the_entry_when_the_loss_raises():
    param = Tensor(np.array([0.5, -1.25]), requires_grad=True)
    calls = []

    def loss_fn():
        calls.append(param.data.copy())
        if len(calls) == 2:  # the down-probe
            raise DomainError("loss failed")
        return Tensor(float(param.data.sum()))

    with pytest.raises(DomainError, match="loss failed"):
        gradcheck.numeric_grad(loss_fn, param, [(1,)])
    assert calls[1][1] == -1.25 - gradcheck.FD_STEP
    assert param.data.tolist() == [0.5, -1.25]


def test_max_rel_error_without_a_gradient_is_contract_error():
    param = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError, match="no gradient"):
        gradcheck.max_rel_error(lambda: Tensor(0.0), param)


def test_grad_check_deterministic_per_seed():
    r1 = grad_check(seed=4, max_checks_per_tensor=3)
    r2 = grad_check(seed=4, max_checks_per_tensor=3)
    assert r1 == r2
