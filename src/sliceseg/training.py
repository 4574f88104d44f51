"""Adam optimization, the sequence training loop and evaluation.

One optimizer step consumes one full sequence: forward through the
memory pipeline, combined loss, backward, Adam update, then the learned
distance-decay rate is clamped non-negative. Everything is deterministic
given (seed, config, data).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data_io import _write_file, load_dataset
from .errors import ConfigError, ContractError, DomainError, EvaluationError
from .losses import LossWeights, combined_loss, dice_score
from .model import (
    ModelConfig,
    ModelParams,
    forward_sequence,
    init_params,
    load_params,
    save_params,
)
from .rng import substream
from .tensor import Tensor

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Probability at or above which a pixel counts as foreground.
MASK_THRESHOLD = 0.5


@dataclass
class TrainConfig:
    steps: int = 500
    learning_rate: float = 1e-3
    seed: int = 0
    checkpoint_every: int | None = None
    loss: LossWeights = field(default_factory=LossWeights)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")


# ------------------------------------------------------------------- adam


class AdamState:
    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step = 0


def adam_step(
    params: ModelParams,
    state: AdamState,
    config: TrainConfig,
) -> None:
    """Standard bias-corrected Adam over the trainable tensors.

    Frozen tensors are untouched; missing gradients count as zero update;
    the distance-decay rate is clamped to >= 0 afterwards.
    """
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, tensor in params.trainable().items():
        if tensor.grad is None:
            continue
        g = tensor.grad
        if g.shape != tensor.data.shape:
            raise ContractError(f"gradient shape mismatch for {name}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            v = np.zeros_like(tensor.data)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state.m[name], state.v[name] = m, v
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        tensor.data = tensor.data - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    lam = params.tensors.get("lambda")
    if lam is not None and float(lam.data) < 0.0:
        lam.data = np.asarray(0.0)


# --------------------------------------------------------------- training


def _sequence_targets(seq):
    targets = []
    for t, sl in enumerate(seq.slices):
        if sl.mask is None:
            raise EvaluationError(f"sequence {seq.sequence_id} is missing a mask")
        if sl.mask.dtype.kind not in "biuf":  # astype would parse a str mask as numbers
            raise ContractError(f"slice {t}: mask dtype {sl.mask.dtype} is not a real number type")
        targets.append(Tensor(sl.mask.astype(np.float64)))
    return targets


def train_step(params: ModelParams, seq, state: AdamState, config: TrainConfig) -> float:
    """One Adam step on one sequence. A non-finite loss or gradient, or a
    DomainError from the forward pass or the loss, is a DomainError naming
    the step and the sequence, raised before any parameter moves. A
    trainable tensor that does not require grad (as in `load_params`
    output, which holds constants) is a ContractError raised before the
    forward pass."""
    for name, t in params.trainable().items():
        if not t.requires_grad:
            raise ContractError(f"trainable tensor {name} does not require grad; train from init_params")
    where = f"at step {state.step + 1} on sequence {seq.sequence_id!r}"
    try:
        preds = forward_sequence(seq, params)
        loss = combined_loss(
            [p.probabilities for p in preds],
            _sequence_targets(seq),
            [p.pooled_embedding for p in preds],
            config.loss,
        )
    except DomainError as exc:
        raise DomainError(f"{exc} {where}") from exc
    if not math.isfinite(loss.item()):
        raise DomainError(f"non-finite loss {loss.item()} {where}")
    params.zero_grad()
    loss.backward()
    for name, t in params.trainable().items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise DomainError(f"non-finite gradient of {name} {where}")
    adam_step(params, state, config)
    return loss.item()


def train(
    config: TrainConfig,
    dataset_dir: str | Path,
    out_checkpoint: str | Path,
) -> list[float]:
    """Train from scratch on a dataset directory; returns the loss trace.

    Sequences are visited one per step in a per-epoch shuffled order
    drawn from the seed's "order" substream. The trace, one JSON record
    per line, is written to ``<out_checkpoint>.trace.jsonl`` once the
    checkpoint is saved, so a run that fails writes no trace.
    """
    out_dir = Path(out_checkpoint).parent
    if not out_dir.is_dir():  # refused before training, not after it, at the first save
        raise ConfigError(f"cannot write {out_checkpoint}: {out_dir} is not a directory")
    sequences = load_dataset(dataset_dir)
    if not sequences:
        raise ConfigError(f"no sequences found under {dataset_dir}")
    params = init_params(config.model, seed=config.seed)
    state = AdamState()
    order_rng = substream(config.seed, "order")
    records: list[dict] = []
    schedule: list[int] = []
    for step in range(1, config.steps + 1):
        if not schedule:
            schedule = list(order_rng.permutation(len(sequences)))
        seq = sequences[schedule.pop(0)]
        loss = train_step(params, seq, state, config)
        records.append({"step": step, "sequence": seq.sequence_id, "loss": loss})
        if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.steps:
            save_params(f"{out_checkpoint}.step{step}", params)
    save_params(out_checkpoint, params)
    lines = "".join(json.dumps(record) + "\n" for record in records)
    _write_file(f"{out_checkpoint}.trace.jsonl", [lines.encode()])
    return [record["loss"] for record in records]


# ------------------------------------------------------------- evaluation


@dataclass
class EvalReport:
    mean_dice: float
    sd_dice: float
    num_sequences: int
    num_slices: int
    sequences: list[dict]
    config: dict


def evaluate(dataset_dir: str | Path, checkpoint: str | Path) -> EvalReport:
    """Per-slice Dice at MASK_THRESHOLD, aggregated mean +/- SD."""
    params = load_params(checkpoint)
    sequences = load_dataset(dataset_dir)
    if not sequences:
        raise EvaluationError(f"no sequences found under {dataset_dir}")
    all_dice: list[float] = []
    per_sequence = []
    for seq in sequences:
        preds = forward_sequence(seq, params)
        dice_values = []
        corrupted = []
        for sl, pred in zip(seq.slices, preds):
            if sl.mask is None:
                raise EvaluationError(f"sequence {seq.sequence_id} has a slice without a mask")
            binary = (pred.probabilities.data >= MASK_THRESHOLD).astype(np.uint8)
            dice_values.append(dice_score(binary, sl.mask))
            corrupted.append(sl.corrupted)
        per_sequence.append(
            {"sequence_id": seq.sequence_id, "dice": dice_values, "corrupted": corrupted}
        )
        all_dice.extend(dice_values)
    values = np.asarray(all_dice)
    return EvalReport(
        mean_dice=float(values.mean()),
        sd_dice=float(values.std()),  # population SD over slices
        num_sequences=len(sequences),
        num_slices=len(all_dice),
        sequences=per_sequence,
        config={
            "checkpoint": str(checkpoint),
            "dataset": str(dataset_dir),
            "threshold": MASK_THRESHOLD,
            "model": asdict(params.config),
        },
    )


def write_report(report: EvalReport, path: str | Path) -> None:
    _write_file(path, [(json.dumps(asdict(report), indent=2) + "\n").encode()])
