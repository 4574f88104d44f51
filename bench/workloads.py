"""Set-up, workloads and output checks of the sliceseg benchmark.

Every run does the same set-up (synthetic data plus one short training
episode whose checkpoint serves inference) and the same reference pass
(inference, a gradient check and the malformed-input mix on fixed
inputs). It then runs its workload's *operation* in a closed loop for
the requested number of seconds: each call waits for the previous one,
and nothing else runs in between.

Right before and right after each operation the loop times the
*reference kernel*, fixed numpy and Python work that uses nothing from
sliceseg. On a shared machine the speed of identical work drifts by a
quarter or more within a minute; the operation's time over the kernel's,
taken at the same moment, follows that drift far less, so the timing
metrics are given in kernel times ("ref").
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import struct
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sliceseg
from sliceseg import data_io, gradcheck, losses, model, tensor, training
from sliceseg.data_io import SynthConfig, generate_dataset, load_dataset, read_raster
from sliceseg.errors import SlicesegError
from sliceseg.losses import dice_score
from sliceseg.model import init_params, load_params, save_params

from tracer import Tracer

# Quality metrics (final loss, Dice, gradient error) and tape counts are
# taken on inputs made from this fixed seed, so they are identical in every
# run and any change to the numbers shows; the timed loops use --seed.
REFERENCE_SEED = 1
SETUP_REPEATS = 3  # set-up runs this often per run; setup_s is the median
EPISODE_PASSES = 5  # one episode: 5 passes over the 4 training sequences
TRAIN_SEQUENCES, TRAIN_SLICES = 4, 6
STACK_SLICES, STACK_CORRUPT_PROB = 64, 0.3
STACK_SEED_OFFSET = 7919  # keeps the stack generator's stream apart from the training data's
READS_PER_WRITE = 100  # read-backs of each freshly written dataset and checkpoint
KERNEL_ITERATIONS = 100  # one reference kernel: about 2.5 ms on a 2-core VM
GRADCHECK_TOLERANCE = 1e-3
THRESHOLD = 0.5

TAPE_OPS = (
    "add", "sub", "mul", "div", "exp", "log", "sqrt", "tanh", "sigmoid", "clip",
    "sum", "mean", "matmul", "reshape", "transpose", "narrow", "concat", "softmax",
    "layer_norm",
)


@dataclass(frozen=True)
class Workload:
    op: str  # span name of the timed operation
    slices: int  # slices one operation processes


WORKLOADS = {
    # one train_step on a 6-slice sequence
    "train_seq6": Workload("train_step", TRAIN_SLICES),
    # forward_sequence over one 64-slice stack
    "infer_stack64": Workload("infer_stack", STACK_SLICES),
    # load_dataset of 4 x 6 slices plus load_params of the checkpoint
    "io_roundtrip": Workload("read_back", TRAIN_SEQUENCES * TRAIN_SLICES),
}


# ------------------------------------------------------------------ state


@dataclass
class Inputs:
    """What one set-up leaves behind for the workloads."""

    train_seqs: list  # the seed's training data
    reference_seqs: list
    stacks: list  # [reference stack, the seed's stack]
    params: model.ModelParams  # the reference checkpoint as loaded back
    checkpoint: Path
    malformed: list[tuple[str, str, bytes]]
    losses: list[float]  # loss trace of the reference episode
    digests: tuple[str, ...]


@dataclass
class Samples:
    """Raw measurements: the focused loop's operation times and the
    reference pass's quality figures."""

    op_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # the kernel's time around each operation
    traced_from: int = 0  # index of the first traced operation in a traced run
    loss_final: float = 0.0
    infer_dice: float = 0.0
    gradcheck_err: float = 0.0
    malformed: Counter = field(default_factory=Counter)
    train_trace: list[float] | None = None
    infer_digest: str | None = None
    io_first: tuple[str, list] | None = None  # digest and contents of the first io dataset


class Run:
    def __init__(self, seed: int, work: Path, tracer: Tracer):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.samples = Samples()
        self.setup_s: list[float] = []
        self.io_rounds = 0

    def op(self, name: str):
        self.attempted += 1
        return self.tracer.op(name)

    @contextmanager
    def timed(self, name: str):
        """One operation of the focused loop. The garbage of earlier calls
        is collected first, so each call starts from the same heap. The
        reference kernel is timed right before and right after the
        operation; their mean is the kernel time the operation is
        measured against."""
        gc.collect()
        before = time_kernel()
        with self.op(name) as t:
            yield
        self.samples.ref_s.append((before + time_kernel()) / 2)
        self.samples.op_s.append(t["s"])

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_A = _KERNEL_RNG.standard_normal((64, 64))
_KERNEL_B = _KERNEL_RNG.standard_normal((64, 16))


def time_kernel() -> float:
    """Seconds one reference kernel takes: small dense products,
    elementwise maths and Python object churn, the mix the model runs per
    patch grid. Fixed work, independent of sliceseg and of the seed."""
    acc = 0.0
    start = time.perf_counter()
    for _ in range(KERNEL_ITERATIONS):
        x = _KERNEL_A @ _KERNEL_B
        y = np.tanh(x) * 0.5 + x
        z = np.exp(-np.abs(y)).sum(axis=0)
        parts = {"z": [z, y], "x": (x,)}
        acc += float(z[0]) + len(parts)
    return time.perf_counter() - start


def train_synth(seed: int) -> SynthConfig:
    return SynthConfig(num_sequences=TRAIN_SEQUENCES, slices_per_sequence=TRAIN_SLICES, seed=seed)


def io_synth(seed: int) -> SynthConfig:
    """The training-set shape with exactly two blobs per sequence.

    Rendering cost grows with the blob count, which the generator
    otherwise draws per sequence, so io timings would follow the seed.
    """
    return SynthConfig(
        num_sequences=TRAIN_SEQUENCES, slices_per_sequence=TRAIN_SLICES, min_blobs=2, max_blobs=2, seed=seed
    )


def stack_synth(seed: int) -> SynthConfig:
    return SynthConfig(
        num_sequences=1,
        slices_per_sequence=STACK_SLICES,
        corrupt_prob=STACK_CORRUPT_PROB,
        seed=seed + STACK_SEED_OFFSET,
    )


def digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def same_params(a: model.ModelParams, b: model.ModelParams) -> bool:
    return (
        a.tensors.keys() == b.tensors.keys()
        and a.frozen == b.frozen
        and a.config == b.config
        and all(np.array_equal(a[n].data, b[n].data) for n in a.tensors)
    )


def f32_cast(params: model.ModelParams) -> model.ModelParams:
    tensors = {
        n: tensor.Tensor(t.data.astype(np.float32).astype(np.float64)) for n, t in params.tensors.items()
    }
    return model.ModelParams(params.config, tensors, set(params.frozen))


def _bits(values: list[float]) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# ------------------------------------------------------------------ set-up


def episode(run: Run, seqs: list, init_seed: int, timed: bool = False) -> tuple[model.ModelParams, list[float]]:
    """Train from `init_seed`'s initial parameters for EPISODE_PASSES
    passes; `timed` makes each train_step an operation of the focused loop."""
    config = training.TrainConfig(seed=init_seed)
    params = init_params(config.model, seed=init_seed)
    state = training.AdamState()
    trace = []
    for _ in range(EPISODE_PASSES):
        for seq in seqs:
            with run.timed("train_step") if timed else run.op("train_step"):
                trace.append(training.train_step(params, seq, state, config))
    return params, trace


def set_up(run: Run, index: int) -> Inputs:
    """Write and read back the datasets, then train the reference
    checkpoint that inference uses."""
    root = run.work / f"setup{index}"
    dirs = {
        "reference_train": train_synth(REFERENCE_SEED),
        "train": train_synth(run.seed),
        "reference_stack": stack_synth(REFERENCE_SEED),
        "stack": stack_synth(run.seed),
    }
    with run.op("setup") as t:
        data = {name: load_dataset(generate_dataset(cfg, root / name)) for name, cfg in dirs.items()}
        trained, trace = episode(run, data["reference_train"], REFERENCE_SEED)
        checkpoint = root / "model.psc"
        save_params(checkpoint, trained)
        params = load_params(checkpoint)
    run.setup_s.append(t["s"])
    run.check("checkpoint round-trip equals the f32 cast", same_params(params, f32_cast(trained)))
    return Inputs(
        train_seqs=data["train"],
        reference_seqs=data["reference_train"],
        stacks=data["reference_stack"] + data["stack"],
        params=params,
        checkpoint=checkpoint,
        malformed=malformed_inputs(
            (root / "train" / data["train"][0].sequence_id / "slice_0.psr").read_bytes(),
            checkpoint.read_bytes(),
        ),
        losses=trace,
        digests=tuple(digest(root / name) for name in dirs),
    )


def set_up_all(run: Run) -> Inputs:
    """Set up SETUP_REPEATS times; later repeats must reproduce the first."""
    runs = [set_up(run, i) for i in range(SETUP_REPEATS)]
    first, last = runs[0], runs[-1]
    for other in runs[1:]:
        run.check("loss trace bitwise equal across repeats", _bits(other.losses) == _bits(first.losses))
        run.check("regenerated dataset byte-identical", other.digests == first.digests)
    for other in runs[:-1]:
        shutil.rmtree(other.checkpoint.parent)
    run.samples.loss_final = float(np.mean(first.losses[-TRAIN_SEQUENCES:]))
    return last


def reference_pass(run: Run, inputs: Inputs) -> None:
    """Quality figures on the reference inputs: Dice of the reference
    stack's corrupted slices, `grad_check` on the micro model (one
    coordinate per tensor: every parameter group, a fraction of the
    cost), and the malformed-input mix."""
    s = run.samples
    stack = inputs.stacks[0]
    with run.op("infer_stack"):
        preds = model.forward_sequence(stack, inputs.params)
    probs = np.stack([p.probabilities.data for p in preds])
    run.check("inference outputs finite", bool(np.all(np.isfinite(probs))))
    s.infer_dice = float(np.mean([
        dice_score((p >= THRESHOLD).astype(np.uint8), sl.mask)
        for sl, p in zip(stack.slices, probs)
        if sl.corrupted
    ]))
    results = []
    for _ in range(2):
        with run.op("grad_check"):
            results.append(sliceseg.grad_check(REFERENCE_SEED, max_checks_per_tensor=1))
    result = results[0]
    s.gradcheck_err = max(g["max_rel_err"] for g in result["groups"].values())
    run.check(
        f"grad_check passes at {GRADCHECK_TOLERANCE:g}",
        bool(result["pass"]) and s.gradcheck_err <= GRADCHECK_TOLERANCE,
    )
    run.check("grad_check repeats exactly", results[1] == result)
    feed_malformed(run, inputs, run.work / "reference")


# ----------------------------------------------------------------- rounds
#
# One round of each workload's focused loop. A round times one or more
# operations with `run.timed` and checks their outputs.


def train_round(run: Run, inputs: Inputs) -> None:
    """One episode on the seed's data; each train_step is an operation."""
    s = run.samples
    _, trace = episode(run, inputs.train_seqs, run.seed, timed=True)
    if s.train_trace is None:
        s.train_trace = trace
    else:
        run.check("loss trace bitwise equal across repeats", _bits(trace) == _bits(s.train_trace))


def infer_round(run: Run, inputs: Inputs) -> None:
    """forward_sequence over the seed's stack."""
    s = run.samples
    stack = inputs.stacks[1]
    with run.timed("infer_stack"):
        preds = model.forward_sequence(stack, inputs.params)
    probs = np.stack([p.probabilities.data for p in preds])
    del preds  # drop this stack's tape before the next forward builds one
    h = hashlib.sha256(probs.tobytes()).hexdigest()
    if s.infer_digest is None:
        s.infer_digest = h
        run.check("inference outputs finite", bool(np.all(np.isfinite(probs))))
    else:
        run.check("inference bitwise equal across repeats", h == s.infer_digest)


def io_round(run: Run, inputs: Inputs) -> None:
    """Write a fresh dataset and checkpoint, read both back
    READS_PER_WRITE times, and feed the malformed-input mix."""
    s = run.samples
    out = run.work / f"io{run.io_rounds % 2}"
    run.io_rounds += 1
    shutil.rmtree(out, ignore_errors=True)
    with run.op("io_generate"):
        generate_dataset(io_synth(run.seed), out)
    written = digest(out)
    checkpoint = out / "model.psc"
    with run.op("ckpt_save"):
        save_params(checkpoint, inputs.params)
    for _ in range(READS_PER_WRITE):
        with run.timed("read_back"):
            seqs = load_dataset(out)
            loaded = load_params(checkpoint)
        if s.io_first is None:
            s.io_first = (written, seqs)
        run.check("dataset reads back the same", _same_sequences(seqs, s.io_first[1]))
        # inputs.params is already f32-exact, so the round-trip is the identity.
        run.check("checkpoint round-trip equals the f32 cast", same_params(loaded, inputs.params))
    run.check("regenerated dataset byte-identical", written == s.io_first[0])
    feed_malformed(run, inputs, out)


def _same_sequences(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.sequence_id == y.sequence_id
        and len(x.slices) == len(y.slices)
        and all(
            np.array_equal(p.image, q.image)
            and np.array_equal(p.mask, q.mask)
            and p.z_position_um == q.z_position_um
            and p.corrupted == q.corrupted
            for p, q in zip(x.slices, y.slices)
        )
        for x, y in zip(a, b)
    )


# ------------------------------------------------------- malformed inputs


def malformed_inputs(raster: bytes, checkpoint: bytes) -> list[tuple[str, str, bytes]]:
    """(case, kind, bytes) for each malformed file; every one should end
    in a typed SlicesegError."""
    magic, (version, header_len) = checkpoint[:4], struct.unpack_from("<II", checkpoint, 4)
    header_bytes = checkpoint[12 : 12 + header_len]
    payload = checkpoint[12 + header_len :]

    def repack(edit) -> bytes:
        header = json.loads(header_bytes)
        edit(header["tensors"])
        blob = json.dumps(header).encode("utf-8")
        return magic + struct.pack("<II", version, len(blob)) + blob + payload

    def drop_lambda(entries):
        entries[:] = [e for e in entries if e["name"] != "lambda"]

    def flatten_first(entries):
        entries[0]["shape"] = [int(np.prod(entries[0]["shape"]))]

    def negative_offset(entries):
        entries[0]["offset"] = -8

    non_utf8 = bytearray(header_bytes)
    non_utf8[header_bytes.index(b"tensors")] = 0xFF
    return [
        ("bad_magic", "psr", b"XXXX" + raster[4:]),
        ("truncated_payload", "psr", raster[:-7]),
        ("missing_tensor", "psc", repack(drop_lambda)),
        ("wrong_shape", "psc", repack(flatten_first)),
        ("negative_offset", "psc", repack(negative_offset)),
        ("non_utf8_header", "psc", checkpoint[:12] + bytes(non_utf8) + payload),
    ]


def feed_malformed(run: Run, inputs: Inputs, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for case, kind, blob in inputs.malformed:
        path = out / f"malformed_{case}.{kind}"
        path.write_bytes(blob)
        with run.op("malformed_load"):
            outcome = _load_outcome(kind, path)
        run.samples.malformed[(case, outcome)] += 1


def _load_outcome(kind: str, path: Path) -> str:
    try:
        read_raster(path) if kind == "psr" else load_params(path)
    except SlicesegError:
        return "typed"
    except Exception as exc:  # the point of the probe: any other escape is a defect
        return f"untyped {type(exc).__name__}"
    return "accepted"


# ------------------------------------------------------------ tape counts


def count_nodes(roots) -> Counter:
    """Nodes made by a tape op (every op but "leaf"), reachable from
    `roots` through `_parents`, by op. Reads the graph only."""
    ops: Counter = Counter()
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._op != "leaf":
            ops[node._op] += 1
        stack.extend(node._parents)
    return ops


def tape_counts(inputs: Inputs) -> tuple[Counter, float]:
    """Loss graph of the first reference training step (seq_000 at the
    initial parameters), and tape nodes per slice of the reference stack."""
    graphs: list[Counter] = []
    counter = Tracer()
    counter.begin("tape")
    counter.install(tensor.Tensor, "backward", None, lambda c, args, kw, r: graphs.append(count_nodes(args[:1])))
    try:
        config = training.TrainConfig(seed=REFERENCE_SEED)
        params = init_params(config.model, seed=REFERENCE_SEED)
        training.train_step(params, inputs.reference_seqs[0], training.AdamState(), config)
    finally:
        counter.uninstall()
    stack = inputs.stacks[0]
    preds = model.forward_sequence(stack, inputs.params)
    infer = count_nodes(t for p in preds for t in (p.logits, p.probabilities, p.pooled_embedding))
    return graphs[0], sum(infer.values()) / len(stack.slices)


# ------------------------------------------------------------ layer spans


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""

    def add(key, amount):
        def hook(counts, args, kwargs, result):
            counts[key] += amount(args, kwargs, result)

        return hook

    def size(args, kwargs, result):
        return os.path.getsize(args[0])

    def evals(args, kwargs, result):
        indices = args[2] if len(args) > 2 else kwargs.get("indices")
        return 2 * (args[1].data.size if indices is None else len(indices))

    def pairs(counts, args, kwargs, result):
        counts["losses.consistency_pairs"] += len(result)
        counts["losses.consistency_calls"] += 1

    one = lambda *_: 1  # noqa: E731
    tracer.install(model, "encode_slice", "model.encode_slice", add("model.slices", one))
    tracer.install(model, "lora_forward", "lora.forward")
    tracer.install(model, "select_memory", "memory.select", add("memory.entries_scored", lambda a, k, r: len(a[0])))
    tracer.install(
        model, "cross_slice_weights", "attention.weights",
        add("attention.slots", lambda a, k, r: len(a[0].memory_embeddings)),
    )
    tracer.install(model, "fuse_memory", "attention.fuse")
    tracer.install(model, "decode_mask", "model.decode_mask")
    tracer.install(training, "forward_sequence", "model.forward_sequence")
    tracer.install(training, "combined_loss", "losses.combined")
    tracer.install(losses, "consistency_pairs", None, pairs)
    tracer.install(training, "adam_step", "training.adam_step")
    tracer.install(tensor.Tensor, "backward", "tensor.backward")
    tracer.install(data_io, "write_raster", "data_io.write_raster", add("data_io.bytes_written", size))
    tracer.install(data_io, "read_raster", "data_io.read_raster", add("data_io.bytes_read", size))
    tracer.install(data_io, "save_checkpoint", "data_io.save_checkpoint", add("data_io.bytes_written", size))
    tracer.install(data_io, "load_checkpoint", "data_io.load_checkpoint", add("data_io.bytes_read", size))
    tracer.install(gradcheck, "numeric_grad", "gradcheck.numeric_grad", add("gradcheck.loss_evals", evals))


# -------------------------------------------------------------- execution

ROUNDS = {"train_seq6": train_round, "infer_stack64": infer_round, "io_roundtrip": io_round}


def execute(run: Run, workload: str, seconds: float, trace: bool) -> tuple[Counter, float] | None:
    """Run one workload; when traced, returns the tape counts."""
    tracer = run.tracer
    if not trace:
        tracer.begin("setup")
        inputs = set_up_all(run)
        tracer.begin("reference")
        reference_pass(run, inputs)
        tracer.begin("focused")
        _loop(run, inputs, workload, seconds)
        return None
    # Traced: every layer is wrapped for the set-up and the reference
    # pass, which give the metrics of layers the focused loop does not
    # reach. The focused loop then runs half its time untraced and half
    # traced; the ratio of the two is the tracing overhead.
    install_layers(tracer)
    tracer.begin("setup")
    inputs = set_up_all(run)
    tracer.begin("reference")
    reference_pass(run, inputs)
    tracer.uninstall()
    tape = tape_counts(inputs)
    tracer.begin("focused")
    _loop(run, inputs, workload, seconds / 2)
    run.samples.traced_from = len(run.samples.op_s)
    install_layers(tracer)
    tracer.begin("focused_traced")
    _loop(run, inputs, workload, seconds / 2)
    tracer.uninstall()
    return tape


def _loop(run: Run, inputs: Inputs, workload: str, seconds: float) -> None:
    """Rounds of the workload until `seconds` have passed (at least one)."""
    start = time.perf_counter()
    while True:
        ROUNDS[workload](run, inputs)
        if time.perf_counter() - start >= seconds:
            return
