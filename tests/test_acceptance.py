"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
`pytest tests/test_acceptance.py` run shows the criterion verdicts.
"""

import itertools
import struct
import sys
import time

import numpy as np
import pytest

from sliceseg.attention import cross_slice_weights
from sliceseg.cli import main
from sliceseg.data_io import (
    SliceData,
    SliceSequence,
    SynthConfig,
    generate_dataset,
    load_checkpoint,
    read_raster,
    save_checkpoint,
    write_raster,
)
from sliceseg.errors import FormatError, UnsupportedVersionError
from sliceseg.gradcheck import grad_check
from sliceseg.lora import lora_forward, merge
from sliceseg.losses import (
    LossWeights,
    bce_loss,
    combined_loss,
    consistency_loss,
    dice_loss,
    dice_score,
)
from sliceseg.memory import select_memory
from sliceseg.model import MICRO_CONFIG, ModelConfig, forward_sequence, init_params
from sliceseg.tensor import Tensor, cosines
from sliceseg.training import AdamState, TrainConfig, evaluate, train_step

from reference_ops import scored_context


@pytest.fixture
def verdict(capsys):
    """Report a criterion verdict on the live terminal, then assert it."""

    def report(name: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return report


# --------------------------------------------------------- gradient suite


def test_criterion_gradient_suite(verdict):
    start = time.time()
    report = grad_check(seed=0)
    elapsed = time.time() - start
    worst = max(g["max_rel_err"] for g in report["groups"].values())
    ok = (
        report["pass"]
        and set(report["groups"]) == {"encoder", "decoder", "lambda", "lora_A", "lora_B"}
        and elapsed < 60.0
    )
    verdict("gradient suite", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------- Eq. 1 invariants


def _plain_cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    return 0.0 if nu <= 1e-12 or nv <= 1e-12 else float(u @ v) / (nu * nv)


def test_criterion_attention_invariants(verdict):
    rng = np.random.default_rng(0)
    sums_ok = True
    monotone_ok = True
    reduction_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 8))
        query = Tensor(rng.uniform(0.05, 1.0, 8))
        embeddings = [Tensor(rng.uniform(0.05, 1.0, 8)) for _ in range(n)]
        distances = list(rng.uniform(0.0, 40.0, n))
        lam = Tensor(rng.uniform(0.01, 0.4))
        w = cross_slice_weights(scored_context(query, embeddings, distances), lam).data
        sums_ok &= abs(w.sum() - 1.0) <= 1e-12

        j = int(rng.integers(0, n))
        farther = list(distances)
        farther[j] += float(rng.uniform(1.0, 20.0))
        w2 = cross_slice_weights(scored_context(query, embeddings, farther), lam).data
        monotone_ok &= w2[j] <= w[j] + 1e-15

        w0 = cross_slice_weights(scored_context(query, embeddings, distances), Tensor(0.0)).data
        sims = np.array([_plain_cosine(query.data, e.data) for e in embeddings])
        exps = np.exp(sims - sims.max())
        plain = exps / exps.sum()
        reduction_ok &= np.abs(w0 - plain).max() <= 1e-12
    verdict(
        "distance-aware attention invariants",
        sums_ok and monotone_ok and reduction_ok,
        f"sum={sums_ok} monotone={monotone_ok} lambda0-reduction={reduction_ok}",
    )


# --------------------------------------------------- Eq. 2 oracle parity


def _subset_oracle(bank, query, k):
    def score(i):
        emb, conf = bank[i]
        nq, ne = np.linalg.norm(query), np.linalg.norm(emb)
        sim = 0.0 if nq <= 1e-12 or ne <= 1e-12 else float(emb @ query) / (ne * nq)
        return sim * conf

    m = min(k, len(bank))
    best_key, best = None, None
    for subset in itertools.combinations(range(len(bank)), m):
        key = sorted(((score(i), i) for i in subset), reverse=True)
        if best_key is None or key > best_key:
            best_key, best = key, subset
    return sorted(best, key=lambda i: (score(i), i), reverse=True)


def test_criterion_memory_selection_oracle(verdict):
    # the bank scored as forward_sequence scores it: cosine row times confidences
    rng = np.random.default_rng(1)
    mismatches = 0
    query = np.array([1.0, 0.0])
    for _ in range(200):
        n, k = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        bank = []
        for _ in range(n):
            sim = float(rng.choice([-0.5, 0.0, 0.3, 0.6, 0.6, 1.0]))
            conf = float(rng.choice([0.0, 0.25, 0.5, 0.5, 1.0]))
            bank.append((np.array([sim, float(np.sqrt(max(0.0, 1 - sim * sim)))]), conf))
        scores = cosines(query, np.stack([e for e, _ in bank])) * np.array([c for _, c in bank])
        if select_memory(scores, k) != _subset_oracle(bank, query, k):
            mismatches += 1
    verdict("memory selection vs exhaustive oracle", mismatches == 0, f"{mismatches} mismatches/200")


# ------------------------------------------------------------------- LoRA


def test_criterion_lora_properties(verdict):
    rng = np.random.default_rng(2)
    zero_ok = True
    for seed in range(10):
        p = init_params(MICRO_CONFIG, seed=seed)
        W, A, B = p["encoder.block0.attn.q.W"], p["lora.block0.q.A"], p["lora.block0.q.B"]
        x = rng.standard_normal((4, MICRO_CONFIG.d_model))
        zero_ok &= np.array_equal(lora_forward(Tensor(x), W, A, B).data, x @ W.data.T)

    dual_ok = True
    for seed in range(50):
        r2 = np.random.default_rng(seed)
        d_in, d_out = int(r2.integers(2, 16)), int(r2.integers(2, 16))
        r = int(r2.integers(1, min(d_in, d_out) + 1))
        W, A, B = (Tensor(r2.standard_normal(s)) for s in ((d_out, d_in), (r, d_in), (d_out, r)))
        x = r2.standard_normal((3, d_in))
        via_merge = x @ merge(W, A, B).data.T
        dual_ok &= np.abs(lora_forward(Tensor(x), W, A, B).data - via_merge).max() <= 1e-10

    # frozen bases bitwise unchanged after 100 in-memory training steps
    cfg = TrainConfig(
        steps=100,
        seed=0,
        model=ModelConfig(
            image_size=16, patch_size=4, d_model=16, heads=2,
            encoder_blocks=1, lora_rank=2, decoder_hidden=16,
        ),
    )
    params = init_params(cfg.model, seed=cfg.seed)
    before = {n: params.tensors[n].data.tobytes() for n in params.frozen}
    synth = SynthConfig(num_sequences=2, slices_per_sequence=3, image_size=16, seed=3)
    from sliceseg.data_io import generate_sequence

    sequences = []
    for s in range(synth.num_sequences):
        seq_id, slices = generate_sequence(synth, s)
        sequences.append(
            SliceSequence(
                seq_id,
                [
                    SliceData(sl.image[:, :, None], sl.mask, sl.z_position_um, sl.corrupted)
                    for sl in slices
                ],
            )
        )
    state = AdamState()
    for step in range(100):
        train_step(params, sequences[step % 2], state, cfg)
    frozen_ok = all(params.tensors[n].data.tobytes() == before[n] for n in params.frozen)
    adapters_moved = any(
        np.abs(params.tensors[n].data).max() > 0
        for n in params.tensors
        if n.startswith("lora.") and n.endswith(".B")
    )
    verdict(
        "low-rank adapter properties",
        zero_ok and dual_ok and frozen_ok and adapters_moved,
        f"zero-init={zero_ok} dual-path={dual_ok} frozen-base={frozen_ok}",
    )


# -------------------------------------------------------------- causality


def test_criterion_causality(verdict):
    params = init_params(MICRO_CONFIG, seed=3)
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        slices, z = [], 0.0
        for _ in range(n):
            slices.append(
                SliceData(rng.uniform(0, 1, (8, 8, 1)), None, z_position_um=z)
            )
            z += float(rng.uniform(2, 40))
        seq = SliceSequence("c", slices)
        before = forward_sequence(seq, params)
        t = int(rng.integers(0, n - 1))
        seq.slices[t + 1].image = rng.uniform(0, 1, (8, 8, 1))
        after = forward_sequence(seq, params)
        ok &= all(
            np.array_equal(before[i].logits.data, after[i].logits.data) for i in range(t + 1)
        )
    verdict("causality under future-slice mutation", ok, "20 sequences, bitwise")


# ------------------------------------------------------- overfit surrogate


def test_criterion_overfit_surrogate(verdict, tmp_path):
    data = tmp_path / "data"
    assert main(
        ["gen-data", "--out", str(data), "--sequences", "4", "--slices", "6",
         "--seed", "1", "--corrupt-prob", "0"]
    ) == 0
    # determinism probe at reduced depth before the full run
    for tag in ("d1", "d2"):
        assert main(
            ["train", "--data", str(data), "--out", str(tmp_path / f"{tag}.psc"),
             "--steps", "40", "--seed", "1"]
        ) == 0
    deterministic = (tmp_path / "d1.psc").read_bytes() == (tmp_path / "d2.psc").read_bytes()

    start = time.time()
    ckpt = tmp_path / "overfit.psc"
    assert main(
        ["train", "--data", str(data), "--out", str(ckpt), "--steps", "2000", "--seed", "1"]
    ) == 0
    elapsed = time.time() - start
    report = evaluate(data, ckpt)
    ok = report.mean_dice >= 0.90 and elapsed <= 600.0 and deterministic
    verdict(
        "overfit surrogate",
        ok,
        f"train dice {report.mean_dice:.4f}, {elapsed:.0f}s, deterministic={deterministic}",
    )


# ------------------------------------------------------ cross-slice benefit


def _corrupted_mean(report):
    vals = [d for s in report.sequences for d, c in zip(s["dice"], s["corrupted"]) if c]
    return float(np.mean(vals))


def test_criterion_cross_slice_benefit(verdict, tmp_path):
    full_scores, nomem_scores = [], []
    for seed in (1, 2, 3):
        train_dir = tmp_path / f"train{seed}"
        test_dir = tmp_path / f"test{seed}"
        generate_dataset(
            SynthConfig(num_sequences=4, slices_per_sequence=6, seed=seed, corrupt_prob=0.3),
            train_dir,
        )
        generate_dataset(
            SynthConfig(num_sequences=4, slices_per_sequence=6, seed=seed + 100, corrupt_prob=0.3),
            test_dir,
        )
        for scores, k in ((full_scores, 5), (nomem_scores, 0)):
            from sliceseg.training import train

            cfg = TrainConfig(steps=300, seed=seed, model=ModelConfig(k_memory=k))
            ckpt = tmp_path / f"m{seed}_{k}.psc"
            train(cfg, train_dir, ckpt)
            report = evaluate(test_dir, ckpt)
            scores.append(_corrupted_mean(report))
    full_mean, nomem_mean = np.mean(full_scores), np.mean(nomem_scores)
    ok = full_mean > nomem_mean
    verdict(
        "cross-slice benefit on corrupted slices",
        ok,
        f"memory {full_mean:.4f} vs none {nomem_mean:.4f} over seeds 1-3",
    )


# --------------------------------------------------------- format round-trips


def test_criterion_format_round_trips(verdict, tmp_path):
    rng = np.random.default_rng(4)
    raster_ok = True
    for i in range(50):
        h, w, c = (int(rng.integers(1, 20)) for _ in range(3))
        arr = (
            rng.standard_normal((h, w, c)).astype(np.float32)
            if i % 2 == 0
            else rng.integers(0, 256, (h, w, c)).astype(np.uint8)
        )
        p = tmp_path / f"r{i}.psr"
        write_raster(p, arr)
        raster_ok &= np.array_equal(read_raster(p), arr)

    ckpt_ok = True
    for i in range(50):
        tensors = {
            f"t{j}": rng.standard_normal(
                tuple(int(x) for x in rng.integers(1, 6, size=int(rng.integers(1, 3))))
            ).astype(np.float32).astype(np.float64)
            for j in range(int(rng.integers(1, 5)))
        }
        p = tmp_path / f"c{i}.psc"
        save_checkpoint(p, tensors, {"i": i}, frozen=list(tensors)[:1])
        back, cfg, _ = load_checkpoint(p)
        ckpt_ok &= cfg == {"i": i}
        ckpt_ok &= all(np.array_equal(back[n], tensors[n]) for n in tensors)

    errors_ok = True
    bad_magic = tmp_path / "bad.psr"
    bad_magic.write_bytes(b"XXXX" + b"\0" * 24)
    try:
        read_raster(bad_magic)
        errors_ok = False
    except FormatError as e:
        errors_ok &= e.offset == 0
    truncated = tmp_path / "trunc.psr"
    write_raster(truncated, np.zeros((8, 8, 1), dtype=np.float32))
    truncated.write_bytes(truncated.read_bytes()[:-12])
    try:
        read_raster(truncated)
        errors_ok = False
    except FormatError:
        pass
    versioned = tmp_path / "v.psc"
    save_checkpoint(versioned, {"x": np.zeros(2)}, {})
    blob = bytearray(versioned.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    versioned.write_bytes(bytes(blob))
    try:
        load_checkpoint(versioned)
        errors_ok = False
    except UnsupportedVersionError:
        pass
    verdict(
        "format round-trips",
        raster_ok and ckpt_ok and errors_ok,
        f"raster={raster_ok} checkpoint={ckpt_ok} errors={errors_ok}",
    )


# ------------------------------------------------------------ loss identities


def test_criterion_loss_identities(verdict):
    rng = np.random.default_rng(5)
    sum_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 5))
        preds = [Tensor(rng.uniform(0.01, 0.99, (6, 6))) for _ in range(n)]
        targets = [Tensor((rng.random((6, 6)) < 0.5).astype(float)) for _ in range(n)]
        embs = [Tensor(rng.uniform(0.1, 1.0, 5)) for _ in range(n)]
        w = LossWeights()
        total = combined_loss(preds, targets, embs, w).item()
        expected = float(
            np.mean(
                [
                    w.w_dice * dice_loss(p.data, y.data) + w.w_bce * bce_loss(p.data, y.data)
                    for p, y in zip(preds, targets)
                ]
            )
            + w.w_consistency
            * consistency_loss([p.data for p in preds], embs, w.similarity_threshold)
        )
        sum_ok &= abs(total - expected) <= 1e-12

    p = rng.uniform(0, 1, (5, 5))
    identical_zero = consistency_loss([p, p.copy()], [Tensor(np.ones(3))] * 2) == 0.0

    dice_ok = True
    for _ in range(50):
        a = (rng.random((5, 5)) < 0.4).astype(np.uint8)
        b = (rng.random((5, 5)) < 0.4).astype(np.uint8)
        s = dice_score(a, b)
        dice_ok &= 0.0 <= s <= 1.0 and s == dice_score(b, a)
    verdict(
        "loss identities",
        sum_ok and identical_zero and dice_ok,
        f"weighted-sum={sum_ok} identical-zero={identical_zero} dice-metric={dice_ok}",
    )
