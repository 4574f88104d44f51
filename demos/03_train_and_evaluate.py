"""End-to-end run: synthesize a dataset, train briefly, evaluate, run inference.

Everything here is also reachable from the CLI:
  sliceseg gen-data / train / eval / infer / grad-check

Run: python3 demos/03_train_and_evaluate.py   (about a minute)
"""

import tempfile
from pathlib import Path

import numpy as np

from sliceseg.data_io import SynthConfig, generate_dataset, load_dataset, read_raster, write_raster
from sliceseg.losses import dice_score
from sliceseg.model import ModelConfig, forward_sequence, load_params
from sliceseg.training import TrainConfig, evaluate, train

with tempfile.TemporaryDirectory(prefix="sliceseg-demo-") as tmp:
    root = Path(tmp)
    data = root / "data"

    # Drifting elliptical blobs over a z-stack; one sequence gets a corrupted slice.
    generate_dataset(
        SynthConfig(num_sequences=2, slices_per_sequence=4, corrupt_prob=0.3, seed=7), data
    )
    print("dataset at", data)

    # A small model keeps the demo quick; defaults match the reference scale.
    cfg = TrainConfig(
        steps=150,
        seed=0,
        model=ModelConfig(
            image_size=64, patch_size=8, d_model=32, heads=2,
            encoder_blocks=1, lora_rank=4, decoder_hidden=32,
        ),
    )
    ckpt = root / "model.psc"
    trace = train(cfg, data, ckpt)
    print(f"trained {cfg.steps} steps: loss {trace[0]:.3f} -> {trace[-1]:.3f}")

    report = evaluate(data, ckpt)
    print(f"mean dice {report.mean_dice:.3f} (sd {report.sd_dice:.3f}) over {report.num_slices} slices")

    # Inference on one sequence, then score the binarized masks by hand.
    params = load_params(ckpt)
    sequence = load_dataset(data)[0]
    preds = forward_sequence(sequence, params)
    # A checkpoint loads as constants, so inference records no autodiff tape.
    taped = sum(bool(t._parents) for p in preds for t in (p.logits, p.probabilities, p.pooled_embedding))
    print(f"inference on the loaded checkpoint: {taped} of {3 * len(preds)} outputs carry a tape")
    for t, (pred, sl) in enumerate(zip(preds, sequence.slices)):
        mask = (pred.probabilities.data >= 0.5).astype(np.uint8)
        out = root / f"pred_{t}.psr"
        write_raster(out, mask[:, :, None])
        back = read_raster(out)[:, :, 0]
        tag = " (corrupted input)" if sl.corrupted else ""
        print(f"slice {t}: dice {dice_score(back, sl.mask):.3f}, "
              f"confidence {pred.confidence:.3f}{tag}")
