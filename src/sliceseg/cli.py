"""Command-line surface: gen-data / train / eval / infer / grad-check.

Every failure exits nonzero after printing a single machine-readable
JSON error line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data_io import _JSON_ERRORS, SynthConfig, _read_file, dataclass_from_dict, generate_dataset
from .data_io import load_sequence, write_raster
from .errors import ConfigError, SlicesegError
from .gradcheck import grad_check
from .model import forward_sequence, load_params
from .training import MASK_THRESHOLD, TrainConfig, evaluate, train, write_report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors; its
    subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sliceseg",
        description="Sequential slice segmentation with distance-aware cross-slice attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic sequential-slice dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--sequences", type=int, default=4)
    p.add_argument("--slices", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-prob", type=float, default=0.0)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON file mirroring TrainConfig")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="evaluate a checkpoint, writing a Dice report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("infer", help="segment one sequence directory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("grad-check", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_gen_data(args) -> None:
    cfg = SynthConfig(
        num_sequences=args.sequences,
        slices_per_sequence=args.slices,
        seed=args.seed,
        corrupt_prob=args.corrupt_prob,
    )
    generate_dataset(cfg, args.out)
    print(f"wrote {args.sequences} sequences x {args.slices} slices to {args.out}")


def _cmd_train(args) -> None:
    config = TrainConfig()
    if args.config:  # every error in the document names the file
        try:
            doc = json.loads(_read_file(args.config))
        except _JSON_ERRORS as exc:
            raise ConfigError(f"config {args.config}: not a JSON document: {exc}") from None
        try:
            config = dataclass_from_dict(TrainConfig, doc)
        except ConfigError as exc:
            raise ConfigError(f"config {args.config}: {exc}") from None
    # replace() re-runs the config's checks on the flag values
    flags = {"steps": args.steps, "seed": args.seed}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    trace = train(config, args.data, args.out)
    print(f"trained {config.steps} steps, final loss {trace[-1]:.6f}, checkpoint {args.out}")


def _cmd_eval(args) -> None:
    report = evaluate(args.data, args.ckpt)
    write_report(report, args.report)
    print(f"mean dice {report.mean_dice:.4f} +/- {report.sd_dice:.4f} over {report.num_slices} slices")


def _cmd_infer(args) -> None:
    params = load_params(args.ckpt)
    seq = load_sequence(args.sequence)
    preds = forward_sequence(seq, params)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, pred in enumerate(preds):
        mask = (pred.probabilities.data >= MASK_THRESHOLD).astype(np.uint8)
        write_raster(out_dir / f"pred_{t}.psr", mask)
    print(f"wrote {len(preds)} predicted masks to {out_dir}")


def _cmd_grad_check(args) -> None:
    report = grad_check(seed=args.seed)
    for group, entry in sorted(report["groups"].items()):
        status = "ok" if entry["max_rel_err"] <= report["tolerance"] else "FAIL"
        print(f"{group:10s} max_rel_err={entry['max_rel_err']:.3e} [{status}]")
    if not report["pass"]:
        raise SlicesegError("gradient check failed")
    print("all parameter groups within tolerance")


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "gen-data": _cmd_gen_data,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "infer": _cmd_infer,
        "grad-check": _cmd_grad_check,
    }
    try:
        args = _build_parser().parse_args(argv)
        # non-finite values end in typed errors; numpy warnings would add stderr lines
        with np.errstate(all="ignore"):
            handlers[args.command](args)
    except (SlicesegError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
