"""sliceseg benchmark: one workload per invocation, every metric by name.

    python3 bench/run.py --workload train_seq6 --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/` next
to this directory and treated as a black box. With `--trace 0` the run
reports every end-to-end metric declared in `BENCHMARK.json`; with
`--trace 1` every per-layer metric, and the spans go to
`.bench_work/trace-<workload>-seed<seed>.json`. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

`--held-out K` replaces `--seed` with seed HELD_OUT_BASE + K. Seeds from
that range were never used while the benchmark was written, so a claim
can be re-checked on inputs nobody tuned against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path

# BLAS reads these when numpy loads, so they are set before any import of it.
# One thread: the arrays are at most 64x64 and the machine has two cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
HELD_OUT_BASE = 1_000_000

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    seeds = p.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--held-out", type=int, metavar="K")
    p.add_argument("--seconds", type=float, required=True, help="length of the focused loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.held_out is not None:
        if args.held_out < 0:
            p.error("--held-out must be >= 0")
        args.seed = HELD_OUT_BASE + args.held_out
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "sliceseg" / "__init__.py").is_file():
        print(f"error: no sliceseg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    import workloads
    from metrics import end_to_end, informational, per_layer
    from tracer import Tracer

    if not Path(workloads.sliceseg.__file__).resolve().is_relative_to(SRC):
        print(f"error: sliceseg imported from {workloads.sliceseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env), flush=True)
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    run = workloads.Run(args.seed, work, tracer)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # count every occurrence; none is suppressed
            tape = workloads.execute(run, args.workload, args.seconds, bool(args.trace))
        if args.trace:
            values, declared = per_layer(tracer, tape, run), spec["per_layer"]
        else:
            values, declared = end_to_end(run, workload), spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"computed metrics {sorted(values)} != declared {sorted(names)}")

    warning_kinds = Counter(f"{w.category.__name__}: {w.message} ({Path(w.filename).name}:{w.lineno})"
                            for w in caught)
    for text, n in sorted(warning_kinds.items()):
        print(f"warning x{n} {text}", file=sys.stderr)
    checks = Counter(run.failures)
    for (case, outcome), n in sorted(run.samples.malformed.items()):
        print(f"malformed {case}: {outcome} x{n}")
    for name, n in sorted(checks.items()):
        print(f"check FAILED x{n}: {name}")
    print(f"python warnings: {len(caught)}")
    print(f"operation: {workload.op}, {len(run.samples.op_s)} timed calls")
    for name, value in informational(run, workload).items():
        print(f"not gated: {name:29s} {value:>16.6g}")
    for m in declared:
        print(f"{m['name']:40s} {values[m['name']]:>16.6g} {m['unit']}")

    if args.trace:
        bench_dir.mkdir(exist_ok=True)
        out = bench_dir / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "python_warnings": len(caught),
            "span_fields": ["name", "start", "end", "parent", "op_id"],
            "spans": tracer.phases,
            "counts": tracer.counts,
            "metrics": values,
        }))
        print(f"spans written to {out.relative_to(ROOT)}")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
