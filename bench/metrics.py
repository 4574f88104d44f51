"""Turns a finished run's samples and spans into the reported metrics.

End-to-end metrics come from untraced runs; per-layer metrics from the
traced run. A per-layer metric is taken from the traced half of the
focused loop when that half exercised the layer, and otherwise from the
set-up and reference pass, which exercise every layer with fixed work.
"""

from __future__ import annotations

import resource
from collections import Counter, defaultdict

import numpy as np

from tracer import Tracer, self_times
from workloads import TAPE_OPS, Run, Workload

# Per-layer timing metric -> span name; the value is mean self time per call.
LAYER_SPANS = {
    "tensor.backward_ms": "tensor.backward",
    "model.encode_slice_ms": "model.encode_slice",
    "model.decode_mask_ms": "model.decode_mask",
    "lora.forward_ms": "lora.forward",
    "memory.select_ms": "memory.select",
    "attention.weights_ms": "attention.weights",
    "attention.fuse_ms": "attention.fuse",
    "losses.combined_ms": "losses.combined",
    "training.adam_step_ms": "training.adam_step",
    "data_io.write_raster_ms": "data_io.write_raster",
    "data_io.read_raster_ms": "data_io.read_raster",
    "data_io.save_checkpoint_ms": "data_io.save_checkpoint",
    "data_io.load_checkpoint_ms": "data_io.load_checkpoint",
}

TRACED, FIXED = "focused_traced", ("setup", "reference")


def informational(run: Run, workload: Workload) -> dict[str, float]:
    """Figures printed beside the metrics but not gated: the plain times
    follow the machine's drift, and a 90th percentile over the 75 or so
    stack forwards of a run rests on a handful of calls."""
    op_s, ref_s = np.asarray(run.samples.op_s), np.asarray(run.samples.ref_s)
    return {
        "op_ms_p50": float(np.percentile(op_s, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(op_s, 90)) * 1e3,
        "slices_per_s": workload.slices * len(op_s) / float(op_s.sum()),
        "ref_ms_p50": float(np.percentile(ref_s, 50)) * 1e3,
        "op_ref_p90": float(np.percentile(op_s / ref_s, 90)),
    }


def end_to_end(run: Run, workload: Workload) -> dict[str, float]:
    s = run.samples
    cost = np.asarray(s.op_s) / np.asarray(s.ref_s)  # each operation in kernel times
    fed = sum(s.malformed.values())
    typed = sum(n for (_, outcome), n in s.malformed.items() if outcome == "typed")
    return {
        "setup_s": float(np.median(run.setup_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "malformed_typed_ratio": typed / fed,
        "op_ref_p50": float(np.percentile(cost, 50)),
        "slices_per_ref": workload.slices * len(cost) / float(cost.sum()),
        "train_loss_final": s.loss_final,
        "infer_dice_corrupted": s.infer_dice,
        "gradcheck_max_rel_err": s.gradcheck_err,
    }


class _PhaseStats:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def add(self, spans: list[tuple], counts: Counter) -> None:
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
        self.counts.update(counts)


def per_layer(tracer: Tracer, tape: tuple[Counter, float], run: Run) -> dict[str, float]:
    traced, fixed = _PhaseStats(), _PhaseStats()
    traced.add(tracer.phases[TRACED], tracer.counts[TRACED])
    for phase in FIXED:
        fixed.add(tracer.phases[phase], tracer.counts[phase])

    def ratio(numerator, denominator) -> float:
        stats = traced if denominator(traced) > 0 else fixed
        return numerator(stats) / denominator(stats)

    out: dict[str, float] = {}
    train_graph, infer_nodes_per_slice = tape
    out["tensor.nodes_per_train_step"] = float(sum(train_graph.values()))
    out["tensor.nodes_per_infer_slice"] = infer_nodes_per_slice
    for op in TAPE_OPS:
        out[f"tensor.nodes.{op}"] = float(train_graph[op])
    for metric, span in LAYER_SPANS.items():
        out[metric] = ratio(lambda st: st.self_s[span] * 1e3, lambda st: st.calls[span])
    slices = lambda st: st.counts["model.slices"]  # noqa: E731
    out["memory.entries_scored_per_slice"] = ratio(lambda st: st.counts["memory.entries_scored"], slices)
    out["attention.slots_per_slice"] = ratio(lambda st: st.counts["attention.slots"], slices)
    out["losses.consistency_pairs_per_step"] = ratio(
        lambda st: st.counts["losses.consistency_pairs"], lambda st: st.counts["losses.consistency_calls"]
    )
    for key in ("data_io.bytes_written", "data_io.bytes_read"):
        out[key] = ratio(lambda st: st.counts[key], lambda st: 1 if st.counts[key] else 0)
    out["gradcheck.loss_evals"] = ratio(
        lambda st: st.counts["gradcheck.loss_evals"], lambda st: st.calls["grad_check"]
    )
    out["gradcheck.loss_eval_ms"] = ratio(
        lambda st: st.total_s["gradcheck.numeric_grad"] * 1e3, lambda st: st.counts["gradcheck.loss_evals"]
    )
    # In kernel times, like op_ref_p50, so the machine's drift between the
    # two halves does not pass for overhead.
    cost = np.asarray(run.samples.op_s) / np.asarray(run.samples.ref_s)
    half = run.samples.traced_from
    out["bench.trace_overhead_ratio"] = float(np.median(cost[half:]) / np.median(cost[:half]))
    return out
