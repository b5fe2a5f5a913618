"""Per-layer metrics derived from one traced pass.

Every workload reports the same metric set; a layer that a workload leaves
idle reports 0. Span names come from ``tracer``: ``<module>.<function>`` for
module functions, ``<module>.<Class>.<method>`` for methods, and
``bench.<part>`` for the spans the benchmark opens around each command.

Units: ``.ms`` is inclusive wall time summed over the pass, ``.self_ms``
excludes time spent in traced children, ``.ms_per_step`` divides by the
training steps of the pass (or by the loss calls, for objectives).
"""

from __future__ import annotations

from collections import defaultdict

from .tracer import NAME, NBYTES, SpanTable

STAGE_KINDS = ("pretrain_mlm", "distill", "pretrain_contrastive", "sft_mrl")
STEP_PHASES = ("data", "forward", "backward", "clip", "optim")
TENSOR_OPS = ("matmul", "add", "mul", "transpose", "reshape", "softmax_rows", "rms_norm",
              "activation", "take_rows", "slice_last", "masked_cross_entropy",
              "log_softmax_rows")
LOSSES = ("matryoshka_mlm_loss", "distill_loss", "matryoshka_contrastive_loss",
          "mrl_sft_loss")
MODULES = ("data", "encoder", "tensor", "objectives", "trainer", "evalkit", "config")

# (name, unit, better) of every per-layer metric, in report order
METRICS: list[tuple[str, str, str]] = [
    ("data.batch.ms_per_step", "ms", "lower"),
    ("data.encode_sequence.calls", "count", "lower"),
    ("data.encode_sequence.ms", "ms", "lower"),
    ("data.build_vocab.ms", "ms", "lower"),
    ("data.ingest_pairs.ms", "ms", "lower"),
    ("encoder.forward.calls", "count", "lower"),
    ("encoder.forward.ms", "ms", "lower"),
    ("encoder.pool.ms", "ms", "lower"),
    *[(f"tensor.op_calls_per_step.{k}", "count", "lower") for k in STAGE_KINDS],
    *[(f"tensor.out_bytes_per_step.{k}", "bytes", "lower") for k in STAGE_KINDS],
    *[(f"tensor.{op}.self_ms", "ms", "lower") for op in TENSOR_OPS],
    ("tensor.backward.ms_per_step", "ms", "lower"),
    *[(f"objectives.{loss}.self_ms_per_step", "ms", "lower") for loss in LOSSES],
    *[(f"trainer.{k}.{ph}.ms_per_step", "ms", "lower")
      for k in STAGE_KINDS for ph in STEP_PHASES],
    ("trainer.save_checkpoint.ms", "ms", "lower"),
    ("trainer.save_checkpoint.bytes", "bytes", "lower"),
    ("trainer.load_checkpoint.ms", "ms", "lower"),
    ("evalkit.encode_corpus.calls", "count", "lower"),
    ("evalkit.encode_corpus.ms", "ms", "lower"),
    ("evalkit.exact_topk.ms", "ms", "lower"),
    ("evalkit.recall_at_k.ms", "ms", "lower"),
    ("config.load_run_config.ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(spans: list[list], steps: dict[str, int], untraced_s: float,
                  traced_s: float) -> dict[str, float]:
    """All per-layer metrics of one traced pass.

    ``steps`` maps a stage kind to the optimizer steps the pass ran in it.
    """
    t = SpanTable(spans)
    ms = defaultdict(float)        # inclusive ms by span name
    calls = defaultdict(int)
    nbytes = defaultdict(int)
    self_ms = defaultdict(float)
    phase_ms = defaultdict(float)  # (kind, phase) -> ms
    op_calls = defaultdict(int)    # kind -> tensor ops called from outside tensor
    op_bytes = defaultdict(int)
    loss_self = defaultdict(float)
    loss_calls = defaultdict(int)
    for i, s in enumerate(spans):
        name = s[NAME]
        mod = t.module(i)
        d_ms = t.dur[i] * 1e3
        ms[name] += d_ms
        calls[name] += 1
        nbytes[name] += s[NBYTES]
        self_ms[name] += t.self_time[i] * 1e3
        root = spans[t.root[i]][NAME]
        kind = root.split(".", 1)[1] if root.startswith("bench.") else ""
        outer_mod = t.parent_module(i)
        if mod == "data" and name.endswith(".batch"):
            phase_ms[kind, "data"] += d_ms
        elif mod == "objectives":
            if outer_mod != "objectives":
                phase_ms[kind, "forward"] += d_ms
                loss_calls[name.split(".")[1]] += 1
            top = spans[t.outermost(i, "objectives")][NAME].split(".")[1]
            loss_self[top] += t.self_time[i] * 1e3
        elif name == "tensor.Tensor.backward":
            phase_ms[kind, "backward"] += d_ms
        elif name == "trainer.clip_grads_global_norm":
            phase_ms[kind, "clip"] += d_ms
        elif name == "trainer.adamw_step":
            phase_ms[kind, "optim"] += d_ms
        if mod == "tensor" and name.count(".") == 1 and outer_mod != "tensor":
            op_calls[kind] += 1
            op_bytes[kind] += s[NBYTES]

    total_steps = sum(steps.values())
    batch_ms = sum(v for (k, ph), v in phase_ms.items() if ph == "data")
    out = {
        "data.batch.ms_per_step": _per(batch_ms, total_steps),
        "data.encode_sequence.calls": calls["data.encode_sequence"],
        "data.encode_sequence.ms": ms["data.encode_sequence"],
        "data.build_vocab.ms": ms["data.build_vocab"],
        "data.ingest_pairs.ms": ms["data.ingest_pairs"],
        "encoder.forward.calls": calls["encoder.forward"],
        "encoder.forward.ms": ms["encoder.forward"],
        "encoder.pool.ms": ms["encoder.pool"],
    }
    for k in STAGE_KINDS:
        out[f"tensor.op_calls_per_step.{k}"] = _per(op_calls[k], steps.get(k, 0))
        out[f"tensor.out_bytes_per_step.{k}"] = _per(op_bytes[k], steps.get(k, 0))
    for op in TENSOR_OPS:
        out[f"tensor.{op}.self_ms"] = self_ms[f"tensor.{op}"]
    out["tensor.backward.ms_per_step"] = _per(ms["tensor.Tensor.backward"], total_steps)
    for loss in LOSSES:
        out[f"objectives.{loss}.self_ms_per_step"] = _per(loss_self[loss], loss_calls[loss])
    for k in STAGE_KINDS:
        for ph in STEP_PHASES:
            out[f"trainer.{k}.{ph}.ms_per_step"] = _per(phase_ms[k, ph], steps.get(k, 0))
    out.update({
        "trainer.save_checkpoint.ms": ms["trainer.save_checkpoint"],
        "trainer.save_checkpoint.bytes": nbytes["trainer.save_checkpoint"],
        "trainer.load_checkpoint.ms": ms["trainer.load_checkpoint"],
        "evalkit.encode_corpus.calls": calls["evalkit.encode_corpus"],
        "evalkit.encode_corpus.ms": ms["evalkit.encode_corpus"],
        "evalkit.exact_topk.ms": ms["evalkit.exact_topk"],
        "evalkit.recall_at_k.ms": ms["evalkit.recall_at_k"],
        "config.load_run_config.ms": ms["config.load_run_config"],
        "trace.spans": len(spans),
        "trace.overhead_pct": (traced_s / untraced_s - 1.0) * 100.0,
    })
    if set(out) != set(UNITS):
        raise RuntimeError(f"per-layer metrics out of sync with METRICS: {set(out) ^ set(UNITS)}")
    return out
