"""Per-layer metrics from the spans of a traced run.

Layers are the dmsn modules.  Every ``.ms`` metric is the median, over the
traced operations, of the time one operation spent in that layer; rates
(``gmac_s``, ``mb_s``) divide the work of all traced operations by their
summed time.  Conv MACs for the rates come from ``complexity.count_flops``,
joined to each conv call by the nearest enclosing unit span; ``ops.macs`` is
counted independently from the kernel-call shapes so the two can be compared.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import ROOT_SPAN

CONV_KINDS = ("stem", "pointwise", "temporal", "spatial")
STAGES = ("res2", "res3", "res4", "res5")

# ms metrics that sum the full duration of the named functions' spans
_INCLUSIVE = {
    "ops.batchnorm_fwd.ms": ("ops.batchnorm_forward",),
    "ops.batchnorm_bwd.ms": ("ops.batchnorm_backward",),
    "ops.maxpool_fwd.ms": ("ops.maxpool3d",),
    "ops.maxpool_bwd.ms": ("ops.maxpool3d_backward",),
    "ops.relu.ms": ("ops.relu_forward", "ops.relu_backward"),
    "ops.concat_split.ms": ("ops.concat_channels", "ops.split_channels"),
    "ops.head.ms": ("ops.avgpool_spatial", "ops.avgpool_spatial_backward",
                    "ops.linear_forward", "ops.linear_backward"),
    "model.forward.ms": ("model.forward_with_state",),
    "model.backward.ms": ("model.backward_from_cache",),
    "training.optimizer.ms": ("training.adam_step", "training.sgd_step"),
    "training.loss.ms": ("training.mse_loss", "training.mae_loss"),
    "model.save_checkpoint.ms": ("model.save_checkpoint",),
    "model.load_checkpoint.ms": ("model.load_checkpoint",),
    "pipeline.save_manifest.ms": ("pipeline.save_manifest",),
    "pipeline.load_manifest.ms": ("pipeline.load_manifest",),
}
_GLUE = frozenset({"blocks.block_forward", "blocks.block_backward",
                   "blocks.unit_forward", "blocks.unit_backward"})
_TF_WRITE = frozenset({"tensorfile.tensor_to_bytes", "tensorfile.write_tensor"})
_TF_READ = frozenset({"tensorfile.tensor_from_stream",
                      "tensorfile.tensor_from_bytes", "tensorfile.read_tensor"})


def conv_kind(unit: str, spec) -> str:
    if unit == "conv1":
        return "stem"
    if spec.is_pointwise:
        return "pointwise"
    return "temporal" if spec.is_temporal else "spatial"


def _enclosing_unit(spans, sid: int):
    """The unit id of the nearest ``unit_forward``/``unit_backward`` above."""
    parent = spans[sid][3]
    while parent >= 0:
        name, _, _, grandparent, _, tag = spans[parent]
        if name in ("blocks.unit_forward", "blocks.unit_backward"):
            return tag
        parent = grandparent
    return None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def analyse(spans, unit_macs: dict[str, int], forward_macs: int | None):
    """Aggregate spans into ``(metrics, unit_rows, mac_mismatches, summary)``.

    ``unit_macs`` maps each conv unit id to its forward MACs for one
    operation's input; ``forward_macs`` is the ``count_flops`` total for one
    operation, or None for a workload that runs no forward.  A step whose
    ``ops.macs`` differs from ``forward_macs``, and a conv call outside any
    unit of ``unit_macs``, are both listed in ``mac_mismatches``.  Metric
    values are plain floats, units are in ``PER_LAYER_UNITS``; the metrics
    named in ``MEASURED_ELSEWHERE`` are left to the caller.
    """
    steps = sorted({s[4] for s in spans if s[0] == ROOT_SPAN})
    child_ns = defaultdict(int)
    for name, t0, t1, parent, step, tag in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    per_op = defaultdict(lambda: defaultdict(float))  # key -> step -> value
    totals = defaultdict(float)                       # rate work and time
    bwd_factor = {}                                   # unit -> bwd/fwd MACs

    inclusive = {fn: metric for metric, fns in _INCLUSIVE.items() for fn in fns}
    mismatches = []
    for sid, (name, t0, t1, parent, step, tag) in enumerate(spans):
        ms = (t1 - t0) / 1e6
        self_ms = ms - child_ns[sid] / 1e6
        if name == ROOT_SPAN:
            per_op["bench.op.ms"][step] += ms
            continue
        per_op["trace.library_self_ms"][step] += self_ms
        if name in inclusive:
            per_op[inclusive[name]][step] += ms
        if name in _GLUE:
            per_op["blocks.glue.ms"][step] += self_ms
        if name == "training.train_step":
            per_op["training.step.self_ms"][step] += self_ms
        if name in ("ops.conv3d_forward", "ops.conv3d_backward"):
            per_op["ops.conv.calls"][step] += 1
            unit = _enclosing_unit(spans, sid)
            if unit not in unit_macs:
                mismatches.append((step, f"{name} in unit {unit!r}"))
            kind = conv_kind(unit, tag[0])
            macs = unit_macs.get(unit, 0)
            if name == "ops.conv3d_forward":
                phase = "fwd"
                per_op["ops.macs"][step] += tag[1]
            else:
                phase = "bwd"
                bwd_factor[unit] = 2 if tag[2] else 1
                macs *= bwd_factor[unit]
            per_op[f"ops.conv_{phase}.{kind}.ms"][step] += ms
            per_op[(unit, f"conv_{phase}_ms")][step] += ms
            totals[f"ops.conv_{phase}.{kind}.ms"] += ms
            totals[f"ops.conv_{phase}.{kind}.macs"] += macs
        elif name == "ops.linear_forward":
            per_op["ops.macs"][step] += tag
        elif name in ("blocks.unit_forward", "blocks.unit_backward"):
            phase = "fwd" if name == "blocks.unit_forward" else "bwd"
            per_op[(tag, f"{phase}_ms")][step] += ms
            if tag == "conv1":
                per_op[f"model.stem.{phase}_ms"][step] += ms
        elif name in ("blocks.block_forward", "blocks.block_backward"):
            stage = tag.split(".", 1)[0]
            phase = "fwd" if name == "blocks.block_forward" else "bwd"
            per_op[f"blocks.{stage}.{phase}_ms"][step] += ms
        if name in _TF_WRITE or name in _TF_READ:
            side = "write" if name in _TF_WRITE else "read"
            if parent < 0 or not spans[parent][0].startswith("tensorfile."):
                totals[f"tensorfile.{side}.ms"] += ms
            if name == "tensorfile.tensor_to_bytes":
                totals["tensorfile.write.bytes"] += tag
                per_op["io.bytes_written_mb"][step] += tag / 1e6
            elif name == "tensorfile.tensor_from_stream":
                totals["tensorfile.read.bytes"] += tag
                per_op["io.bytes_read_mb"][step] += tag / 1e6

    def med(key):
        return _median([per_op[key].get(s, 0.0) for s in steps])

    def rate(prefix, work, scale):
        ms = totals[f"{prefix}.ms"]
        return totals[f"{prefix}.{work}"] / scale / (ms / 1e3) if ms else 0.0

    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "GMAC/s":
            metrics[name] = rate(name.rsplit(".", 1)[0], "macs", 1e9)
        elif unit == "MB/s":
            metrics[name] = rate(name.rsplit(".", 1)[0], "bytes", 1e6)
        elif name not in MEASURED_ELSEWHERE:
            metrics[name] = med(name)

    if forward_macs is not None:
        mismatches += [(s, int(per_op["ops.macs"].get(s, 0))) for s in steps
                       if per_op["ops.macs"].get(s, 0) != forward_macs]

    rows = []
    for unit, macs in unit_macs.items():
        row = {"unit": unit}
        for field in ("fwd_ms", "bwd_ms", "conv_fwd_ms", "conv_bwd_ms"):
            row[field] = med((unit, field))
        row["fwd_macs"] = macs
        row["bwd_macs"] = bwd_factor.get(unit, 0) * macs
        for phase in ("fwd", "bwd"):
            ms = row[f"conv_{phase}_ms"]
            row[f"{phase}_gmac_s"] = row[f"{phase}_macs"] / ms / 1e6 if ms else 0.0
        rows.append(row)

    summary = {
        "traced_ops": len(steps),
        "op_ms.p50": med("bench.op.ms"),
        "library_self_ms.p50": med("trace.library_self_ms"),
        "spans": len(spans),
    }
    return metrics, rows, mismatches, summary


def _per_layer_units() -> dict[str, str]:
    units = {}
    for phase in ("fwd", "bwd"):
        for kind in CONV_KINDS:
            units[f"ops.conv_{phase}.{kind}.ms"] = "ms"
            units[f"ops.conv_{phase}.{kind}.gmac_s"] = "GMAC/s"
    units.update({
        "ops.batchnorm_fwd.ms": "ms", "ops.batchnorm_bwd.ms": "ms",
        "ops.maxpool_fwd.ms": "ms", "ops.maxpool_bwd.ms": "ms",
        "ops.relu.ms": "ms", "ops.concat_split.ms": "ms", "ops.head.ms": "ms",
        "ops.conv.calls": "count", "ops.macs": "count",
    })
    for stage in STAGES:
        units[f"blocks.{stage}.fwd_ms"] = "ms"
        units[f"blocks.{stage}.bwd_ms"] = "ms"
    units.update({
        "blocks.glue.ms": "ms",
        "model.forward.ms": "ms", "model.backward.ms": "ms",
        "model.stem.fwd_ms": "ms", "model.stem.bwd_ms": "ms",
        "model.alloc_peak_mb": "MB",
        "training.optimizer.ms": "ms", "training.loss.ms": "ms",
        "training.step.self_ms": "ms",
        "model.save_checkpoint.ms": "ms", "model.load_checkpoint.ms": "ms",
        "pipeline.save_manifest.ms": "ms", "pipeline.load_manifest.ms": "ms",
        "tensorfile.write.mb_s": "MB/s", "tensorfile.read.mb_s": "MB/s",
        "io.bytes_written_mb": "MB", "io.bytes_read_mb": "MB",
        "trace.overhead_pct": "%",
    })
    return units


# Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = _per_layer_units()
# measured by the harness outside the spans
MEASURED_ELSEWHERE = ("model.alloc_peak_mb", "trace.overhead_pct")
