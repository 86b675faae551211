"""Analytic, execution-free parameter and FLOP accounting.

Headline FLOPs count convolution and linear multiply-accumulates only; the
``mac1`` convention reports one FLOP per MAC and ``mac2`` doubles it.  Pooling,
normalization, and rectification are not counted.  Normalization scale/shift weights count as parameters; running stats
are reported apart from the headline total.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .blocks import INPUT, BlockSpec, block_plan
from .model import ModelSpec, block_prefixes
from .ops import ConvLayerSpec, conv_output_shape, out_extent

CONVENTIONS = ("mac1", "mac2")


@dataclass
class CostRow:
    layer_id: str
    kind: str
    out_extents: tuple | None   # (c, t, h, w) or None for geometry-free rows
    params: int = 0
    stats_params: int = 0
    macs: int = 0


@dataclass
class CostReport:
    label: str
    convention: str = "mac1"
    clip_len: int | None = None
    input_size: tuple | None = None
    batch: int = 1
    branch_count: int | None = None
    rows: list[CostRow] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_stats_params(self) -> int:
        return sum(r.stats_params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_flops(self) -> int:
        return self.total_macs * (2 if self.convention == "mac2" else 1)


def _unit_row(name: str, conv: ConvLayerSpec,
              in_shape=None) -> tuple[CostRow, tuple | None]:
    """Cost row for one conv+bn(+relu) unit; returns its output shape too."""
    row = CostRow(name, "conv", None,
                  params=conv.param_count() + 2 * conv.out_channels,
                  stats_params=2 * conv.out_channels)
    out_shape = None
    if in_shape is not None:
        out_shape = conv_output_shape(in_shape, conv)
        n, c, t, h, w = out_shape
        row.out_extents = (c, t, h, w)
        row.macs = conv.weight_count * n * t * h * w
    return row, out_shape


def count_params(spec) -> CostReport:
    """Parameter columns only; geometry-independent."""
    if isinstance(spec, BlockSpec):
        report = CostReport(label=f"block-{spec.variant}",
                            branch_count=spec.branch_count)
        units = block_plan(spec)
    elif isinstance(spec, ModelSpec):
        report = CostReport(label=spec.config.model_kind,
                            branch_count=spec.config.branch_count)
        units = [("conv1", spec.conv1, True, None)]
        for prefix, block in block_prefixes(spec):
            units += block_plan(block, prefix)
    else:
        raise TypeError(f"count_params expects a ModelSpec or BlockSpec, "
                        f"got {type(spec).__name__}")
    for name, conv, _, _ in units:
        row, _ = _unit_row(name, conv)
        report.rows.append(row)
    if isinstance(spec, ModelSpec):
        report.rows.append(CostRow("head.fc", "linear", None,
                                   params=spec.head_channels + 1))
    return report


def count_flops(spec: ModelSpec, input_geometry=None,
                convention: str = "mac1") -> CostReport:
    """Per-layer parameter and MAC accounting for a full model.

    Each row's ``out_extents`` is the layer's output ``(c, t, h, w)``; a
    block's ``join`` row holds the block output.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    if input_geometry is None:
        h, w = spec.config.input_size
        input_geometry = (1, 3, spec.config.clip_len, h, w)
    n = input_geometry[0]
    report = CostReport(label=spec.config.model_kind, convention=convention,
                        clip_len=input_geometry[2],
                        input_size=tuple(input_geometry[3:]), batch=n,
                        branch_count=spec.config.branch_count)
    row, shape = _unit_row("conv1", spec.conv1, input_geometry)
    report.rows.append(row)
    (kt, kh, kw), (st, sh, sw), (pt, ph, pw) = spec.pool
    _, c, t, h, w = shape
    t = out_extent(t, kt, st, pt, "time")
    h = out_extent(h, kh, sh, ph, "height")
    w = out_extent(w, kw, sw, pw, "width")
    report.rows.append(CostRow("pool", "maxpool", (c, t, h, w)))
    shape = (n, c, t, h, w)
    for prefix, block in block_prefixes(spec):
        shapes = {INPUT: shape}
        for name, conv, _, source in block_plan(block, prefix):
            if isinstance(source, tuple):
                n, _, t, h, w = shapes[source[0]]
                in_shape = (n, sum(shapes[s][1] for s in source), t, h, w)
            else:
                in_shape = shapes[source]
            row, shapes[name] = _unit_row(name, conv, in_shape)
            report.rows.append(row)
        # residual add + final relu
        shape = shapes[f"{prefix}fuse"]
        n, c, t, h, w = shape
        report.rows.append(CostRow(f"{prefix}join", "add+relu", (c, t, h, w)))
    n, c, t, h, w = shape
    report.rows.append(CostRow("head.avgpool", "avgpool", (c, t, 1, 1)))
    report.rows.append(CostRow("head.fc", "linear", (1, t, 1, 1),
                               params=spec.head_channels + 1,
                               macs=n * t * spec.head_channels))
    report.rows.append(CostRow("head.avgpool_t", "avgpool", (1, 1, 1, 1)))
    return report


def params_m(report: CostReport) -> str:
    return f"{report.total_params / 1e6:.1f}"


def flops_g(report: CostReport) -> str:
    return f"{report.total_flops / 1e9:.2f}"


def emit_cost_table(reports: list[CostReport], format: str = "text") -> str:
    """Summary table, one row per report, in the order given."""
    if not reports:
        raise ValueError("emit_cost_table needs at least one report")
    header = ("model", "params_M", "flops_G", "convention", "clip_len")
    table = [(r.label, params_m(r), flops_g(r), r.convention,
              str(r.clip_len if r.clip_len is not None else ""))
             for r in reports]
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(table)
        return buf.getvalue()
    if format == "text":
        widths = [max(len(row[i]) for row in [header, *table])
                  for i in range(len(header))]
        lines = ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
                 for row in [header, *table]]
        return "\n".join(lines) + "\n"
    raise ValueError(f"format must be 'text' or 'csv', got {format!r}")
