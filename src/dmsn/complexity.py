"""Analytic, execution-free parameter and FLOP accounting.

Headline FLOPs count convolution and linear multiply-accumulates only; the
``mac1`` convention reports one FLOP per MAC and ``mac2`` doubles it.  Pooling,
normalization, and rectification are not counted.  Normalization scale/shift
weights count as parameters.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .blocks import ADD_RELU, UNIT_OPS
from .model import ModelSpec, check_name, model_steps

CONVENTIONS = {"mac1": 1, "mac2": 2}  # FLOPs counted per multiply-accumulate


@dataclass
class CostRow:
    layer_id: str
    kind: str
    out_extents: tuple | None   # (c, t, h, w) or None for geometry-free rows
    params: int = 0
    macs: int = 0


@dataclass
class CostReport:
    label: str
    convention: str = next(iter(CONVENTIONS))
    clip_len: int | None = None
    rows: list[CostRow] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_flops(self) -> int:
        return self.total_macs * CONVENTIONS[self.convention]


def _step_rows(name: str, op: str, layer, in_shape, out_shape) -> list:
    """Cost rows of one step of ``model_steps``, given its input shape."""
    if op in UNIT_OPS:  # conv+bn(+relu)
        n, c, t, h, w = out_shape
        return [CostRow(name, "conv", (c, t, h, w),
                        params=layer.weight_count + 2 * layer.out_channels,
                        macs=layer.weight_count * n * t * h * w)]
    if op in ("maxpool", ADD_RELU):  # ADD_RELU: a block's residual join
        return [CostRow(name, op, out_shape[1:])]
    n, c, t, _, _ = in_shape  # the head
    return [CostRow("head.avgpool", "avgpool", (c, t, 1, 1)),
            CostRow("head.fc", "linear", (1, t, 1, 1), params=c + 1,
                    macs=n * t * c),
            CostRow("head.avgpool_t", "avgpool", (1, 1, 1, 1))]


def count_params(spec: ModelSpec) -> CostReport:
    """Parameter columns only; geometry-independent."""
    report = CostReport(label=spec.config.model_kind)
    # the count_flops rows that hold parameters, without their geometry
    report.rows = [CostRow(row.layer_id, row.kind, None, row.params)
                   for row in count_flops(spec).rows if row.params]
    return report


def count_flops(spec: ModelSpec, input_geometry=None,
                convention: str = CostReport.convention) -> CostReport:
    """Per-layer parameter and MAC accounting for a full model.

    One map over ``model.model_steps``, the steps the forward runs.
    ``input_geometry`` is checked like a clip by ``model_plan``.  Each row's
    ``out_extents`` is the layer's output ``(c, t, h, w)``; a block's ``sum``
    row holds the block output.
    """
    check_name("convention", convention, CONVENTIONS)
    report = CostReport(label=spec.config.model_kind, convention=convention,
                        clip_len=spec.config.clip_len)
    in_shape = None
    for name, op, layer, _, out_shape in model_steps(spec, input_geometry):
        report.rows += _step_rows(name, op, layer, in_shape, out_shape)
        in_shape = out_shape
    return report


def _text_table(header, rows) -> str:
    """Columns padded to their widest entry, two spaces apart."""
    widths = [max(len(row[i]) for row in [header, *rows])
              for i in range(len(header))]
    lines = ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip()
             for row in [header, *rows]]
    return "\n".join(lines) + "\n"


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# the output formats: each writes a header and rows of strings; the first is
# the default
TABLE_FORMATS = {"text": _text_table, "csv": _csv_table}


def emit_cost_table(reports: list[CostReport], format: str) -> str:
    """Summary table, one row per report, in the order given."""
    if not reports:
        raise ValueError("emit_cost_table needs at least one report")
    check_name("format", format, TABLE_FORMATS)
    header = ("model", "params_M", "flops_G", "convention", "clip_len")
    table = [(r.label, f"{r.total_params / 1e6:.1f}",
              f"{r.total_flops / 1e9:.2f}", r.convention,
              str(r.clip_len if r.clip_len is not None else ""))
             for r in reports]
    return TABLE_FORMATS[format](header, table)
