"""Analytic cost accounting against hand formulas and the execution counter."""

import csv
import io
from fractions import Fraction

import numpy as np
import pytest

from dmsn import blocks
from dmsn.blocks import RunState
from dmsn.cli import main
from dmsn.complexity import count_flops, count_params, emit_cost_table
from dmsn.model import (ModelConfig, build_model, forward_with_state,
                        init_params, param_shapes)
from dmsn.ops import MacCounter, ShapeError


class TestCountParams:
    def test_pointwise_conv_row(self):
        report = count_params(build_model(ModelConfig()))
        rows = {r.layer_id: r for r in report.rows}
        # res2.1's reduce conv 64->64 pointwise: 4096 weights + 128 norm params
        assert rows["res2.1.reduce"].params == 64 * 64 + 2 * 64

    def test_stem_conv_weight_count(self):
        spec = build_model(ModelConfig())
        report = count_params(spec)
        conv1 = next(r for r in report.rows if r.layer_id == "conv1")
        assert conv1.params == 343 * 3 * 64 + 2 * 64
        assert conv1.params - 2 * 64 == 65856

    def test_totals_equal_sum_of_rows(self):
        report = count_params(build_model(ModelConfig()))
        assert report.total_params == sum(r.params for r in report.rows)

    def test_parameter_budgets_and_family_ordering(self):
        totals = {}
        for kind, target in (("dmsn-a", 19.0e6), ("dmsn-b", 23.6e6),
                             ("dmsn-c", 25.9e6), ("dmsn", 22.1e6)):
            total = count_params(build_model(ModelConfig(model_kind=kind))
                                 ).total_params
            totals[kind] = total
            assert abs(total / target - 1) < 0.08, (kind, total)
        assert totals["dmsn-a"] < totals["dmsn"] < totals["dmsn-b"] \
            < totals["dmsn-c"]

    def test_headline_decomposes_into_weights_norm_and_head(self):
        spec = build_model(ModelConfig())
        report = count_params(spec)
        sizes = {name: int(np.prod(shape))
                 for name, shape in param_shapes(spec).items()}
        weight_total = sum(size for name, size in sizes.items()
                           if name.endswith(".w") and name != "head.fc.w")
        norm_total = sum(size for name, size in sizes.items()
                         if name.endswith((".scale", ".shift")))
        assert report.total_params == weight_total + norm_total \
            + spec.head_channels + 1


class TestCountFlops:
    def test_pointwise_example_macs(self):
        # 64->128 pointwise over an 8x28x28 grid: 8192 * 6272 MACs
        spec = build_model(ModelConfig())
        report = count_flops(spec)
        row = next(r for r in report.rows if r.layer_id == "res2.2.reduce")
        assert row.macs == 8192 * 6272

    def test_mac2_doubles(self):
        spec = build_model(ModelConfig())
        assert count_flops(spec, convention="mac2").total_flops == \
            2 * count_flops(spec, convention="mac1").total_flops

    def test_linear_in_batch(self):
        spec = build_model(ModelConfig())
        one = count_flops(spec, input_geometry=(1, 3, 16, 112, 112))
        four = count_flops(spec, input_geometry=(4, 3, 16, 112, 112))
        assert four.total_macs == 4 * one.total_macs

    def test_list_geometry_counts_like_the_tuple(self):
        spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                       width_multiplier=Fraction(1, 8)))
        assert count_flops(spec, [2, 3, 8, 32, 32]).rows == \
            count_flops(spec, (2, 3, 8, 32, 32)).rows

    @pytest.mark.parametrize("geometry", [(1, 4, 16, 112, 112), (1, 3)])
    def test_geometry_checked_like_a_clip(self, geometry):
        with pytest.raises(ShapeError, match=r"\(n, 3, 16, 112, 112\)"):
            count_flops(build_model(ModelConfig()), input_geometry=geometry)

    @pytest.mark.parametrize("batch", [0, -1, 2.5])
    def test_batch_extent_must_be_a_positive_integer(self, batch):
        spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                       width_multiplier=Fraction(1, 8)))
        with pytest.raises(ShapeError, match=r"\(n, 3, 8, 32, 32\)"):
            count_flops(spec, (batch, 3, 8, 32, 32))

    def test_exact_clip_len_proportionality(self):
        totals = [count_flops(build_model(ModelConfig(clip_len=f))).total_macs
                  for f in (8, 16, 24, 32)]
        assert [t / totals[0] for t in totals] == [1.0, 2.0, 3.0, 4.0]
        per_row8 = count_flops(build_model(ModelConfig(clip_len=8)))
        per_row16 = count_flops(build_model(ModelConfig(clip_len=16)))
        for r8, r16 in zip(per_row8.rows, per_row16.rows):
            if r8.macs:
                assert r16.macs == 2 * r8.macs, r8.layer_id

    def test_flop_totals_within_reference_windows(self):
        # the per-model ordering A < dmsn < B < C emerges from the block mix
        totals = {}
        for kind, target in (("dmsn-a", 10.26e9), ("dmsn-b", 10.83e9),
                             ("dmsn-c", 11.53e9), ("dmsn", 11.29e9)):
            total = count_flops(build_model(ModelConfig(model_kind=kind))
                                ).total_flops
            totals[kind] = total
            assert abs(total / target - 1) < 0.30, (kind, total)
        assert totals["dmsn-a"] < totals["dmsn"]
        assert totals["dmsn"] < totals["dmsn-c"]
        assert totals["dmsn-b"] < totals["dmsn-c"]

    def test_branch_sweep_strictly_increasing(self):
        params, flops = [], []
        for branches in (2, 3, 4):
            spec = build_model(ModelConfig(branch_count=branches))
            report = count_flops(spec)
            params.append(report.total_params)
            flops.append(report.total_flops)
        assert params[0] < params[1] < params[2]
        assert flops[0] < flops[1] < flops[2]
        for got, want in zip(params, (18.0e6, 20.1e6, 22.1e6)):
            assert abs(got / want - 1) < 0.08
        for got, want in zip(flops, (9.64e9, 10.48e9, 11.29e9)):
            assert abs(got / want - 1) < 0.30

    def test_matches_instrumented_forward_exactly(self):
        clip = np.random.default_rng(0).normal(size=(2, 3, 8, 32, 32))
        for kind in ("dmsn", "dmsn-a", "dmsn-b", "dmsn-c"):
            for branches in (2, 3, 4):
                config = ModelConfig(model_kind=kind, clip_len=8,
                                     input_size=(32, 32),
                                     branch_count=branches,
                                     width_multiplier=Fraction(1, 8))
                spec = build_model(config)
                params = init_params(spec, seed=0)
                counter = MacCounter()
                state = RunState(mode="eval", counter=counter, cache={})
                forward_with_state(spec, params, clip, state)
                analytic = count_flops(spec, input_geometry=clip.shape)
                assert counter.macs == analytic.total_macs, (kind, branches)
                for row in analytic.rows:
                    if row.kind == "conv":
                        _, (normalized, _, _), _ = state.cache[row.layer_id]
                        got = normalized.shape
                    elif row.kind == "add+relu":
                        got = state.cache[row.layer_id].shape
                    else:
                        continue
                    assert got == (2,) + row.out_extents, \
                        (kind, branches, row.layer_id)


def test_units_run_in_cost_row_order(monkeypatch):
    # the forward walk and count_flops read one step list, so the conv rows
    # name every unit the forward runs, in the order it runs them
    spec = build_model(ModelConfig(clip_len=8, input_size=(32, 32),
                                   width_multiplier=Fraction(1, 8)))
    params = init_params(spec, seed=0)
    clip = np.random.default_rng(0).normal(size=(2, 3, 8, 32, 32))
    ran = []
    unit_forward = blocks.unit_forward

    def spy(name, *args):
        ran.append(name)
        return unit_forward(name, *args)

    monkeypatch.setattr(blocks, "unit_forward", spy)
    forward_with_state(spec, params, clip, RunState(mode="eval"))
    rows = count_flops(spec, clip.shape).rows
    assert ran == [row.layer_id for row in rows if row.kind == "conv"]


@pytest.mark.parametrize("argv, config", [
    ([], ModelConfig()),
    (["--model", "dmsn-b", "--branches", "3", "--frames", "8"],
     ModelConfig(model_kind="dmsn-b", branch_count=3, clip_len=8))])
def test_described_units_and_joins_are_cost_rows(capsys, argv, config):
    # describe and the cost table name a block's units and its join alike
    assert main(["describe", "--detail", *argv]) == 0
    named = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ") and not line.endswith(" identity")]
    rows = {row.layer_id for row in count_flops(build_model(config)).rows}
    assert "res2.1.sum" in named and set(named) <= rows


class TestEmitTable:
    def make_reports(self):
        reports = []
        for kind in ("dmsn-a", "dmsn-b", "dmsn-c", "dmsn"):
            reports.append(count_flops(build_model(ModelConfig(model_kind=kind))))
        return reports

    def test_text_rows_in_given_order(self):
        text = emit_cost_table(self.make_reports(), format="text")
        lines = text.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split()[:3] == ["model", "params_M", "flops_G"]
        assert [ln.split()[0] for ln in lines[1:]] == \
            ["dmsn-a", "dmsn-b", "dmsn-c", "dmsn"]

    def test_params_printed_in_millions_one_decimal(self):
        text = emit_cost_table(self.make_reports(), format="text")
        row = text.strip().splitlines()[1].split()
        assert row[1] == "19.1"

    def test_csv_roundtrips_through_parser(self):
        out = emit_cost_table(self.make_reports(), format="csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["model", "params_M", "flops_G", "convention",
                           "clip_len"]
        assert len(rows) == 5
        assert rows[4][0] == "dmsn" and rows[4][4] == "16"

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            emit_cost_table([], format="text")
