"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the desk-scale learning criterion
(A8) is the long pole at a few minutes.
"""

import time
from fractions import Fraction

import numpy as np

from dmsn import cli
from dmsn.blocks import BlockSpec, RunState, branch_input_gradient
from dmsn.complexity import count_flops, count_params
from dmsn.gradsuite import run_gradient_suites
from dmsn.model import (ModelConfig, build_model, forward_with_state,
                        init_bundle, init_params)
from dmsn.blocks import block_graph, unit_param_shapes
from dmsn.ops import MacCounter, conv3d_forward
from dmsn.pipeline import (Clip, ClipDataset, SynthConfig,
                           aggregate_video_score, bdi_severity_band,
                           loso_splits, metric_mae, metric_mse, metric_rmse,
                           quantize_pspi, synth_generate)
from dmsn.training import TrainConfig, predict_scores, train

from helpers import naive_conv3d, random_conv_case

MICRO = ModelConfig(clip_len=8, input_size=(32, 32),
                    width_multiplier=Fraction(1, 8))


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


def test_a1_parameter_budgets():
    t0 = time.perf_counter()
    targets = {"dmsn-a": 19.0e6, "dmsn-b": 23.6e6, "dmsn-c": 25.9e6,
               "dmsn": 22.1e6}
    totals = {kind: count_params(build_model(ModelConfig(model_kind=kind))
                                 ).total_params
              for kind in targets}
    elapsed = time.perf_counter() - t0
    within = all(abs(totals[k] / targets[k] - 1) <= 0.08 for k in targets)
    ordered = (totals["dmsn-a"] < totals["dmsn"] < totals["dmsn-b"]
               < totals["dmsn-c"])
    detail = (" ".join(f"{k}={totals[k]/1e6:.2f}M" for k in targets)
              + f" ({elapsed:.2f}s)")
    _report("A1", within and ordered and elapsed < 1.0, detail)


def test_a2_branch_ablation():
    param_targets = (18.0e6, 20.1e6, 22.1e6)
    flop_targets = (9.64e9, 10.48e9, 11.29e9)
    params, flops = [], []
    for branches in (2, 3, 4):
        report = count_flops(build_model(ModelConfig(branch_count=branches)))
        params.append(report.total_params)
        flops.append(report.total_flops)
    ok = (all(abs(p / t - 1) <= 0.08 for p, t in zip(params, param_targets))
          and params[0] < params[1] < params[2]
          and all(abs(f / t - 1) <= 0.30 for f, t in zip(flops, flop_targets))
          and flops[0] < flops[1] < flops[2])
    detail = ("params " + "/".join(f"{p/1e6:.2f}M" for p in params)
              + " flops " + "/".join(f"{f/1e9:.2f}G" for f in flops))
    _report("A2", ok, detail)


def test_a3_flop_scaling():
    frame_targets = {8: 5.64e9, 16: 11.29e9, 24: 16.93e9, 32: 22.57e9}
    macs = {f: count_flops(build_model(ModelConfig(clip_len=f))).total_macs
            for f in frame_targets}
    ratios = [macs[f] / macs[8] for f in (8, 16, 24, 32)]
    ratios_ok = all(abs(r / k - 1) <= 0.01
                    for r, k in zip(ratios, (1, 2, 3, 4)))

    def worst_dev(factor):
        return max(abs(factor * macs[f] / frame_targets[f] - 1)
                   for f in frame_targets)

    convention = "mac1" if worst_dev(1) <= worst_dev(2) else "mac2"
    factor = 1 if convention == "mac1" else 2
    absolute_ok = worst_dev(factor) <= 0.30
    detail = (f"convention={convention} ratios="
              + "/".join(f"{r:.3f}" for r in ratios)
              + " totals=" + "/".join(f"{factor*macs[f]/1e9:.2f}G"
                                      for f in (8, 16, 24, 32)))
    _report("A3", ratios_ok and absolute_ok, detail)


def test_a4_stage_geometry(tmp_path, capsys):
    out = tmp_path / "describe.txt"
    code = cli.main(["describe", "--model", "dmsn", "--frames", "16",
                     "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    extents = {line.split()[0]: line.split()[-1] for line in lines[1:]}
    want = {"conv1": "16x56x56", "pool": "8x28x28",
            "res2.3": "8x28x28", "res3.4": "8x14x14",
            "res4.6": "8x7x7", "res5.4": "8x4x4", "head": "scalar"}
    ok = code == 0 and all(extents.get(k) == v for k, v in want.items())
    _report("A4", ok, " ".join(f"{k}={extents.get(k)}" for k in want))


def test_a5_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for picker in ({"temporal": True}, {"spatial": True}):
        for _ in range(100):
            spec, x, w = random_conv_case(rng, dtype=np.float32, **picker)
            fast = conv3d_forward(x, spec, w)
            direct = naive_conv3d(x, spec, w)
            worst = max(worst, float(np.abs(fast - direct).max()))
    elapsed = time.perf_counter() - t0
    _report("A5", worst < 1e-5 and elapsed < 30.0,
            f"200 cases max|diff|={worst:.2e} ({elapsed:.1f}s)")


def test_a6_gradient_suite():
    t0 = time.perf_counter()
    results = run_gradient_suites(seed=0, inject_bug=False)
    elapsed = time.perf_counter() - t0
    worst_name, worst = max(((name, rep.max_rel_error)
                             for name, rep in results), key=lambda kv: kv[1])
    ok = all(rep.passed for _, rep in results) and elapsed < 60.0
    _report("A6", ok, f"{len(results)} suites worst={worst:.2e} "
                      f"({worst_name}) ({elapsed:.1f}s)")


def test_a7_receptive_field_impulses():
    results = []
    for variant, axis_pack in (("A", (0, 1, 3, 4)), ("C", (0, 1, 2, 3))):
        block = BlockSpec(variant, 8, 16, 1, branch_count=4)
        params = init_bundle(unit_param_shapes(block_graph(block)), seed=21)
        for name in params:
            if name.endswith(".w"):
                params[name] = np.abs(params[name])
        rng = np.random.default_rng(22)
        shape = (1, 8, 16, 9, 9) if variant == "A" else (1, 8, 9, 16, 16)
        x = rng.uniform(0.5, 1.5, size=shape)
        supports = []
        for tap in (1, 2, 3, 4):
            grad = branch_input_gradient(block, params, x, tap)
            support = int(np.sum(np.abs(grad).max(axis=axis_pack) > 0))
            supports.append(support)
        results.append((variant, supports))
    ok = all(supports == [3, 5, 7, 9] for _, supports in results)
    _report("A7", ok, " ".join(f"{v}:{s}" for v, s in results))


def test_a8_desk_scale_learning():
    t0 = time.perf_counter()
    dataset = synth_generate(SynthConfig(clip_count=256, clip_len=8,
                                         height=32, width=32, subjects=8,
                                         seed=101))
    subjects = dataset.subjects()
    train_split = dataset.subset(subjects[:6])
    held_split = dataset.subset(subjects[6:])
    spec = build_model(MICRO)
    held_clips = held_split.clip_arrays()
    held_labels = held_split.labels()
    base_mae = metric_mae(predict_scores(spec, init_params(spec), held_clips,
                                         batch_size=8), held_labels)
    config = TrainConfig(optimizer="adam", schedule="pain", epochs=25,
                         max_steps=500, batch_size=8, seed=3)
    params, history = train(MICRO, train_split, config)
    trained_mae = metric_mae(predict_scores(spec, params, held_clips,
                                            batch_size=8), held_labels)
    elapsed = time.perf_counter() - t0
    ok = (len(history.steps) == 500 and trained_mae <= 0.5 * base_mae
          and elapsed < 600.0)
    _report("A8", ok, f"untrained MAE {base_mae:.3f} -> trained "
                      f"{trained_mae:.3f} (ratio {trained_mae/base_mae:.3f}, "
                      f"{elapsed:.0f}s)")


def test_a9_protocol_exactness():
    mapping_ok = [quantize_pspi(v) for v in range(16)] == \
        [0, 1, 2, 3, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]
    bands_ok = all(bdi_severity_band(s) == b for s, b in
                   ((0, "minimal"), (13, "minimal"), (14, "mild"),
                    (19, "mild"), (20, "moderate"), (28, "moderate"),
                    (29, "severe"), (63, "severe")))
    rng = np.random.default_rng(77)
    median_ok = True
    for _ in range(1000):
        scores = rng.normal(size=int(rng.integers(1, 10)))
        got = aggregate_video_score(scores)
        ordered = np.sort(scores)
        k = len(ordered)
        want = (ordered[k // 2] if k % 2
                else 0.5 * (ordered[k // 2 - 1] + ordered[k // 2]))
        shuffled = scores.copy()
        rng.shuffle(shuffled)
        median_ok &= (abs(got - want) < 1e-12
                      and got == aggregate_video_score(shuffled)
                      and ordered[0] <= got <= ordered[-1])
    loso_ok = True
    for _ in range(1000):
        count = int(rng.integers(2, 9))
        names = [f"s{i:02d}" for i in rng.permutation(count)]
        clips = [Clip(s, f"{s}-v", 0, 0.0) for s in names
                 for _ in range(int(rng.integers(1, 3)))]
        plan = loso_splits(ClipDataset(16, clips))
        tests = [t for _, (t,) in plan.folds]
        loso_ok &= (tests == sorted(set(names))
                    and all(set(tr) | {te[0]} == set(names)
                            and te[0] not in tr
                            for tr, te in plan.folds))
    metric_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        p, t = rng.normal(size=n), rng.normal(size=n)
        metric_ok &= metric_rmse(p, t) >= metric_mae(p, t) - 1e-12
        metric_ok &= abs(metric_rmse(p, t) ** 2 - metric_mse(p, t)) < 1e-12
    ok = mapping_ok and bands_ok and median_ok and loso_ok and metric_ok
    _report("A9", ok, f"quantize={mapping_ok} bands={bands_ok} "
                      f"median={median_ok} loso={loso_ok} rmse>=mae={metric_ok}")


def test_a10_complexity_execution_consistency():
    spec = build_model(MICRO)
    params = init_params(spec, seed=0)
    clip = np.random.default_rng(5).normal(size=(2, 3, 8, 32, 32))
    counter = MacCounter()
    forward_with_state(spec, params, clip, RunState(mode="eval",
                                                    counter=counter))
    analytic = count_flops(spec, input_geometry=(2, 3, 8, 32, 32)).total_macs
    _report("A10", counter.macs == analytic,
            f"measured={counter.macs} analytic={analytic}")
