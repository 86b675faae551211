#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny run length (about a minute).

Run from the repository root with ``python3 perfbench/selftest.py``.  It
checks that:

1. traced and untraced runs of every workload give bitwise-identical losses
   and scores, and both pass their output checks;
2. no tracer wrapper remains in the library after a traced run;
3. every metric ``BENCHMARK.json`` names is emitted for every workload;
4. the ``eval-full`` score tolerance passes a float32 compute policy and
   fails a wrong (flipped) conv kernel;
5. in a directory holding only ``BENCHMARK.json`` and the benchmark, the
   command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

ROOT = run.HERE.parent


def _library_functions() -> dict:
    import tracing
    return {(m.__name__, k): v for m in tracing.library_modules()
            for k, v in vars(m).items() if callable(v)}


def check_traced_equals_untraced(bench: dict) -> list[str]:
    import numpy as np
    import harness
    import tracing
    import workloads
    problems = []
    before = _library_functions()
    for name in workloads.WORKLOADS:
        plain = harness.run_workload(name, 3, 0.0, False, min_timed_ops=3)
        traced = harness.run_workload(name, 3, 0.0, True)
        for label, result, wanted in (
                ("untraced", plain, bench["end_to_end"]),
                ("traced", traced, bench["per_layer"])):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {label}: output checks failed: "
                                f"{result['report']['check_failures']}")
            missing = {m["name"] for m in wanted} ^ set(result["metrics"])
            if missing:
                problems.append(f"{name} {label}: metric names differ: "
                                f"{sorted(missing)}")
        pairs = list(zip(plain["outputs"], traced["outputs"]))
        if len(pairs) < 4:
            problems.append(f"{name}: only {len(pairs)} operations compared")
        for i, (a, b) in enumerate(pairs):
            same = (a is None and b is None) or (
                np.asarray(a).tobytes() == np.asarray(b).tobytes())
            if not same:
                problems.append(f"{name}: operation {i} differs traced "
                                f"({b!r}) vs untraced ({a!r})")
                break
        print(f"  {name}: {len(pairs)} operations bitwise equal traced vs "
              f"untraced; ops.macs={traced['metrics']['ops.macs']['value']:.0f}")
    if tracing.leftover_wrappers():
        problems.append(f"wrappers left: {tracing.leftover_wrappers()}")
    after = _library_functions()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        problems.append(f"library references changed by tracing: {changed[:5]}")
    return problems


def check_tolerance() -> list[str]:
    import numpy as np
    import tracing
    import workloads
    from dmsn import model, ops

    wl = workloads.EvalFull()
    wl.setup(0)
    clip = wl.pool[:1]
    ref = wl.reference["scores"][0]
    original = ops.conv3d_forward

    def float32_conv(x, spec, weights, bias=None, counter=None):
        n, _, to, ho, wo = ops.conv_output_shape(x.shape, spec)
        xp = ops._pad5(x, spec.padding).astype(np.float32, copy=False)
        cols = ops._im2col(xp, spec.kernel, spec.stride, (to, ho, wo))
        out = cols @ weights.astype(np.float32).reshape(spec.out_channels, -1).T
        if counter is not None:
            counter.add(cols.shape[0] * cols.shape[1] * spec.out_channels)
        y = out.reshape(n, to, ho, wo, spec.out_channels).transpose(0, 4, 1, 2, 3)
        return np.ascontiguousarray(y, dtype=x.dtype)

    def flipped_conv(x, spec, weights, bias=None, counter=None):
        return original(x, spec, weights[:, :, ::-1, ::-1, ::-1], bias, counter)

    problems = []
    for label, kernel, should_pass in (("float32 compute", float32_conv, True),
                                       ("flipped kernel", flipped_conv, False)):
        patches = tracing.replace_everywhere({original: kernel})
        try:
            score = float(model.model_forward(wl.spec, wl.params, clip)[0])
        finally:
            tracing.restore(patches)
        error = abs(score - ref)
        passed = error <= wl.tolerance
        print(f"  {label}: |score - reference| = {error:.3g} "
              f"(tolerance {wl.tolerance:.3g}) -> {'pass' if passed else 'fail'}")
        if passed != should_pass:
            problems.append(f"tolerance {'rejects' if should_pass else 'accepts'} "
                            f"{label} (error {error:.3g})")
    return problems


def check_fails_without_library() -> list[str]:
    import workloads
    bare = workloads.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        child = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload",
             "eval-full", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"  bare directory: exit code {child.returncode}")
    if child.returncode == 0 or '"correct"' in child.stdout:
        return [f"bare directory run exited {child.returncode} with output "
                f"{child.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for title, check in (
            ("traced vs untraced, wrappers, metric names",
             lambda: check_traced_equals_untraced(bench)),
            ("eval-full tolerance", check_tolerance),
            ("run without the library", check_fails_without_library)):
        print(title)
        problems += check()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
