#!/usr/bin/env python3
"""Benchmark of the dmsn library: three workloads, checked outputs, metrics.

Run from the repository root::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own fresh process and merges the results, metric
names prefixed with the workload.  The library is imported from ``src/`` of
the checkout this file sits in; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 900


def pin_blas_threads() -> None:
    """Pin BLAS threads to the cores this process may use (before numpy loads)."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def import_library() -> None:
    """Put the checkout's ``src`` and this directory first on the path."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import dmsn
    except ImportError as exc:
        print(f"perfbench: cannot import dmsn from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(dmsn.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: dmsn resolved to {dmsn.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(result: dict) -> None:
    rep = result["report"]
    m = rep["machine"]
    print(f"perfbench workload={rep['workload']} seed={rep['seed']} "
          f"seconds={rep['seconds']} trace={rep['trace']}")
    print(f"machine: nproc={m['nproc']} blas='{m['blas']}' "
          f"blas_threads={m['blas_threads']} numpy={m['numpy']} "
          f"python={m['python']} l2_bytes={m['l2_bytes']} "
          f"l3_bytes={m['l3_bytes']}")
    print(f"dtypes: params={rep['dtypes']['params']} "
          f"activations={rep['dtypes']['activations']}")
    if rep["mac_check"]:
        print(f"mac check: MacCounter {rep['mac_check']['counted']} "
              f"count_flops {rep['mac_check']['count_flops']}")
    print(f"checks: attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={_fmt(rep['failed_frac'])}"
          + "".join(f"\n  failed: {note}" for note in rep["check_failures"]))
    n = rep["timed_ops"]
    if not rep["trace"]:
        p50 = result["metrics"]["op_ms.p50"]["value"]
        named = {
            "train-desk": [
                ("train_step_ms.p50", p50, "ms"),
                ("train_step_ms.p90", rep["op_ms.p90"], "ms"),
                ("train_clips_per_s", rep["clips_per_s"], "1/s")],
            "eval-full": [("eval_forward_s.p50", p50 / 1e3, "s")],
            "ckpt-io": [("io_save_s.p50", rep.get("io_save_s.p50"), "s"),
                        ("io_load_s.p50", rep.get("io_load_s.p50"), "s")],
        }[rep["workload"]]
        for name, value, unit in named:
            print(f"{name} = {_fmt(value)} {unit} (n={n})")
        print(f"op_ms.p90 = {_fmt(rep['op_ms.p90'])} ms "
              f"({rep['op_ms.beyond_p90']} samples beyond)")
    else:
        s = rep["trace_summary"]
        print(f"trace: {s['spans']} spans over {s['traced_ops']} traced ops; "
              f"untraced p50 {_fmt(s['untraced_op_ms.p50'])} ms, traced p50 "
              f"{_fmt(s['traced_op_ms.p50'])} ms, library self time p50 "
              f"{_fmt(s['library_self_ms.p50'])} ms")
    for name, entry in result["metrics"].items():
        print(f"{name} = {_fmt(entry['value'])} {entry['unit']}")


def run_all(args, workloads) -> int:
    """Each workload in a fresh child process, so no state leaks between them."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            print(f"perfbench: {workload} exited with {child.returncode}",
                  file=sys.stderr)
            return child.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    pin_blas_threads()
    import_library()
    import harness
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print_report(result)
    print(json.dumps({k: result[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
