#!/usr/bin/env python3
"""Run one or more workloads over several seeds and report run-to-run spread.

Run from the repository root::

    python3 perfbench/spread.py --workloads train-desk,eval-full,ckpt-io --seeds 10

Each run is a fresh ``run.py`` process at ``BENCHMARK.json``'s run length.
For every end-to-end metric it prints the median and the spread, which is
the distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median, next to the metric's bound.  The
raw values go to ``out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    (HERE / "out").mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if child.returncode != 0:
                print(f"{workload} seed {seed}: exit {child.returncode}")
                return 1
            result = json.loads(child.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output checks failed")
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            wall = time.perf_counter() - start
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1].items())
                + f" (run took {wall:.1f} s)", flush=True)
        with open(HERE / "out" / f"spread-{workload}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / metric["bound"])
            print(f"{workload} {metric['name']}: median {median:.5g} "
                  f"{metric['unit']}, spread {spread:.4f} "
                  f"(bound {metric['bound']}, {spread / metric['bound']:.2f} "
                  f"of it)")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
