"""Check the result of a traced benchmark run.

Reads the output of ``perfbench/run.py ... --trace 1`` on stdin and parses
its last line, the run's JSON result.  The run passes when it is correct and
no operation failed, and, for each direction named on the command line
(``fwd``, ``bwd``), every stage's blocks and the stem have a per-layer time
above zero.  Prints the times it checks; exits 0 on a pass, 1 on a fail and
2 on an unknown direction.

    python3 perfbench/run.py --workload train-desk --seconds 2 --trace 1 \\
        | python3 .github/check_traced_run.py fwd bwd
"""

import json
import sys

PARTS = ("blocks.res2", "blocks.res3", "blocks.res4", "blocks.res5",
         "model.stem")
DIRECTIONS = ("fwd", "bwd")


def main(directions) -> int:
    unknown = set(directions) - set(DIRECTIONS)
    if unknown:
        print(f"unknown direction {sorted(unknown)}; valid: "
              f"{', '.join(DIRECTIONS)}", file=sys.stderr)
        return 2
    result = json.loads(sys.stdin.read().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    times = {f"{part}.{d}_ms": metrics.get(f"{part}.{d}_ms")
             for part in PARTS for d in directions}
    print(times)
    faults = [f"{name} is {value}" for name, value in times.items()
              if value is None or not value > 0]
    if result["correct"] is not True:
        faults.append(f"correct is {result['correct']}")
    if result["failed"] != 0:
        faults.append(f"{result['failed']} operations failed")
    for fault in faults:
        print(f"FAIL: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
