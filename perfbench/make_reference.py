#!/usr/bin/env python3
"""Regenerate ``eval_reference.json``, the stored scores ``eval-full`` checks.

Run from the repository root with ``python3 perfbench/make_reference.py``.
Only regenerate when the library's intended output changes; a speed change
must pass against the stored scores as they are.
"""

from __future__ import annotations

import json
import sys

import run

POOL_SEED = 20220322
POOL_SIZE = 8
PARAM_SEED = 0
CLIP_SHAPE = [3, 16, 112, 112]
# share of the scores' RMS; see workloads.score_tolerance
RELATIVE_TOLERANCE = 1e-4


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    import machine
    import workloads
    from dmsn import model

    reference = {"pool_seed": POOL_SEED, "pool_size": POOL_SIZE,
                 "clip_shape": CLIP_SHAPE, "param_seed": PARAM_SEED,
                 "relative_tolerance": RELATIVE_TOLERANCE}
    spec = model.build_model(model.ModelConfig(seed=PARAM_SEED))
    params = model.init_params(spec)
    pool = workloads.eval_pool(reference)
    reference["scores"] = [
        float(model.model_forward(spec, params, clip[None], mode="eval")[0])
        for clip in pool]
    reference["machine"] = machine.describe()
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_FILE}: {reference['scores']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
