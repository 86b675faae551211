"""A desk training run checked against values pinned at an earlier commit.

``tests/test_determinism.py`` compares BLAS thread counts within one commit;
these tests compare this commit with the one the pins were recorded at, so a
change that promises the same bytes is checked for them.  The run is the
benchmark's ``train-desk`` workload at seed 1: the ``dmsn`` model at width
1/8 with 4 branches on batches of 8 seeded synthetic 3x8x32x32 clips, Adam at
the ``pain`` schedule's first rate, MSE loss.

* The sha256 of every parameter (sorted by name) after 3 steps.
* The number of calls ``cProfile`` records over one warm step (the fourth):
  a proxy for the step's per-call cost, which bounds a desk step more than its
  arithmetic does.  Recorded as 39,066 before the desk step's gathers,
  conv geometry and ReLU mask were reworked and 32,624 after; the test
  asserts that the count stays at most the latter.

Both values belong to numpy 2.4.6 with OpenBLAS 0.3.31; on any other build
the tests skip.
"""

import cProfile
import hashlib
import pstats
from fractions import Fraction

import numpy as np
import pytest

from dmsn import model, pipeline, training

PINNED_BUILD = ("2.4.6", "0.3.31")
PARAMS_SHA256 = "102b1a6c179aa555f16b3e5c599cf3d3c5782dd1a839633195ba7822ef228868"
STEP_CALLS = 32_624

SEED = 1
CLIPS = 64
BATCH = 8
DESK_MODEL = dict(model_kind="dmsn", clip_len=8, input_size=(32, 32),
                  branch_count=4, width_multiplier=Fraction(1, 8))


def _build() -> tuple[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, ".".join(str(blas["version"]).split(".")[:3])


pytestmark = pytest.mark.skipif(
    _build() != PINNED_BUILD,
    reason=f"pinned on numpy {PINNED_BUILD[0]} with OpenBLAS "
           f"{PINNED_BUILD[1]}, this build is {_build()}")


def desk_steps(count: int):
    """Yield the parameters after each of ``count`` train-desk steps, on the
    batches the workload draws first."""
    spec = model.build_model(model.ModelConfig(seed=SEED, **DESK_MODEL))
    params = model.init_params(spec)
    data = pipeline.synth_generate(pipeline.SynthConfig(
        clip_count=CLIPS, clip_len=DESK_MODEL["clip_len"], height=32,
        width=32, subjects=4, seed=SEED))
    clips, labels = np.stack(data.clip_arrays()), data.labels()
    optimizer = training.init_optimizer(
        "adam", training.lr_at(training.SCHEDULES["pain"], 0))
    order = np.random.default_rng(SEED).permutation(CLIPS)
    for i in range(count):
        batch = order[i * BATCH:(i + 1) * BATCH]
        params, _ = training.train_step(spec, params, clips[batch],
                                        labels[batch], optimizer, "mse")
        yield params


def params_sha256(params: dict) -> str:
    digest = hashlib.sha256()
    for name in sorted(params):
        digest.update(np.ascontiguousarray(params[name]).tobytes())
    return digest.hexdigest()


def warm_step_calls() -> int:
    steps = desk_steps(4)
    for _ in range(3):
        next(steps)
    profile = cProfile.Profile()
    profile.enable()
    next(steps)
    profile.disable()
    return pstats.Stats(profile).total_calls


def test_desk_params_after_three_adam_steps_keep_their_bytes():
    *_, params = desk_steps(3)
    assert params_sha256(params) == PARAMS_SHA256


def test_warm_desk_step_makes_no_more_calls_than_pinned():
    assert warm_step_calls() <= STEP_CALLS
