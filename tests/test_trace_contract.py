"""The benchmark's per-layer tracer still sees the model's structure.

``perfbench/tracing.py`` times the library by wrapping its public functions
from outside, and ``perfbench/layers.py`` turns the spans into per-layer
metrics.  Both rely on the model calling ``blocks.block_forward`` /
``block_backward`` once per block with its prefix, and ``unit_forward`` /
``unit_backward`` for the stem, through names the tracer can replace.  A
refactor that keeps functions in tuples or closures, or stops calling them
per block, empties those metrics; these tests run one micro training step,
and one eval forward (the no-cache path ``eval-full`` times), under the
tracer and check they are still there.  The read-side I/O metrics
count the bytes of every ``tensorfile.tensor_from_stream`` call, so a
checkpoint round trip checks that loading still goes through it.  The
perfbench modules are only imported, never changed.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dmsn import complexity, model, tensorfile, training

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
import tracing  # noqa: E402


def test_micro_train_step_is_fully_traced():
    spec = model.build_model(model.ModelConfig(
        clip_len=8, input_size=(32, 32), width_multiplier=Fraction(1, 8)))
    params = model.init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    clips = rng.normal(size=(2, 3, 8, 32, 32)).astype(np.float32)
    labels = rng.uniform(0.0, 4.0, size=2)
    optimizer = training.init_optimizer("adam", 1e-3)
    flops = complexity.count_flops(spec, clips.shape)
    unit_macs = {row.layer_id: row.macs for row in flops.rows
                 if row.kind == "conv"}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(0, training.train_step, spec, params, clips, labels,
                      optimizer, "mse")
    finally:
        tracer.uninstall()
    metrics, _, mismatches, _ = layers.analyse(tracer.spans, unit_macs,
                                               flops.total_macs)

    assert mismatches == []
    assert tracing.leftover_wrappers() == []
    for stage in ("res2", "res3", "res4", "res5"):
        assert metrics[f"blocks.{stage}.fwd_ms"] > 0, stage
        assert metrics[f"blocks.{stage}.bwd_ms"] > 0, stage
    assert metrics["model.stem.fwd_ms"] > 0
    assert metrics["model.stem.bwd_ms"] > 0


def test_micro_eval_forward_is_fully_traced():
    spec = model.build_model(model.ModelConfig(
        clip_len=8, input_size=(32, 32), width_multiplier=Fraction(1, 8)))
    params = model.init_params(spec, seed=0)
    clip = np.random.default_rng(0).normal(
        size=(1, 3, 8, 32, 32)).astype(np.float32)
    flops = complexity.count_flops(spec, clip.shape)
    unit_macs = {row.layer_id: row.macs for row in flops.rows
                 if row.kind == "conv"}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_op(0, model.model_forward, spec, params, clip, "eval")
    finally:
        tracer.uninstall()
    metrics, _, mismatches, _ = layers.analyse(tracer.spans, unit_macs,
                                               flops.total_macs)

    assert mismatches == []
    assert tracing.leftover_wrappers() == []
    for stage in ("res2", "res3", "res4", "res5"):
        assert metrics[f"blocks.{stage}.fwd_ms"] > 0, stage
    assert metrics["model.stem.fwd_ms"] > 0


def test_checkpoint_reads_are_traced(tmp_path):
    spec = model.build_model(model.ModelConfig(
        clip_len=8, input_size=(32, 32), width_multiplier=Fraction(1, 8)))
    params = model.init_params(spec, seed=0)
    path = tmp_path / "model.ckpt"

    def round_trip():
        model.save_checkpoint(spec, params, path)
        return model.load_checkpoint(path)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, loaded = tracer.run_op(0, round_trip)
    finally:
        tracer.uninstall()
    metrics, _, mismatches, _ = layers.analyse(tracer.spans, {}, None)

    assert mismatches == []
    assert tracing.leftover_wrappers() == []
    assert loaded.keys() == params.keys()
    tensor_bytes = sum(tensorfile._HEADER.size + arr.nbytes
                       for arr in params.values())
    assert metrics["io.bytes_read_mb"] == pytest.approx(tensor_bytes / 1e6,
                                                        rel=1e-12)
    assert metrics["tensorfile.read.mb_s"] > 0
    assert metrics["model.load_checkpoint.ms"] > 0
    assert metrics["model.save_checkpoint.ms"] > 0
