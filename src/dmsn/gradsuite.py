"""Central finite-difference gradient checking, and the verification suites
over layers, blocks, and the model that use it.

Each suite item pairs a readable name with a :class:`GradCheckReport`; the CLI
``gradcheck`` command and the acceptance tests both run these.  Everything is
float64 and micro-sized so the full set finishes in well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .blocks import (BlockSpec, RunState, block_backward, block_forward,
                     block_graph, unit_param_shapes)
from .model import (ModelConfig, backward_from_cache, build_model,
                    forward_with_state, init_bundle, init_params)
from .ops import (ConvLayerSpec, avgpool_spatial, avgpool_spatial_backward,
                  batchnorm_backward, batchnorm_forward, conv3d_backward,
                  conv3d_forward, linear_backward, linear_forward, maxpool3d,
                  maxpool3d_backward, relu_backward, relu_forward)

REL_FLOOR = 1e-12
THRESHOLD = 1e-4  # a check passes below this worst relative error


@dataclass
class GradCheckReport:
    """Worst-case errors over all probes plus an overall verdict."""

    max_rel_error: float = field(default=0.0, init=False)
    max_abs_error: float = field(default=0.0, init=False)
    worst_param: str = field(default="", init=False)
    probes: int = field(default=0, init=False)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < THRESHOLD

    def record(self, name: str, rel: float, abs_err: float) -> None:
        if rel > self.max_rel_error:
            self.max_rel_error = rel
            self.worst_param = name
        self.max_abs_error = max(self.max_abs_error, abs_err)
        self.probes += 1

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}: max_rel={self.max_rel_error:.3e} "
                f"max_abs={self.max_abs_error:.3e} "
                f"worst={self.worst_param or '-'} probes={self.probes}")


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_FLOOR)


def grad_check(forward_fn, params: dict[str, np.ndarray],
               analytic_grads: dict[str, np.ndarray], probe_count: int = 12,
               epsilon: float = 1e-5, *, seed: int) -> GradCheckReport:
    """Compare analytic gradients against central differences on random coordinates.

    ``forward_fn(params)`` maps a parameter bundle to a scalar loss.  Only the
    entries present in ``analytic_grads`` are probed, ``probe_count`` random
    coordinates each.  Parameters must be float64; central differences need
    the headroom.
    """
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise ValueError(f"grad_check needs float64 parameters; {name} is "
                             f"{arr.dtype}")

    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    for name in sorted(analytic_grads):
        size = params[name].size
        count = min(probe_count, size)
        coords = rng.choice(size, size=count, replace=False)
        for flat in coords:
            shifted = dict(params)
            bumped = params[name].copy()
            bumped.flat[flat] += epsilon
            shifted[name] = bumped
            loss_plus = float(forward_fn(shifted))
            bumped = params[name].copy()
            bumped.flat[flat] -= epsilon
            shifted[name] = bumped
            loss_minus = float(forward_fn(shifted))
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = float(analytic_grads[name].flat[flat])
            report.record(name, relative_error(analytic, numeric),
                          abs(analytic - numeric))
    return report


def _projected(seed, draw, forward, backward, /, **kw) -> GradCheckReport:
    """Check ``backward(p, r)`` against central differences of
    ``sum(forward(p) * r)``.

    ``draw(rng)`` gives the float64 parameters ``p`` from a generator seeded
    ``seed``, which then draws ``r`` with the shape of ``forward(p)``.
    ``backward`` gives the analytic gradients to probe.  The probes are
    seeded ``seed`` too unless ``kw`` names another.
    """
    rng = np.random.default_rng(seed)
    params = draw(rng)
    r = rng.normal(size=forward(params).shape)

    def loss(p):
        return float(np.sum(forward(p) * r))

    kw.setdefault("seed", seed)
    return grad_check(loss, params, analytic_grads=backward(params, r), **kw)


def _linear_params(rng):
    return {"x": rng.normal(size=(6, 5)), "w": rng.normal(size=(4, 5)),
            "b": rng.normal(size=(4,))}


def _linear_out(p):
    return linear_forward(p["x"], p["w"], p["b"])


def _linear_grads(p, r):
    return dict(zip("xwb", linear_backward(p["x"], p["w"], r)))


def _linear_grads_doubled_w(p, r):
    """The negative control: the linear gradients with ``w``'s doubled."""
    grads = _linear_grads(p, r)
    grads["w"] *= 2.0
    return grads


def _conv_case(seed, spec: ConvLayerSpec, x_shape, bias: bool,
               **kw) -> GradCheckReport:
    def draw(rng):
        p = {"x": rng.normal(size=x_shape),
             "w": rng.normal(size=spec.weight_shape)}
        if bias:
            p["b"] = rng.normal(size=(spec.out_channels,))
        return p

    def backward(p, r):
        grads = dict(zip("xw", conv3d_backward(p["x"], spec, p["w"], r)))
        if bias:
            grads["b"] = r.reshape(len(r), spec.out_channels, -1).sum(axis=(0, 2))
        return grads

    return _projected(
        seed, draw, lambda p: conv3d_forward(p["x"], spec, p["w"], p.get("b")),
        backward, **kw)


# the conv suites: (name, conv, input shape, with a bias)
CONV_SUITES = (
    ("layer conv3d", ConvLayerSpec(2, 3, (2, 3, 3), (1, 2, 1), (1, 1, 0)),
     (2, 2, 4, 6, 5), True),
    ("layer conv-temporal", ConvLayerSpec(3, 2, (3, 1, 1), (1, 1, 1), (1, 0, 0)),
     (2, 3, 5, 4, 4), False),
    ("layer conv-spatial", ConvLayerSpec(3, 2, (1, 3, 3), (1, 1, 1), (0, 1, 1)),
     (2, 3, 3, 6, 6), False),
)


def check_batchnorm(seed) -> GradCheckReport:
    def forward(p):  # (y, running mean, running var, cache)
        return batchnorm_forward(p["x"], p["scale"], p["shift"], np.zeros(4),
                                 np.ones(4), "train")

    def backward(p, r):
        grads = batchnorm_backward(forward(p)[3], p["scale"], r)
        return dict(zip(("x", "scale", "shift"), grads))

    return _projected(
        seed, lambda rng: {"x": rng.normal(size=(3, 4, 3, 4, 4)),
                           "scale": rng.uniform(0.5, 1.5, size=4),
                           "shift": rng.normal(size=4)},
        lambda p: forward(p)[0], backward)


def check_relu(seed) -> GradCheckReport:
    def draw(rng):
        x = rng.normal(size=(2, 3, 4, 4, 4))
        return {"x": np.where(np.abs(x) < 0.05, 0.1, x)}  # probes off the kink

    def backward(p, r):
        return {"x": relu_backward(relu_forward(p["x"]), r)}

    return _projected(seed, draw, lambda p: relu_forward(p["x"]), backward)


def check_maxpool(seed) -> GradCheckReport:
    shape = (2, 2, 5, 7, 7)

    def backward(p, r):
        return {"x": maxpool3d_backward(r, p["x"], maxpool3d(p["x"]))}

    # every element: a dozen random probes can miss all of the pool's winners
    return _projected(seed, lambda rng: {"x": rng.normal(size=shape)},
                      lambda p: maxpool3d(p["x"]), backward,
                      probe_count=math.prod(shape))


def check_avgpool(seed) -> GradCheckReport:
    return _projected(
        seed, lambda rng: {"x": rng.normal(size=(2, 3, 4, 5, 5))},
        lambda p: avgpool_spatial(p["x"]),
        lambda p, r: {"x": avgpool_spatial_backward(r, 5, 5)})


def check_block(variant: str, seed) -> GradCheckReport:
    block = BlockSpec(variant, 8, 16, spatial_stride=1, branch_count=4)
    params = init_bundle(unit_param_shapes(block_graph(block)), seed)

    def draw(rng):
        return {**params, "input": rng.normal(size=(2, 8, 6, 6, 6))}

    def forward(p):
        return block_forward(block, p, p["input"], RunState(mode="train"))

    def backward(p, r):
        state = RunState(mode="train", cache={})
        block_forward(block, p, p["input"], state)
        gx, grads = block_backward(block, p, state.cache, r)
        return {**grads, "input": gx}

    # input and projection drawn from seed + 1, probes from seed; eps below
    # the relu-kink scale of the activations, well above roundoff
    return _projected(seed + 1, draw, forward, backward, seed=seed,
                      epsilon=3e-6, probe_count=4)


MICRO_CONFIG = ModelConfig(clip_len=8, input_size=(32, 32),
                           width_multiplier=Fraction(1, 8))

# one representative parameter per layer role across all stages and variants
MODEL_PROBE_NAMES = (
    "conv1.w", "conv1.scale",
    "res2.1.reduce.w", "res2.2.main2.w", "res2.3.branch3.w",
    "res3.1.proj.w", "res3.2.fuse.w", "res3.4.main1.shift",
    "res4.3.branch1.w", "res4.5.main3.w", "res4.6.fuse.scale",
    "res5.1.reduce.w", "res5.4.branch4.w",
    "head.fc.w", "head.fc.b",
)


def check_micro_model(seed) -> GradCheckReport:
    """Whole-model check in eval mode.

    Train-mode batch statistics feed 1/sigma back through 17 blocks, which
    makes the loss too ill-conditioned for finite differences at any usable
    epsilon; eval mode freezes the normalization and still exercises every
    layer's backward (the train-mode normalization backward is covered by the
    layer and block suites).
    """
    spec = build_model(MICRO_CONFIG)
    params = init_params(spec, seed=seed)
    rng = np.random.default_rng(seed + 1)
    clip = rng.normal(size=(2, 3, 8, 32, 32))
    r = rng.normal(size=(2,))
    state = RunState(mode="eval", cache={})
    forward_with_state(spec, params, clip, state)
    full = backward_from_cache(spec, params, state.cache, r)
    grads = {name: full[name] for name in MODEL_PROBE_NAMES}

    def loss(p):
        merged = {**params, **p}
        st = RunState(mode="eval")
        return float(forward_with_state(spec, merged, clip, st) @ r)

    probe = {name: params[name] for name in MODEL_PROBE_NAMES}
    return grad_check(loss, probe, analytic_grads=grads, probe_count=3,
                      seed=seed)


def run_gradient_suites(seed: int, inject_bug: bool):
    """All suites in order; returns ``[(name, GradCheckReport), ...]``.

    ``inject_bug`` doubles the linear layer's weight gradient before checking,
    as a negative control that the comparison actually bites.
    """
    linear = _linear_grads_doubled_w if inject_bug else _linear_grads
    suites = [
        ("layer linear", lambda seed: _projected(
            seed, _linear_params, _linear_out, linear)),
        *((name, partial(_conv_case, spec=conv, x_shape=shape, bias=bias))
          for name, conv, shape, bias in CONV_SUITES),
        ("layer batchnorm", check_batchnorm),
        ("layer relu", check_relu),
        ("layer maxpool", check_maxpool),
        ("layer avgpool", check_avgpool),
        *((f"block variant {v}", partial(check_block, v)) for v in "ABC"),
        ("micro model", check_micro_model),
    ]
    return [(name, check(seed)) for name, check in suites]
