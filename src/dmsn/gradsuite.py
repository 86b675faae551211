"""Finite-difference verification suites over layers, blocks, and the model.

Each suite item pairs a readable name with a :class:`GradCheckReport`; the CLI
``gradcheck`` command and the acceptance tests both run these.  Everything is
float64 and micro-sized so the full set finishes in well under a minute.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .blocks import (RunState, block_backward, block_forward,
                     block_param_shapes, build_block)
from .gradcheck import GradCheckReport, grad_check
from .model import (ModelConfig, backward_from_cache, build_model,
                    forward_with_state, init_bundle, init_params)
from .ops import (ConvLayerSpec, avgpool_spatial, avgpool_spatial_backward,
                  batchnorm_backward, batchnorm_forward, conv3d_backward,
                  conv3d_forward, linear_backward, linear_forward, maxpool3d,
                  maxpool3d_backward, relu_backward, relu_forward)


def _proj(rng, shape):
    return rng.normal(size=shape)


def _linear_case(seed):
    """``(loss, params, analytic_grads)`` for one projected linear layer."""
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=(6, 5)), "w": rng.normal(size=(4, 5)),
              "b": rng.normal(size=(4,))}
    r = _proj(rng, (6, 4))

    def loss(p):
        return float(np.sum(linear_forward(p["x"], p["w"], p["b"]) * r))

    gx, gw, gb = linear_backward(params["x"], params["w"], r)
    return loss, params, {"x": gx, "w": gw, "b": gb}


def check_linear(seed=0, **kw) -> GradCheckReport:
    loss, params, grads = _linear_case(seed)
    return grad_check(loss, params, analytic_grads=grads, seed=seed, **kw)


def _conv_case(seed, spec: ConvLayerSpec, x_shape, **kw) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=x_shape),
              "w": rng.normal(size=spec.weight_shape)}
    if spec.has_bias:
        params["b"] = rng.normal(size=(spec.out_channels,))
    y0 = conv3d_forward(params["x"], spec, params["w"], params.get("b"))
    r = _proj(rng, y0.shape)

    def loss(p):
        return float(np.sum(conv3d_forward(p["x"], spec, p["w"], p.get("b")) * r))

    gx, gw, gb = conv3d_backward(params["x"], spec, params["w"], r)
    grads = {"x": gx, "w": gw}
    if spec.has_bias:
        grads["b"] = gb
    return grad_check(loss, params, analytic_grads=grads, seed=seed, **kw)


def check_conv_general(seed=0, **kw) -> GradCheckReport:
    spec = ConvLayerSpec(2, 3, (2, 3, 3), (1, 2, 1), (1, 1, 0), has_bias=True)
    return _conv_case(seed, spec, (2, 2, 4, 6, 5), **kw)


def check_conv_temporal(seed=0, **kw) -> GradCheckReport:
    spec = ConvLayerSpec(3, 2, (3, 1, 1), (1, 1, 1), (1, 0, 0))
    return _conv_case(seed, spec, (2, 3, 5, 4, 4), **kw)


def check_conv_spatial(seed=0, **kw) -> GradCheckReport:
    spec = ConvLayerSpec(3, 2, (1, 3, 3), (1, 1, 1), (0, 1, 1))
    return _conv_case(seed, spec, (2, 3, 3, 6, 6), **kw)


def check_batchnorm(seed=0, **kw) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    params = {"x": rng.normal(size=(3, 4, 3, 4, 4)),
              "scale": rng.uniform(0.5, 1.5, size=4),
              "shift": rng.normal(size=4)}
    rm, rv = np.zeros(4), np.ones(4)
    y0, _, _, cache = batchnorm_forward(params["x"], params["scale"],
                                        params["shift"], rm, rv, "train")
    r = _proj(rng, y0.shape)

    def loss(p):
        y, _, _, _ = batchnorm_forward(p["x"], p["scale"], p["shift"],
                                       rm, rv, "train")
        return float(np.sum(y * r))

    gx, gscale, gshift = batchnorm_backward(cache, params["scale"], r)
    return grad_check(loss, params, seed=seed,
                      analytic_grads={"x": gx, "scale": gscale,
                                      "shift": gshift}, **kw)


def check_relu(seed=0, **kw) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 4, 4, 4))
    x = np.where(np.abs(x) < 0.05, 0.1, x)  # keep probes off the kink
    r = _proj(rng, x.shape)

    def loss(p):
        return float(np.sum(relu_forward(p["x"]) * r))

    return grad_check(loss, {"x": x}, seed=seed,
                      analytic_grads={"x": relu_backward(x, r)}, **kw)


def check_maxpool(seed=0, **kw) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 5, 7, 7))
    y0, idx = maxpool3d(x)
    r = _proj(rng, y0.shape)

    def loss(p):
        y, _ = maxpool3d(p["x"])
        return float(np.sum(y * r))

    gx = maxpool3d_backward(r, idx, x.shape)
    return grad_check(loss, {"x": x}, analytic_grads={"x": gx}, seed=seed, **kw)


def check_avgpool(seed=0, **kw) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3, 4, 5, 5))
    r = _proj(rng, (2, 3, 4, 1, 1))

    def loss(p):
        return float(np.sum(avgpool_spatial(p["x"]) * r))

    gx = avgpool_spatial_backward(r, 5, 5)
    return grad_check(loss, {"x": x}, analytic_grads={"x": gx}, seed=seed, **kw)


def check_block(variant: str, seed=0, **kw) -> GradCheckReport:
    block = build_block(variant, 8, 16, spatial_stride=1, branch_count=4)
    shapes = block_param_shapes(block)
    params = init_bundle(shapes, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(2, 8, 6, 6, 6))
    state = RunState(mode="train", cache={})
    y0 = block_forward(block, params, x, state)
    r = _proj(rng, y0.shape)

    def loss(p):
        st = RunState(mode="train")
        inner = {k: v for k, v in p.items() if k != "input"}
        return float(np.sum(block_forward(block, inner, p["input"], st) * r))

    gx, grads = block_backward(block, params, state.cache, r)
    grads["input"] = gx
    probe = dict(params)
    probe["input"] = x
    # eps below the relu-kink scale of the activations, well above roundoff
    return grad_check(loss, probe, analytic_grads=grads, epsilon=3e-6,
                      probe_count=4, seed=seed, **kw)


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


def check_micro_model(seed=0, **kw) -> GradCheckReport:
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
    r = _proj(rng, (2,))
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
                      seed=seed, **kw)


def run_gradient_suites(seed: int = 0, inject_bug: bool = False,
                        threshold: float = 1e-4):
    """All suites in order; returns ``[(name, GradCheckReport), ...]``.

    ``inject_bug`` doubles one analytic gradient before checking, as a negative
    control that the comparison actually bites.
    """
    items = [
        ("layer linear", lambda: check_linear(seed, threshold=threshold)),
        ("layer conv3d", lambda: check_conv_general(seed, threshold=threshold)),
        ("layer conv-temporal",
         lambda: check_conv_temporal(seed, threshold=threshold)),
        ("layer conv-spatial",
         lambda: check_conv_spatial(seed, threshold=threshold)),
        ("layer batchnorm", lambda: check_batchnorm(seed, threshold=threshold)),
        ("layer relu", lambda: check_relu(seed, threshold=threshold)),
        ("layer maxpool", lambda: check_maxpool(seed, threshold=threshold)),
        ("layer avgpool", lambda: check_avgpool(seed, threshold=threshold)),
        ("block variant A", lambda: check_block("A", seed, threshold=threshold)),
        ("block variant B", lambda: check_block("B", seed, threshold=threshold)),
        ("block variant C", lambda: check_block("C", seed, threshold=threshold)),
        ("micro model", lambda: check_micro_model(seed, threshold=threshold)),
    ]
    results = []
    for name, run in items:
        report = run()
        if inject_bug and name == "layer linear":
            report = _with_injected_bug(seed, threshold)
        results.append((name, report))
    return results


def _with_injected_bug(seed: int, threshold: float) -> GradCheckReport:
    """:func:`check_linear` with the weight gradient doubled."""
    loss, params, grads = _linear_case(seed)
    grads["w"] = 2.0 * grads["w"]
    return grad_check(loss, params, analytic_grads=grads, seed=seed,
                      threshold=threshold)
