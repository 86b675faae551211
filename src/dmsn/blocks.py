"""Multiscale block construction and execution.

A block runs: pointwise reduce conv -> serial Main Stage -> one branch conv per
Main Stage tap -> channel concat in tap order -> pointwise fusion conv -> add
shortcut -> rectify.  The three variants differ in which domain (temporal vs
spatial) the Main Stage and the branches operate on:

* variant A: all-temporal Main Stage, spatial branches,
* variant B: alternating spatial/temporal Main Stage, branches in the
  complementary domain of their tap,
* variant C: all-spatial Main Stage, temporal branches.

Every conv is followed by batchnorm, and by a rectifier except the fusion conv
and the shortcut projection, whose sum is rectified once.

``block_graph`` lists a block's steps and ``model.model_plan`` the model's, in
one format; one forward walk and one reverse walk run both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from .ops import (ConvLayerSpec, MacCounter, ShapeError, avgpool_spatial,
                  avgpool_spatial_backward, batchnorm_backward,
                  batchnorm_eval_inplace, batchnorm_forward, concat_channels,
                  conv3d_backward, conv3d_forward, conv_output_shape,
                  linear_backward, linear_forward, maxpool3d,
                  maxpool3d_backward, relu_backward, relu_forward,
                  split_channels)

VARIANTS = ("A", "B", "C")
BRANCH_COUNTS = range(2, 5)
TEMPORAL, SPATIAL = "t", "s"


class BlockConfigError(ValueError):
    """Channel arithmetic or variant selection that cannot be realized."""


class ParamLookupError(KeyError):
    """A layer id has no entry in the parameter bundle."""


def hash_once(spec) -> int:
    """``__hash__`` for a frozen spec: the generated field hash, computed on
    the first call and kept, since the plan caches hash on every lookup."""
    value = spec.__dict__.get("_hash")
    if value is None:
        value = hash(tuple(getattr(spec, f.name) for f in fields(spec)))
        object.__setattr__(spec, "_hash", value)
    return value


@dataclass(frozen=True)
class BlockSpec:
    variant: str
    in_channels: int
    out_channels: int
    mid_channels: int
    spatial_stride: int
    branch_count: int
    reduce: ConvLayerSpec
    main_stage: tuple[ConvLayerSpec, ...]
    branches: tuple[tuple[int, ConvLayerSpec], ...]  # (1-based tap, conv)
    fusion: ConvLayerSpec
    shortcut: ConvLayerSpec | None  # None = identity

    __hash__ = hash_once


def main_kind(variant: str, position: int) -> str:
    """Domain of the Main Stage element at a 1-based position."""
    if variant == "A":
        return TEMPORAL
    if variant == "C":
        return SPATIAL
    return SPATIAL if position % 2 == 1 else TEMPORAL


def branch_kind(variant: str, tap: int) -> str:
    """Domain of the branch conv applied at a 1-based tap."""
    if variant == "A":
        return SPATIAL
    if variant == "C":
        return TEMPORAL
    return TEMPORAL if tap % 2 == 1 else SPATIAL


def _conv_for(kind: str, in_c: int, out_c: int) -> ConvLayerSpec:
    if kind == TEMPORAL:
        return ConvLayerSpec(in_c, out_c, (3, 1, 1), (1, 1, 1), (1, 0, 0))
    return ConvLayerSpec(in_c, out_c, (1, 3, 3), (1, 1, 1), (0, 1, 1))


def _split_widths(total: int, parts: int) -> tuple[int, ...]:
    base, rem = divmod(total, parts)
    return tuple(base + (1 if j < rem else 0) for j in range(parts))


def build_block(variant: str, in_channels: int, out_channels: int,
                spatial_stride: int, branch_count: int) -> BlockSpec:
    """Construct a block spec for one variant.

    ``mid_channels = out_channels / 2``; the first Main Stage conv halves that,
    branch widths split ``mid_channels`` evenly across the branches (near-even
    when the count does not divide, so the concat width stays ``mid_channels``).
    """
    if variant not in VARIANTS:
        raise BlockConfigError(f"unknown variant {variant!r}; expected one of "
                               f"{VARIANTS}")
    if branch_count not in BRANCH_COUNTS:
        raise BlockConfigError(f"branch_count must be {BRANCH_COUNTS[0]}.."
                               f"{BRANCH_COUNTS[-1]}, got {branch_count}")
    if spatial_stride not in (1, 2):
        raise BlockConfigError(f"spatial_stride must be 1 or 2, got {spatial_stride}")
    if out_channels % 2:
        raise BlockConfigError(
            f"out_channels {out_channels} not divisible by 2 (mid width)")
    mid = out_channels // 2
    if mid % 2:
        raise BlockConfigError(
            f"mid channels {mid} not divisible by 2 (main-stage width)")
    if mid < branch_count:
        raise BlockConfigError(
            f"mid channels {mid} cannot feed {branch_count} branches")
    half = mid // 2
    reduce = ConvLayerSpec(in_channels, mid, (1, 1, 1),
                           (1, spatial_stride, spatial_stride), (0, 0, 0))
    main = []
    for i in range(1, branch_count + 1):
        in_c = mid if i == 1 else half
        main.append(_conv_for(main_kind(variant, i), in_c, half))
    widths = _split_widths(mid, branch_count)
    branches = tuple(
        (j, _conv_for(branch_kind(variant, j), half, widths[j - 1]))
        for j in range(1, branch_count + 1))
    fusion = ConvLayerSpec(mid, out_channels, (1, 1, 1))
    if in_channels != out_channels or spatial_stride != 1:
        shortcut = ConvLayerSpec(in_channels, out_channels, (1, 1, 1),
                                 (1, spatial_stride, spatial_stride), (0, 0, 0))
    else:
        shortcut = None
    return BlockSpec(variant, in_channels, out_channels, mid, spatial_stride,
                     branch_count, reduce, tuple(main), branches, fusion,
                     shortcut)


@dataclass
class RunState:
    """Optional side channels threaded through forward passes."""

    mode: str                       # "train" | "eval"
    cache: dict | None = None       # layer id -> backward cache
    stats: dict | None = None       # updated batchnorm running stats
    counter: MacCounter | None = None


INPUT = "input"  # graph source naming the walk's input
# step ops: a batch-normalized conv unit, rectified or not, and the join
CONV_BN_RELU, CONV_BN, ADD_RELU = "conv+bn+relu", "conv+bn", "add+relu"
UNIT_OPS = (CONV_BN_RELU, CONV_BN)


@functools.lru_cache(maxsize=256)
def block_graph(spec: BlockSpec, prefix: str = "", x_shape=None) -> tuple:
    """A block's steps in execution order as ``(name, op, layer, sources,
    out_shape)``, the format the walks run.

    ``sources`` names what a step reads: ``INPUT`` or earlier steps, several
    of which are concatenated along channels in that order.  A conv unit's
    layer is its ConvLayerSpec; the fusion conv and the projection are not
    rectified.  The last step, ``{prefix}sum``, adds the fusion output and
    the shortcut (the block input, or ``proj``) and rectifies the sum.
    ``out_shape`` is the step's output shape for block input ``x_shape``, or
    None when no shape is given; a bad shape is rejected here, once.
    """
    if x_shape is not None and (len(x_shape) != 5 or min(x_shape) < 1
                                or x_shape[1] != spec.in_channels):
        raise ShapeError(f"block {prefix or spec.variant}: input shape "
                         f"{x_shape} is not 5-d (n, c, t, h, w) with "
                         f"{spec.in_channels} channels and no empty extent")
    steps, shapes = [], {INPUT: x_shape}

    def add(name, op, conv, *sources):
        out = shapes[sources[0]]
        if conv is not None and out is not None:
            out = conv_output_shape(out, conv)  # reads no input channels
        shapes[name] = out
        steps.append((name, op, conv, sources, out))
        return name

    tapped = [add(f"{prefix}reduce", CONV_BN_RELU, spec.reduce, INPUT)]
    for i, conv in enumerate(spec.main_stage, start=1):
        tapped.append(add(f"{prefix}main{i}", CONV_BN_RELU, conv, tapped[-1]))
    branches = [add(f"{prefix}branch{j}", CONV_BN_RELU, conv, tapped[tap])
                for j, (tap, conv) in enumerate(spec.branches, start=1)]
    fuse = add(f"{prefix}fuse", CONV_BN, spec.fusion, *branches)
    shortcut = INPUT if spec.shortcut is None else add(
        f"{prefix}proj", CONV_BN, spec.shortcut, INPUT)
    add(f"{prefix}sum", ADD_RELU, None, fuse, shortcut)
    return tuple(steps)


def unit_param_shapes(steps) -> dict[str, tuple]:
    """Shape of every bundle entry the conv units among ``steps`` read."""
    return {f"{name}.{key}": conv.weight_shape if key == "w"
            else (conv.out_channels,) for name, op, conv, _, _ in steps
            if op in UNIT_OPS for key in ("w", "scale", "shift", "mean", "var")}


def _param(params, key):
    try:
        return params[key]
    except KeyError:
        raise ParamLookupError(f"missing parameter entry {key!r}") from None


def unit_forward(name: str, conv: ConvLayerSpec, act: bool, params, x,
                 state: RunState):
    """Conv, batchnorm and, when ``act``, a rectifier.  The rectifier runs in
    place on the unit's own buffer, and so does an eval batchnorm that no
    cache keeps the input of."""
    y = conv3d_forward(x, conv, _param(params, f"{name}.w"),
                       counter=state.counter)
    bn = [_param(params, f"{name}.{key}")
          for key in ("scale", "shift", "mean", "var")]
    if state.mode == "eval" and state.cache is None:
        batchnorm_eval_inplace(y, *bn)
    else:
        y, new_mean, new_var, bn_cache = batchnorm_forward(y, *bn, state.mode)
        if state.mode == "train" and state.stats is not None:
            state.stats[f"{name}.mean"] = new_mean
            state.stats[f"{name}.var"] = new_var
    if act:
        relu_forward(y, out=y)
    if state.cache is not None:
        state.cache[name] = (x, bn_cache, y if act else None)
    return y


def unit_backward(name: str, conv: ConvLayerSpec, act: bool, params, cache,
                  grad, grads_out: dict, need_input_grad: bool):
    """The unit's backward; adds its parameter gradients to ``grads_out``,
    returns its input gradient and removes its ``cache`` entry."""
    x, bn_cache, out = cache.pop(name)
    if act:
        grad = relu_backward(out, grad)
    grad, gscale, gshift = batchnorm_backward(
        bn_cache, _param(params, f"{name}.scale"), grad)
    grads_out[f"{name}.scale"] = gscale
    grads_out[f"{name}.shift"] = gshift
    gx, grads_out[f"{name}.w"] = conv3d_backward(
        x, conv, _param(params, f"{name}.w"), grad, need_input_grad)
    return gx


def _walk_forward(graph, params, x: np.ndarray, state: RunState):
    """The one forward walk, for the model and every block: runs ``graph``'s
    steps on ``x`` and returns the last output, dropping each output once
    its last reader has run.  Blocks and conv units run through
    ``block_forward`` and ``unit_forward``, names a tracer can replace; the
    walks stay private, so such a tracer charges their own time to the
    block or model call that runs them."""
    last_reader = {s: name for name, _, _, sources, _ in graph
                   for s in sources}
    outs, cache = {INPUT: x}, state.cache
    for name, op, layer, sources, _ in graph:
        xs = [outs.pop(s) if last_reader[s] == name else outs[s]
              for s in sources]
        keep = None
        if op == "block":
            y = block_forward(layer, params, xs[0], state, name)
        elif op == ADD_RELU:
            y = keep = xs[0] + xs[1]
            relu_forward(y, out=y)
        elif op == "maxpool":
            y = maxpool3d(xs[0])
            keep = (xs[0], y)
        elif op == "head":
            n, c, t, h, w = xs[0].shape
            pooled = avgpool_spatial(xs[0])               # (n, c, t, 1, 1)
            flat = pooled[:, :, :, 0, 0].transpose(0, 2, 1).reshape(n * t, c)
            z = linear_forward(flat, _param(params, "head.fc.w"),
                               _param(params, "head.fc.b"), state.counter)
            y = z.reshape(n, t).mean(axis=1)
            keep = (flat, xs[0].shape)
        else:
            y = unit_forward(name, layer, op == CONV_BN_RELU, params,
                             xs[0] if len(xs) == 1 else concat_channels(xs),
                             state)
        if cache is not None and keep is not None:
            cache[name] = keep
        outs[name] = y
    return y


def _walk_back(graph, params, cache, start: str, grad: np.ndarray,
               need_input_grad: bool = True):
    """The one reverse walk, for the model and every block: backward from
    step ``start`` seeded with ``grad``, summing the gradients that reach
    each source; returns ``(grad_x, grads)`` and removes each cache entry it
    reads.  Without ``need_input_grad``, ``grad_x`` is None, not computed."""
    layers = {step[0]: step[2] for step in graph}
    grads: dict[str, np.ndarray] = {}
    pending = {start: grad}
    for name, op, layer, sources, _ in reversed(graph):
        g = pending.pop(name, None)
        if g is None:
            continue
        if op == "block":
            g, block_grads = block_backward(layer, params, cache, g, name)
            grads.update(block_grads)
        elif op == ADD_RELU:
            g = relu_backward(cache.pop(name), g)
        elif op == "maxpool":
            g = maxpool3d_backward(g, *cache.pop(name))
        elif op == "head":
            flat, (n, c, t, h, w) = cache.pop(name)
            if g.shape != (n,):
                raise ShapeError(f"grad_scores shape {g.shape}, expected ({n},)")
            gz = np.repeat(g / t, t).reshape(n * t, 1).astype(flat.dtype)
            gflat, grads["head.fc.w"], grads["head.fc.b"] = linear_backward(
                flat, _param(params, "head.fc.w"), gz)
            gpooled = gflat.reshape(n, t, c).transpose(0, 2, 1)
            g = avgpool_spatial_backward(gpooled[:, :, :, None, None], h, w)
        else:
            g = unit_backward(name, layer, op == CONV_BN_RELU, params, cache,
                              g, grads, need_input_grad or INPUT not in sources)
        if op in UNIT_OPS and len(sources) > 1:  # read concatenated
            parts = split_channels(g, [layers[s].out_channels for s in sources])
        else:  # the sum passes its gradient to both sources
            parts = [g] * len(sources)
        for source, part in zip(sources, parts):
            prev = pending.get(source)
            pending[source] = part if prev is None else prev + part
    return pending[INPUT], grads


def block_forward(spec: BlockSpec, params, x: np.ndarray,
                  state: RunState, prefix: str = "") -> np.ndarray:
    """Run one block; output channels = ``out_channels``, spatial extents
    divided by ``spatial_stride``."""
    return _walk_forward(block_graph(spec, prefix, x.shape), params, x, state)


def block_backward(spec: BlockSpec, params, cache, grad_y: np.ndarray,
                   prefix: str = ""):
    """Gradients through one block; returns ``(grad_x, grads)``.  Consumes
    the block's entries of ``cache``."""
    return _walk_back(block_graph(spec, prefix), params, cache,
                      f"{prefix}sum", grad_y)


def branch_input_gradient(spec: BlockSpec, params, x: np.ndarray, tap: int):
    """Gradient of one branch-output element (summed over channels) w.r.t. x.

    Runs the block in eval mode and walks back from ``branch{tap}`` seeded
    with a one-hot at its output center.  The nonzero support of the result
    is the branch's receptive field.
    """
    if not 1 <= tap <= spec.branch_count:
        raise BlockConfigError(f"tap {tap} out of range 1..{spec.branch_count}")
    state = RunState(mode="eval", cache={})
    block_forward(spec, params, x, state)
    name = f"branch{tap}"
    out = state.cache[name][2]  # the branch output
    grad = np.zeros_like(out)
    grad[:, :, out.shape[2] // 2, out.shape[3] // 2, out.shape[4] // 2] = 1.0
    return _walk_back(block_graph(spec), params, state.cache, name, grad)[0]


def describe_block(spec: BlockSpec, prefix: str) -> list[str]:
    """Human-readable per-layer listing: ids, kernel/stride/padding, channels."""
    lines = []
    *units, join = block_graph(spec, prefix)
    for name, op, conv, _, _ in units:
        kt, kh, kw = conv.kernel
        lines.append(f"{name:<24} {kt}x{kh}x{kw} s{conv.stride} p{conv.padding} "
                     f"{conv.in_channels}->{conv.out_channels} "
                     f"{op.removeprefix('conv')}")
    if spec.shortcut is None:
        lines.append(f"{prefix + 'shortcut':<24} identity")
    lines.append(f"{join[0]:<24} add shortcut, relu "
                 f"-> {spec.out_channels} channels")
    return lines
