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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (ConvLayerSpec, MacCounter, ShapeError, batchnorm_backward,
                  batchnorm_forward, concat_channels, conv3d_backward,
                  conv3d_forward, conv_output_shape, relu_backward,
                  relu_forward, split_channels)

VARIANTS = ("A", "B", "C")
TEMPORAL, SPATIAL = "t", "s"


class BlockConfigError(ValueError):
    """Channel arithmetic or variant selection that cannot be realized."""


class ParamLookupError(KeyError):
    """A layer id has no entry in the parameter bundle."""


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

    @property
    def branch_widths(self) -> tuple[int, ...]:
        return tuple(conv.out_channels for _, conv in self.branches)


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
                spatial_stride: int = 1, branch_count: int = 4) -> BlockSpec:
    """Construct a block spec for one variant.

    ``mid_channels = out_channels / 2``; the first Main Stage conv halves that,
    branch widths split ``mid_channels`` evenly across the branches (near-even
    when the count does not divide, so the concat width stays ``mid_channels``).
    """
    if variant not in VARIANTS:
        raise BlockConfigError(f"unknown variant {variant!r}; expected one of "
                               f"{VARIANTS}")
    if branch_count < 2 or branch_count > 4:
        raise BlockConfigError(f"branch_count must be 2..4, got {branch_count}")
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

    mode: str = "eval"
    cache: dict | None = None       # layer id -> backward cache
    stats: dict | None = None       # updated batchnorm running stats
    counter: MacCounter | None = None


INPUT = "input"  # plan source naming the block input


def block_plan(spec: BlockSpec, prefix: str = "") -> list[tuple]:
    """Conv units in execution order as ``(name, conv, act, source)``.

    ``source`` is ``INPUT``, the name of an earlier unit, or a tuple of unit
    names whose outputs are concatenated along channels in that order.  Every
    unit is batch-normalized; ``act`` says whether a rectifier follows.  The
    fusion output plus the shortcut (the block input, or ``proj`` when the
    block has a projection) is rectified once.
    """
    plan = [(f"{prefix}reduce", spec.reduce, True, INPUT)]
    for i, conv in enumerate(spec.main_stage, start=1):
        plan.append((f"{prefix}main{i}", conv, True, plan[-1][0]))
    branches = tuple(f"{prefix}branch{j}"
                     for j in range(1, spec.branch_count + 1))
    for name, (tap, conv) in zip(branches, spec.branches):
        plan.append((name, conv, True, f"{prefix}main{tap}"))
    plan.append((f"{prefix}fuse", spec.fusion, False, branches))
    if spec.shortcut is not None:
        plan.append((f"{prefix}proj", spec.shortcut, False, INPUT))
    return plan


def block_shapes(spec: BlockSpec, x_shape, prefix: str = "") -> dict:
    """Output shape of every plan unit, by name, for block input ``x_shape``."""
    shapes = {INPUT: x_shape}
    for name, conv, _, source in block_plan(spec, prefix):
        if isinstance(source, tuple):
            n, _, t, h, w = shapes[source[0]]
            in_shape = (n, sum(shapes[s][1] for s in source), t, h, w)
        else:
            in_shape = shapes[source]
        shapes[name] = conv_output_shape(in_shape, conv)
    return shapes


def _shortcut_source(spec: BlockSpec, prefix: str = "") -> str:
    """The plan value added to the fusion output before the final rectifier."""
    return INPUT if spec.shortcut is None else f"{prefix}proj"


def unit_param_shapes(name: str, conv: ConvLayerSpec) -> dict[str, tuple]:
    shapes = {f"{name}.w": conv.weight_shape}
    if conv.has_bias:
        shapes[f"{name}.b"] = (conv.out_channels,)
    c = (conv.out_channels,)
    shapes.update({f"{name}.scale": c, f"{name}.shift": c,
                   f"{name}.mean": c, f"{name}.var": c})
    return shapes


def block_param_shapes(spec: BlockSpec, prefix: str = "") -> dict[str, tuple]:
    shapes: dict[str, tuple] = {}
    for name, conv, _, _ in block_plan(spec, prefix):
        shapes.update(unit_param_shapes(name, conv))
    return shapes


def _param(params, key):
    try:
        return params[key]
    except KeyError:
        raise ParamLookupError(f"missing parameter entry {key!r}") from None


def unit_forward(name: str, conv: ConvLayerSpec, act: bool, params, x,
                 state: RunState):
    w = _param(params, f"{name}.w")
    b = _param(params, f"{name}.b") if conv.has_bias else None
    y = conv3d_forward(x, conv, w, b, state.counter)
    y, new_mean, new_var, bn_cache = batchnorm_forward(
        y, _param(params, f"{name}.scale"), _param(params, f"{name}.shift"),
        _param(params, f"{name}.mean"), _param(params, f"{name}.var"),
        state.mode)
    if state.mode == "train" and state.stats is not None:
        state.stats[f"{name}.mean"] = new_mean
        state.stats[f"{name}.var"] = new_var
    if state.cache is not None:
        state.cache[name] = (x, bn_cache, y if act else None)
    return relu_forward(y) if act else y


def unit_backward(name: str, conv: ConvLayerSpec, act: bool, params, cache,
                  grad, grads_out: dict, need_input_grad: bool = True):
    x, bn_cache, pre = cache[name]
    if act:
        grad = relu_backward(pre, grad)
    grad, gscale, gshift = batchnorm_backward(
        bn_cache, _param(params, f"{name}.scale"), grad)
    grads_out[f"{name}.scale"] = gscale
    grads_out[f"{name}.shift"] = gshift
    gx, gw, gb = conv3d_backward(x, conv, _param(params, f"{name}.w"), grad,
                                 need_input_grad)
    grads_out[f"{name}.w"] = gw
    if conv.has_bias:
        grads_out[f"{name}.b"] = gb
    return gx


def _accumulate(pending: dict, key: str, grad: np.ndarray) -> None:
    prev = pending.get(key)
    pending[key] = grad if prev is None else prev + grad


def block_forward(spec: BlockSpec, params, x: np.ndarray,
                  state: RunState | None = None, prefix: str = "") -> np.ndarray:
    """Run one block; output channels = ``out_channels``, spatial extents
    divided by ``spatial_stride``."""
    if state is None:
        state = RunState()
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"block {prefix or spec.variant}: input has "
                         f"{x.shape[1]} channels, expected {spec.in_channels}")
    outs = {INPUT: x}
    for name, conv, act, source in block_plan(spec, prefix):
        if isinstance(source, tuple):
            inp = concat_channels([outs[s] for s in source])
        else:
            inp = outs[source]
        outs[name] = unit_forward(name, conv, act, params, inp, state)
    pre = outs[f"{prefix}fuse"] + outs[_shortcut_source(spec, prefix)]
    if state.cache is not None:
        state.cache[f"{prefix}sum"] = pre
    return relu_forward(pre)


def block_backward(spec: BlockSpec, params, cache, grad_y: np.ndarray,
                   prefix: str = ""):
    """Gradients through one block; returns ``(grad_x, grads)``.

    Walks the plan in reverse and sums the gradients reaching each source.
    """
    grads: dict[str, np.ndarray] = {}
    g_sum = relu_backward(cache[f"{prefix}sum"], grad_y)
    pending = {f"{prefix}fuse": g_sum, _shortcut_source(spec, prefix): g_sum}
    plan = block_plan(spec, prefix)
    widths = {name: conv.out_channels for name, conv, _, _ in plan}
    for name, conv, act, source in reversed(plan):
        g = unit_backward(name, conv, act, params, cache, pending.pop(name),
                          grads)
        if isinstance(source, tuple):
            parts = split_channels(g, [widths[key] for key in source])
            for key, part in zip(source, parts):
                _accumulate(pending, key, part)
        else:
            _accumulate(pending, source, g)
    return pending[INPUT], grads


def branch_input_gradient(spec: BlockSpec, params, x: np.ndarray, tap: int):
    """Gradient of one branch-output element (summed over channels) w.r.t. x.

    Runs the plan units that lead from the block input to ``branch{tap}`` in
    eval mode and seeds the backward with a one-hot at the output center.  The
    nonzero support of the result is the branch's receptive field.
    """
    chain = _branch_path(spec, tap)
    state = RunState(mode="eval", cache={})
    cur = x
    for name, conv, act, _ in chain:
        cur = unit_forward(name, conv, act, params, cur, state)
    grad = np.zeros_like(cur)
    grad[:, :, cur.shape[2] // 2, cur.shape[3] // 2, cur.shape[4] // 2] = 1.0
    grads: dict[str, np.ndarray] = {}
    for name, conv, act, _ in reversed(chain):
        grad = unit_backward(name, conv, act, params, state.cache, grad, grads)
    return grad


def _branch_path(spec: BlockSpec, tap: int) -> list[tuple]:
    """The plan units from the block input to ``branch{tap}``, in order."""
    if not 1 <= tap <= spec.branch_count:
        raise BlockConfigError(f"tap {tap} out of range 1..{spec.branch_count}")
    units = {unit[0]: unit for unit in block_plan(spec)}
    path = []
    name = f"branch{tap}"
    while name != INPUT:
        path.insert(0, units[name])
        name = units[name][3]
    return path


def temporal_receptive_field(spec: BlockSpec, tap: int) -> int:
    """Frames of input influencing one output element of branch ``tap``."""
    return 1 + sum(conv.kernel[0] - 1
                   for _, conv, _, _ in _branch_path(spec, tap))


def spatial_receptive_field(spec: BlockSpec, tap: int) -> int:
    """Pixels (per spatial axis) influencing one output element of branch ``tap``."""
    return 1 + sum(conv.kernel[1] - 1
                   for _, conv, _, _ in _branch_path(spec, tap))


def describe_block(spec: BlockSpec, prefix: str = "") -> list[str]:
    """Human-readable per-layer listing: ids, kernel/stride/padding, channels."""
    lines = []
    for name, conv, act, _ in block_plan(spec, prefix):
        kt, kh, kw = conv.kernel
        tail = "+bn+relu" if act else "+bn"
        lines.append(f"{name:<24} {kt}x{kh}x{kw} s{conv.stride} p{conv.padding} "
                     f"{conv.in_channels}->{conv.out_channels} {tail}")
    if spec.shortcut is None:
        lines.append(f"{prefix + 'shortcut':<24} identity")
    lines.append(f"{prefix + 'join':<24} add shortcut, relu "
                 f"-> {spec.out_channels} channels")
    return lines
