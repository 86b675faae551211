"""Full-architecture assembly: stem, four residual stages, regression head.

The default stack is a 17-block network (3+4+6+4 blocks over stages res2..res5
with variant pattern A,B,C | A,B,C,A | A,B,C,A,B,C | A,B,C,A), a 7x7x7 stem and
an overlapping 3x3x3 max pool in front, and a head that spatially averages,
applies one shared per-timestep linear map, then averages over time.  Channel
widths can be scaled by a rational ``width_multiplier`` for desk-scale runs.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import secrets
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import tensorfile
from .blocks import (BRANCH_COUNTS, CONV_BN_RELU, INPUT, BlockConfigError,
                     BlockSpec, RunState, _walk_back, _walk_forward,
                     block_graph, build_block, hash_once, unit_param_shapes)
from .ops import (POOL_GEOMETRY, ConvLayerSpec, ShapeError, conv_output_shape,
                  window_output_shape)

MODEL_KINDS = ("dmsn", "dmsn-a", "dmsn-b", "dmsn-c")
STAGES = (("res2", 128, "ABC"),
          ("res3", 256, "ABCA"),
          ("res4", 512, "ABCABC"),
          ("res5", 1024, "ABCA"))
STEM_CHANNELS = 64

CKPT_MAGIC = b"DMSNCKPT"
CKPT_VERSION = 1


class ConfigError(ValueError):
    """A model or training configuration that cannot be realized."""


def check_name(what: str, name, valid) -> None:
    """A name outside ``valid`` is a ConfigError that lists the valid ones."""
    if name not in valid:
        raise ConfigError(f"unknown {what} {name!r}; valid: {', '.join(valid)}")


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    model_kind: str = "dmsn"
    clip_len: int = 16
    input_size: tuple[int, int] = (112, 112)
    branch_count: int = 4
    width_multiplier: Fraction = Fraction(1)
    seed: int = 0

    def __post_init__(self):
        check_name("model kind", self.model_kind, MODEL_KINDS)
        if self.clip_len < 2 or self.clip_len % 2:
            raise ConfigError(f"clip_len must be even and >= 2, got {self.clip_len}")
        if min(self.input_size) < 1:
            raise ConfigError(f"input_size must be positive, got {self.input_size}")
        if self.branch_count not in BRANCH_COUNTS:
            raise ConfigError(f"branch_count must be {BRANCH_COUNTS[0]}.."
                              f"{BRANCH_COUNTS[-1]}, got {self.branch_count}")
        w = Fraction(self.width_multiplier)
        object.__setattr__(self, "width_multiplier", w)
        if not 0 < w <= 1:
            raise ConfigError(f"width_multiplier must be in (0, 1], got {w}")
        for ch in (STEM_CHANNELS,) + tuple(s[1] for s in STAGES):
            if (ch * w).denominator != 1:
                raise ConfigError(f"width_multiplier {w} does not divide the "
                                  f"{ch}-channel width evenly")

    def scaled(self, channels: int) -> int:
        return int(channels * self.width_multiplier)


@dataclass(frozen=True)
class ModelSpec:
    config: ModelConfig
    conv1: ConvLayerSpec
    stages: tuple[tuple[str, tuple[BlockSpec, ...]], ...]
    head_channels: int

    __hash__ = hash_once


def _stage_variants(kind: str, pattern: str) -> str:
    if kind == "dmsn":
        return pattern
    return kind[-1].upper() * len(pattern)


def build_model(config: ModelConfig) -> ModelSpec:
    stem = config.scaled(STEM_CHANNELS)
    conv1 = ConvLayerSpec(3, stem, (7, 7, 7), (1, 2, 2), (3, 3, 3))
    stages = []
    in_ch = stem
    for name, channels, pattern in STAGES:
        out_ch = config.scaled(channels)
        blocks = []
        for i, variant in enumerate(_stage_variants(config.model_kind, pattern)):
            stride = 2 if (i == 0 and name != "res2") else 1
            blocks.append(build_block(variant, in_ch, out_ch, stride,
                                      config.branch_count))
            in_ch = out_ch
        stages.append((name, tuple(blocks)))
    return ModelSpec(config, conv1, tuple(stages), in_ch)


def expected_clip_shape(spec: ModelSpec, batch: int):
    h, w = spec.config.input_size
    return (batch, 3, spec.config.clip_len, h, w)


def model_plan(spec: ModelSpec, input_shape=None) -> tuple:
    """The model's steps in ``blocks.block_graph``'s format: ``conv1``, a
    rectified conv unit; ``pool`` (op ``maxpool``, layer
    ``ops.POOL_GEOMETRY``); one ``block`` step per block under its parameter
    prefix, layer its BlockSpec; ``head`` (layer None), one score per clip.
    Each step reads the one before it.

    ``input_shape`` defaults to one clip of the configured geometry; any other
    than ``(n, 3, clip_len, h, w)`` in whole numbers, ``n >= 1``, raises
    ShapeError.  The plan is built once per spec and input shape.
    """
    want = expected_clip_shape(spec, 1)
    shape = want if input_shape is None else tuple(input_shape)
    if (len(shape) != 5 or not all(isinstance(v, (int, np.integer)) for v in shape)
            or shape[1:] != want[1:] or shape[0] < 1):
        raise ShapeError(f"clip shape {shape} does not match expected "
                         f"(n, 3, {want[2]}, {want[3]}, {want[4]})")
    return _model_plan(spec, shape)


@functools.lru_cache(maxsize=64)
def _model_plan(spec: ModelSpec, shape: tuple) -> tuple:
    out = conv_output_shape(shape, spec.conv1)
    plan = [("conv1", CONV_BN_RELU, spec.conv1, (INPUT,), out)]
    out = window_output_shape(out, *POOL_GEOMETRY)
    plan.append(("pool", "maxpool", POOL_GEOMETRY, ("conv1",), out))
    for stage_name, blocks in spec.stages:
        for i, block in enumerate(blocks, start=1):
            prefix = f"{stage_name}.{i}."
            out = block_graph(block, prefix, out)[-1][4]
            plan.append((prefix, "block", block, (plan[-1][0],), out))
    plan.append(("head", "head", None, (plan[-1][0],), out[:1]))
    return tuple(plan)


def model_steps(spec: ModelSpec, input_shape) -> tuple:
    """Every step a forward of ``input_shape`` (None: one clip) runs: the
    plan's, each block step replaced by its graph's (sources block-local)."""
    steps, in_shape = [], None
    for step in model_plan(spec, input_shape):
        name, op, layer, _, out = step
        steps += block_graph(layer, name, in_shape) if op == "block" else [step]
        in_shape = out
    return tuple(steps)


def param_shapes(spec: ModelSpec) -> dict[str, tuple]:
    """Declared shape of every bundle entry, in canonical order."""
    return {**unit_param_shapes(model_steps(spec, None)),
            "head.fc.w": (1, spec.head_channels), "head.fc.b": (1,)}


def _draw(rng: np.random.Generator, name: str, shape: tuple) -> np.ndarray:
    if name.endswith(".w"):
        fan_in = int(np.prod(shape[1:]))
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    if name.endswith((".scale", ".var")):
        return np.ones(shape)
    return np.zeros(shape)  # .shift, .mean, .b


def init_bundle(shapes: dict[str, tuple], seed: int) -> dict[str, np.ndarray]:
    """Draw a float64 bundle for any declared shape map (model or block)."""
    rng = np.random.default_rng(seed)
    return {name: _draw(rng, name, shape) for name, shape in shapes.items()}


def init_params(spec: ModelSpec, seed: int | None = None) -> dict[str, np.ndarray]:
    """Float64 fan-in-scaled normal conv/linear weights, identity BN."""
    return init_bundle(param_shapes(spec),
                       spec.config.seed if seed is None else seed)


def forward_with_state(spec: ModelSpec, params: dict, clip: np.ndarray,
                       state: RunState) -> np.ndarray:
    """Scores of a batch of clips; ``state`` sets the mode and the caches."""
    return _walk_forward(model_plan(spec, clip.shape), params, clip, state)


def model_forward(spec: ModelSpec, params: dict, clip: np.ndarray,
                  mode: str = "eval") -> np.ndarray:
    """Score a batch of clips; one scalar per batch item."""
    return forward_with_state(spec, params, clip, RunState(mode=mode))


def backward_from_cache(spec: ModelSpec, params: dict, cache: dict,
                        grad_scores: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of ``grad_scores`` through the forward that filled
    ``cache``, which is consumed: each activation is freed as the walk passes
    it."""
    # the reverse walk reads no shapes; the clip's gradient has no consumer
    return _walk_back(model_plan(spec), params, cache, "head", grad_scores,
                      False)[1]


# -- checkpoint container ----------------------------------------------------

def _config_items(config: ModelConfig) -> dict:
    """The checkpoint config text's keys, in order, and their values."""
    h, w = config.input_size
    return dict(model_kind=config.model_kind, clip_len=config.clip_len,
                input_h=h, input_w=w, branch_count=config.branch_count,
                width_multiplier=config.width_multiplier, seed=config.seed)


def config_to_text(config: ModelConfig) -> str:
    return "".join(f"{k}={v}\n" for k, v in _config_items(config).items())


def config_from_text(text: str) -> ModelConfig:
    fields: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "=" not in line:
            raise CheckpointError(f"config line {lineno} is not key=value: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise CheckpointError(f"config text repeats key {key!r}")
        fields[key] = value
    try:
        # each value parses as the type of the default config's
        values = {key: type(default)(fields.pop(key)) for key, default
                  in _config_items(ModelConfig()).items()}
    except KeyError as exc:
        raise CheckpointError(f"config text missing field {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise CheckpointError(f"config text has a bad value: {exc}") from None
    if fields:
        raise CheckpointError(f"config text has unknown key {min(fields)!r}")
    size = values.pop("input_h"), values.pop("input_w")
    return ModelConfig(input_size=size, **values)


def _pad_shape5(shape: tuple) -> tuple:
    return (1,) * (5 - len(shape)) + tuple(shape)


def save_checkpoint(spec: ModelSpec, params: dict, path) -> None:
    """Write the checkpoint to a new file beside ``path``, then rename it onto
    ``path``.

    The file at ``path`` is never truncated: arrays loaded from it keep
    mapping the old bytes, and a save that fails partway leaves it as it
    was.  A failed save removes its new file.
    """
    directory, base = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{base}.{secrets.token_hex(8)}.tmp")
    # O_EXCL never reuses an existing file; the umask applies to 0o666, as
    # it does for open(path, "wb")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    names = sorted(params)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CKPT_MAGIC)
            fh.write(struct.pack("<I", CKPT_VERSION))
            cfg = config_to_text(spec.config).encode("utf-8")
            fh.write(struct.pack("<I", len(cfg)))
            fh.write(cfg)
            fh.write(struct.pack("<I", len(names)))
            for name in names:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                arr = params[name]
                tensorfile.tensor_to_stream(
                    fh, arr.reshape(_pad_shape5(arr.shape)))
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def load_checkpoint(path):
    """Rebuild ``(ModelSpec, params)``; bit-exact with what was saved.

    The file is mapped once, copy-on-write, and parsed from the mapping:
    every returned parameter is a view of it at its payload's offset, so no
    payload is read or copied.  The arrays are writable, and writing one
    never reaches the file.  Every length is checked against the file's
    size before it is used.
    """
    with open(path, "rb") as fh:
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise CheckpointError("bad checkpoint magic bytes")
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    size = len(mapping)
    mapping.seek(len(CKPT_MAGIC))
    (version,) = struct.unpack("<I", _take(mapping, 4))
    if version != CKPT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", _take(mapping, 4))
    try:
        spec = build_model(config_from_text(
            _utf8(_take(mapping, cfg_len), "config text")))
    except (ConfigError, BlockConfigError) as exc:
        raise CheckpointError(f"the model rejects the checkpoint config: "
                              f"{exc}") from exc
    shapes = param_shapes(spec)
    (count,) = struct.unpack("<I", _take(mapping, 4))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", _take(mapping, 4))
        name = _utf8(_take(mapping, name_len), "entry name")
        if name not in shapes:
            raise CheckpointError(f"checkpoint entry {name!r} not in model")
        if name in params:
            raise CheckpointError(f"duplicate checkpoint entry {name!r}")
        try:
            blob = tensorfile.tensor_from_stream(mapping, size, _mapped_view)
        except tensorfile.TensorFileError as exc:
            raise CheckpointError(f"entry {name!r}: {exc}") from exc
        if blob.size != math.prod(shapes[name]):
            raise CheckpointError(f"entry {name!r} holds {blob.size} "
                                  f"values, the model's shape is "
                                  f"{shapes[name]}")
        params[name] = blob.reshape(shapes[name])
    if mapping.tell() != size:
        raise CheckpointError(f"{size - mapping.tell()} bytes after the "
                              f"last checkpoint entry")
    missing = set(shapes) - set(params)
    if missing:
        raise CheckpointError(f"checkpoint missing entries: {sorted(missing)[:3]}...")
    return spec, params


def _mapped_view(mapping: mmap.mmap, shape: tuple,
                 dtype: np.dtype) -> np.ndarray:
    """The mapping's next payload as a view of it; moves past the payload."""
    start = mapping.tell()
    mapping.seek(start + math.prod(shape) * dtype.itemsize)
    return np.ndarray(shape, dtype, buffer=mapping, offset=start)


def _take(mapping: mmap.mmap, count: int) -> bytes:
    """The mapping's next ``count`` bytes; ``read`` never returns more than
    the file holds."""
    raw = mapping.read(count)
    if len(raw) != count:
        raise CheckpointError("truncated checkpoint")
    return raw


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"checkpoint {what} is not UTF-8") from None

