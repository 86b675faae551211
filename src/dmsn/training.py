"""Losses, optimizers, learning-rate schedules, and the clip-regression loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blocks import RunState
from .model import (ModelConfig, ModelSpec, backward_from_cache, build_model,
                    check_name, forward_with_state, init_params,
                    model_forward)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message names the offending step."""


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. ``pred``."""
    _check_pair(pred, target)
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float(np.mean(diff * diff))
    return loss, (2.0 / diff.size) * diff


def mae_loss(pred: np.ndarray, target: np.ndarray):
    """Mean absolute error and its subgradient (0 at ties)."""
    _check_pair(pred, target)
    diff = pred.astype(np.float64) - target.astype(np.float64)
    loss = float(np.mean(np.abs(diff)))
    return loss, np.sign(diff) / diff.size


def _check_pair(pred, target):
    if pred.size == 0:
        raise ValueError("loss over an empty prediction vector")
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")


LOSSES = {"mse": mse_loss, "mae": mae_loss}

# entries never touched by weight decay
_NO_DECAY_SUFFIXES = (".scale", ".shift")
# Adam's moment decay rates and denominator floor
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# SGD's velocity decay, and the L2 weight decay both optimizers add to the
# gradient of every entry but ``.scale``/``.shift``
SGD_MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
# The optimizer updates whole entries in chunks of about this many elements:
# one model-sized flat copy would raise the training step's peak memory.
_UPDATE_CHUNK = 1 << 16


@dataclass
class OptimizerState:
    """One optimizer's per-entry float64 ``slots``: views into one buffer
    per chunk of entries, which each step updates in place."""

    kind: str                      # a key of OPTIMIZER_STEPS
    lr: float
    step_count: int = field(default=0, init=False)
    slots: dict[str, object] = field(default_factory=dict, init=False)
    # (entries, decayed, slot buffers) per chunk, laid out on the first step
    _chunks: list | None = field(default=None, init=False, repr=False)


def init_optimizer(kind: str, lr: float) -> OptimizerState:
    check_name("optimizer", kind, OPTIMIZER_STEPS)
    return OptimizerState(kind=kind, lr=lr)


def _views(flat: np.ndarray, chunk) -> list[np.ndarray]:
    """One view of a chunk's flat buffer per entry, in the entry's shape."""
    views, at = [], 0
    for _, shape in chunk:
        end = at + math.prod(shape)
        views.append(flat[at:end].reshape(shape))
        at = end
    return views


def _layout(state: OptimizerState, params: dict, grads: dict,
            fills) -> list[tuple]:
    """The state's ``(entries, decayed, buffers)`` chunks; checks grads.

    The first step lays out whole ``(name, shape)`` entries in chunks of
    about ``_UPDATE_CHUNK`` elements, decayed and undecayed ones apart, each
    in ``grads`` order, with one float64 slot buffer per value in ``fills``
    (``state.slots`` holds views); later steps must give the same entries.
    """
    for name, grad in grads.items():
        if grad.shape != params[name].shape:
            raise ValueError(f"{name}: grad shape {grad.shape} != param shape "
                             f"{params[name].shape}")
    if state._chunks is not None:
        laid = {name: shape for entries, _, _ in state._chunks
                for name, shape in entries}
        odd = {n: g.shape for n, g in grads.items()}.items() ^ laid.items()
        if odd:
            raise ValueError(f"grads and the first step's differ in (entry, "
                             f"shape) {sorted(odd)}")
        return state._chunks
    state._chunks = []
    for decayed in (True, False):
        entries, size = None, 0
        for name, grad in grads.items():
            if name.endswith(_NO_DECAY_SUFFIXES) == decayed:
                continue
            if entries is None or size + grad.size > _UPDATE_CHUNK:
                entries, size = [], 0
                state._chunks.append((entries, decayed, []))
            entries.append((name, grad.shape))
            size += grad.size
    for entries, _, buffers in state._chunks:
        size = sum(math.prod(shape) for _, shape in entries)
        buffers.extend(np.full(size, fill) for fill in fills)
        for (name, _), views in zip(
                entries, zip(*(_views(b, entries) for b in buffers))):
            state.slots[name] = views if len(views) > 1 else views[0]
    return state._chunks


def _apply_update(params: dict, grads: dict, state: OptimizerState,
                  fills, update) -> dict:
    """The chunked driver of both optimizers; returns new params.

    Per chunk, ``update(g, buffers)`` gets the chunk's float64 gradients,
    decayed if the chunk is, and its slot buffers (see :func:`_layout`),
    updates the buffers in place and returns the step; each entry becomes
    ``theta - step`` in its dtype, a view of one fresh buffer per chunk, and
    the caller's params and grads are not written.
    """
    out = dict(params)
    for entries, decayed, buffers in _layout(state, params, grads, fills):
        g = np.concatenate([grads[name].ravel() for name, _ in entries],
                           dtype=np.float64)
        theta = np.concatenate([params[name].ravel() for name, _ in entries],
                               dtype=np.float64)
        if decayed:
            g += WEIGHT_DECAY * theta
        theta -= update(g, buffers)
        for (name, _), view in zip(entries, _views(theta, entries)):
            out[name] = view.astype(params[name].dtype, copy=False)
    state.step_count += 1
    return out


def sgd_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """v <- SGD_MOMENTUM*v + g; theta <- theta - lr*v. Returns new params.

    A new slot starts at -0.0, which adds to ``SGD_MOMENTUM*v + g`` as
    nothing, so a first step gives ``v = g`` bit for bit.
    """
    def update(g, buffers):
        (v,) = buffers
        v *= SGD_MOMENTUM
        v += g
        return np.multiply(v, state.lr, out=g)

    return _apply_update(params, grads, state, (-0.0,), update)


def adam_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """Bias-corrected first/second moment update. Returns new params.

    Per element: ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    step ``(lr*m_hat) / (sqrt(v_hat) + eps)``.
    """
    b1, b2 = ADAM_BETAS
    t = state.step_count + 1

    def update(g, buffers):
        m, v = buffers
        m *= b1
        m += (1 - b1) * g
        v *= b2
        g2 = (1 - b2) * g
        g2 *= g
        v += g2
        step = np.divide(m, 1 - b1 ** t, out=g)
        step *= state.lr
        den = np.divide(v, 1 - b2 ** t, out=g2)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        return step

    return _apply_update(params, grads, state, (0.0, 0.0), update)


OPTIMIZER_STEPS = {"sgd": sgd_step, "adam": adam_step}


@dataclass(frozen=True)
class Schedule:
    """A learning-rate law of the 0-based epoch, positive, non-increasing."""

    rate: Callable[[int], float]
    default_epochs: int


SCHEDULES = {
    "pretrain": Schedule(lambda epoch: 0.01 * 0.1 ** (epoch // 10), 30),
    "depression": Schedule(lambda epoch: 0.005 if epoch < 1 else 0.0005, 3),
    "pain": Schedule(lambda epoch: 0.001, 2),
}


def lr_at(schedule: Schedule, epoch: int) -> float:
    """Learning rate of the given schedule at a 0-based epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return schedule.rate(epoch)


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    schedule: str = "depression"
    epochs: int | None = None          # None = the schedule's default
    batch_size: int = 8
    loss: str = "mse"
    seed: int = 0
    max_steps: int | None = None

    def __post_init__(self):
        for name, valid in (("optimizer", OPTIMIZER_STEPS),
                            ("schedule", SCHEDULES), ("loss", LOSSES)):
            check_name(name, getattr(self, name), valid)
        for name in ("epochs", "batch_size", "max_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def resolved_epochs(self) -> int:
        return self.epochs or SCHEDULES[self.schedule].default_epochs


@dataclass
class TrainHistory:
    steps: list[tuple[int, int, float, float]] = field(
        default_factory=list, init=False)


def history_lines(history: TrainHistory) -> list[str]:
    """Line-oriented export: one ``step epoch lr loss`` record per step."""
    return [f"{step}\t{epoch}\t{lr:.10g}\t{loss:.10g}"
            for step, epoch, lr, loss in history.steps]


def save_history(history: TrainHistory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(history_lines(history)))
        if history.steps:
            fh.write("\n")


def _batches(count: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start:start + batch_size]


def train_step(spec: ModelSpec, params: dict, clips: np.ndarray,
               labels: np.ndarray, state: OptimizerState, loss_kind: str):
    """One forward/loss/backward/update; returns (params, loss)."""
    run = RunState(mode="train", cache={}, stats={})
    scores = forward_with_state(spec, params, clips, run)
    loss, grad_scores = LOSSES[loss_kind](scores, labels)
    grads = backward_from_cache(spec, params, run.cache, grad_scores)
    params = OPTIMIZER_STEPS[state.kind](params, grads, state)
    params.update(run.stats)
    return params, loss


def train(model_config: ModelConfig, dataset, config: TrainConfig):
    """Train a freshly initialized model on a clip dataset.

    ``dataset`` is anything with ``clip_arrays()`` and ``labels()`` (see the
    clip pipeline).  Deterministic given seeds: data order comes from a
    dedicated generator, independent of the initialization draws.
    """
    clips = dataset.clip_arrays()
    labels = dataset.labels()
    if len(clips) == 0:
        raise ValueError("training dataset is empty")
    spec = build_model(model_config)
    params = init_params(spec)
    schedule = SCHEDULES[config.schedule]
    state = init_optimizer(config.optimizer, lr_at(schedule, 0))
    shuffle_rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    step = 0
    for epoch in range(config.resolved_epochs()):
        state.lr = lr_at(schedule, epoch)
        for batch in _batches(len(clips), config.batch_size, shuffle_rng):
            x = np.stack([clips[i] for i in batch])
            y = labels[batch]
            params, loss = train_step(spec, params, x, y, state, config.loss)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"non-finite loss at step {step} "
                                       f"(epoch {epoch})")
            history.steps.append((step, epoch, state.lr, loss))
            step += 1
            if config.max_steps is not None and step >= config.max_steps:
                return params, history
    return params, history


def predict_scores(spec: ModelSpec, params: dict, clips,
                   batch_size: int) -> np.ndarray:
    """Eval-mode scores for a list of clip arrays."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    scores = []
    for start in range(0, len(clips), batch_size):
        x = np.stack(clips[start:start + batch_size])
        scores.append(model_forward(spec, params, x, mode="eval"))
    return np.concatenate(scores) if scores else np.zeros(0)
