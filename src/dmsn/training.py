"""Losses, optimizers, learning-rate schedules, and the clip-regression loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import RunState
from .model import (ModelConfig, ModelSpec, backward_from_cache, build_model,
                    forward_with_state, init_params, model_forward)


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


@dataclass
class OptimizerState:
    """Per-parameter auxiliary buffers plus hyperparameters for one optimizer."""

    kind: str                      # "sgd" | "adam"
    lr: float
    momentum: float = 0.9
    weight_decay: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    step_count: int = 0
    slots: dict[str, object] = field(default_factory=dict)


def init_optimizer(kind: str, lr: float, **hyper) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {kind!r}")
    return OptimizerState(kind=kind, lr=lr, **hyper)


def _apply_update(params: dict, grads: dict, state: OptimizerState,
                  update) -> dict:
    """The per-entry driver of both optimizers; returns new params.

    ``update(g, slot)`` gets the float64 gradient, decayed except on
    ``.scale``/``.shift``, and the entry's slot (None at first); it returns
    ``(step, new slot)``, and the entry becomes ``theta - step`` in its dtype.
    """
    out = dict(params)
    for name, grad in grads.items():
        theta = params[name]
        if grad.shape != theta.shape:
            raise ValueError(f"{name}: grad shape {grad.shape} != param shape "
                             f"{theta.shape}")
        g = grad.astype(np.float64, copy=False)
        if state.weight_decay and not name.endswith(_NO_DECAY_SUFFIXES):
            g = g + state.weight_decay * theta.astype(np.float64, copy=False)
        step, state.slots[name] = update(g, state.slots.get(name))
        out[name] = (theta - step).astype(theta.dtype, copy=False)
    state.step_count += 1
    return out


def sgd_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """v <- momentum*v + g + wd*theta; theta <- theta - lr*v. Returns new params."""
    def update(g, v):
        v = g if v is None else state.momentum * v + g
        return state.lr * v, v

    return _apply_update(params, grads, state, update)


def adam_step(params: dict, grads: dict, state: OptimizerState) -> dict:
    """Bias-corrected first/second moment update. Returns new params."""
    b1, b2 = state.betas
    t = state.step_count + 1

    def update(g, slot):
        m, v = (np.zeros_like(g), np.zeros_like(g)) if slot is None else slot
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        return state.lr * m_hat / (np.sqrt(v_hat) + state.eps), (m, v)

    return _apply_update(params, grads, state, update)


OPTIMIZER_STEPS = {"sgd": sgd_step, "adam": adam_step}


@dataclass(frozen=True)
class Schedule:
    """A named learning-rate law; rates are positive and non-increasing."""

    kind: str            # "step-decay" | "two-phase" | "constant"
    default_epochs: int


SCHEDULES = {
    "pretrain": Schedule("step-decay", default_epochs=30),
    "depression": Schedule("two-phase", default_epochs=3),
    "pain": Schedule("constant", default_epochs=2),
}


def lr_at(schedule: Schedule | str, epoch: int) -> float:
    """Learning rate of the given schedule at a 0-based epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    kind = schedule.kind if isinstance(schedule, Schedule) else schedule
    if kind == "step-decay":
        return 0.01 * 0.1 ** (epoch // 10)
    if kind == "two-phase":
        return 0.005 if epoch < 1 else 0.0005
    if kind == "constant":
        return 0.001
    raise ValueError(f"unknown schedule kind {kind!r}")


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
        for name in ("epochs", "batch_size", "max_steps"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def resolved_epochs(self) -> int:
        return self.epochs or SCHEDULES[self.schedule].default_epochs


@dataclass
class TrainHistory:
    seed: int
    config: TrainConfig
    steps: list[tuple[int, int, float, float]] = field(default_factory=list)

    def losses(self) -> list[float]:
        return [s[3] for s in self.steps]


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


def train(model_config: ModelConfig, dataset, config: TrainConfig,
          params: dict | None = None):
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
    if params is None:
        params = init_params(spec)
    schedule = SCHEDULES[config.schedule]
    state = init_optimizer(config.optimizer, lr_at(schedule, 0))
    shuffle_rng = np.random.default_rng(config.seed)
    history = TrainHistory(seed=config.seed, config=config)
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
                   batch_size: int = 8) -> np.ndarray:
    """Eval-mode scores for a list of clip arrays."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    scores = []
    for start in range(0, len(clips), batch_size):
        x = np.stack(clips[start:start + batch_size])
        scores.append(model_forward(spec, params, x, mode="eval"))
    return np.concatenate(scores) if scores else np.zeros(0)
