"""Central finite-difference checking of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

REL_FLOOR = 1e-12


@dataclass
class GradCheckReport:
    """Worst-case errors per parameter plus an overall verdict."""

    threshold: float
    per_param: dict[str, tuple[float, float]] = field(default_factory=dict)
    max_rel_error: float = 0.0
    max_abs_error: float = 0.0
    worst_param: str = ""
    probes: int = 0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.threshold

    def record(self, name: str, rel: float, abs_err: float) -> None:
        prev = self.per_param.get(name, (0.0, 0.0))
        self.per_param[name] = (max(prev[0], rel), max(prev[1], abs_err))
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
               epsilon: float = 1e-5, threshold: float = 1e-4,
               seed: int = 0) -> GradCheckReport:
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
    report = GradCheckReport(threshold=threshold)
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
