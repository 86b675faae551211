"""The closed measurement loop shared by every workload.

One run: set the workload up, make a MAC-counter forward and warm-up
operations, then time operations one at a time until the run length has
passed.  Every few seconds of that loop, set-ups of fresh workload objects
are timed for a moment; ``setup_s`` is the median of all set-ups.  Every
operation's output is checked; the checks feed ``attempted`` and ``failed``.
With tracing on, timed operations alternate between untraced and traced, so the per-layer numbers
and the tracing overhead come from the same stretch of time.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
import tracemalloc

from dmsn import blocks, complexity, model, ops

import layers
import machine
import workloads
from tracing import Tracer, leftover_wrappers

END_TO_END_UNITS = {"op_ms.p50": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
# A set-up takes 20 ms to 0.6 s, and on a shared host its speed jumps by a
# third from one second to the next.  Blocks of set-ups spread over the whole
# timed loop steady the median.  Each set-up builds a fresh workload object
# and tears it down: set-ups that replace the state of the running workload
# warm the allocator and made ``ckpt-io``'s timed load a quarter faster than
# a process that sets up once, as a user's does.
SETUP_EVERY_S = 4.0
SETUP_BLOCK_S = 0.5


def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def _beyond_p90(values) -> int:
    p90 = _p90(values)
    return sum(1 for v in values if v > p90)


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def _mac_check(wl, tally: _Tally):
    """One counter-instrumented forward must issue exactly the analytic MACs."""
    probe = wl.mac_probe()
    if probe is None:
        return None
    counter = ops.MacCounter()
    model.forward_with_state(wl.spec, wl.params, probe,
                             blocks.RunState(mode="eval", counter=counter))
    analytic = complexity.count_flops(wl.spec, probe.shape).total_macs
    tally.record(counter.macs == analytic,
                 f"MacCounter {counter.macs} != count_flops {analytic}")
    return {"counted": counter.macs, "count_flops": analytic}


def _time_setups(name: str, seed: int) -> list[float]:
    """Set up fresh workload objects for ``SETUP_BLOCK_S``; their times."""
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < SETUP_BLOCK_S:
        wl = workloads.WORKLOADS[name]()
        t0 = time.perf_counter()
        try:
            wl.setup(seed)
            samples.append(time.perf_counter() - t0)
        finally:
            wl.teardown()
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_timed_ops: int | None = None) -> dict:
    """Run one workload and return its result (see ``run.py`` for the form).

    ``min_timed_ops`` overrides the workload's floor of timed operations, so
    the self-test can run at a tiny run length.
    """
    tally = _Tally()
    outputs: list = []
    times = {False: [], True: []}
    tracer = Tracer()
    wl = workloads.WORKLOADS[name]()
    try:
        t0 = time.perf_counter()
        wl.setup(seed)
        setup_s = [time.perf_counter() - t0]

        def do_op(traced: bool):
            i = len(outputs)
            arg = wl.prepare(i)
            if traced:
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    out = tracer.run_op(i, wl.op, arg)
                    elapsed = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
            else:
                t0 = time.perf_counter()
                out = wl.op(arg)
                elapsed = time.perf_counter() - t0
            tally.record(wl.check(i, out), f"operation {i} output check")
            outputs.append(wl.keep(out))
            return elapsed

        mac_check = _mac_check(wl, tally)
        for _ in range(wl.warmup_ops):
            do_op(False)

        floor = wl.min_timed_ops if min_timed_ops is None else min_timed_ops
        start = time.perf_counter()
        next_setups = start + SETUP_EVERY_S
        setups_after_op = []
        while True:
            traced = trace and len(times[False]) > len(times[True])
            times[traced].append(do_op(traced))
            if time.perf_counter() >= next_setups:
                block_start = time.perf_counter()
                setup_s += _time_setups(name, seed)
                start += time.perf_counter() - block_start  # not run time
                setups_after_op.append(len(outputs) - 1)
                next_setups = time.perf_counter() + SETUP_EVERY_S
            done_time = time.perf_counter() - start >= seconds
            if trace:
                if done_time and times[True]:
                    break
            elif done_time and len(times[False]) >= floor:
                break

        alloc_peak_mb = None
        if trace:
            tracemalloc.start()
            try:
                do_op(False)
                alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        dtypes = wl.dtypes()
        phase_s = getattr(wl, "phase_s", None)
    finally:
        tracer.uninstall()
        wl.teardown()

    untraced = times[False]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine.describe(), "dtypes": dtypes,
        "mac_check": mac_check, "check_failures": tally.notes[:5],
        "failed_frac": tally.failed / tally.attempted,
        "timed_ops": len(untraced),
        "setup_s_samples": setup_s,
        "setups_after_op": setups_after_op,
    }
    if not trace:
        ms = [t * 1e3 for t in untraced]
        metrics = {
            "op_ms.p50": statistics.median(ms),
            "ops_per_s": len(untraced) / sum(untraced),
            # process lifetime; Linux reports KiB
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_s),
        }
        report["op_ms"] = ms
        report["op_ms.p90"] = _p90(ms)
        report["op_ms.beyond_p90"] = _beyond_p90(ms)
        report["clips_per_s"] = metrics["ops_per_s"] * wl.clips_per_op
        if phase_s is not None:
            for phase, samples in phase_s.items():
                timed = samples[wl.warmup_ops:]
                report[f"io_{phase}_s.p50"] = statistics.median(timed)
        units = END_TO_END_UNITS
        correct = tally.failed == 0
    else:
        unit_macs, forward_macs = {}, None
        probe = wl.mac_probe()
        if probe is not None:
            flops = complexity.count_flops(
                wl.spec, (wl.clips_per_op,) + probe.shape[1:])
            unit_macs = {r.layer_id: r.macs for r in flops.rows
                         if r.kind == "conv"}
            forward_macs = flops.total_macs
        metrics, rows, mismatches, summary = layers.analyse(
            tracer.spans, unit_macs, forward_macs)
        untraced_p50 = statistics.median(untraced)
        traced_p50 = statistics.median(times[True])
        metrics["model.alloc_peak_mb"] = alloc_peak_mb
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_p50 - untraced_p50) / untraced_p50)
        summary["untraced_op_ms.p50"] = untraced_p50 * 1e3
        summary["traced_op_ms.p50"] = traced_p50 * 1e3
        summary["ops_macs_mismatches"] = mismatches[:5]
        summary["leftover_wrappers"] = leftover_wrappers()
        report["trace_summary"] = summary
        units = layers.PER_LAYER_UNITS
        correct = (tally.failed == 0 and not mismatches
                   and not summary["leftover_wrappers"])
    result = {
        "correct": bool(correct),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = workloads.OUT_DIR / f"{name}-seed{seed}"
    if trace:
        tracer.write(f"{stem}-spans.tsv")
        _write_units(f"{stem}-units.tsv", rows)
    with open(f"{stem}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "report": report}, fh, indent=1)
    result["report"] = report
    result["outputs"] = outputs
    return result


def _write_units(path, rows) -> None:
    """Per-unit table: forward/backward ms, MACs and GMAC/s per conv unit."""
    fields = ("unit", "fwd_ms", "bwd_ms", "conv_fwd_ms", "conv_bwd_ms",
              "fwd_macs", "bwd_macs", "fwd_gmac_s", "bwd_gmac_s")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(fields) + "\n")
        for row in rows:
            fh.write("\t".join(
                f"{row[f]:.4f}" if isinstance(row[f], float) else str(row[f])
                for f in fields) + "\n")
