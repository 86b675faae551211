"""Command-line front end.

Subcommands: ``describe``, ``count``, ``gradcheck``, ``synth``, ``train``,
``eval``.  Global flags ``--config`` and ``--out``; ``--seed`` belongs to the
subcommands that draw random numbers and ``--format`` to those with a csv
form.  A config file holds ``key=value`` lines keyed by option name;
command-line flags override it, and unknown keys are rejected.  Every
subcommand is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .blocks import BRANCH_COUNTS, BlockConfigError, describe_block
from .complexity import (CONVENTIONS, TABLE_FORMATS, CostReport, count_flops,
                         emit_cost_table)
from .gradsuite import run_gradient_suites
from .model import (MODEL_KINDS, ConfigError, ModelConfig, build_model,
                    check_name, expected_clip_shape, load_checkpoint,
                    model_plan, save_checkpoint)
from .pipeline import (SynthConfig, aggregate_video_score, format_synth_config,
                       load_manifest, metric_mae, metric_mse, metric_rmse,
                       save_manifest, synth_generate, utf8_lines)
from .training import (LOSSES, OPTIMIZER_STEPS, SCHEDULES, TrainConfig,
                       TrainingDiverged, predict_scores, save_history, train)


class CliError(Exception):
    """Fatal subcommand error; message goes to stderr, exit code 1."""


class UsageError(Exception):
    """Bad flag/config combination; message goes to stderr, exit code 2."""


def _at_least(low: int, text: str) -> int:
    if int(text) < low:
        raise ValueError(f"must be at least {low}")
    return int(text)


_count = functools.partial(_at_least, 1)
_seed = functools.partial(_at_least, 0)


def _bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


@dataclass(frozen=True)
class Opt:
    """``parse`` turns text into a value, or is a choice flag's collection
    of valid names; ``_bool`` makes a bare flag, a list default a comma list."""

    flag: str
    parse: object
    default: object
    help: str

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


GLOBAL_OPTS = (
    Opt("--config", str, None, "key=value overlay file (flags win)"),
    Opt("--out", str, None, "output path (default: stdout / cwd)"),
)
SEED_OPT = Opt("--seed", _seed, 0, "random seed")
AGGREGATES = {"median": aggregate_video_score}  # a video's score from its clips
FORMAT_OPT = Opt("--format", TABLE_FORMATS, [*TABLE_FORMATS][0], "output format")

# every default that a library config holds is read from it
SIZE_OPT = Opt("--size", int, ModelConfig.input_size[0],
               "input height/width in pixels")
WIDTH_OPT = Opt("--width", Fraction, ModelConfig.width_multiplier,
                "channel width multiplier, e.g. 1/8")
MODEL_OPTS = (
    Opt("--model", MODEL_KINDS, ModelConfig.model_kind, "model kind"),
    Opt("--frames", int, ModelConfig.clip_len, "clip length in frames"),
    SIZE_OPT,
    Opt("--branches", int, ModelConfig.branch_count,
        f"branch count per block ({BRANCH_COUNTS[0]}-{BRANCH_COUNTS[-1]})"),
    WIDTH_OPT,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmsn",
        description="Decomposed multiscale spatiotemporal network toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts) in SUBCOMMANDS.items():
        sub = subs.add_parser(name)
        for opt in opts + GLOBAL_OPTS:
            text = opt.help
            if not callable(opt.parse):   # a choice flag's collection
                text += f": {', '.join(opt.parse)}"
            bare = {"action": "store_const", "const": "true"}  # parse _bool
            sub.add_argument(opt.flag, dest=opt.dest, default=None, help=text,
                             **(bare if opt.parse is _bool else {}))
    return parser


def _read_config(path: str) -> dict[str, str]:
    values = {}
    try:
        for lineno, line in utf8_lines(path):
            if line is None:
                raise UsageError(f"{path}:{lineno}: not UTF-8 text")
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key == "config":
                raise UsageError(f"{path}:{lineno}: config key 'config' "
                                 f"cannot name another config file")
            if key in values:
                raise UsageError(f"{path}:{lineno}: config key {key!r} "
                                 f"given twice")
            values[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return values


def _parse(opt: Opt, text: str):
    """A flag's value, a list of them for a list default.  A choice flag's
    name outside its collection is a ConfigError."""
    many = isinstance(opt.default, list)
    parts = [p.strip() for p in text.split(",") if p.strip()] if many else [text]
    if not parts:
        raise ValueError("needs at least one value")
    if callable(opt.parse):
        parts = [opt.parse(part) for part in parts]
    else:
        for part in parts:
            check_name(opt.dest, part, opt.parse)
    return parts if many else parts[0]


def _resolve(ns: argparse.Namespace, opts: tuple[Opt, ...]) -> dict:
    """Merge flag values over config-file values over defaults."""
    table = {opt.dest: opt for opt in opts + GLOBAL_OPTS}
    overlay: dict[str, str] = {}
    if ns.config is not None:
        overlay = _read_config(ns.config)
        unknown = set(overlay) - set(table)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values = {}
    for dest, opt in table.items():
        raw = getattr(ns, dest)
        if raw is None and dest in overlay:
            raw = overlay[dest]
        try:
            values[dest] = opt.default if raw is None else _parse(opt, raw)
        except ConfigError as exc:
            raise UsageError(str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{opt.flag}: cannot use {raw!r}: {exc}") from None
    return values


def _model_config(values: dict) -> ModelConfig:
    return ModelConfig(model_kind=values["model"],
                       clip_len=values["frames"],
                       input_size=(values["size"], values["size"]),
                       branch_count=values["branches"],
                       width_multiplier=values["width"])


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _kernel(values) -> str:
    return "x".join(str(v) for v in values)


def _tight(values) -> str:
    return str(tuple(values)).replace(" ", "")


def cmd_describe(values: dict) -> int:
    config = _model_config(values)
    spec = build_model(config)
    lines = [f"model {config.model_kind}  frames {config.clip_len}  "
             f"input {config.input_size[0]}x{config.input_size[1]}  "
             f"branches {config.branch_count}  width {config.width_multiplier}"]
    conv1, pool, *blocks, head = model_plan(spec)
    stem = conv1[2]
    kernel, stride, padding = pool[2]
    # a cubic pool prints each geometry triple as one number
    stride, padding = (v[0] if len(set(v)) == 1 else _tight(v)
                       for v in (stride, padding))
    for name, detail, (_, c, t, h, w) in (
            ("input", "", expected_clip_shape(spec, 1)),
            ("conv1", f"{_kernel(stem.kernel)} s{_tight(stem.stride)} "
                      f"p{_tight(stem.padding)}  "
                      f"{stem.in_channels}->{stem.out_channels}", conv1[4]),
            ("pool", f"max {_kernel(kernel)} s{stride} p{padding}", pool[4])):
        lines.append(f"{name:<10} {detail:<28} {c:>5}  {t}x{h}x{w}")
    for prefix, _, block, _, (_, _, t, h, w) in blocks:
        lines.append(f"{prefix[:-1]:<13} DMSN-{block.variant}  "
                     f"{block.in_channels}->{block.out_channels}  "
                     f"s{block.spatial_stride}  {t}x{h}x{w}")
        if values["detail"]:
            lines.extend("  " + line for line in describe_block(block, prefix))
    lines.append(f"head       spatial-avgpool, fc {head[2][1]}->1, "
                 f"temporal-avgpool  scalar")
    _emit("\n".join(lines) + "\n", values["out"])
    return 0


def cmd_count(values: dict) -> int:
    reports = []
    for kind in values["model"]:
        for branches in values["branches"]:
            for frames in values["frames"]:
                config = _model_config({**values, "model": kind,
                                        "frames": frames,
                                        "branches": branches})
                report = count_flops(build_model(config),
                                     convention=values["convention"])
                if branches != ModelConfig.branch_count:
                    report.label = f"{kind}-br{branches}"
                reports.append(report)
    _emit(emit_cost_table(reports, format=values["format"]), values["out"])
    return 0


def cmd_gradcheck(values: dict) -> int:
    results = run_gradient_suites(seed=values["seed"],
                                  inject_bug=values["inject_bug"])
    lines = [f"{name:<22} {report.summary()}" for name, report in results]
    ok = all(report.passed for _, report in results)
    lines.append(f"gradient suites: {'all passed' if ok else 'FAILURES'}")
    _emit("\n".join(lines) + "\n", values["out"])
    return 0 if ok else 1


def cmd_synth(values: dict) -> int:
    out_dir = values["out"] or "."
    config = SynthConfig(clip_count=values["clips"], clip_len=values["frames"],
                         height=values["size"], width=values["size"],
                         subjects=values["subjects"],
                         label_min=values["label_min"],
                         label_max=values["label_max"],
                         step_per_unit=values["speed"], seed=values["seed"])
    dataset = synth_generate(config)
    os.makedirs(out_dir, exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.tsv")
    save_manifest(dataset, manifest, data_dir=os.path.join(out_dir, "clips"))
    with open(os.path.join(out_dir, "synth_config.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(format_synth_config(config))
    sys.stdout.write(f"wrote {len(dataset.clips)} clips over "
                     f"{len(dataset.subjects())} subjects to {manifest}\n")
    return 0


def cmd_train(values: dict) -> int:
    if values["data"] is None:
        raise UsageError("train needs --data <manifest>")
    if values["out"] is None:
        raise UsageError("train needs --out <checkpoint path>")
    dataset = load_manifest(values["data"])
    model_config = replace(_model_config(values), seed=values["seed"])
    train_config = TrainConfig(optimizer=values["optimizer"],
                               schedule=values["schedule"],
                               epochs=values["epochs"],
                               batch_size=values["batch_size"],
                               loss=values["loss"], seed=values["seed"],
                               max_steps=values["steps"])
    params, history = train(model_config, dataset, train_config)
    spec = build_model(model_config)
    save_checkpoint(spec, params, values["out"])
    if values["history"]:
        save_history(history, values["history"])
    sys.stdout.write(f"trained {len(history.steps)} steps; final loss "
                     f"{history.steps[-1][3]:.6g}; "
                     f"checkpoint {values['out']}\n")
    return 0


METRICS = {"mae": metric_mae, "rmse": metric_rmse, "mse": metric_mse}  # eval columns


def _metric_rows(scores: np.ndarray, labels: np.ndarray, dataset, values: dict):
    def row(scope, subject, pred, truth):
        return (scope, subject, len(pred), *(m(pred, truth) for m in METRICS.values()))

    rows = [row("overall", "all", scores, labels)]
    if values["per_subject"]:
        # slices of one model's scores; no model was trained without them
        for subject in dataset.subjects():
            keep = [i for i, c in enumerate(dataset.clips)
                    if c.subject_id == subject]
            rows.append(row("subject", subject, scores[keep], labels[keep]))
    if values["aggregate"] is not None:
        aggregate = AGGREGATES[values["aggregate"]]
        videos: dict[str, list[int]] = {}
        for i, clip in enumerate(dataset.clips):
            videos.setdefault(clip.video_id, []).append(i)
        rows.append(row(f"video-{values['aggregate']}", "all",
                        [aggregate(scores[idx]) for idx in videos.values()],
                        [aggregate(labels[idx]) for idx in videos.values()]))
    return rows


def cmd_eval(values: dict) -> int:
    if values["data"] is None or values["checkpoint"] is None:
        raise UsageError("eval needs --data <manifest> and --checkpoint <file>")
    dataset = load_manifest(values["data"])
    if not dataset.clips:
        raise CliError(f"manifest {values['data']} holds no clips")
    spec, params = load_checkpoint(values["checkpoint"])
    scores = predict_scores(spec, params, dataset.clip_arrays(),
                            batch_size=values["batch_size"])
    labels = dataset.labels()
    rows = _metric_rows(scores, labels, dataset, values)
    if values["format"] == "text":   # eval's own layout: one labeled row each
        text = "".join(f"{scope:<14} {subj:<14} n={n:<5} " + "  ".join(
            f"{name} {v:.6f}" for name, v in zip(METRICS, metrics)) + "\n"
            for scope, subj, n, *metrics in rows)
    else:
        text = TABLE_FORMATS[values["format"]](
            ("scope", "subjects", "clips", *METRICS),
            [(scope, subj, str(n), *(f"{v:.6f}" for v in metrics))
             for scope, subj, n, *metrics in rows])
    _emit(text, values["out"])
    return 0


# each subcommand's function and flags
SUBCOMMANDS: dict[str, tuple] = {
    "describe": (cmd_describe, MODEL_OPTS + (
        Opt("--detail", _bool, False, "also list every conv inside each block"),
    )),
    "count": (cmd_count, (
        Opt("--model", MODEL_KINDS, [ModelConfig.model_kind],
            "comma list of model kinds"),
        Opt("--frames", int, [ModelConfig.clip_len], "comma list of clip lengths"),
        Opt("--branches", int, [ModelConfig.branch_count],
            "comma list of branch counts"),
        SIZE_OPT, WIDTH_OPT,
        Opt("--convention", CONVENTIONS, CostReport.convention, "FLOP convention"),
        FORMAT_OPT,
    )),
    "gradcheck": (cmd_gradcheck, (
        Opt("--inject-bug", _bool, False,
            "negative control: corrupt one analytic gradient"),
        SEED_OPT,
    )),
    "synth": (cmd_synth, (
        Opt("--clips", _count, SynthConfig.clip_count, "number of clips to generate"),
        Opt("--frames", _count, SynthConfig.clip_len, "clip length in frames"),
        Opt("--size", _count, SynthConfig.height, "frame height/width in pixels"),
        Opt("--subjects", _count, SynthConfig.subjects,
            "number of synthetic subjects"),
        Opt("--label-min", float, SynthConfig.label_min, "lower label bound"),
        Opt("--label-max", float, SynthConfig.label_max, "upper label bound"),
        Opt("--speed", float, SynthConfig.step_per_unit,
            "bump displacement per frame per label unit"),
        SEED_OPT,
    )),
    "train": (cmd_train, MODEL_OPTS + (
        Opt("--data", str, None, "clip manifest to train on"),
        Opt("--schedule", SCHEDULES, TrainConfig.schedule, "learning-rate schedule"),
        Opt("--optimizer", OPTIMIZER_STEPS, TrainConfig.optimizer, "optimizer"),
        Opt("--epochs", _count, TrainConfig.epochs,
            "epoch count (default: schedule's)"),
        Opt("--batch-size", _count, TrainConfig.batch_size, "minibatch size"),
        Opt("--steps", _count, TrainConfig.max_steps,
            "stop after this many optimizer steps"),
        Opt("--loss", LOSSES, TrainConfig.loss, "training loss"),
        Opt("--history", str, None, "write per-step loss records here"),
        SEED_OPT,
    )),
    "eval": (cmd_eval, (
        Opt("--data", str, None, "clip manifest to evaluate"),
        Opt("--checkpoint", str, None, "model checkpoint to load"),
        Opt("--aggregate", AGGREGATES, None, "video aggregation"),
        Opt("--per-subject", _bool, False,
            "also report each subject's clips on their own"),
        Opt("--batch-size", _count, 8, "scoring batch size"),
        FORMAT_OPT,
    )),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (2) or the help (0)
        return exc.code
    try:
        command, opts = SUBCOMMANDS[ns.command]
        return command(_resolve(ns, opts))
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ConfigError, BlockConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CliError, TrainingDiverged, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
