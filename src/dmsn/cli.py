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
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .blocks import BlockConfigError, describe_block
from .complexity import count_flops, emit_cost_table
from .gradsuite import run_gradient_suites
from .model import (ConfigError, ModelConfig, build_model, load_checkpoint,
                    model_plan, save_checkpoint)
from .ops import POOL_GEOMETRY, GeometryError, ShapeError
from .pipeline import (DatasetError, ManifestError, SynthConfig,
                       aggregate_video_score, format_synth_config,
                       load_manifest, metric_mae, metric_mse, metric_rmse,
                       save_manifest, synth_generate)
from .training import (LOSSES, OPTIMIZER_STEPS, SCHEDULES, TrainConfig,
                       TrainingDiverged, predict_scores, save_history, train)


class CliError(Exception):
    """Fatal subcommand error; message goes to stderr, exit code 1."""


class UsageError(Exception):
    """Bad flag/config combination; message goes to stderr, exit code 2."""


def _count(text: str) -> int:
    if int(text) < 1:
        raise ValueError("must be at least 1")
    return int(text)


def _int_list(text: str) -> list[int]:
    return [int(part) for part in _str_list(text)]


def _str_list(text: str) -> list[str]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("needs at least one value")
    return parts


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


@dataclass(frozen=True)
class Opt:
    flag: str
    parse: object
    default: object
    help: str
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


GLOBAL_OPTS = (
    Opt("--config", str, None, "key=value overlay file (flags win)"),
    Opt("--out", str, None, "output path (default: stdout / cwd)"),
)
SEED_OPT = Opt("--seed", int, 0, "random seed")
FORMATS = ("text", "csv")
FORMAT_OPT = Opt("--format", str, "text", "output format: text or csv")

MODEL_OPTS = (
    Opt("--model", str, "dmsn", "model kind: dmsn, dmsn-a, dmsn-b, dmsn-c"),
    Opt("--frames", int, 16, "clip length in frames"),
    Opt("--size", int, 112, "input height/width in pixels"),
    Opt("--branches", int, 4, "branch count per block (2-4)"),
    Opt("--width", Fraction, Fraction(1), "channel width multiplier, e.g. 1/8"),
)

SUBCOMMANDS: dict[str, tuple[Opt, ...]] = {
    "describe": MODEL_OPTS + (
        Opt("--detail", _bool, False,
            "also list every conv inside each block", is_flag=True),
    ),
    "count": (
        Opt("--model", _str_list, ["dmsn"], "comma list of model kinds"),
        Opt("--frames", _int_list, [16], "comma list of clip lengths"),
        Opt("--branches", _int_list, [4], "comma list of branch counts"),
        Opt("--size", int, 112, "input height/width in pixels"),
        Opt("--width", Fraction, Fraction(1), "channel width multiplier"),
        Opt("--convention", str, "mac1", "FLOP convention: mac1 or mac2"),
        FORMAT_OPT,
    ),
    "gradcheck": (
        Opt("--inject-bug", _bool, False,
            "negative control: corrupt one analytic gradient", is_flag=True),
        SEED_OPT,
    ),
    "synth": (
        Opt("--clips", _count, 64, "number of clips to generate"),
        Opt("--frames", _count, 16, "clip length in frames"),
        Opt("--size", _count, 32, "frame height/width in pixels"),
        Opt("--subjects", _count, 4, "number of synthetic subjects"),
        Opt("--label-min", float, 0.0, "lower label bound"),
        Opt("--label-max", float, 4.0, "upper label bound"),
        Opt("--speed", float, 1.0, "bump displacement per frame per label unit"),
        SEED_OPT,
    ),
    "train": MODEL_OPTS + (
        Opt("--data", str, None, "clip manifest to train on"),
        Opt("--schedule", str, "depression",
            "learning-rate schedule: pretrain, depression, pain"),
        Opt("--optimizer", str, "adam", "optimizer: sgd or adam"),
        Opt("--epochs", _count, None, "epoch count (default: schedule's)"),
        Opt("--batch-size", _count, 8, "minibatch size"),
        Opt("--steps", _count, None, "stop after this many optimizer steps"),
        Opt("--loss", str, "mse", "training loss: mse or mae"),
        Opt("--history", str, None, "write per-step loss records here"),
        SEED_OPT,
    ),
    "eval": (
        Opt("--data", str, None, "clip manifest to evaluate"),
        Opt("--checkpoint", str, None, "model checkpoint to load"),
        Opt("--aggregate", str, None, "video aggregation: median"),
        Opt("--per-subject", _bool, False,
            "also report each subject's clips on their own", is_flag=True),
        Opt("--batch-size", _count, 8, "scoring batch size"),
        FORMAT_OPT,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmsn",
        description="Decomposed multiscale spatiotemporal network toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, opts in SUBCOMMANDS.items():
        sub = subs.add_parser(name)
        for opt in opts + GLOBAL_OPTS:
            if opt.is_flag:
                sub.add_argument(opt.flag, dest=opt.dest, action="store_const",
                                 const="true", default=None, help=opt.help)
            else:
                sub.add_argument(opt.flag, dest=opt.dest, type=str,
                                 default=None, help=opt.help)
    return parser


def _read_config(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                key = key.strip().replace("-", "_")
                if key in values:
                    raise UsageError(f"{path}:{lineno}: config key {key!r} "
                                     f"given twice")
                values[key] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    return values


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
            values[dest] = opt.default if raw is None else opt.parse(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{opt.flag}: cannot use {raw!r}: {exc}") from None
    return values


def _model_config(values: dict) -> ModelConfig:
    return ModelConfig(model_kind=values["model"],
                       clip_len=values["frames"],
                       input_size=(values["size"], values["size"]),
                       branch_count=values["branches"],
                       width_multiplier=values["width"])


def _check_choice(values: dict, dest: str, valid) -> None:
    """A value outside ``valid`` is a usage error that lists the valid ones."""
    if values[dest] not in valid:
        raise UsageError(f"unknown {dest} {values[dest]!r}; valid: "
                         f"{', '.join(valid)}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
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
    plan = model_plan(spec)
    shapes = {name: out_shape for name, _, _, _, out_shape in plan}
    shapes["input"] = plan[0][3]
    stem = spec.conv1
    kernel, stride, padding = POOL_GEOMETRY
    # a cubic pool prints each geometry triple as one number
    stride, padding = (v[0] if len(set(v)) == 1 else _tight(v)
                       for v in (stride, padding))
    details = {
        "input": "",
        "conv1": f"{_kernel(stem.kernel)} s{_tight(stem.stride)} "
                 f"p{_tight(stem.padding)}  "
                 f"{stem.in_channels}->{stem.out_channels}",
        "pool": f"max {_kernel(kernel)} s{stride} p{padding}",
    }
    for name, detail in details.items():
        _, c, t, h, w = shapes[name]
        lines.append(f"{name:<10} {detail:<28} {c:>5}  {t}x{h}x{w}")
    for prefix, kind, block, _, out_shape in plan:
        if kind == "block":
            _, _, t, h, w = out_shape
            lines.append(f"{prefix[:-1]:<13} DMSN-{block.variant}  "
                         f"{block.in_channels}->{block.out_channels}  "
                         f"s{block.spatial_stride}  {t}x{h}x{w}")
            if values["detail"]:
                lines.extend("  " + line
                             for line in describe_block(block, prefix))
    lines.append(f"head       spatial-avgpool, fc {spec.head_channels}->1, "
                 f"temporal-avgpool  scalar")
    _emit("\n".join(lines) + "\n", values["out"])
    return 0


def cmd_count(values: dict) -> int:
    _check_choice(values, "convention", ("mac1", "mac2"))
    _check_choice(values, "format", FORMATS)
    reports = []
    for kind in values["model"]:
        for branches in values["branches"]:
            for frames in values["frames"]:
                config = _model_config({**values, "model": kind,
                                        "frames": frames,
                                        "branches": branches})
                report = count_flops(build_model(config),
                                     convention=values["convention"])
                if branches != 4:
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
    _check_choice(values, "schedule", SCHEDULES)
    _check_choice(values, "optimizer", OPTIMIZER_STEPS)
    _check_choice(values, "loss", LOSSES)
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


def _metric_rows(scores: np.ndarray, labels: np.ndarray, dataset, values: dict):
    rows = [("overall", "all", len(scores), metric_mae(scores, labels),
             metric_rmse(scores, labels), metric_mse(scores, labels))]
    if values["per_subject"]:
        # slices of one model's scores; no model was trained without them
        for subject in dataset.subjects():
            keep = [i for i, c in enumerate(dataset.clips)
                    if c.subject_id == subject]
            p, t = scores[keep], labels[keep]
            rows.append(("subject", subject, len(keep), metric_mae(p, t),
                         metric_rmse(p, t), metric_mse(p, t)))
    if values["aggregate"] is not None:
        if values["aggregate"] != "median":
            raise UsageError(f"unknown aggregation {values['aggregate']!r}")
        videos: dict[str, list[int]] = {}
        for i, clip in enumerate(dataset.clips):
            videos.setdefault(clip.video_id, []).append(i)
        vp = [aggregate_video_score(scores[idx]) for idx in videos.values()]
        vt = [aggregate_video_score(labels[idx]) for idx in videos.values()]
        rows.append(("video-median", "all", len(vp), metric_mae(vp, vt),
                     metric_rmse(vp, vt), metric_mse(vp, vt)))
    return rows


def cmd_eval(values: dict) -> int:
    if values["data"] is None or values["checkpoint"] is None:
        raise UsageError("eval needs --data <manifest> and --checkpoint <file>")
    _check_choice(values, "format", FORMATS)
    spec, params = load_checkpoint(values["checkpoint"])
    dataset = load_manifest(values["data"])
    scores = predict_scores(spec, params, dataset.clip_arrays(),
                            batch_size=values["batch_size"])
    labels = dataset.labels()
    rows = _metric_rows(scores, labels, dataset, values)
    if values["format"] == "csv":
        lines = ["scope,subjects,clips,mae,rmse,mse"]
        lines += [f"{scope},{subj},{n},{mae:.6f},{rmse:.6f},{mse:.6f}"
                  for scope, subj, n, mae, rmse, mse in rows]
    else:
        lines = [f"{scope:<14} {subj:<14} n={n:<5} mae {mae:.6f}  "
                 f"rmse {rmse:.6f}  mse {mse:.6f}"
                 for scope, subj, n, mae, rmse, mse in rows]
    _emit("\n".join(lines) + "\n", values["out"])
    return 0


COMMANDS = {
    "describe": cmd_describe,
    "count": cmd_count,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (2) or the help (0)
        return exc.code
    try:
        values = _resolve(ns, SUBCOMMANDS[ns.command])
        return COMMANDS[ns.command](values)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (ConfigError, BlockConfigError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CliError, ManifestError, DatasetError, ShapeError, GeometryError,
            TrainingDiverged, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
