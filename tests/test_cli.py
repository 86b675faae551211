"""Command-line behavior: flags, config overlay, determinism, exit codes."""

import filecmp
import os

import numpy as np
import pytest

from dmsn import cli
from dmsn.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDescribe:
    def test_describe_extents_for_default_model(self, capsys):
        code, out, _ = run(capsys, "describe", "--model", "dmsn")
        assert code == 0
        for token in ("16x56x56", "8x28x28", "8x14x14", "8x7x7", "8x4x4",
                      "scalar"):
            assert token in out
        assert sum(1 for line in out.splitlines()
                   if line.startswith("res")) == 17

    def test_frames_8_halves_time_extents(self, capsys):
        code, out, _ = run(capsys, "describe", "--model", "dmsn-a",
                           "--frames", "8")
        assert code == 0
        assert "8x56x56" in out and "4x28x28" in out and "4x4x4" in out

    def test_unknown_model_lists_valid_names(self, capsys):
        code, _, err = run(capsys, "describe", "--model", "resnet")
        assert code != 0
        assert "dmsn-a" in err and "dmsn-c" in err

    def test_writes_to_out_file(self, tmp_path, capsys):
        path = tmp_path / "describe.txt"
        code, out, _ = run(capsys, "describe", "--out", str(path))
        assert code == 0 and out == ""
        assert "16x56x56" in path.read_text()


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("golden, argv", [
    ("describe.txt", ["describe"]),
    ("describe_detail.txt", ["describe", "--detail"]),
    ("describe_b_br3_f8_detail.txt",
     ["describe", "--model", "dmsn-b", "--branches", "3", "--frames", "8",
      "--detail"]),
    ("count.txt", ["count", "--model", "dmsn-a,dmsn-b,dmsn-c,dmsn",
                   "--branches", "2,3,4", "--frames", "8,16"]),
])
def test_output_matches_golden_text(capsys, golden, argv):
    # integer shape and cost arithmetic only, so the text is machine-independent
    code, out, _ = run(capsys, *argv)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, golden), encoding="utf-8") as fh:
        assert out == fh.read()


class TestCount:
    def test_four_models_ordered_as_given(self, capsys):
        code, out, _ = run(capsys, "count", "--model",
                           "dmsn-a,dmsn-b,dmsn-c,dmsn", "--frames", "16")
        assert code == 0
        names = [line.split()[0] for line in out.strip().splitlines()[1:]]
        assert names == ["dmsn-a", "dmsn-b", "dmsn-c", "dmsn"]
        params = [float(line.split()[1]) for line in
                  out.strip().splitlines()[1:]]
        assert params[0] < params[3] < params[1] < params[2]

    def test_frames_sweep_flops_ratio(self, capsys):
        code, out, _ = run(capsys, "count", "--model", "dmsn", "--frames",
                           "8,16,24,32", "--format", "csv")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        flops = [float(r[2]) for r in rows]
        assert [round(f / flops[0], 2) for f in flops] == [1.0, 2.0, 3.0, 4.0]

    def test_branch_sweep_increasing_params(self, capsys):
        code, out, _ = run(capsys, "count", "--model", "dmsn",
                           "--branches", "2,3,4")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert [ln.split()[0] for ln in lines] == ["dmsn-br2", "dmsn-br3",
                                                   "dmsn"]
        params = [float(ln.split()[1]) for ln in lines]
        assert params[0] < params[1] < params[2]

    def test_mac2_doubles_flops(self, capsys):
        _, out1, _ = run(capsys, "count", "--model", "dmsn-a",
                         "--format", "csv")
        _, out2, _ = run(capsys, "count", "--model", "dmsn-a",
                         "--convention", "mac2", "--format", "csv")
        f1 = float(out1.strip().splitlines()[1].split(",")[2])
        f2 = float(out2.strip().splitlines()[1].split(",")[2])
        assert abs(f2 - 2 * f1) < 0.02

    def test_bad_convention_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--convention", "mac3")
        assert code == 2 and "convention" in err

    def test_bad_format_is_usage_error(self, capsys):
        code, out, err = run(capsys, "count", "--format", "xml")
        assert code == 2 and out == ""
        assert "unknown format 'xml'; valid: text, csv" in err

    @pytest.mark.parametrize("flag", ["--frames", "--model"])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "table.txt"
        code, stdout, err = run(capsys, "count", flag, ",", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == (f"usage error: {flag}: cannot use ',': needs at least "
                       f"one value\n")
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["describe", "--width", "1/0"], "--width"),
    (["describe", "--frames", "abc"], "--frames"),
    (["count", "--branches", "x"], "--branches"),
])
def test_unparsable_option_value_is_usage_error(capsys, argv, flag):
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("usage error") and flag in err


@pytest.mark.parametrize("argv", [
    ["describe", "--bogus"],
    # --seed and --format belong only to the subcommands that read them
    ["describe", "--format", "csv"],
    ["describe", "--seed", "1"],
    ["eval", "--seed", "1"],
], ids=["bogus", "describe-format", "describe-seed", "eval-seed"])
def test_undeclared_flag_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and f"unrecognized arguments: {argv[1]}" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "describe", "--help")
    assert code == 0 and out.startswith("usage: dmsn describe")


@pytest.mark.parametrize("argv, message", [
    (["describe", "--width", "1/64"], "mid channels 1 not divisible by 2"),
    (["describe", "--width", "1/32"], "mid channels 2 cannot feed 4 branches"),
], ids=["width-1/64", "width-1/32"])
def test_unbuildable_block_config_is_config_error(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2 and message in err


class TestConfigOverlay:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=8\nmodel=dmsn-a\n")
        _, out, _ = run(capsys, "describe", "--config", str(cfg))
        assert "model dmsn-a" in out and "frames 8" in out
        _, out, _ = run(capsys, "describe", "--config", str(cfg),
                        "--frames", "16")
        assert "frames 16" in out and "model dmsn-a" in out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run(capsys, "describe", "--config", str(cfg))
        assert code == 2 and "bogus" in err

    def test_config_key_of_undeclared_flag_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\n")
        code, _, err = run(capsys, "describe", "--config", str(cfg))
        assert code == 2 and "unknown config keys: seed" in err

    def test_unparsable_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("width=1/0\n")
        code, _, err = run(capsys, "describe", "--config", str(cfg))
        assert code == 2 and "--width" in err and "1/0" in err

    def test_repeated_config_key_is_usage_error(self, tmp_path, capsys):
        # a later value must not silently replace an earlier, unparsable one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frames=abc\n# comment\nframes=8\n")
        code, _, err = run(capsys, "describe", "--config", str(cfg))
        assert code == 2 and "run.cfg:3" in err and "'frames'" in err

    def test_missing_config_file_fails(self, capsys):
        code, _, err = run(capsys, "describe", "--config", "/nonexistent.cfg")
        assert code == 1 and "config" in err


class TestGradcheckCommand:
    def test_passes_and_names_variants(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        for token in ("block variant A", "block variant B", "block variant C",
                      "micro model", "all passed"):
            assert token in out

    def test_injected_bug_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--inject-bug")
        assert code == 1 and "FAIL" in out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cycle")
    code = main(["synth", "--clips", "8", "--frames", "8", "--size", "16",
                 "--subjects", "3", "--seed", "7", "--out",
                 str(root / "data")])
    assert code == 0
    code = main(["train", "--data", str(root / "data/manifest.tsv"),
                 "--model", "dmsn", "--frames", "8", "--size", "16",
                 "--width", "1/8", "--schedule", "pain", "--epochs", "1",
                 "--seed", "1", "--out", str(root / "model.ckpt"),
                 "--history", str(root / "history.txt")])
    assert code == 0
    return root


class TestSynthTrainEval:
    def test_synth_is_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code, _, _ = run(capsys, "synth", "--clips", "6", "--frames", "4",
                             "--size", "12", "--seed", "3", "--out",
                             str(tmp_path / sub))
            assert code == 0
        files = [name for name in os.listdir(tmp_path / "a")
                 if (tmp_path / "a" / name).is_file()]
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a", tmp_path / "b", files, shallow=False)
        assert not mismatch and not errors
        clips_a = sorted(os.listdir(tmp_path / "a" / "clips"))
        clips_b = sorted(os.listdir(tmp_path / "b" / "clips"))
        assert clips_a == clips_b
        for name in clips_a:
            assert (tmp_path / "a" / "clips" / name).read_bytes() == \
                (tmp_path / "b" / "clips" / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--clips", "--frames", "--size",
                                      "--subjects"])
    def test_synth_rejects_zero_count(self, tmp_path, capsys, flag):
        out = tmp_path / "data"
        code, stdout, err = run(capsys, "synth", flag, "0", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == (f"usage error: {flag}: cannot use '0': must be at "
                       f"least 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--label-min", "nan", "label_min"),
        ("--label-max", "inf", "label_max")])
    def test_synth_rejects_non_finite_label_bound(self, tmp_path, capsys, flag,
                                                  value, field):
        out = tmp_path / "data"
        code, stdout, err = run(capsys, "synth", flag, value, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {field} must be finite, got {value}\n"
        assert not out.exists()

    def test_synth_writes_generator_config(self, workspace):
        text = (workspace / "data" / "synth_config.txt").read_text()
        assert "clip_count=8" in text and "seed=7" in text

    def test_history_records_schedule_rate(self, workspace):
        lines = (workspace / "history.txt").read_text().splitlines()
        assert len(lines) == 1  # 8 clips / batch 8 = 1 step per epoch
        assert float(lines[0].split("\t")[2]) == 0.001

    def test_eval_reports_metrics(self, workspace, capsys):
        code, out, _ = run(capsys, "eval", "--data",
                           str(workspace / "data/manifest.tsv"),
                           "--checkpoint", str(workspace / "model.ckpt"))
        assert code == 0
        assert out.startswith("overall")
        assert "mae" in out and "rmse" in out and "mse" in out

    def test_eval_per_subject_reports_each_subject(self, workspace, capsys):
        code, out, _ = run(capsys, "eval", "--data",
                           str(workspace / "data/manifest.tsv"),
                           "--checkpoint", str(workspace / "model.ckpt"),
                           "--per-subject", "--aggregate", "median",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "scope,subjects,clips,mae,rmse,mse"
        rows = [ln.split(",")[:3] for ln in lines[1:]]
        assert [r[0] for r in rows] == ["overall", "subject", "subject",
                                        "subject", "video-median"]
        assert [r[1] for r in rows[1:4]] == ["s001", "s002", "s003"]
        assert sum(int(r[2]) for r in rows[1:4]) == int(rows[0][2])

    def test_eval_geometry_mismatch_fails(self, workspace, tmp_path, capsys):
        code = main(["synth", "--clips", "4", "--frames", "4", "--size", "16",
                     "--seed", "2", "--out", str(tmp_path / "other")])
        assert code == 0
        code, _, err = run(capsys, "eval", "--data",
                           str(tmp_path / "other/manifest.tsv"),
                           "--checkpoint", str(workspace / "model.ckpt"))
        assert code == 1 and "shape" in err

    def test_train_requires_data_and_out(self, capsys):
        code, _, err = run(capsys, "train", "--out", "/tmp/x.ckpt")
        assert code == 2 and "--data" in err

    def test_train_rejects_unknown_schedule(self, workspace, capsys):
        code, _, err = run(capsys, "train", "--data",
                           str(workspace / "data/manifest.tsv"),
                           "--schedule", "warmup", "--out", "/tmp/x.ckpt")
        assert code == 2 and "schedule" in err

    @pytest.mark.parametrize("flag, value, valid", [
        ("--loss", "huber", "mse, mae"),
        ("--optimizer", "lbfgs", "sgd, adam")], ids=["loss", "optimizer"])
    def test_train_rejects_unknown_name(self, workspace, tmp_path, capsys,
                                        flag, value, valid):
        out = tmp_path / "x.ckpt"
        code, _, err = run(capsys, "train", "--data",
                           str(workspace / "data/manifest.tsv"),
                           flag, value, "--out", str(out))
        assert code == 2 and f"unknown {flag[2:]} {value!r}; valid: {valid}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "-1"), ("--batch-size", "0"), ("--epochs", "-1"),
        ("--epochs", "0"), ("--steps", "0"), ("--steps", "-3")])
    def test_train_rejects_non_positive_count(self, workspace, tmp_path,
                                              capsys, flag, value):
        out = tmp_path / "x.ckpt"
        code, stdout, err = run(capsys, "train", "--data",
                                str(workspace / "data/manifest.tsv"),
                                flag, value, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"usage error: {flag}: cannot use '{value}'")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_eval_rejects_non_positive_batch_size(self, workspace, tmp_path,
                                                  capsys, value):
        out = tmp_path / "metrics.txt"
        code, stdout, err = run(capsys, "eval", "--data",
                                str(workspace / "data/manifest.tsv"),
                                "--checkpoint", str(workspace / "model.ckpt"),
                                "--batch-size", value, "--out", str(out))
        assert code == 2 and stdout == ""
        assert err.startswith(f"usage error: --batch-size: cannot use "
                              f"'{value}'")
        assert not out.exists()

    def test_eval_rejects_unknown_format(self, workspace, capsys):
        code, out, err = run(capsys, "eval", "--data",
                             str(workspace / "data/manifest.tsv"),
                             "--checkpoint", str(workspace / "model.ckpt"),
                             "--format", "xml")
        assert code == 2 and out == ""
        assert "unknown format 'xml'; valid: text, csv" in err

    def test_depression_schedule_defaults_three_epochs_two_phase(
            self, workspace, tmp_path, capsys):
        history = tmp_path / "hist.txt"
        code, _, _ = run(capsys, "train", "--data",
                         str(workspace / "data/manifest.tsv"),
                         "--model", "dmsn-a", "--frames", "8", "--size", "16",
                         "--width", "1/8", "--schedule", "depression",
                         "--seed", "4", "--out", str(tmp_path / "m.ckpt"),
                         "--history", str(history))
        assert code == 0
        records = [line.split("\t") for line in
                   history.read_text().splitlines()]
        assert [r[1] for r in records] == ["0", "1", "2"]  # 1 step per epoch
        assert [float(r[2]) for r in records] == [0.005, 0.0005, 0.0005]

    def test_eval_per_subject_single_subject(self, workspace, tmp_path,
                                            capsys):
        code, _, _ = run(capsys, "synth", "--clips", "2", "--frames", "8",
                         "--size", "16", "--subjects", "1", "--seed", "9",
                         "--out", str(tmp_path / "solo"))
        assert code == 0
        code, out, _ = run(capsys, "eval", "--data",
                           str(tmp_path / "solo/manifest.tsv"),
                           "--checkpoint", str(workspace / "model.ckpt"),
                           "--per-subject")
        assert code == 0
        assert [ln.split()[:2] for ln in out.splitlines()] == [
            ["overall", "all"], ["subject", "s001"]]

    def test_gradcheck_rejects_unknown_scale(self, capsys):
        # micro was the flag's one legal value; the flag itself is gone
        code, _, err = run(capsys, "gradcheck", "--scale", "micro")
        assert code == 2 and "unrecognized arguments: --scale" in err

    def test_identical_train_invocations_identical_checkpoints(
            self, workspace, tmp_path):
        args = ["train", "--data", str(workspace / "data/manifest.tsv"),
                "--model", "dmsn-a", "--frames", "8", "--size", "16",
                "--width", "1/8", "--schedule", "pain", "--epochs", "1",
                "--seed", "5"]
        main(args + ["--out", str(tmp_path / "one.ckpt")])
        main(args + ["--out", str(tmp_path / "two.ckpt")])
        assert (tmp_path / "one.ckpt").read_bytes() == \
            (tmp_path / "two.ckpt").read_bytes()


class _ReadRecorder(dict):
    """The resolved option values, noting each key that is read."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)


def test_every_declared_option_is_read(tmp_path, monkeypatch):
    data, ckpt = str(tmp_path / "data"), str(tmp_path / "m.ckpt")
    model = ["--frames", "8", "--size", "16", "--width", "1/8"]
    runs = {
        "describe": [],
        "count": [],
        "synth": ["--clips", "2", "--frames", "8", "--size", "16",
                  "--out", data],
        "train": ["--data", data + "/manifest.tsv", "--steps", "1",
                  "--out", ckpt] + model,
        "eval": ["--data", data + "/manifest.tsv", "--checkpoint", ckpt],
        "gradcheck": [],
    }
    resolve, model_config = cli._resolve, cli._model_config
    for command, argv in runs.items():
        reads = set()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_resolve", lambda ns, opts: _ReadRecorder(
                resolve(ns, opts), reads))
            # cmd_count hands _model_config copies of the values
            patch.setattr(cli, "_model_config", lambda values: model_config(
                _ReadRecorder(values, reads)))
            patch.setattr(cli, "run_gradient_suites",
                          lambda seed, inject_bug: [])
            assert main([command] + argv) == 0, command
        declared = {opt.dest for opt in cli.SUBCOMMANDS[command]
                    + cli.GLOBAL_OPTS} - {"config"}   # _resolve consumes it
        assert declared - reads == set(), command
