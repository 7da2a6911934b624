import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diamrisk
from diamrisk import analysis, cli, harness
from diamrisk.cli import cli_main
from diamrisk.harness import experiment_config_from_dict
from diamrisk.mlp import init_params
from diamrisk.params import ParamVector


def tiny_config(tmp_path, out_name="exp", seed=2):
    obj = {
        "schema_version": 1,
        "dataset": {
            "n_train": 40,
            "n_test": 40,
            "input_dim": 6,
            "num_classes": 3,
            "noise_frac": 0.5,
            "separation": 6.0,
            "seed": seed,
        },
        "mlp": {"hidden_dims": [6], "seed": seed},
        "drm": {"gamma": 0.5, "r": 3, "q": 1, "sample_every": 5, "epochs": 4,
                "batch_size": 10, "seed": seed},
        "landscape": {"n_samples": 40},
        "out_dir": str(tmp_path / out_name),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_missing_config_exits_2(capsys):
    assert cli_main(["run", "--config", "/nonexistent/cfg.json"]) == 2


def test_bad_config_schema_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 1, "drm": {"gamm": 1.0}}))
    assert cli_main(["run", "--config", str(path)]) == 2
    assert "gamm" in capsys.readouterr().err


def test_run_subcommand_end_to_end(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "erm: final test acc" in out
    assert (tmp_path / "exp" / "summary.json").exists()


def test_run_out_and_seed_overrides(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    dest = tmp_path / "elsewhere"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(dest), "--seed", "7"]) == 0
    summary = json.loads((dest / "summary.json").read_text())
    config_echo = json.loads((dest / "config.json").read_text())
    assert config_echo["drm"]["seed"] == 7
    assert summary["w0_sha256"]


def test_rate_subcommand_writes_csv(tmp_path, capsys):
    code = cli_main(
        [
            "rate", "--loss", "tent", "--m", "50,100", "--trials", "30",
            "--grid", "65", "--inner", "65", "--out", str(tmp_path), "--seed", "1",
        ]
    )
    assert code == 0
    lines = (tmp_path / "rate.csv").read_text().splitlines()
    assert "m,trials,q05,q50,q95,slope" in lines


NO_SLOPE_REASONS = {"tent": "all quantiles nonpositive", "reciprocal": "fewer than two sizes have a positive quantile"}


@pytest.mark.parametrize("loss", sorted(NO_SLOPE_REASONS))
def test_rate_says_why_no_slope_was_fitted(tmp_path, capsys, loss):
    # One size: never a slope. The reciprocal's q95 is positive, so "all
    # quantiles nonpositive" would contradict the artifact's all_nonpositive=0.
    argv = ["rate", "--loss", loss, "--m", "250", "--trials", "30", "--grid", "65", "--inner", "65"]
    assert cli_main([*argv, "--out", str(tmp_path)]) == 0
    assert f"{NO_SLOPE_REASONS[loss]}; no slope fitted\n" in capsys.readouterr().out
    all_nonpositive = int(loss == "tent")
    assert f"# all_nonpositive={all_nonpositive}" in (tmp_path / "rate.csv").read_text().splitlines()


def test_confidence_subcommand_writes_csv(tmp_path, capsys):
    code = cli_main(
        [
            "confidence", "--loss", "tent", "--m", "50", "--trials", "10",
            "--grid", "65", "--inner", "65", "--eps", "0.0,0.1",
            "--out", str(tmp_path), "--seed", "1",
        ]
    )
    assert code == 0
    text = (tmp_path / "confidence.csv").read_text()
    assert "epsilon,pass_rate" in text


def test_examples_subcommand_tent_gap_column(capsys):
    code = cli_main(
        ["examples", "--loss", "tent", "--m", "200", "--trials", "20",
         "--grid", "129", "--inner", "65", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    assert header == ["trial", "rho", "erm_gap", "erm_bound", "drm_gap"]
    drm_gaps = [float(line.split(",")[4]) for line in out[1:21]]
    assert all(g <= 0.0 for g in drm_gaps)


def test_examples_subcommand_reciprocal(capsys):
    code = cli_main(
        ["examples", "--loss", "reciprocal", "--m", "200", "--trials", "10",
         "--grid", "65", "--inner", "65", "--seed", "4", "--gamma", "0.5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "erm_gap" in out
    assert "log grid near 0" in out


def _non_finite_window_stderr(capsys, w_lo: str, m: int) -> list[str]:
    argv = ["examples", "--loss", "reciprocal", "--w-lo", w_lo, "--m", str(m), "--trials", "3"]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    return captured.err.splitlines()


# Under filterwarnings("error") a numpy RuntimeWarning would become the
# command's error instead of the message naming the trial.
@pytest.mark.filterwarnings("error")
def test_examples_non_finite_window_exits_1(capsys):
    # 1/w overflows at the window's lower end, so the empirical risk there is
    # inf - inf; the command names the trial instead of printing nan, and
    # prints nothing else to stderr.
    err = _non_finite_window_stderr(capsys, "1e-320", 20)
    assert len(err) == 1 and err[0].startswith("error: trial 0 (m=20): the empirical risk is not finite")


@pytest.mark.filterwarnings("error")
def test_examples_window_overflowing_in_the_label_mean_exits_1(capsys):
    # The losses are finite at w = 1e-306, but count * 1e306 overflows.
    err = _non_finite_window_stderr(capsys, "1e-306", 2000)
    assert len(err) == 1 and err[0].startswith("error: trial 0 (m=2000): the empirical risk is not finite")


def test_examples_window_below_zero_prints_no_log_grid_line(capsys):
    argv = ["examples", "--loss", "reciprocal", "--w-lo", "-3", "--w-hi", "-1", "--m", "20", "--trials", "3"]
    with np.errstate(all="raise"):
        assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert "log grid" not in out and "nan" not in out


def test_seed_defaults_to_0_and_run_keeps_the_config_seeds(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["run", "--config", "c.json"]).seed is None
    for command in ("rate", "confidence", "examples"):
        assert parser.parse_args([command]).seed == 0
    argv = ["examples", "--m", "50", "--trials", "3", "--grid", "9", "--inner", "5"]
    assert cli_main(argv) == 0
    unseeded = capsys.readouterr().out
    assert cli_main([*argv, "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


def test_examples_passes_inner_points(capsys, monkeypatch):
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return analysis.erm_drm_gap_table(*args, **kwargs)

    monkeypatch.setattr(cli, "erm_drm_gap_table", spy)
    assert cli_main(["examples", "--m", "50", "--trials", "2", "--grid", "9", "--inner", "5"]) == 0
    assert seen["inner_points"] == 5


ONE_BOUND = [
    (["rate", "--w-lo", "1"], (1.0, 2.0)),
    (["rate", "--w-hi", "3"], (-2.0, 3.0)),
    (["examples", "--loss", "reciprocal", "--gamma", "0.25", "--w-hi", "3"], (0.25, 3.0)),
]


@pytest.mark.parametrize("argv,window", ONE_BOUND, ids=[" ".join(a) for a, _ in ONE_BOUND])
def test_each_window_bound_defaults_on_its_own(argv, window):
    assert cli._default_interval(cli.build_parser().parse_args(argv)) == window


def test_landscape_subcommand(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    checkpoint = tmp_path / "exp" / "checkpoint_drm.json"
    code = cli_main(
        [
            "landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
            "--gamma", "5", "--n", "200", "--out", str(tmp_path / "land"), "--seed", "5",
        ]
    )
    assert code == 0
    lines = (tmp_path / "land" / "hist.csv").read_text().splitlines()
    values = [float(x) for x in lines if not x.startswith("#")]
    assert len(values) == 200


def test_run_and_landscape_start_no_thread_pool(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a neighborhood evaluation left the calling thread")

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", no_pool)
    cfg_path = tiny_config(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    code = cli_main(
        [
            "landscape", "--config", str(cfg_path),
            "--checkpoint", str(tmp_path / "exp" / "checkpoint_drm.json"),
            "--gamma", "5", "--n", "40", "--out", str(tmp_path / "land"),
        ]
    )
    assert code == 0


def test_landscape_missing_checkpoint_exits_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    code = cli_main(
        ["landscape", "--config", str(cfg_path), "--checkpoint",
         str(tmp_path / "nope.json"), "--gamma", "1", "--n", "10"]
    )
    assert code == 2


def _landscape_without_sampling(monkeypatch, cfg_path, checkpoint):
    """Run `landscape`, failing (exit 1) if it ever gets as far as the data."""

    def no_data(cfg):
        raise AssertionError("checkpoint accepted: datasets were built")

    monkeypatch.setattr(cli, "build_datasets", no_data)
    return cli_main(
        ["landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
         "--gamma", "1", "--n", "10"]
    )


def test_landscape_shape_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    cfg_path = tiny_config(tmp_path)
    bad = ParamVector([("W0", np.zeros((2, 2)))])
    bad_path = tmp_path / "bad_ckpt.json"
    bad.save(bad_path)
    assert _landscape_without_sampling(monkeypatch, cfg_path, bad_path) == 2
    assert "network spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        json.dumps([1.0, 2.0]),
        json.dumps({"W0": {"shape": [2, 3], "data": [1.0, 2.0]}}),  # shape and data disagree
        json.dumps({"W0": {"shape": [2]}}),
        json.dumps({"W0": {"shape": [1], "data": ["x"]}}),
    ],
    ids=["not_json", "not_an_object", "shape_data_disagree", "no_data", "non_numeric"],
)
def test_landscape_malformed_checkpoint_exits_2(tmp_path, capsys, monkeypatch, text):
    cfg_path = tiny_config(tmp_path)
    bad_path = tmp_path / "bad_ckpt.json"
    bad_path.write_text(text)
    assert _landscape_without_sampling(monkeypatch, cfg_path, bad_path) == 2
    assert "not a parameter file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("landscape", "n_samples", 2**31),
        ("landscape", "n_samples", 0),
        ("dataset", "n_test", 0),
        ("mlp", "hidden_dims", ["abc"]),
        ("mlp", "hidden_dims", [0]),
        ("drm", "p", "x"),
        # json.dumps writes these as the NaN / Infinity literals json.load reads.
        ("drm", "gamma", float("nan")),
        ("drm", "final_fraction", float("nan")),
        ("drm", "lr", float("inf")),
        ("dataset", "seed", -1),
        ("mlp", "seed", -1),
        ("drm", "seed", -3),
        ("drm", "sample_every", 0),
        ("drm", "batch_size", 0),
        ("drm", "feasible", {"kind": "box", "lo": 1, "hi": 0}),
        ("drm", "feasible", "box"),
        ("drm", "epochs", 1.7),
        ("dataset", "n_train", True),
        ("mlp", "hidden_dims", [True]),
        # key None replaces the whole section.
        ("dataset", None, []),
        ("landscape", None, 7),
        # Section "config" is the top level.
        ("config", "out_dir", 7),
        ("drm", "lr_schedule", [[36, True]]),
        ("drm", "lr_schedule", [[36.9, 0.1]]),
        ("drm", "lr_schedule", [["36", "0.1"]]),
        ("drm", "lr_schedule", [[float("inf"), 0.1]]),
        ("dataset", "n_train", "60"),
        ("drm", "gamma", " 1.5 "),
        ("mlp", "hidden_dims", ["8", "8"]),
        ("landscape", "n_samples", "16"),
        ("drm", "final_fraction", -1e308),
        # Sizes past harness.MAX_COUNT used to exit 1 after set-up or overflow
        # a float in the parser.
        ("dataset", "n_train", 10**30),
        ("drm", "epochs", 1e308),
    ],
)
def test_bad_config_values_exit_2_before_training(tmp_path, capsys, section, key, value):
    cfg_path = tiny_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    if key is None:
        obj[section] = value
    else:
        (obj if section == "config" else obj[section])[key] = value
    if key == "p":
        del obj["drm"]["sample_every"]
    cfg_path.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert (section if key is None else f"{section}.{key}") in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()  # nothing was trained or written


@pytest.mark.parametrize("flag", ["--n"])
def test_landscape_nonpositive_sizes_exit_2(tmp_path, capsys, flag):
    cfg_path = tiny_config(tmp_path)
    spec = experiment_config_from_dict(json.loads(cfg_path.read_text())).mlp_spec()
    checkpoint = tmp_path / "w.json"
    init_params(spec, np.random.default_rng(0)).save(checkpoint)
    code = cli_main(
        ["landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
         "--gamma", "1", "--n", "10", flag, "0", "--out", str(tmp_path / "land")]
    )
    assert code == 2
    assert not (tmp_path / "land").exists()


def test_landscape_bins_key_exits_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    obj["landscape"]["bins"] = 10
    cfg_path.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "bins" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_landscape_non_finite_risk_exits_1_and_writes_nothing(tmp_path, capsys):
    # At radius 1e200 the forward pass overflows; the risk must not reach hist.csv.
    cfg_path = tiny_config(tmp_path)
    spec = experiment_config_from_dict(json.loads(cfg_path.read_text())).mlp_spec()
    checkpoint = tmp_path / "w.json"
    init_params(spec, np.random.default_rng(0)).save(checkpoint)
    code = cli_main(
        ["landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
         "--gamma", "1e200", "--n", "5", "--out", str(tmp_path / "X")]
    )
    assert code == 1
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert len(errors) == 1 and "non-finite neighborhood risk" in errors[0]
    assert not (tmp_path / "X").exists()


SMALL_STUDY = ["--loss", "tent", "--trials", "30", "--grid", "65", "--inner", "65"]


def _small_argv(tmp_path, command) -> list[str]:
    """A quick, valid invocation of command, without --out."""
    if command in ("run", "landscape"):
        cfg_path = tiny_config(tmp_path)
        if command == "run":
            return ["run", "--config", str(cfg_path)]
        spec = experiment_config_from_dict(json.loads(cfg_path.read_text())).mlp_spec()
        checkpoint = tmp_path / "w.json"
        init_params(spec, np.random.default_rng(0)).save(checkpoint)
        return [command, "--config", str(cfg_path), "--checkpoint", str(checkpoint),
                "--gamma", "1", "--n", "10"]
    return [command, "--m", "50,100" if command == "rate" else "50", *SMALL_STUDY]


BAD_FLAGS = [
    ("rate", ["--gamma", "nan"], "--gamma"),
    ("rate", ["--gamma", "-1"], "--gamma"),
    ("rate", ["--grid", "2"], "--grid"),
    ("rate", ["--inner", "2"], "--inner"),
    ("rate", ["--kappa", "1"], "--kappa"),
    ("rate", ["--gamma-loss", "1"], "--gamma-loss"),
    ("rate", ["--w-lo", "nan", "--w-hi", "1"], "--w-lo"),
    ("rate", ["--w-lo", "0", "--w-hi", "inf"], "--w-hi"),
    ("rate", ["--w-lo", "1", "--w-hi", "0"], "window"),
    ("rate", ["--w-lo", "3"], "window"),
    ("rate", ["--m", "100,50"], "--m"),
    ("rate", ["--trials", "10"], "--trials"),
    ("rate", ["--alpha", "1"], "--alpha"),
    ("rate", ["--seed", "-1"], "--seed"),
    ("confidence", ["--gamma", "nan"], "--gamma"),
    ("confidence", ["--m", "0"], "--m"),
    ("confidence", ["--trials", "0"], "--trials"),
    ("confidence", ["--delta", "nan"], "--delta"),
    ("confidence", ["--eps", "0.1,nan"], "--eps"),
    ("examples", ["--m", "0"], "--m"),
    ("examples", ["--trials", "-1"], "--trials"),
    ("examples", ["--w-hi", "-3"], "window"),
    ("landscape", ["--gamma", "-1"], "--gamma"),
    ("landscape", ["--gamma", "nan"], "--gamma"),
    ("landscape", ["--seed", "-1"], "--seed"),
    # Sizes past harness.MAX_COUNT used to exit 1 with numpy's "Maximum allowed
    # size exceeded".
    ("examples", ["--m", "100000000000000000000"], "--m"),
    ("rate", ["--grid", "100000000000000000000"], "--grid"),
]


@pytest.mark.parametrize(
    "command,extra,fragment",
    BAD_FLAGS,
    ids=[f"{c} {' '.join(e)}" for c, e, _ in BAD_FLAGS],
)
def test_bad_numeric_flags_exit_2_before_work(tmp_path, capsys, command, extra, fragment):
    out = tmp_path / "out"
    assert cli_main([*_small_argv(tmp_path, command), *extra, "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


# Every size flag and the commands that take it.
COUNT_FLAGS = [
    ("rate", "--m"), ("rate", "--trials"), ("rate", "--grid"), ("rate", "--inner"),
    ("confidence", "--m"), ("confidence", "--trials"), ("examples", "--m"), ("examples", "--trials"),
    ("landscape", "--n"),
]


@pytest.mark.parametrize("command,flag", COUNT_FLAGS)
def test_count_flags_are_bounded_at_parse_time(tmp_path, capsys, command, flag):
    # Parsing only: no subcommand runs. Past the bound, confidence --trials
    # used to run until killed.
    parser = cli.build_parser()
    argv = _small_argv(tmp_path, command)
    parser.parse_args([*argv, flag, str(harness.MAX_COUNT)])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, flag, str(harness.MAX_COUNT + 1)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def diverging_config(tmp_path, **drm):
    """A 30-row, one-iteration-per-epoch experiment over two epochs."""
    obj = {
        "schema_version": 1,
        "dataset": {"n_train": 30, "n_test": 30},
        "mlp": {"hidden_dims": [4]},
        "drm": {"epochs": 2, **drm},
        "out_dir": str(tmp_path / "exp"),
    }
    path = tmp_path / "diverging.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("command", ["landscape", "run", "run-gamma"])
def test_overflow_exits_1_with_only_the_error_line(tmp_path, command):
    # A fresh interpreter, so numpy's warnings would reach stderr as they do
    # for a user of the console script.
    if command == "landscape":
        argv = [*_small_argv(tmp_path, "landscape"), "--gamma", "1e200", "--n", "5"]
    elif command == "run":
        argv = ["run", "--config", str(diverging_config(tmp_path, lr=1e200, final_lr=1e200))]
    else:  # ERM's first epoch-end estimate overflows; its second epoch never runs
        argv = ["run", "--config", str(diverging_config(tmp_path, gamma=1e200))]
    src = str(Path(diamrisk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "diamrisk.cli", *argv, "--out", str(tmp_path / "X")],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
    assert not (tmp_path / "X").exists()
    if command == "run-gamma":
        assert "(epoch 0," in lines[0] and "non-finite diametrical risk estimate" in lines[0]


def test_overflowing_gamma_draw_exits_1_with_one_divergence_line(tmp_path):
    # drm.gamma 1e308: gamma / |segment| overflows while the evaluation
    # directions are drawn, before iteration 0 of ERM.
    argv = ["run", "--config", str(diverging_config(tmp_path, gamma=1e308)), "--out", str(tmp_path / "X")]
    src = str(Path(diamrisk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "diamrisk.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged at iteration 0 (epoch 0,"), done.stderr
    assert "evaluation directions" in lines[0]
    assert not (tmp_path / "X").exists()


def test_divergence_on_the_last_step_is_reported_before_the_histograms(tmp_path, capsys):
    # Only iteration 1, the last of epoch 1, uses lr 1e250: the parameters stay
    # finite and the epoch-end train risk overflows.
    cfg_path = diverging_config(tmp_path, lr_schedule=[[1, 0.01], [2, 1e250]])
    assert cli_main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "diverged at iteration 1 (epoch 1, lr 1e+250" in err and "non-finite train risk" in err
    assert not (tmp_path / "exp").exists()


def test_divergence_names_the_iteration_and_writes_nothing(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    obj["mlp"]["hidden_dims"] = [32, 32]
    obj["drm"]["lr"] = 1e6
    cfg_path.write_text(json.dumps(obj))
    with np.errstate(all="ignore"):
        assert cli_main(["run", "--config", str(cfg_path)]) == 1
    assert re.search(r"diverged at iteration \d+ \(epoch \d+", capsys.readouterr().err)
    assert not (tmp_path / "exp").exists()


# The functions that do each subcommand's work; the test below sets them all
# to None, so that any work raises TypeError and exits 1.
WORK = [
    (harness, "build_datasets"), (harness, "sgd_erm_run"), (cli, "rate_study"),
    (cli, "confidence_region_check"), (cli, "build_datasets"), (cli, "landscape_histogram"),
    (cli, "erm_drm_gap_table"),
]
BLOCKED = [(c, b) for c in ("run", "rate", "confidence", "landscape", "examples") for b in ("exp", "parent")]


@pytest.mark.parametrize(
    "command,blocker", BLOCKED, ids=[b if c == "run" else f"{c}-{b}" for c, b in BLOCKED]
)
def test_out_path_under_a_file_exits_2_before_training(tmp_path, capsys, monkeypatch, command, blocker):
    argv = _small_argv(tmp_path, command)
    (tmp_path / blocker).write_text("keep")
    out = tmp_path / "exp" if blocker == "exp" else tmp_path / "parent" / "exp"
    for module, name in WORK:
        monkeypatch.setattr(module, name, None)
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert (tmp_path / blocker).read_text() == "keep"


def test_failed_write_leaves_an_earlier_rate_csv_unchanged(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rate"
    argv = [*_small_argv(tmp_path, "rate"), "--out", str(out)]
    assert cli_main([*argv, "--seed", "1"]) == 0
    before = (out / "rate.csv").read_bytes()

    def fail(path, text, *args, **kwargs):
        path.write_bytes(text[: len(text) // 2].encode())  # the disk fills halfway through
        raise OSError(f"disk full writing {path.name}")

    monkeypatch.setattr(Path, "write_text", fail)
    assert cli_main([*argv, "--seed", "2"]) == 1
    assert "disk full writing rate.csv" in capsys.readouterr().err
    assert (out / "rate.csv").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rate"]  # no .rate.* staging directory
    assert [p.name for p in out.iterdir()] == ["rate.csv"]


def test_rate_without_out_writes_only_rate_csv_in_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(_small_argv(tmp_path, "rate")) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rate.csv"]
    assert capsys.readouterr().out.endswith("wrote rate.csv\n")
