import argparse
import concurrent.futures
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import diamrisk
from diamrisk import analysis, cli, harness
from diamrisk.cli import cli_main
from diamrisk.harness import experiment_config_from_dict
from diamrisk.mlp import init_params
from diamrisk.params import ParamVector
from oracles import BAD_VALUES, FLAG_CONVERTERS, set_bad_value


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


def test_seed_past_the_float_range_exits_2_as_out_of_range_with_a_short_echo(capsys):
    assert cli_main(["rate", "--seed", "1" + "0" * 320]) == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.endswith("argument --seed: value is out of range, got 100000000000... (321 digits)")


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
    # +-inf (nan when rho_m = 0); the command names the trial instead of
    # printing it, and prints nothing else to stderr.
    err = _non_finite_window_stderr(capsys, "1e-320", 20)
    assert len(err) == 1 and err[0].startswith("error: trial 0 (m=20): the empirical risk is not finite")


@pytest.mark.filterwarnings("error")
def test_examples_window_with_a_finite_risk_near_the_pole_exits_0(capsys):
    # The loss is 1e306 at w = 1e-306 and the risk rho_m/m * 1e306 is finite,
    # so the window runs: no count * loss sum overflows on the way.
    argv = ["examples", "--loss", "reciprocal", "--w-lo", "1e-306", "--m", "2000", "--trials", "3"]
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "inf" not in captured.out and "nan" not in captured.out


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

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
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
    "shape",
    [
        "[{0}.9, {1}]",  # int() truncates it to the spec's own shape
        "[{0}, {1}, true]",  # int(True) is 1
        "[-1]",  # numpy's reshape wildcard
        "[1e400]",  # float infinity: int() raises OverflowError
    ],
    ids=["fraction", "bool", "negative", "infinity"],
)
def test_checkpoint_shape_entries_must_be_integers(tmp_path, capsys, monkeypatch, shape):
    cfg_path = tiny_config(tmp_path)
    spec = experiment_config_from_dict(json.loads(cfg_path.read_text())).mlp_spec()
    obj = json.loads(init_params(spec, np.random.default_rng(0)).to_json())
    obj["W0"]["shape"] = "@"
    bad_path = tmp_path / "bad_ckpt.json"
    bad_path.write_text(json.dumps(obj).replace('"@"', shape.format(*spec.param_shapes()[0])))
    with pytest.raises(ValueError, match="layer 'W0': shape entry"):
        ParamVector.load(bad_path)
    assert _landscape_without_sampling(monkeypatch, cfg_path, bad_path) == 2
    assert "is not a parameter file" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_config_values_exit_2_before_training(tmp_path, capsys, section, key, value):
    cfg_path = tiny_config(tmp_path)
    obj = json.loads(cfg_path.read_text())
    name = set_bad_value(obj, section, key, value)
    cfg_path.write_text(json.dumps(obj))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert name in capsys.readouterr().err
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


LANDSCAPE_RADII = ["0", "5e-324", "1e-306", "1", "1e150", "1e154", "1e200", "1e308", repr(sys.float_info.max)]


def test_landscape_boundary_sweep(tmp_path, capsys):
    # Each --gamma and --n on a tiny net exits 0, or 1 with one error line and
    # no hist.csv; none leaks a warning or leaves the draw worker running.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "schema_version": 1,
        "dataset": {"n_train": 20, "n_test": 20, "input_dim": 3},
        "mlp": {"hidden_dims": [4]},
    }))
    spec = experiment_config_from_dict(json.loads(cfg_path.read_text())).mlp_spec()
    checkpoint = tmp_path / "w.json"
    init_params(spec, np.random.default_rng(0)).save(checkpoint)
    baseline = threading.active_count()
    errors = {}  # (gamma, n) -> the error line of an exit 1
    for gamma in LANDSCAPE_RADII:
        for n in ("1", "5"):
            out = tmp_path / f"out-{gamma}-{n}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
                                 "--gamma", gamma, "--n", n, "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1), (gamma, n, err)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (gamma, n)
            assert threading.active_count() == baseline, (gamma, n)
            if code == 0:
                assert err == "" and (out / "hist.csv").is_file(), (gamma, n, err)
            else:
                assert len(err.splitlines()) == 1 and not out.exists(), (gamma, n, err)
                errors[gamma, n] = err
    # Radii from 1e154 overflow the forward pass; at the largest float, five
    # draws also overflow a layer's rescale first.
    assert {gamma for gamma, _ in errors} == {"1e154", "1e200", "1e308", repr(sys.float_info.max)}
    assert len(errors) == 8
    assert "non-finite values in layer 'b1'" in errors[repr(sys.float_info.max), "5"]
    assert "non-finite neighborhood risk" in errors[repr(sys.float_info.max), "1"]


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
    # A tent slope kappa / gamma_loss that overflows used to exit 1 with a
    # non-finite empirical risk.
    ("examples", ["--gamma-loss", "5e-324"], "--gamma-loss"),
    ("examples", ["--kappa", "1e308", "--gamma-loss", "0.001"], "--kappa"),
    # A 1-D radius or window whose width overflows used to exit 0 with numpy
    # RuntimeWarnings and a wrong table: nan and inf neighbourhood points,
    # which both losses evaluate as 0.
    ("examples", ["--loss", "reciprocal", "--gamma", "1e308", "--w-lo", "1", "--w-hi", "2"], "--gamma"),
    ("rate", ["--w-lo=-1e308", "--w-hi", "1e308"], "window"),
    # A window whose radius-gamma neighbourhoods pass the float range used to
    # exit 0 with numpy overflow warnings from the neighbourhood points.
    ("examples", ["--loss", "tent", "--w-lo", "1e308", "--w-hi", "1.7e308", "--gamma", "8e307"], "window"),
    ("examples", ["--loss", "reciprocal", "--w-lo", "1e308", "--w-hi", "1.7e308", "--gamma", "8e307"], "window"),
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


# The 1-D boundary sweep: signed window bounds from the smallest subnormal to
# near the largest float, radii from 0 past the largest a 1-D study takes.
SWEEP_BOUNDS = sorted(s * v for v in (5e-324, 1.0, 1e308, 1.7e308) for s in (-1, 1))
SWEEP_RADII = [0.0, 5e-324, 1.0, 1e307, 8e307, 1.7e308]
SWEEP_SIZES = {
    "rate": ["--m", "4", "--trials", "30"],
    "confidence": ["--m", "4", "--trials", "2"],
    "examples": ["--m", "4", "--trials", "2"],
}


def test_1d_boundary_sweep_exits_cleanly_or_writes_nothing(tmp_path, capsys):
    # Every window lo < hi of the bounds, at every radius, for both losses and
    # each 1-D command (1,008 calls): no numpy warning, an exit code of 0, 1
    # or 2, one stderr line on exit 1, and nothing written on a non-zero exit.
    problems, written = [], set()
    cases = itertools.product(SWEEP_SIZES, ("tent", "reciprocal"),
                              itertools.combinations(SWEEP_BOUNDS, 2), SWEEP_RADII)
    for i, (command, loss, (lo, hi), gamma) in enumerate(cases):
        out = tmp_path / f"out{i}"
        argv = [command, *SWEEP_SIZES[command], "--loss", loss, "--grid", "3", "--inner", "3",
                f"--w-lo={lo!r}", f"--w-hi={hi!r}", f"--gamma={gamma!r}", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(argv)
        err = capsys.readouterr().err
        if code == 0:
            written.add(out.name)
        if caught or code not in (0, 1, 2) or (code == 1 and len(err.splitlines()) != 1) or (code and out.exists()):
            problems.append((argv, code, [str(w.message) for w in caught], err))
    assert problems == []
    assert {p.name for p in tmp_path.iterdir()} == written  # no staging directory left behind


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


# Texts to parse every numeric flag from: spellings that int() or float()
# take or refuse, non-finite values, the flags' bounds and their neighbours,
# and comma lists, some with one bad item.
FLAG_TEXTS = [
    ".5", "5.", "1e3", " 7 ", "1_000", "0x10", "nan", "-inf", "inf", "true", "", "abc",
    "0", "-0", "-0.0", "-1", "-5e-324", "5e-324", "1", "1.0", "0.9999999999999999", "1.0000000000000002",
    "2", "3", "4", "29", "30", "31", "2147483646", "2147483647", "2147483648", "8.988465674311579e+307",
    "8.98846567431158e+307", "1e308", "1.8e308",
    "0,5", "5,0", "1,2", "2,2", "250,1000,4000,16000", "1,x", "0.1,nan", "0.0,0.01,0.1", "0.1,-1",
    "1,2147483648", ",", "1,",
]
# Arguments each command needs besides the flag under test.
REQUIRED = {
    "run": ["--config", "c.json"],
    "landscape": ["--config", "c.json", "--checkpoint", "w.json", "--gamma", "1"],
}


def _bits(value):
    """value's items as (type, exact bits) pairs; a scalar is one item."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v) for v in items]


@pytest.mark.parametrize(
    "command,flag,reference", FLAG_CONVERTERS, ids=[f"{c} {f}" for c, f, _ in FLAG_CONVERTERS]
)
def test_flags_accept_what_the_hand_written_converters_accepted(capsys, command, flag, reference):
    parser = cli.build_parser()
    for text in FLAG_TEXTS:
        try:
            expected = _bits(reference(text))
        except argparse.ArgumentTypeError:
            expected = None
        try:
            args = parser.parse_args([command, *REQUIRED.get(command, []), f"{flag}={text}"])
            got = _bits(getattr(args, flag[2:].replace("-", "_")))
        except SystemExit as exc:
            assert exc.code == 2
            got = None
        assert got == expected, f"{flag}={text!r}"


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


LINKED = [(c, k) for c in ("run", "rate", "confidence", "landscape", "examples") for k in ("dangling", "loop", "parent")]


@pytest.mark.parametrize("command,link", LINKED, ids=[f"{c}-{k}" for c, k in LINKED])
def test_out_path_at_a_broken_symlink_exits_2_before_work(tmp_path, capsys, monkeypatch, command, link):
    # A dangling or looping link does not exist for Path.exists(), but no
    # directory can be made there: --out at it, or under it, is refused.
    argv = _small_argv(tmp_path, command)
    target = tmp_path / "link" if link == "loop" else tmp_path / "missing"
    (tmp_path / "link").symlink_to(target)
    out = tmp_path / "link" / "exp" if link == "parent" else tmp_path / "link"
    for module, name in WORK:
        monkeypatch.setattr(module, name, None)
    assert cli_main([*argv, "--out", str(out)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert os.readlink(tmp_path / "link") == str(target) and not target.exists()


def test_landscape_artifact_bytes_do_not_depend_on_the_locale(tmp_path, capsys):
    # Under the C locale without UTF-8 mode the checkpoint path reaches the
    # child as surrogate escapes, and the hist.csv meta line names it.
    argv = _small_argv(tmp_path, "landscape")
    checkpoint = Path(argv[argv.index("--checkpoint") + 1])
    argv[argv.index("--checkpoint") + 1] = str(checkpoint.rename(tmp_path / "ck_\u00e9\u2713.json"))
    assert cli_main([*argv, "--out", str(tmp_path / "utf8")]) == 0
    src = str(Path(diamrisk.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "diamrisk.cli", *argv, "--out", str(tmp_path / "c")],
                          env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    written = (tmp_path / "c" / "hist.csv").read_bytes()
    assert written == (tmp_path / "utf8" / "hist.csv").read_bytes()
    assert f"# checkpoint={argv[argv.index('--checkpoint') + 1]}\n".encode() in written


@pytest.mark.parametrize("content", [None, b'{"schema_version": 1, "out_dir": "caf\xe9"}',
                                     b'{"schema_version": 1, "drm": {"seed": 1' + b"0" * 5000 + b"}}"],
                         ids=["directory", "not_utf8", "int_past_digit_limit"])
@pytest.mark.parametrize("command", ["run", "landscape"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, content):
    argv = _small_argv(tmp_path, command)
    config = Path(argv[argv.index("--config") + 1])
    config.unlink()
    if content is None:
        config.mkdir()
    else:
        config.write_bytes(content)
    assert cli_main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root with its bytes (None for a directory or a symlink)."""
    return {
        str(p.relative_to(root)): None if p.is_dir() or p.is_symlink() else p.read_bytes()
        for p in root.rglob("*")
    }


def test_a_target_name_that_is_a_directory_exits_2_and_replaces_nothing(tmp_path, capsys):
    config = tiny_config(tmp_path)
    out = tmp_path / "exp"
    assert cli_main(["run", "--config", str(config), "--seed", "0", "--out", str(out)]) == 0
    (out / "summary.json").unlink()
    (out / "summary.json").mkdir()
    (out / "summary.json" / "x").write_text("kept")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert cli_main(["run", "--config", str(config), "--seed", "5", "--out", str(out)]) == 2
    assert "summary.json exists and is a directory" in capsys.readouterr().err
    assert _tree(tmp_path) == before  # every earlier artifact byte-unchanged, and no staging directory


@pytest.mark.parametrize("command, name, work", [
    ("run", "summary.json", (harness, "sgd_erm_run")),
    ("run", "trace_erm.csv", (harness, "build_datasets")),
    ("rate", "rate.csv", (cli, "rate_study")),
    ("confidence", "confidence.csv", (cli, "confidence_region_check")),
    ("landscape", "hist.csv", (cli, "landscape_histogram")),
    ("examples", "examples.csv", (cli, "erm_drm_gap_table")),
])
def test_a_target_name_that_is_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                                   name, work):
    out = tmp_path / "exp"
    (out / name).mkdir(parents=True)
    calls = []
    monkeypatch.setattr(*work, lambda *args, **kwargs: calls.append(args))
    assert cli_main([*_small_argv(tmp_path, command), "--seed", "5", "--out", str(out)]) == 2
    assert f"{name} exists and is a directory" in capsys.readouterr().err
    assert calls == []


def test_a_target_name_that_is_a_symlink_to_a_directory_is_replaced(tmp_path, capsys):
    out = tmp_path / "rate"
    (tmp_path / "elsewhere").mkdir()
    out.mkdir()
    (out / "rate.csv").symlink_to(tmp_path / "elsewhere")
    assert cli_main([*_small_argv(tmp_path, "rate"), "--out", str(out)]) == 0
    assert not (out / "rate.csv").is_symlink() and (out / "rate.csv").read_text().startswith("#")
    assert list((tmp_path / "elsewhere").iterdir()) == []


def test_rate_without_out_writes_only_rate_csv_in_the_working_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(_small_argv(tmp_path, "rate")) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["rate.csv"]
    assert capsys.readouterr().out.endswith("wrote rate.csv\n")


# '# key=value' meta values that are text, not numbers.
TEXT_META = {"kind", "note", "gamma_mode", "solution", "checkpoint", "direction_digest"}


def _numeric_cells(path: Path) -> list[str]:
    """Every numeric cell of a CSV artifact, meta values included: all but
    the text meta values, the header (every CSV but a histogram has one) and
    the trace's event column. A blank cell is a None and is left out."""
    lines = path.read_text().splitlines()
    meta = [line[2:].partition("=") for line in lines if line.startswith("# ")]
    cells = [value for key, _, value in meta if key not in TEXT_META]
    rows = [line.split(",") for line in lines if not line.startswith("# ")]
    if not path.name.startswith("hist"):
        header, *rows = rows
        rows = [[c for name, c in zip(header, row) if name != "event"] for row in rows]
    return cells + [c for row in rows for c in row if c]


def _written_as_python_writes(cell: str) -> bool:
    try:
        return cell == str(int(cell))
    except ValueError:
        return cell == repr(float(cell))


def test_every_csv_artifact_writes_each_number_as_python_writes_it(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    checkpoint = tmp_path / "exp" / "checkpoint_drm.json"
    study = ["--trials", "30", "--grid", "65", "--inner", "65", "--out"]
    for argv in (
        ["run", "--config", str(cfg_path)],
        ["landscape", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
         "--gamma", "5", "--n", "50", "--out", str(tmp_path / "land")],
        ["rate", "--loss", "reciprocal", "--m", "50,100", *study, str(tmp_path / "rate")],
        ["confidence", "--m", "50", "--eps", "0.0,0.01,0.1", *study, str(tmp_path / "conf")],
        ["examples", "--loss", "reciprocal", "--m", "50", *study, str(tmp_path / "ex")],
    ):
        assert cli_main(argv) == 0
    paths = sorted(tmp_path.rglob("*.csv"), key=lambda p: p.name)
    assert [p.name for p in paths] == [
        "confidence.csv", "examples.csv", "hist.csv", "hist_drm.csv", "hist_erm.csv", "rate.csv",
        "trace_drm.csv", "trace_erm.csv",
    ]
    for path in paths:
        cells = _numeric_cells(path)
        bad = [c for c in cells if not _written_as_python_writes(c)]
        assert cells and not bad, f"{path.name}: {bad[:3]}"
    header = (tmp_path / "ex" / "examples.csv").read_text().splitlines()[0]
    assert header == ",".join(analysis.GapRecord._fields) == "trial,rho,erm_gap,drm_gap"
