import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diamrisk.cli import cli_main
from diamrisk.harness import (
    SCHEMA,
    SCHEMA_VERSION,
    ConfigError,
    build_datasets,
    default_experiment_config,
    default_experiment_dict,
    experiment_config_from_dict,
    load_experiment_config,
    run_label_noise_experiment,
)
from diamrisk.optimizer import EveryK
from diamrisk.params import Box, Unbounded


def tiny_config_dict(out_dir=None, seed=1):
    obj = {
        "schema_version": 1,
        "dataset": {
            "n_train": 60,
            "n_test": 60,
            "input_dim": 8,
            "num_classes": 3,
            "noise_frac": 0.5,
            "separation": 6.0,
            "seed": seed,
        },
        "mlp": {"hidden_dims": [8, 8], "seed": seed},
        "drm": {"gamma": 1.0, "r": 4, "q": 1, "sample_every": 5, "epochs": 6,
                "batch_size": 10, "seed": seed},
        "landscape": {"n_samples": 60, "bins": 16},
    }
    if out_dir is not None:
        obj["out_dir"] = str(out_dir)
    return obj


def test_schema_version_required():
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"dataset": {}})
    with pytest.raises(ConfigError):
        experiment_config_from_dict({"schema_version": 2})


def test_unknown_keys_are_hard_errors():
    obj = tiny_config_dict()
    obj["dataset"]["n_trian"] = 10  # typo must be caught
    with pytest.raises(ConfigError, match="n_trian"):
        experiment_config_from_dict(obj)
    obj = tiny_config_dict()
    obj["drm"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="learning_rate"):
        experiment_config_from_dict(obj)
    obj = tiny_config_dict()
    obj["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        experiment_config_from_dict(obj)
    obj = tiny_config_dict()
    obj["dataset"]["generator"] = "gaussian_blobs"  # removed: it had one allowed value and no reader
    with pytest.raises(ConfigError, match="generator"):
        experiment_config_from_dict(obj)


def test_sample_every_and_p_are_exclusive():
    obj = tiny_config_dict()
    obj["drm"]["p"] = 0.5
    with pytest.raises(ConfigError):
        experiment_config_from_dict(obj)
    del obj["drm"]["sample_every"]
    cfg = experiment_config_from_dict(obj)
    assert cfg.drm.p == 0.5


def test_T_is_epochs_times_batches():
    cfg = experiment_config_from_dict(tiny_config_dict())
    assert cfg.drm.T == 6 * 6  # 60 samples / batch 10 = 6 batches per epoch
    assert isinstance(cfg.drm.p, EveryK)


def test_feasible_set_parsing():
    obj = tiny_config_dict()
    obj["drm"]["feasible"] = {"kind": "box", "lo": -1.0, "hi": 1.0}
    cfg = experiment_config_from_dict(obj)
    assert cfg.drm.feasible == Box(-1.0, 1.0)
    obj["drm"]["feasible"] = {"kind": "simplex"}
    with pytest.raises(ConfigError):
        experiment_config_from_dict(obj)
    cfg = experiment_config_from_dict(tiny_config_dict())
    assert cfg.drm.feasible == Unbounded()


def test_bad_values_are_config_errors():
    obj = tiny_config_dict()
    obj["dataset"]["noise_frac"] = 1.5
    with pytest.raises(ConfigError):
        experiment_config_from_dict(obj)
    obj = tiny_config_dict()
    obj["drm"]["gamma"] = -2.0
    with pytest.raises(ConfigError):
        experiment_config_from_dict(obj)
    obj = tiny_config_dict()
    obj["drm"]["epochs"] = 0
    with pytest.raises(ConfigError):
        experiment_config_from_dict(obj)


# Each of these used to pass the parser and fail (or silently degrade) only
# during or after training.
BAD_VALUES = [
    ("landscape", "bins", 0),
    ("landscape", "n_samples", 0),
    ("dataset", "n_test", 0),
    ("dataset", "num_classes", 1),
    ("dataset", "input_dim", 2),  # fewer dimensions than classes
    ("dataset", "separation", 0.0),
    ("mlp", "hidden_dims", ["abc"]),
    ("mlp", "hidden_dims", [0]),
    ("mlp", "hidden_dims", 8),
    ("drm", "p", "x"),
    # Non-finite numbers (JSON NaN / Infinity).
    ("drm", "gamma", float("nan")),
    ("drm", "final_fraction", float("nan")),
    ("drm", "lr", float("inf")),
    ("drm", "final_lr", float("-inf")),
    ("dataset", "separation", float("inf")),
    ("dataset", "n_train", float("inf")),
    ("drm", "sample_every", 0),
    ("drm", "batch_size", 0),
    ("drm", "r", 0),
    ("drm", "feasible", {"kind": "box", "lo": 1, "hi": 0}),
    ("drm", "feasible", "box"),
    ("drm", "epochs", 1.7),
    ("drm", "gamma", True),
    ("dataset", "n_train", True),
    ("mlp", "hidden_dims", [True]),
    ("mlp", "hidden_dims", [8.5]),
    # key None replaces the whole section.
    ("dataset", None, []),
    ("mlp", None, "wide"),
    ("drm", None, None),
    ("landscape", None, 7),
    # Section "config" is the top level.
    ("config", "out_dir", 7),
    ("drm", "lr_schedule", [[36, True]]),
    ("drm", "lr_schedule", [[36.9, 0.1]]),
    ("drm", "lr_schedule", [["36", "0.1"]]),
    ("drm", "lr_schedule", [[float("inf"), 0.1]]),
    # Numbers must be JSON numbers, not numeric strings.
    ("dataset", "n_train", "60"),
    ("drm", "gamma", " 1.5 "),
    ("mlp", "hidden_dims", ["8", "8"]),
    ("landscape", "bins", "16"),
    ("drm", "final_fraction", -1e308),
    # Sizes past MAX_COUNT: numpy's "Maximum allowed size exceeded" while
    # building the data, and an epoch count whose iteration total overflows
    # a float in the learning-rate schedule.
    ("dataset", "n_train", 10**30),
    ("drm", "epochs", 1e308),
    ("drm", "lr_schedule", [[2**31, 0.1]]),
]


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_values_fail_in_the_parser(section, key, value):
    obj = tiny_config_dict()
    if key is None:
        obj[section] = value
    else:
        (obj if section == "config" else obj[section])[key] = value
    if key == "p":
        del obj["drm"]["sample_every"]
    with pytest.raises(ConfigError, match=section if key is None else f"{section}.{key}"):
        experiment_config_from_dict(obj)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("section,key", [(s, k) for s, rows in SCHEMA.items() for k in rows])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
@example(value=7)
@example(value=[[36, True]])
@example(value=[[36.9, 0.1]])
@example(value=[["36", "0.1"]])
@example(value=[[float("inf"), 0.1]])
@example(value="60")
@example(value=-1e308)
def test_any_one_json_value_parses_or_exits_2(section, key, value):
    obj = tiny_config_dict()
    if section == "config":
        holder = obj
    elif section == "drm.feasible":
        holder = obj["drm"]["feasible"] = {"kind": "box", "lo": -1.0, "hi": 1.0}
    else:
        holder = obj[section]
    holder[key] = value
    try:
        experiment_config_from_dict(obj)
    except ConfigError:
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(obj))
            assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
            assert not out.exists()


def test_readme_config_block_holds_the_schema_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Experiment config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    obj = json.loads(block)
    experiment_config_from_dict(obj)

    def compare(section, given):
        for key, value in given.items():
            assert key in SCHEMA[section], f"{section}.{key}"
            row = SCHEMA[section][key]
            if row.kind is dict:
                compare(f"{section}.{key}".removeprefix("config."), value)
            elif key == "schema_version":
                assert value == SCHEMA_VERSION
            elif key == "final_fraction":  # printed as 0.3333
                assert round(value, 4) == round(row.default, 4)
            else:
                assert value == json.loads(json.dumps(row.default)), f"{section}.{key}"

    compare("config", obj)


def test_integral_floats_are_valid_ints():
    obj = tiny_config_dict()
    obj["drm"]["epochs"] = 2.0
    obj["mlp"]["hidden_dims"] = [8.0, 4]
    cfg = experiment_config_from_dict(obj)
    assert cfg.drm.T == 2 * 6 and type(cfg.drm.T) is int  # 6 batches of 10 per epoch
    assert cfg.hidden_dims == (8, 4) and all(type(h) is int for h in cfg.hidden_dims)


def test_non_finite_lr_schedule_fails_in_the_parser():
    obj = tiny_config_dict()
    obj["drm"]["lr_schedule"] = [[10, 0.1], [36, float("nan")]]
    with pytest.raises(ConfigError, match="finite"):
        experiment_config_from_dict(obj)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_experiment_config(bad)


def test_default_config_is_valid():
    cfg = default_experiment_config(seed=3)
    assert cfg.dataset.noise_frac == 0.5
    assert cfg.dataset.num_classes == 3
    assert cfg.mlp_spec().param_template().size >= 10_000
    assert cfg.drm.seed == 3


def test_build_datasets_deterministic_and_noisy():
    cfg = experiment_config_from_dict(tiny_config_dict())
    train1, test1 = build_datasets(cfg)
    train2, test2 = build_datasets(cfg)
    assert np.array_equal(train1.X, train2.X)
    assert np.array_equal(train1.y, train2.y)
    assert np.array_equal(test1.y, test2.y)
    clean_y = np.arange(60) % 3  # blob row i belongs to class i mod 3
    assert int(np.sum(train1.y != clean_y)) == 30  # half of 60
    assert np.array_equal(test1.y, np.arange(60) % 3)  # the test labels stay clean


def test_run_experiment_artifacts_and_shared_initialization(tmp_path):
    cfg = experiment_config_from_dict(tiny_config_dict(out_dir=tmp_path / "exp"))
    result = run_label_noise_experiment(cfg)
    out = result.out_dir
    for name in (
        "trace_erm.csv",
        "trace_drm.csv",
        "checkpoint_erm.json",
        "checkpoint_drm.json",
        "hist_erm.csv",
        "hist_drm.csv",
        "config.json",
        "summary.json",
    ):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["batch_digest"] == result.erm_trace.batch_digest
    assert summary["batch_digest"] == result.drm_trace.batch_digest
    assert summary["w0_sha256"]
    # Shared directions: the flatness comparison must be paired.
    hist_erm = (out / "hist_erm.csv").read_text().splitlines()
    hist_drm = (out / "hist_drm.csv").read_text().splitlines()
    digest_erm = next(l for l in hist_erm if l.startswith("# direction_digest="))
    digest_drm = next(l for l in hist_drm if l.startswith("# direction_digest="))
    assert digest_erm == digest_drm


def test_run_experiment_end_to_end_determinism(tmp_path):
    cfg_dict = tiny_config_dict()
    r1 = run_label_noise_experiment(
        experiment_config_from_dict(cfg_dict), out_dir=tmp_path / "a"
    )
    r2 = run_label_noise_experiment(
        experiment_config_from_dict(cfg_dict), out_dir=tmp_path / "b"
    )
    for name in ("trace_erm.csv", "trace_drm.csv", "hist_erm.csv", "hist_drm.csv",
                 "checkpoint_erm.json", "checkpoint_drm.json", "summary.json"):
        assert (r1.out_dir / name).read_bytes() == (r2.out_dir / name).read_bytes(), name


def test_run_experiment_gamma_zero_traces_identical(tmp_path):
    obj = tiny_config_dict(out_dir=tmp_path / "exp0")
    obj["drm"]["gamma"] = 0.0
    result = run_label_noise_experiment(experiment_config_from_dict(obj))
    erm = (result.out_dir / "trace_erm.csv").read_bytes()
    drm = (result.out_dir / "trace_drm.csv").read_bytes()
    assert erm == drm


def _fail_writing_histograms(monkeypatch, exc):
    """Make the staged writer fail at hist_erm.csv, after it has staged the
    traces and checkpoints."""
    write_text = Path.write_text

    def fail(path, *args, **kwargs):
        if path.name == "hist_erm.csv":
            assert (path.parent / "trace_erm.csv").exists()
            raise exc
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail)


def test_interrupted_run_leaves_no_output_directory(tmp_path, monkeypatch):
    _fail_writing_histograms(monkeypatch, KeyboardInterrupt)
    cfg = experiment_config_from_dict(tiny_config_dict(out_dir=tmp_path / "exp"))
    with pytest.raises(KeyboardInterrupt):
        run_label_noise_experiment(cfg)
    assert list(tmp_path.iterdir()) == []  # no out and no staging directory


def test_failed_run_leaves_an_earlier_output_unchanged(tmp_path, monkeypatch):
    out = tmp_path / "exp"
    run_label_noise_experiment(experiment_config_from_dict(tiny_config_dict(out_dir=out)))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    _fail_writing_histograms(monkeypatch, OSError("disk full"))
    cfg = experiment_config_from_dict(tiny_config_dict(out_dir=out, seed=2))
    with pytest.raises(OSError, match="disk full"):
        run_label_noise_experiment(cfg)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    assert list(tmp_path.iterdir()) == [out]


def test_run_into_an_existing_directory_replaces_its_artifacts(tmp_path):
    out = tmp_path / "exp"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "summary.json").write_text("stale")
    run_label_noise_experiment(experiment_config_from_dict(tiny_config_dict()), out_dir=out)
    fresh = run_label_noise_experiment(
        experiment_config_from_dict(tiny_config_dict()), out_dir=tmp_path / "fresh"
    ).out_dir
    for path in fresh.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name
    assert (out / "notes.txt").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp", "fresh"]


def test_run_experiment_requires_out_dir():
    cfg = experiment_config_from_dict(tiny_config_dict())
    with pytest.raises(ConfigError):
        run_label_noise_experiment(cfg)


def test_default_dict_roundtrips_through_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(default_experiment_dict(seed=5, out_dir="/tmp/x")))
    cfg = load_experiment_config(path)
    assert cfg.drm.seed == 5
    assert cfg.out_dir == "/tmp/x"
