import json

import numpy as np
import pytest

from diamrisk.harness import (
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
]


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_values_fail_in_the_parser(section, key, value):
    obj = tiny_config_dict()
    obj[section][key] = value
    if key == "p":
        del obj["drm"]["sample_every"]
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        experiment_config_from_dict(obj)


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
    train1, clean1, test1 = build_datasets(cfg)
    train2, clean2, test2 = build_datasets(cfg)
    assert np.array_equal(train1.X, train2.X)
    assert np.array_equal(train1.y, train2.y)
    assert np.array_equal(test1.y, test2.y)
    assert int(train1.noise_mask.sum()) == 30  # half of 60
    assert np.array_equal(clean1.y, train1.original_labels)


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
