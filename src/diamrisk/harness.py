"""Label-noise experiment orchestration and the JSON config schema.

An experiment trains the same network on the same corrupted dataset twice,
once with plain SGD and once with the worst-case-neighborhood variant,
from one shared initialization and one shared batch schedule, then compares
test-accuracy trajectories and the flatness of the two final solutions using
one shared set of neighborhood directions. Everything is seeded, and two runs
of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .analysis import (
    FlatnessReport,
    flatness_report,
    landscape_histogram,
    sample_directions,
    write_hist_csv,
)
from .data import Dataset, flip_labels, gen_gaussian_blobs
from .mlp import MlpLossModel, MlpSpec, init_params
from .optimizer import (
    DrmConfig,
    EveryK,
    RunTrace,
    constant_then_drop_schedule,
    sgd_drm_run,
    sgd_erm_run,
)
from .params import Box, NormKind, ParamVector, Unbounded

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid experiment configuration (bad file, schema, or values)."""


@dataclass(frozen=True)
class DatasetConfig:
    generator: str = "gaussian_blobs"
    n_train: int = 300
    n_test: int = 600
    input_dim: int = 20
    num_classes: int = 3
    noise_frac: float = 0.5
    separation: float = 10.0
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden_dims: tuple[int, ...]
    mlp_seed: int
    drm: DrmConfig
    epochs: int
    landscape_n: int
    landscape_bins: int
    out_dir: Optional[str]
    raw: dict = field(default=None, repr=False, compare=False)

    def mlp_spec(self) -> MlpSpec:
        return MlpSpec(
            input_dim=self.dataset.input_dim,
            hidden_dims=self.hidden_dims,
            num_classes=self.dataset.num_classes,
            seed=self.mlp_seed,
        )


def _take(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _num(section: dict, key: str, default, where: str, kind=float, minimum=None):
    value = section.get(key, default)
    try:
        value = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be a {kind.__name__}, got {value!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}.{key} must be >= {minimum}, got {value!r}")
    return value


# Defaults mirror the documented desk-scale label-noise experiment; gamma was
# chosen by the calibration sweep reported in the README.
DEFAULT_GAMMA = 2.0
DEFAULT_HIDDEN = (96, 96, 48)
DEFAULT_EPOCHS = 400
DEFAULT_BATCH = 30
DEFAULT_FINAL_FRACTION = 1.0 / 3.0


def experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _take(obj, {"schema_version", "out_dir", "dataset", "mlp", "drm", "landscape"}, "config")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    ds = obj.get("dataset", {})
    _take(
        ds,
        {"generator", "n_train", "n_test", "input_dim", "num_classes", "noise_frac", "separation", "seed"},
        "dataset",
    )
    dataset = DatasetConfig(
        generator=str(ds.get("generator", "gaussian_blobs")),
        n_train=_num(ds, "n_train", 300, "dataset", int, minimum=1),
        n_test=_num(ds, "n_test", 600, "dataset", int, minimum=1),
        input_dim=_num(ds, "input_dim", 20, "dataset", int),
        num_classes=_num(ds, "num_classes", 3, "dataset", int, minimum=2),
        noise_frac=_num(ds, "noise_frac", 0.5, "dataset", float),
        separation=_num(ds, "separation", 10.0, "dataset", float),
        seed=_num(ds, "seed", 0, "dataset", int, minimum=0),
    )
    if dataset.generator != "gaussian_blobs":
        raise ConfigError(f"unknown dataset generator {dataset.generator!r}")
    if not 0.0 <= dataset.noise_frac <= 1.0:
        raise ConfigError("dataset.noise_frac must be in [0, 1]")
    if dataset.input_dim < dataset.num_classes:
        raise ConfigError("dataset.input_dim must be >= dataset.num_classes")
    if not dataset.separation > 0:
        raise ConfigError("dataset.separation must be > 0")

    mlp = obj.get("mlp", {})
    _take(mlp, {"hidden_dims", "seed"}, "mlp")
    hidden_raw = mlp.get("hidden_dims", DEFAULT_HIDDEN)
    try:
        hidden = tuple(int(h) for h in hidden_raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"mlp.hidden_dims must be a list of integers, got {hidden_raw!r}"
        ) from None
    if any(h < 1 for h in hidden):
        raise ConfigError(f"mlp.hidden_dims must all be >= 1, got {list(hidden)}")
    mlp_seed = _num(mlp, "seed", 0, "mlp", int, minimum=0)

    drm = obj.get("drm", {})
    _take(
        drm,
        {
            "gamma", "r", "q", "sample_every", "p", "epochs", "batch_size", "seed",
            "lr", "final_lr", "final_fraction", "lr_schedule", "norm_kind", "feasible",
        },
        "drm",
    )
    if "sample_every" in drm and "p" in drm:
        raise ConfigError("drm: give either sample_every or p, not both")
    if "p" in drm:
        schedule: Union[float, EveryK] = _num(drm, "p", None, "drm", float)
    else:
        schedule = EveryK(_num(drm, "sample_every", 5, "drm", int))
    epochs = _num(drm, "epochs", DEFAULT_EPOCHS, "drm", int)
    batch_size = _num(drm, "batch_size", DEFAULT_BATCH, "drm", int)
    if epochs < 1:
        raise ConfigError("drm.epochs must be >= 1")
    batches_per_epoch = -(-dataset.n_train // batch_size)  # ceil
    T = epochs * batches_per_epoch

    if "lr_schedule" in drm:
        try:
            lr_schedule = tuple((int(u), float(r)) for u, r in drm["lr_schedule"])
        except (TypeError, ValueError):
            raise ConfigError("drm.lr_schedule must be a list of [until_iter, rate] pairs") from None
    else:
        lr_schedule = constant_then_drop_schedule(
            T,
            lr=_num(drm, "lr", 0.01, "drm", float),
            final_lr=_num(drm, "final_lr", 0.001, "drm", float),
            final_fraction=_num(drm, "final_fraction", DEFAULT_FINAL_FRACTION, "drm", float),
        )

    norm_name = str(drm.get("norm_kind", "layerwise_frobenius"))
    try:
        norm_kind = NormKind(norm_name)
    except ValueError:
        raise ConfigError(f"unknown norm_kind {norm_name!r}") from None

    feas = drm.get("feasible", {"kind": "unbounded"})
    _take(feas, {"kind", "lo", "hi"}, "drm.feasible")
    feas_kind = feas.get("kind", "unbounded")
    if feas_kind == "unbounded":
        feasible = Unbounded()
    elif feas_kind == "box":
        feasible = Box(_num(feas, "lo", None, "drm.feasible", float),
                       _num(feas, "hi", None, "drm.feasible", float))
    else:
        raise ConfigError(f"unknown feasible set kind {feas_kind!r}")

    drm_cfg = DrmConfig(
        gamma=_num(drm, "gamma", DEFAULT_GAMMA, "drm", float),
        T=T,
        batch_size=batch_size,
        lr_schedule=lr_schedule,
        r=_num(drm, "r", 20, "drm", int),
        q=_num(drm, "q", 1, "drm", int),
        p=schedule,
        norm_kind=norm_kind,
        feasible=feasible,
        seed=_num(drm, "seed", 0, "drm", int, minimum=0),
    )
    try:
        drm_cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    land = obj.get("landscape", {})
    _take(land, {"n_samples", "bins"}, "landscape")

    return ExperimentConfig(
        dataset=dataset,
        hidden_dims=hidden,
        mlp_seed=mlp_seed,
        drm=drm_cfg,
        epochs=epochs,
        landscape_n=_num(land, "n_samples", 2000, "landscape", int, minimum=1),
        landscape_bins=_num(land, "bins", 50, "landscape", int, minimum=1),
        out_dir=obj.get("out_dir"),
        raw=obj,
    )


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return experiment_config_from_dict(obj)


def default_experiment_dict(seed: int = 0, out_dir: Optional[str] = None) -> dict:
    """The documented desk-scale label-noise experiment, as a config dict."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "dataset": {"seed": seed},
        "mlp": {"seed": seed},
        "drm": {"seed": seed},
    }
    if out_dir is not None:
        obj["out_dir"] = str(out_dir)
    return obj


def default_experiment_config(seed: int = 0, out_dir: Optional[str] = None) -> ExperimentConfig:
    return experiment_config_from_dict(default_experiment_dict(seed, out_dir))


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """(noisy train, clean train, clean test), all deterministic in the seeds."""
    ds = cfg.dataset
    train_clean = gen_gaussian_blobs(
        ds.num_classes, ds.n_train, ds.input_dim, ds.separation, seed=[ds.seed, 0]
    )
    test = gen_gaussian_blobs(
        ds.num_classes, ds.n_test, ds.input_dim, ds.separation, seed=[ds.seed, 1]
    )
    train = flip_labels(train_clean, ds.noise_frac, np.random.default_rng([ds.seed, 2]))
    return train, train_clean, test


@dataclass
class RunSummary:
    final_train_risk: float
    min_train_risk: float
    final_test_acc: float
    peak_test_acc: float
    final_diam_risk_est: float


def _summarize(trace: RunTrace) -> RunSummary:
    train = [e.train_risk for e in trace.epochs]
    accs = [e.test_acc for e in trace.epochs if e.test_acc is not None]
    return RunSummary(
        final_train_risk=train[-1],
        min_train_risk=min(train),
        final_test_acc=accs[-1],
        peak_test_acc=max(accs),
        final_diam_risk_est=trace.epochs[-1].diam_risk_est,
    )


@dataclass
class ExperimentResult:
    out_dir: Path
    erm: RunSummary
    drm: RunSummary
    flatness: FlatnessReport
    erm_trace: RunTrace
    drm_trace: RunTrace
    erm_final: ParamVector
    drm_final: ParamVector
    summary: dict


def run_label_noise_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None
) -> ExperimentResult:
    """Train ERM and DRM on the corrupted blobs and emit all artifacts.

    Writes trace_{erm,drm}.csv, checkpoint_{erm,drm}.json,
    hist_{erm,drm}.csv, config.json, and summary.json under the output
    directory.
    """
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    train, _, test = build_datasets(cfg)
    spec = cfg.mlp_spec()
    model = MlpLossModel(spec)
    w0 = init_params(spec, np.random.default_rng([cfg.drm.seed, 0]))
    w0_hash = hashlib.sha256(w0.to_json().encode()).hexdigest()

    erm_final, erm_trace = sgd_erm_run(model, train, test, cfg.drm, w0=w0)
    drm_final, drm_trace = sgd_drm_run(model, train, test, cfg.drm, w0=w0)
    if erm_trace.batch_digest != drm_trace.batch_digest:
        raise RuntimeError("runs diverged: batch schedules were not shared")

    directions = sample_directions(
        w0,
        cfg.drm.gamma,
        cfg.drm.norm_kind,
        cfg.landscape_n,
        np.random.default_rng([cfg.drm.seed, 5]),
    )
    hist_erm = landscape_histogram(
        model, erm_final, cfg.drm.gamma, cfg.drm.norm_kind, cfg.landscape_n,
        train, shared_directions=directions, bins=cfg.landscape_bins,
    )
    hist_drm = landscape_histogram(
        model, drm_final, cfg.drm.gamma, cfg.drm.norm_kind, cfg.landscape_n,
        train, shared_directions=directions, bins=cfg.landscape_bins,
    )
    report = flatness_report(hist_erm, hist_drm)

    erm_trace.save_csv(out / "trace_erm.csv")
    drm_trace.save_csv(out / "trace_drm.csv")
    erm_final.save(out / "checkpoint_erm.json")
    drm_final.save(out / "checkpoint_drm.json")
    write_hist_csv(hist_erm, out / "hist_erm.csv", extra={"solution": "erm"})
    write_hist_csv(hist_drm, out / "hist_drm.csv", extra={"solution": "drm"})
    with open(out / "config.json", "w") as fh:
        json.dump(cfg.raw if cfg.raw is not None else {}, fh, indent=2, sort_keys=True)

    erm_summary = _summarize(erm_trace)
    drm_summary = _summarize(drm_trace)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "w0_sha256": w0_hash,
        "batch_digest": erm_trace.batch_digest,
        "erm": erm_summary.__dict__,
        "drm": drm_summary.__dict__,
        "flatness": {
            "erm_gap": report.erm_gap,
            "drm_gap": report.drm_gap,
            "flatter": report.flatter,
        },
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)

    return ExperimentResult(
        out_dir=out,
        erm=erm_summary,
        drm=drm_summary,
        flatness=report,
        erm_trace=erm_trace,
        drm_trace=drm_trace,
        erm_final=erm_final,
        drm_final=drm_final,
        summary=summary,
    )
