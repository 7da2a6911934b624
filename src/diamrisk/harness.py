"""Label-noise experiment orchestration, the JSON config schema, and the
staged writer through which every subcommand writes its artifacts.

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
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import streams
from .analysis import (
    FlatnessReport,
    flatness_report,
    hist_csv,
    landscape_histogram,
)
from .data import Dataset, flip_labels, gen_gaussian_blobs
from .mlp import MlpLossModel, MlpSpec, init_params
from .optimizer import (
    DrmConfig,
    RunTrace,
    constant_then_drop_schedule,
    sgd_drm_run,
    sgd_erm_run,
)
from .params import Box, NormKind

SCHEMA_VERSION = 1
# The files run_label_noise_experiment writes, in the order it lists them.
RUN_FILES = ("trace_erm.csv", "trace_drm.csv", "checkpoint_erm.json", "checkpoint_drm.json",
             "hist_erm.csv", "hist_drm.csv", "config.json", "summary.json")
# Upper bound of every size and count key, so that absurd sizes exit 2 in the
# parser instead of failing in numpy, or overflowing a float, after set-up.
MAX_COUNT = 2**31 - 1


class ConfigError(Exception):
    """Invalid experiment configuration (bad file, schema, or values)."""


_REQUIRED = object()


class _Key(NamedTuple):
    """One config key. kind is int or float (a finite JSON number, integral
    for int), str, a tuple of the allowed strings, dict for a nested section,
    [item] for a JSON array of items, or [item, item, ...] for an array of
    exactly those items, where an item is a kind or a _Key with bounds of its
    own. [lo, hi] bounds every other number; a None default leaves the key
    unset."""

    kind: object
    default: object = None
    lo: Optional[float] = None
    hi: Optional[float] = None


# Defaults mirror the documented desk-scale label-noise experiment; gamma was
# chosen by the calibration sweep reported in the README. "config" is the top
# level; the section of a dict key is named by its path.
SCHEMA: dict[str, dict[str, _Key]] = {
    "config": {
        "schema_version": _Key(int, _REQUIRED, SCHEMA_VERSION, SCHEMA_VERSION),
        "out_dir": _Key(str),
        "dataset": _Key(dict),
        "mlp": _Key(dict),
        "drm": _Key(dict),
        "landscape": _Key(dict),
    },
    "dataset": {
        "n_train": _Key(int, 300, 1, MAX_COUNT),
        "n_test": _Key(int, 600, 1, MAX_COUNT),
        "input_dim": _Key(int, 20, 1, MAX_COUNT),
        "num_classes": _Key(int, 3, 2, MAX_COUNT),
        "noise_frac": _Key(float, 0.5, 0.0, 1.0),
        "separation": _Key(float, 10.0, math.ulp(0.0)),  # > 0
        "seed": _Key(int, 0, 0),
    },
    "mlp": {
        "hidden_dims": _Key([int], (96, 96, 48), 1, MAX_COUNT),
        # Checked but not stored: run draws the initialization from drm.seed,
        # so it changes no artifact; existing configs set it.
        "seed": _Key(int, 0, 0),
    },
    "drm": {
        "gamma": _Key(float, 2.0, 0.0),
        "r": _Key(int, 20, 1, MAX_COUNT),
        "q": _Key(int, 1, 1, MAX_COUNT),
        "sample_every": _Key(int, 5, 1, MAX_COUNT),
        "p": _Key(float, None, 0.0, 1.0),
        "epochs": _Key(int, 400, 1, MAX_COUNT),
        "batch_size": _Key(int, 30, 1, MAX_COUNT),
        "seed": _Key(int, 0, 0),
        "lr": _Key(float, 0.01),
        "final_lr": _Key(float, 0.001),
        "final_fraction": _Key(float, 1.0 / 3.0, 0.0, 1.0),
        "lr_schedule": _Key([[_Key(int, None, 1, MAX_COUNT), float]]),  # (until iteration, rate)
        "norm_kind": _Key(tuple(k.value for k in NormKind), NormKind.LAYERWISE_FROBENIUS.value),
        "feasible": _Key(dict),
    },
    "drm.feasible": {"kind": _Key(("unbounded", "box"), "unbounded"), "lo": _Key(float), "hi": _Key(float)},
    "landscape": {"n_samples": _Key(int, 2000, 1, MAX_COUNT)},
}


@dataclass(frozen=True)
class DatasetConfig:
    n_train: int
    n_test: int
    input_dim: int
    num_classes: int
    noise_frac: float
    separation: float
    seed: int


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    hidden_dims: tuple[int, ...]
    drm: DrmConfig
    landscape_n: int
    out_dir: Optional[str]
    raw: dict = field(repr=False, compare=False)

    def mlp_spec(self) -> MlpSpec:
        return MlpSpec(
            input_dim=self.dataset.input_dim,
            hidden_dims=self.hidden_dims,
            num_classes=self.dataset.num_classes,
        )


def _shape(kind) -> str:
    """kind as the config docs write it: "[[int, float]]"."""
    if isinstance(kind, _Key):
        return _shape(kind.kind)
    if isinstance(kind, list):
        return f"[{', '.join(map(_shape, kind))}]"
    return kind.__name__ if isinstance(kind, type) else repr(kind)


def _shown(value) -> str:
    """repr(value) for an error message; a long one is cut to its first 12
    characters and its length, so a huge number does not flood the line."""
    text = repr(value)
    if len(text) <= 32:
        return text
    size = f"{len(text.lstrip('-'))} digits" if isinstance(value, int) else f"{len(text)} characters"
    return f"{text[:12]}... ({size})"


def _check(value, kind, row: _Key, where: str):
    """value checked to be a kind (row's kind or a part of it) within row's bounds."""
    if isinstance(kind, _Key):
        return _check(value, kind.kind, kind, where)
    bad = ConfigError(f"{where} must be {_shape(row.kind)}, got {_shown(value)}")
    if isinstance(kind, list):
        if not isinstance(value, list) or (len(kind) > 1 and len(value) != len(kind)):
            raise bad
        items = kind * len(value) if len(kind) == 1 else kind
        return tuple(_check(v, k, row, where) for v, k in zip(value, items))
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str) or (isinstance(kind, tuple) and value not in kind):
            raise bad
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise bad
    try:
        number = kind(value)
        finite = math.isfinite(number)
    except (OverflowError, ValueError):  # inf or nan as an int, or an int past the float range
        finite = False
    if not finite:  # an int is never inf or nan: it lies past the float range
        problem = "is out of range" if isinstance(value, int) else "must be finite"
        raise ConfigError(f"{where} {problem}, got {_shown(value)}")
    if kind is int and number != value:  # a fraction
        raise bad
    if (row.lo is not None and number < row.lo) or (row.hi is not None and number > row.hi):
        bounds = f">= {row.lo}" if row.hi is None else f"in [{row.lo}, {row.hi}]"
        raise ConfigError(f"{where} must be {bounds}, got {_shown(value)}")
    return number


def _read(obj, section: str) -> dict:
    """obj read against SCHEMA[section]: unknown keys rejected, defaults filled
    in, every given value checked."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(SCHEMA[section])
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    values = {}
    for key, row in SCHEMA[section].items():
        where = f"{section}.{key}"
        if row.kind is dict:
            values[key] = _read(obj.get(key, {}), where.removeprefix("config."))
        elif key in obj:
            values[key] = _check(obj[key], row.kind, row, where)
        elif row.default is _REQUIRED:
            raise ConfigError(f"{where} is required")
        else:
            values[key] = row.default
    return values


def experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    cfg = _read(obj, "config")
    dataset = DatasetConfig(**cfg["dataset"])
    if dataset.input_dim < dataset.num_classes:
        raise ConfigError("dataset.input_dim must be >= dataset.num_classes")

    drm = cfg["drm"]
    if drm["p"] is not None and "sample_every" in obj.get("drm", {}):
        raise ConfigError("drm: give either sample_every or p, not both")
    T = drm["epochs"] * -(-dataset.n_train // drm["batch_size"])  # epochs x batches per epoch
    lr_schedule = drm["lr_schedule"]
    if lr_schedule is None:
        lr_schedule = constant_then_drop_schedule(T, drm["lr"], drm["final_lr"], drm["final_fraction"])
    feasible, feas = Box(), drm["feasible"]  # "unbounded": the whole space
    if feas["kind"] == "box":
        if feas["lo"] is None or feas["hi"] is None or not feas["lo"] <= feas["hi"]:
            raise ConfigError(f"drm.feasible: a box needs lo <= hi, got lo={feas['lo']!r}, hi={feas['hi']!r}")
        feasible = Box(feas["lo"], feas["hi"])

    try:
        drm_cfg = DrmConfig(
            gamma=drm["gamma"], T=T, batch_size=drm["batch_size"], lr_schedule=lr_schedule, r=drm["r"],
            q=drm["q"], sample_every=drm["sample_every"], p=drm["p"],
            norm_kind=NormKind(drm["norm_kind"]), feasible=feasible, seed=drm["seed"],
        )
    except ValueError as exc:
        raise ConfigError(f"drm: {exc}") from None
    mlp, land = cfg["mlp"], cfg["landscape"]
    return ExperimentConfig(
        dataset=dataset, hidden_dims=mlp["hidden_dims"], drm=drm_cfg,
        landscape_n=land["n_samples"], out_dir=cfg["out_dir"], raw=obj,
    )


def load_experiment_config(path) -> ExperimentConfig:
    """The config in the JSON file path; ConfigError if it cannot be read
    (missing, a directory, not UTF-8, an integer of over 4,300 digits) or is
    not a valid config."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    except (OSError, ValueError) as exc:  # not UTF-8, or an integer past int()'s digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from None
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


def check_out_path(out, names: Sequence[str]) -> Path:
    """The output directory out as a Path, checked before any work: neither
    it nor a parent may exist as a non-directory, and none of the file
    names the command writes there may exist in it as a directory (a
    symlink is no clash: os.replace replaces the link itself). A symlink
    counts as existing even when it dangles or loops, and then is not a
    directory."""
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(f"output path {out}: {existing} exists and is not a directory")
    for name in names:
        if (out / name).is_dir() and not (out / name).is_symlink():
            raise ConfigError(f"output path {out}: {out / name} exists and is a directory")
    return out


def write_artifacts(out: Path, files: dict[str, str]) -> None:
    """Write each named text into the directory out, all or none: the files
    are staged beside out and moved into place after the last one is written,
    so a failure or Ctrl-C leaves no partial set and earlier files unchanged.
    out is checked again first (check_out_path), so a name that came to
    exist as a directory during the work raises ConfigError before any file
    moves. The stage sits inside mkdtemp's private (0o700) directory so that
    it gets the mode mkdir gives. Text is written as UTF-8 whatever the
    locale; a command-line path the locale could not decode (surrogate
    escapes) is written back as the bytes given."""
    check_out_path(out, list(files))
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    stage = scratch / "out"
    try:
        stage.mkdir()
        for name, text in files.items():
            (stage / name).write_text(text, encoding="utf-8", errors="surrogateescape")
        if out.exists():
            for path in sorted(stage.iterdir()):
                os.replace(path, out / path.name)
        else:
            os.replace(stage, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(noisy train, clean test), both deterministic in the seeds."""
    ds = cfg.dataset
    train_clean = gen_gaussian_blobs(
        ds.num_classes, ds.n_train, ds.input_dim, ds.separation, seed=[ds.seed, streams.TRAIN]
    )
    test = gen_gaussian_blobs(
        ds.num_classes, ds.n_test, ds.input_dim, ds.separation, seed=[ds.seed, streams.TEST]
    )
    train = flip_labels(train_clean, ds.noise_frac, np.random.default_rng([ds.seed, streams.FLIP]))
    return train, test


@dataclass
class RunSummary:
    final_train_risk: float
    min_train_risk: float
    final_test_acc: float
    peak_test_acc: float
    final_diam_risk_est: float


def _summarize(trace: RunTrace) -> RunSummary:
    epochs = trace.epochs
    train = [e.train_risk for e in epochs]
    accs = [e.test_acc for e in epochs if e.test_acc is not None]
    return RunSummary(
        final_train_risk=train[-1],
        min_train_risk=min(train),
        final_test_acc=accs[-1],
        peak_test_acc=max(accs),
        final_diam_risk_est=epochs[-1].diam_risk_est,
    )


@dataclass
class ExperimentResult:
    out_dir: Path
    erm: RunSummary
    drm: RunSummary
    flatness: FlatnessReport
    erm_trace: RunTrace
    drm_trace: RunTrace


def run_label_noise_experiment(
    cfg: ExperimentConfig, out_dir: Optional[str] = None
) -> ExperimentResult:
    """Train ERM and DRM on the corrupted blobs and emit all artifacts.

    Writes trace_{erm,drm}.csv, checkpoint_{erm,drm}.json,
    hist_{erm,drm}.csv, config.json, and summary.json under the output
    directory, all or none of them.
    """
    target = out_dir if out_dir is not None else cfg.out_dir
    if target is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    out = check_out_path(target, RUN_FILES)

    train, test = build_datasets(cfg)
    spec = cfg.mlp_spec()
    model = MlpLossModel(spec)
    w0 = init_params(spec, np.random.default_rng([cfg.drm.seed, streams.INIT]))
    w0_hash = hashlib.sha256(w0.to_json().encode()).hexdigest()

    erm_final, erm_trace = sgd_erm_run(model, train, test, cfg.drm, w0=w0)
    drm_final, drm_trace = sgd_drm_run(model, train, test, cfg.drm, w0=w0)
    if erm_trace.batch_digest != drm_trace.batch_digest:
        raise RuntimeError("runs diverged: batch schedules were not shared")

    hist_erm, hist_drm = landscape_histogram(
        model, [erm_final, drm_final], cfg.drm.gamma, cfg.drm.norm_kind, cfg.landscape_n,
        train, np.random.default_rng([cfg.drm.seed, streams.HIST]),
    )
    report = flatness_report(hist_erm, hist_drm)

    erm_summary = _summarize(erm_trace)
    drm_summary = _summarize(drm_trace)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "w0_sha256": w0_hash,
        "batch_digest": erm_trace.batch_digest,
        "erm": erm_summary.__dict__,
        "drm": drm_summary.__dict__,
        "flatness": report.__dict__,
    }
    texts = (erm_trace.to_csv_text(), drm_trace.to_csv_text(), erm_final.to_json(), drm_final.to_json(),
             hist_csv(hist_erm, solution="erm"), hist_csv(hist_drm, solution="drm"),
             json.dumps(cfg.raw, indent=2, sort_keys=True), json.dumps(summary, indent=2, sort_keys=True))
    write_artifacts(out, dict(zip(RUN_FILES, texts)))

    return ExperimentResult(
        out_dir=out,
        erm=erm_summary,
        drm=drm_summary,
        flatness=report,
        erm_trace=erm_trace,
        drm_trace=drm_trace,
    )
