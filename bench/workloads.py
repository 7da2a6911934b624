"""The three benchmark workloads: their inputs, commands and output checks.

A unit is one piece of user work, run through diamrisk.cli.cli_main in a
fresh child process whose working directory is the unit's own directory.
setup() writes the generated inputs there; commands() are the CLI argument
lists of one unit; check() reads what the unit wrote and returns a list of
failures. Only setup() imports diamrisk, so bench.py can run the
checks without loading the program.

Why each workload:

label_noise  `diamrisk run` on the documented default experiment with
             drm.epochs and landscape.n_samples cut from 400 / 2000 by one
             common factor (20), which keeps the full run's balance between
             training and histograms. The only workload with gradients:
             batch-30 forward, sphere sampling, select_worst, the per-epoch
             r=20 estimate over the full train set, paired histograms and
             artifact writes.
landscape    `diamrisk landscape --gamma 5` around a freshly initialised
             default net: forward-only at batch 300 through the histogram
             thread pool, dominated by sphere sampling and ParamVector work.
             A dense forward costs the same for any weights, so no trained
             checkpoint is needed.
analytic     the 1-D half of the paper at README sizes (rate, confidence and
             two examples tables): grid code only, no MLP or ParamVector.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Unit sizes. label_noise keeps the default 400:2000 epochs:directions ratio.
LABEL_NOISE_EPOCHS = 20
LABEL_NOISE_DIRECTIONS = 100
LANDSCAPE_DIRECTIONS = 2000
# Training batch size of the default config; bigger batch_nll calls are
# whole-set evaluations.
BATCH_ROWS = 30
# One row per iteration (300 / 30 per epoch) plus one per epoch.
LABEL_NOISE_TRACE_ROWS = LABEL_NOISE_EPOCHS * (300 // BATCH_ROWS + 1)

# Bounds of the analytic checks: criterion 1 (tent DRM gap <= 0), the band
# of criterion 2 for the reciprocal rate slope, and confidence pass rates.
RATE_SLOPE_BAND = (-0.65, -0.35)
MIN_PASS_RATE = 0.90


def stdout_name(index: int, argv) -> str:
    """File that receives the printed output of command `index` of a unit."""
    return f"stdout/{index}-{argv[0]}.txt"


def output_digests(unit_dir: Path) -> dict[str, str]:
    """sha256 of every file a unit wrote (artifacts and printed output)."""
    digests = {}
    for sub in ("out", "stdout"):
        for path in sorted((unit_dir / sub).rglob("*")):
            if path.is_file():
                digests[str(path.relative_to(unit_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _finite_numbers(cells, where: str, errors: list) -> list[float]:
    values = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            errors.append(f"{where}: not a number: {cell!r}")
            continue
        if not math.isfinite(value):
            errors.append(f"{where}: non-finite value {cell}")
        values.append(value)
    return values


def read_hist(path: Path, expected_n: int, errors: list) -> dict[str, str]:
    """Check a histogram CSV: expected_n finite values and a finite reference.
    Returns its '# key=value' metadata."""
    if not path.is_file():
        errors.append(f"{path.name}: missing")
        return {}
    meta, cells = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            cells.append(line)
    values = _finite_numbers(cells, path.name, errors)
    if len(values) != expected_n:
        errors.append(f"{path.name}: {len(values)} values, expected {expected_n}")
    _finite_numbers([meta.get("reference", "missing")], f"{path.name} reference", errors)
    return meta


class Workload:
    name = ""

    def setup(self, seed: int) -> None:
        """Write the unit's generated inputs into the working directory."""

    def commands(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def observe(self, cli, sink: dict):
        """Hook the cli module to record results the artifacts do not hold.
        Returns a function that removes the hook."""
        return lambda: None

    def check(self, unit_dir: Path, result: dict) -> tuple[list[str], dict]:
        """(failures, quality figures) of one finished unit."""
        raise NotImplementedError


class LabelNoise(Workload):
    name = "label_noise"

    def setup(self, seed: int) -> None:
        config = {
            "schema_version": 1,
            "dataset": {"seed": seed},
            "mlp": {"seed": seed},
            "drm": {"seed": seed, "epochs": LABEL_NOISE_EPOCHS},
            "landscape": {"n_samples": LABEL_NOISE_DIRECTIONS},
        }
        Path("config.json").write_text(json.dumps(config, indent=2, sort_keys=True))

    def commands(self, seed: int) -> list[list[str]]:
        return [["run", "--config", "config.json", "--out", "out"]]

    def observe(self, cli, sink: dict):
        original = cli.run_label_noise_experiment

        def run_and_record(*args, **kwargs):
            result = original(*args, **kwargs)
            sink["batch_digests"] = [result.erm_trace.batch_digest, result.drm_trace.batch_digest]
            return result

        cli.run_label_noise_experiment = run_and_record
        return lambda: setattr(cli, "run_label_noise_experiment", original)

    def check(self, unit_dir: Path, result: dict) -> tuple[list[str], dict]:
        errors: list[str] = []
        out = unit_dir / "out"
        digests = result.get("batch_digests", [])
        if len(digests) != 2 or digests[0] != digests[1] or len(digests[0]) != 64:
            errors.append(f"ERM and DRM batch digests differ or are missing: {digests}")
        metas = [read_hist(out / f"hist_{s}.csv", LABEL_NOISE_DIRECTIONS, errors) for s in ("erm", "drm")]
        if not metas[0].get("direction_digest") or metas[0].get("direction_digest") != metas[1].get("direction_digest"):
            errors.append("hist_erm.csv and hist_drm.csv do not share one direction_digest")
        for solution in ("erm", "drm"):
            path = out / f"trace_{solution}.csv"
            if not path.is_file():
                errors.append(f"{path.name}: missing")
                continue
            rows = path.read_text().splitlines()[1:]
            # Columns 3.. hold lr and the risk/accuracy values; blanks are n/a.
            cells = [c for row in rows for c in row.split(",")[3:] if c]
            _finite_numbers(cells, path.name, errors)
            if len(rows) != LABEL_NOISE_TRACE_ROWS:
                errors.append(f"{path.name}: {len(rows)} rows, expected {LABEL_NOISE_TRACE_ROWS}")
        quality = {}
        try:
            summary = json.loads((out / "summary.json").read_text())
            quality["drm_test_acc"] = float(summary["drm"]["final_test_acc"])
        except (OSError, ValueError, KeyError) as exc:
            errors.append(f"summary.json unreadable: {exc}")
        return errors, quality


class Landscape(Workload):
    name = "landscape"

    def setup(self, seed: int) -> None:
        import numpy as np

        from diamrisk.harness import default_experiment_dict, experiment_config_from_dict
        from diamrisk.mlp import init_params

        config = default_experiment_dict(seed)
        Path("config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        spec = experiment_config_from_dict(config).mlp_spec()
        init_params(spec, np.random.default_rng(seed)).save("checkpoint.json")

    def commands(self, seed: int) -> list[list[str]]:
        return [[
            "landscape", "--config", "config.json", "--checkpoint", "checkpoint.json",
            "--gamma", "5", "--n", str(LANDSCAPE_DIRECTIONS), "--out", "out", "--seed", str(seed),
        ]]

    def check(self, unit_dir: Path, result: dict) -> tuple[list[str], dict]:
        errors: list[str] = []
        read_hist(unit_dir / "out" / "hist.csv", LANDSCAPE_DIRECTIONS, errors)
        return errors, {}


class Analytic(Workload):
    name = "analytic"

    def commands(self, seed: int) -> list[list[str]]:
        s = ["--seed", str(seed)]
        return [
            ["rate", "--loss", "reciprocal", "--gamma", "0.5", "--m", "250,1000,4000,16000",
             "--trials", "200", "--out", "out/rate", *s],
            ["confidence", "--loss", "tent", "--m", "1000", "--trials", "200",
             "--eps", "0.0,0.01,0.1", "--out", "out/conf", *s],
            ["examples", "--loss", "tent", "--m", "1000", "--trials", "200", *s],
            ["examples", "--loss", "reciprocal", "--m", "1000", "--trials", "200", *s],
        ]

    def check(self, unit_dir: Path, result: dict) -> tuple[list[str], dict]:
        errors: list[str] = []
        try:
            rows = (unit_dir / "out/rate/rate.csv").read_text().splitlines()
            slope = float(rows[-1].split(",")[-1])
            if not RATE_SLOPE_BAND[0] <= slope <= RATE_SLOPE_BAND[1]:
                errors.append(f"reciprocal rate slope {slope} outside {RATE_SLOPE_BAND}")
        except (OSError, ValueError, IndexError) as exc:
            errors.append(f"rate.csv unreadable: {exc}")
        try:
            rows = (unit_dir / "out/conf/confidence.csv").read_text().splitlines()
            rates = [float(r.split(",")[1]) for r in rows[rows.index("epsilon,pass_rate") + 1:]]
            if len(rates) != 3 or min(rates) < MIN_PASS_RATE:
                errors.append(f"confidence pass rates {rates} below {MIN_PASS_RATE}")
        except (OSError, ValueError, IndexError) as exc:
            errors.append(f"confidence.csv unreadable: {exc}")
        try:  # command 2 prints the tent examples table
            lines = (unit_dir / stdout_name(2, ["examples"])).read_text().splitlines()
            gap = float(next(ln for ln in lines if ln.startswith("# max drm gap:")).split(":")[1])
            if not gap <= 0.0:
                errors.append(f"tent examples max DRM gap {gap} is not <= 0")
        except (OSError, ValueError, StopIteration) as exc:
            errors.append(f"tent examples output unreadable: {exc!r}")
        return errors, {}


WORKLOADS = {wl.name: wl for wl in (LabelNoise(), Landscape(), Analytic())}
