"""diamrisk benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/bench.py --workload label_noise --seed 0 --seconds 30 --trace 0
    python3 bench/bench.py --workload all --seed 0 --seconds 30 --trace 1

Workloads (see workloads.py for why each exists): label_noise, landscape,
analytic. Each unit of work runs in its own fresh child process (child.py),
one after another, never two at once, until --seconds have passed (and at
least MIN_UNITS units ran). The program gets only the inputs generated from
--seed, and every unit's output is checked (workloads.py); every artifact
must also be byte-identical across the units of one seed.

Child processes run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS and DRM_THREADS removed, so the program's own threading
defaults apply as a user gets them.

--trace 0 (end-to-end, untraced), medians over the run's units:
  wall_s       wall-clock seconds per unit
  cpu_s        user+system CPU seconds per unit, all threads of the child
  setup_s      child start until the first command can run (interpreter
               start, import diamrisk, writing the generated inputs)
  peak_rss_mb  peak resident memory of the child, MiB
It also prints error_rate (failed / attempted units) and, for label_noise,
drm_test_acc, which are not gated metrics: error_rate is 0 on a correct
program and drm_test_acc exists on one workload only.

--trace 1 runs three passes of --seconds each: untraced default threading,
traced default threading (tracer.py wraps the public functions of the nine
layer modules from outside), and untraced single-threaded
(OPENBLAS_NUM_THREADS=1 DRM_THREADS=1). It reports per-layer calls, self
time, items, per-call means next to the figures in ROADMAP.md, the tracing
overhead and both threading settings, and checks that the traced artifacts
are byte-identical to the untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). The exit code is 0 only if every unit
passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_UNITS = 3
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DRM_THREADS")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "DRM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-call means as ROADMAP.md "State" lists them (default 96-96-48 net).
ROADMAP_MS = {
    "mlp.loss_and_grad": "2.6",
    "mlp.batch_nll.batch": "0.17",
    "mlp.batch_nll.full": "1.2",
    "params.sample_sphere": "0.33",
    "params.axpy": "0.07-0.1",
    "optimizer.select_worst": "5.5",
}

# Per-layer metrics of the traced run: (span key, fields). calls, self_s,
# items and incl_s come from tracer.layer_totals.
LAYER_FIELDS = (
    ("mlp.loss_and_grad", ("calls", "self_s", "items")),
    ("mlp.batch_nll.batch", ("calls", "self_s", "items")),
    ("mlp.batch_nll.full", ("calls", "self_s", "items")),
    ("mlp.accuracy_on", ("self_s",)),
    ("params.sample_sphere", ("calls", "self_s")),
    ("params.axpy", ("calls", "self_s")),
    ("params.ParamVector.__init__", ("calls", "self_s")),
    ("optimizer.select_worst", ("calls", "self_s", "items")),
    ("optimizer.sgd_erm_run", ("self_s",)),
    ("optimizer.sgd_drm_run", ("self_s",)),
    ("optimizer.make_batch_indices", ("self_s",)),
    ("risk.diametrical_risk_sampled", ("calls", "self_s", "items")),
    ("risk.label_risk_curves", ("calls", "self_s", "items")),
    ("losses.TentLoss.eval_scalar", ("self_s",)),
    ("losses.ReciprocalLoss.eval_scalar", ("self_s",)),
    ("analysis.landscape_histogram", ("self_s", "items")),
    ("analysis.sample_directions", ("self_s",)),
    ("analysis.rate_study", ("self_s",)),
    ("analysis.confidence_region_check", ("self_s",)),
    ("analysis.erm_drm_gap_table", ("self_s",)),
    ("analysis.excess", ("calls", "self_s")),
    ("data.gen_gaussian_blobs", ("self_s",)),
    ("data.flip_labels", ("self_s",)),
    ("harness.build_datasets", ("self_s",)),
    ("harness.run_label_noise_experiment", ("self_s", "items")),
    ("cli.cli_main", ("self_s",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "items": "count"}
# Span fields reported under another name and unit.
RENAMED = {
    "params.ParamVector.__init__.calls": ("params.ParamVector.constructions", "count"),
    "params.ParamVector.__init__.self_s": ("params.ParamVector.construct_s", "s"),
    "harness.run_label_noise_experiment.items": ("harness.artifact_bytes", "B"),
}


def _layer_fields():
    """(span key, field, reported name, unit) of every span-derived metric."""
    for key, fields in LAYER_FIELDS:
        for field in fields:
            name, unit = RENAMED.get(f"{key}.{field}", (f"{key}.{field}", FIELD_UNITS[field]))
            yield key, field, name, unit


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports, in print order."""
    names = [(name, unit) for _, _, name, unit in _layer_fields()]
    for key in ROADMAP_MS:
        names += [(f"{key}.ms_per_call", "ms"), (f"{key}.incl_ms_per_call", "ms")]
    names += [
        ("analysis.landscape_histogram.worker_idle_frac", "fraction"),
        ("trace_overhead_frac", "fraction"),
        ("threads_default.wall_s", "s"),
        ("threads_default.cpu_s", "s"),
        ("threads_single.wall_s", "s"),
        ("threads_single.cpu_s", "s"),
    ]
    return names


# ---------------------------------------------------------------------------
# Running units.
# ---------------------------------------------------------------------------


def child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def run_unit(name: str, seed: int, unit_dir: Path, env: dict, trace: bool) -> dict:
    """Start one child, wait for it, and return its measurements and checks."""
    unit_dir.mkdir(parents=True)
    with open(unit_dir / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), name, str(seed), str(int(trace)), repr(spawned)],
            cwd=unit_dir, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    unit = {"dir": unit_dir, "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if proc.returncode != 0:
        unit["errors"].append(f"child exited {proc.returncode}: {(unit_dir / 'stderr.txt').read_text()[-2000:]}")
        return unit
    result = json.loads((unit_dir / "result.json").read_text())
    unit.update(result)
    if any(code != 0 for code in result["exit_codes"]):
        unit["errors"].append(f"cli exit codes {result['exit_codes']}: {(unit_dir / 'stderr.txt').read_text()[-2000:]}")
    errors, quality = workloads.WORKLOADS[name].check(unit_dir, result)
    unit["errors"] += errors
    unit.update(quality)
    unit["digests"] = workloads.output_digests(unit_dir)
    if trace:
        dump = json.loads((unit_dir / "spans.json").read_text())
        spans = [tuple(s) for s in dump["spans"]]
        workers = {int(k): v for k, v in dump["workers"].items()}
        unit["layers"] = tracer.layer_totals(spans, workloads.BATCH_ROWS)
        unit["idle_frac"] = tracer.worker_idle_frac(spans, workers)
    return unit


def run_pass(name: str, seed: int, seconds: float, pass_dir: Path, env: dict, trace: bool, reference: dict):
    """Run units back to back for `seconds` (at least MIN_UNITS of them).

    `reference` holds the output digests every unit of this seed must match;
    it is filled from the first unit that finishes."""
    units = []
    start = time.monotonic()
    while len(units) < MIN_UNITS or time.monotonic() - start < seconds:
        unit = run_unit(name, seed, pass_dir / f"u{len(units):03d}", env, trace)
        if "digests" in unit:
            if not reference:
                reference.update(unit["digests"])
            elif unit["digests"] != reference:
                differ = sorted(k for k in set(reference) | set(unit["digests"])
                                if reference.get(k) != unit["digests"].get(k))
                unit["errors"].append(f"outputs differ from the first unit of this seed: {differ}")
        for error in unit["errors"]:
            print(f"FAIL {name} {unit['dir'].relative_to(ROOT)}: {error}", file=sys.stderr)
        units.append(unit)
    return units


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def environment(passes: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "thread_vars": {label: {k: env.get(k, "unset") for k in THREAD_VARS} for label, env in passes.items()},
    }


def end_to_end(units: list[dict]) -> dict:
    ok = [u for u in units if "wall_s" in u]
    return {name: summarize([u[name] for u in ok]) for name, _ in END_TO_END} if ok else {}


def print_end_to_end(name: str, label: str, stats: dict, units: list[dict]) -> None:
    failed = sum(1 for u in units if u["errors"])
    for metric, unit in END_TO_END:
        if metric in stats:
            med, q1, q3 = stats[metric]
            print(f"{name:<12} {label:<16} {metric:<12} {med:10.4f} {unit:<3} q1 {q1:.4f} q3 {q3:.4f} n={len(units)}")
    print(f"{name:<12} {label:<16} {'error_rate':<12} {failed / len(units):10.4f} fraction ({failed}/{len(units)})")
    accs = [u["drm_test_acc"] for u in units if "drm_test_acc" in u]
    if accs:
        print(f"{name:<12} {label:<16} {'drm_test_acc':<12} {statistics.median(accs):10.4f} fraction")


def layer_metrics(traced: list[dict], default: dict, single: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians over its traced units."""
    ok = [u for u in traced if "layers" in u]
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "items": 0}

    def med(key, field):
        return statistics.median(u["layers"].get(key, empty)[field] for u in ok)

    metrics = {name: med(key, field) for key, field, name, _ in _layer_fields()}
    for key in ROADMAP_MS:
        calls = med(key, "calls")
        metrics[f"{key}.ms_per_call"] = 1e3 * med(key, "self_s") / calls if calls else 0.0
        metrics[f"{key}.incl_ms_per_call"] = 1e3 * med(key, "incl_s") / calls if calls else 0.0
    metrics["analysis.landscape_histogram.worker_idle_frac"] = statistics.median(u["idle_frac"] for u in ok)
    traced_wall = statistics.median(u["wall_s"] for u in ok)
    metrics["trace_overhead_frac"] = traced_wall / default["wall_s"][0] - 1.0
    metrics["threads_default.wall_s"] = default["wall_s"][0]
    metrics["threads_default.cpu_s"] = default["cpu_s"][0]
    metrics["threads_single.wall_s"] = single["wall_s"][0]
    metrics["threads_single.cpu_s"] = single["cpu_s"][0]
    return metrics


def print_layers(name: str, metrics: dict) -> None:
    print(f"# {name}: per-call means, self time (exclusive) and inclusive, vs ROADMAP.md State")
    for key, figure in ROADMAP_MS.items():
        print(f"{name:<12} {key:<26} self {metrics[f'{key}.ms_per_call']:8.4f} ms  "
              f"incl {metrics[f'{key}.incl_ms_per_call']:8.4f} ms  ROADMAP {figure} ms  "
              f"calls {metrics.get(f'{key}.calls', 0):.0f}")
    print(f"# {name}: per-layer metrics (median per unit)")
    for metric, unit in per_layer_names():
        print(f"{name:<12} {metric:<48} {metrics[metric]:14.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    default_env = child_env({})
    passes = {"default": default_env}
    if trace:
        passes["single_thread"] = child_env(SINGLE_THREAD)
    print(f"# env {json.dumps(environment(passes), sort_keys=True)}")
    reference: dict = {}
    default = run_pass(name, seed, seconds, work / "default", default_env, False, reference)
    units = list(default)
    stats = end_to_end(default)
    print_end_to_end(name, "default", stats, default)
    metrics = {}
    if not trace:
        metrics = {m: {"value": stats[m][0], "unit": u} for m, u in END_TO_END} if stats else {}
    else:
        traced = run_pass(name, seed, seconds, work / "traced", default_env, True, reference)
        single_ref: dict = {}
        single = run_pass(name, seed, seconds, work / "single", passes["single_thread"], False, single_ref)
        units += traced + single
        single_stats = end_to_end(single)
        print_end_to_end(name, "traced", end_to_end(traced), traced)
        print_end_to_end(name, "single_thread", single_stats, single)
        print(f"# {name}: single-thread outputs identical to default threading: {single_ref == reference}")
        if stats and single_stats and any("layers" in u for u in traced):
            values = layer_metrics(traced, stats, single_stats)
            print_layers(name, values)
            metrics = {m: {"value": values[m], "unit": u} for m, u in per_layer_names()}
    failed = sum(1 for u in units if u["errors"])
    return {"correct": failed == 0 and bool(metrics), "attempted": len(units), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diamrisk" / "cli.py").is_file():
        print(f"error: diamrisk sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = []
    for name in names:
        print(f"# workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), work / name))
    correct = all(r["correct"] for r in results)
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"# outputs kept in {work}", file=sys.stderr)
    for result in results:
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
