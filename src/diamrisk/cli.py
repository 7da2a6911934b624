"""Command-line entry points.

Subcommands:
  run         full label-noise experiment from a JSON config
  rate        sup-gap quantiles vs sample size on a 1-D analytic loss
  confidence  excess-condition pass rates for level-set confidence regions
  landscape   neighborhood risk histogram around a saved checkpoint
  examples    per-trial ERM vs DRM generalization gaps on the 1-D losses

Exit codes: 0 success, 2 configuration/usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .analysis import (
    GapRecord,
    confidence_csv,
    confidence_region_check,
    csv_text,
    erm_drm_gap_table,
    hist_csv,
    landscape_histogram,
    rate_csv,
    rate_study,
)
from .harness import (
    MAX_COUNT,
    SCHEMA,
    ConfigError,
    _check,
    _Key,
    _shown,
    build_datasets,
    check_out_path,
    experiment_config_from_dict,
    load_experiment_config,
    run_label_noise_experiment,
    write_artifacts,
)
from .losses import ReciprocalLoss, TentLoss
from .mlp import MlpLossModel
from .params import ParamVector


def _flag(row: _Key, increasing: bool = False):
    """argparse type= converter: the text read with int() or float(), each
    comma-separated item of it for a list row, then checked against row's
    kind and bounds by the config schema's own harness._check. increasing
    also requires the items to be strictly increasing."""
    kind = row.kind[0] if isinstance(row.kind, list) else row.kind

    def parse(text: str):
        try:
            value = [kind(x) for x in text.split(",")] if isinstance(row.kind, list) else kind(text)
        except ValueError:
            value = text  # not a number: _check rejects it, naming the kind
        try:
            value = _check(value, row.kind, row, "value")
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if increasing and any(b <= a for a, b in zip(value, value[1:])):
            raise argparse.ArgumentTypeError(f"values must be strictly increasing, got {_shown(text)}")
        return value

    return parse


# Numeric flags as config schema rows. Open intervals are closed ones over
# the floats, as for dataset.separation's > 0.
_SEED = _Key(int, None, 0)
_COUNT = _Key(int, None, 1, MAX_COUNT)  # sizes, bounded like the config schema's counts
_GRID = _Key(int, None, 3, MAX_COUNT)
_RATE_TRIALS = _Key(int, None, 30, MAX_COUNT)
_NUMBER = _Key(float)
_FRACTION = _Key(float, None, math.ulp(0.0), math.nextafter(1.0, 0.0))  # (0, 1)
_KAPPA = _Key(float, None, math.nextafter(1.0, math.inf))  # > 1
_GAMMA = SCHEMA["drm"]["gamma"]
_RADIUS_1D = _Key(float, None, 0.0, sys.float_info.max / 2)  # so 2 * gamma, a neighbourhood's width, is finite
_SIZES = _Key([int], None, 1, MAX_COUNT)
_SLACKS = _Key([float], None, 0.0)


def _loss_from_args(args):
    if args.loss == "reciprocal":
        return ReciprocalLoss()
    try:
        return TentLoss(kappa=args.kappa, gamma_loss=args.gamma_loss)
    except ValueError as exc:
        raise ConfigError(f"--kappa, --gamma-loss: {exc}") from None


def _default_interval(args) -> tuple[float, float]:
    """The --w-lo/--w-hi window; a bound not given takes the loss's default,
    which keeps the reciprocal window off the pole."""
    lo = args.w_lo if args.w_lo is not None else (-2.0 if args.loss == "tent" else args.gamma)
    hi = args.w_hi if args.w_hi is not None else 2.0
    if not lo < hi:
        raise ConfigError(f"the parameter window [{lo}, {hi}] is empty")
    if not (math.isfinite(hi - lo) and math.isfinite(max(abs(lo), abs(hi), args.gamma) + args.gamma)):
        raise ConfigError(f"the parameter window [{lo}, {hi}] or its --gamma reach exceeds the largest float")
    return (lo, hi)


def _cmd_run(args) -> int:
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        for section in ("dataset", "mlp", "drm"):
            raw[section] = {**raw.get(section, {}), "seed": args.seed}
        cfg = experiment_config_from_dict(raw)
    result = run_label_noise_experiment(cfg, out_dir=args.out)
    print(f"wrote artifacts to {result.out_dir}")
    for name, run in (("erm", result.erm), ("drm", result.drm)):
        print(
            f"{name}: final test acc {run.final_test_acc:.4f} "
            f"(peak {run.peak_test_acc:.4f}), final train risk {run.final_train_risk:.4f}"
        )
    print(
        f"flatness gaps: erm {result.flatness.erm_gap:.4f}, drm {result.flatness.drm_gap:.4f}, "
        f"flatter: {result.flatness.flatter}"
    )
    return 0


def _cmd_rate(args) -> int:
    out = check_out_path(args.out or ".")
    model = _loss_from_args(args)
    result = rate_study(
        model,
        _default_interval(args),
        args.gamma,
        args.m,
        trials=args.trials,
        alpha=args.alpha,
        grid_points=args.grid,
        rng=args.seed,
        inner_points=args.inner,
        gamma_mode=args.gamma_mode,
    )
    write_artifacts(out, {"rate.csv": rate_csv(result)})
    for rec in result.records:
        print(
            f"m={rec.m:>7d}  gamma={rec.gamma:.6g}  q05={rec.q05:.6g}  "
            f"q50={rec.q50:.6g}  q95={rec.q95:.6g}"
        )
    if result.slope is not None:
        print(f"log-log slope of the (1-alpha) quantile: {result.slope:.4f}")
    elif result.all_nonpositive:
        print("all quantiles nonpositive; no slope fitted")
    else:
        print("fewer than two sizes have a positive quantile; no slope fitted")
    print(f"wrote {out / 'rate.csv'}")
    return 0


def _cmd_confidence(args) -> int:
    out = check_out_path(args.out or ".")
    model = _loss_from_args(args)
    result = confidence_region_check(
        model,
        _default_interval(args),
        args.gamma,
        args.delta,
        m=args.m,
        trials=args.trials,
        grid_points=args.grid,
        rng=args.seed,
        epsilons=args.eps,
        inner_points=args.inner,
    )
    write_artifacts(out, {"confidence.csv": confidence_csv(result)})
    for eps, rate in zip(result.epsilons, result.pass_rates):
        print(f"eps={eps:.6g}  pass_rate={rate:.4f}")
    if result.empty_level_sets:
        print(f"note: {result.empty_level_sets} trial/eps events had an empty level set")
    print(f"wrote {out / 'confidence.csv'}")
    return 0


def _cmd_landscape(args) -> int:
    out = check_out_path(args.out or ".")
    cfg = load_experiment_config(args.config)
    try:
        w = ParamVector.load(args.checkpoint)
    except FileNotFoundError:
        raise ConfigError(f"checkpoint not found: {args.checkpoint}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"checkpoint {args.checkpoint} is not a parameter file: {exc}") from None
    spec = cfg.mlp_spec()
    if w.shapes != spec.param_shapes():
        raise ConfigError(
            f"checkpoint {args.checkpoint} has layer shapes {list(w.shapes)}, "
            f"but the network spec needs {list(spec.param_shapes())}"
        )
    train, _ = build_datasets(cfg)
    model = MlpLossModel(spec)
    hist = landscape_histogram(
        model,
        w,
        args.gamma,
        cfg.drm.norm_kind,
        args.n,
        train,
        rng=np.random.default_rng(args.seed),
    )
    write_artifacts(out, {"hist.csv": hist_csv(hist, checkpoint=args.checkpoint)})
    print(f"reference risk {hist.reference:.6g}, neighborhood max {hist.values.max():.6g}")
    print(f"wrote {out / 'hist.csv'}")
    return 0


def _cmd_examples(args) -> int:
    out = check_out_path(args.out) if args.out else None
    model = _loss_from_args(args)
    interval = _default_interval(args)
    table = erm_drm_gap_table(
        model,
        interval,
        args.gamma,
        m=args.m,
        trials=args.trials,
        grid_points=args.grid,
        rng=args.seed,
        inner_points=args.inner,
    )
    text = csv_text({}, ",".join(GapRecord._fields), table)
    if args.loss == "tent":
        rows = ((*rec[:3], max(0, -rec.rho) * args.kappa / args.m, rec.drm_gap) for rec in table)
        print(csv_text({}, "trial,rho,erm_gap,erm_bound,drm_gap", rows), end="")
    else:
        print(text, end="")
    n_pos = sum(1 for rec in table if rec.erm_gap > 0)
    print(f"# erm gap positive in {n_pos}/{len(table)} trials")
    print(f"# max drm gap: {max(rec.drm_gap for rec in table)}")
    if args.loss == "reciprocal" and interval[1] > 0:
        negative = [rec for rec in table if rec.rho < 0]
        if negative:
            rho = negative[0].rho
            w_grid = np.logspace(-8, np.log10(interval[1]), 200)
            curve = (rho / args.m) / w_grid
            print(f"# empirical risk min over a log grid near 0 (rho={rho}): {curve.min()}")
    if out is not None:
        write_artifacts(out, {"examples.csv": text})
        print(f"# wrote {out / 'examples.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamrisk",
        description="Worst-case-in-parameter-neighborhood risk: training and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")
    # run's --seed is its own: parents share Action objects, so a default
    # set on one subcommand would change every other's.
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_flag(_SEED), default=0, help="random seed")

    scalar = argparse.ArgumentParser(add_help=False)
    scalar.add_argument("--loss", choices=("tent", "reciprocal"), default="tent")
    scalar.add_argument("--kappa", type=_flag(_KAPPA), default=2.0)
    scalar.add_argument("--gamma-loss", dest="gamma_loss", type=_flag(_FRACTION), default=0.5)
    scalar.add_argument("--gamma", type=_flag(_RADIUS_1D), default=0.5, help="neighborhood radius")
    scalar.add_argument("--grid", type=_flag(_GRID), default=257, help="points on the parameter window")
    scalar.add_argument("--inner", type=_flag(_GRID), default=257, help="points per neighborhood interval")
    scalar.add_argument("--w-lo", dest="w_lo", type=_flag(_NUMBER), default=None)
    scalar.add_argument("--w-hi", dest="w_hi", type=_flag(_NUMBER), default=None)

    p = sub.add_parser("run", parents=[common], help="run the label-noise experiment")
    p.add_argument("--config", required=True, help="experiment JSON config")
    p.add_argument("--seed", type=_flag(_SEED), default=None, help="override the config's seeds")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("rate", parents=[seeded, scalar], help="sup-gap rate study")
    p.add_argument("--m", type=_flag(_SIZES, increasing=True), default="250,1000,4000,16000",
                   help="comma-separated sample sizes")
    p.add_argument("--trials", type=_flag(_RATE_TRIALS), default=200)
    p.add_argument("--alpha", type=_flag(_FRACTION), default=0.05)
    p.add_argument("--gamma-mode", dest="gamma_mode", choices=("fixed", "inverse_m"), default="fixed")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("confidence", parents=[seeded, scalar], help="confidence-region check")
    p.add_argument("--m", type=_flag(_COUNT), default=1000)
    p.add_argument("--trials", type=_flag(_COUNT), default=200)
    p.add_argument("--delta", type=_flag(_NUMBER), default=0.0, help="risk level of the target set")
    p.add_argument("--eps", type=_flag(_SLACKS), default="0.0,0.01,0.1", help="comma-separated slack values")
    p.set_defaults(func=_cmd_confidence)

    p = sub.add_parser("landscape", parents=[seeded], help="neighborhood risk histogram")
    p.add_argument("--config", required=True, help="experiment JSON config (dataset + model)")
    p.add_argument("--checkpoint", required=True, help="ParamVector JSON checkpoint")
    p.add_argument("--gamma", type=_flag(_GAMMA), required=True)
    p.add_argument("--n", type=_flag(_COUNT), default=10000)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("examples", parents=[seeded, scalar], help="ERM vs DRM gap tables")
    p.add_argument("--m", type=_flag(_COUNT), default=1000)
    p.add_argument("--trials", type=_flag(_COUNT), default=200)
    p.set_defaults(func=_cmd_examples)

    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure in a subcommand
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
