"""Command-line front end.

Subcommands mirror the library layers: ``build`` one configuration,
``sweep`` its exponential sums, ``check`` the concentration bounds,
``estimate-dim`` either estimator, ``montecarlo`` a full trial battery,
``iterate`` the multi-stage measure refinement, and ``demo`` the three
worked examples.

Exit codes: 0 pass, 1 verdict failure (including construction failure),
2 input error, 3 resource exhaustion.
"""

import argparse
import json
import os
import sys

import numpy as np

from .errors import BudgetError, ConstructionFailure, DegenerateOverlapError
from .harness import (
    ExperimentConfig,
    demo_ap3,
    demo_isosceles,
    demo_linear_equations,
    hoeffding_check,
    make_pattern,
    run_experiment,
    split_sum_check,
)
from .sampler import BUILDERS, ConstructionParams, WeightedConfiguration
from .torus import _write_json, json_default

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _pattern_and_params(data, seed):
    """The pattern and construction of a config, ``--seed`` overriding its seed."""
    pattern = make_pattern(data["pattern"])
    cons = dict(data["construction"])
    if seed is not None:
        cons["seed"] = seed
    return pattern, ConstructionParams(**cons)


def _verdict(report, ok):
    """Print the report's aggregate and map the verdict to an exit code."""
    print(json.dumps(report.aggregate, indent=2, sort_keys=True, default=json_default))
    return EXIT_PASS if ok else EXIT_FAIL


def _battery_ok(agg):
    """A battery passes with no failed trial, a sweep pass-rate of at least
    0.9 and no scan violation.  With no failed trial every row carries
    ``sweep_pass``, so the pass-rate is present."""
    return (
        agg["failed_trials"] == 0
        and agg["sweep_pass_rate"] >= 0.9
        and agg.get("scan_violations_total", 0) == 0
    )


def cmd_build(args):
    pattern, params = _pattern_and_params(_load_json(args.config), args.seed)
    config = BUILDERS[pattern.kind](pattern, params)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "configuration.csv")
    config.save(path)
    print(f"built N={config.N} points (removed {config.provenance.get('n_removed')}); wrote {path}")
    return EXIT_PASS


def cmd_sweep(args):
    config = WeightedConfiguration.load(args.config)
    from .expsum import calibrate_constant, sweep

    C = args.C
    if C is None:
        C, _ = calibrate_constant(
            N=config.N,
            d=config.d,
            lam=config.lam,
            weights=config.weights,
            seed=args.seed or 0,
        )
    report = sweep(config.points, config.weights, lam=config.lam, C=C)
    if args.out:
        _write_json(os.path.join(args.out, "sweep.json"), report.to_dict())
    print(
        f"sweep to |xi| <= {report.xi_max}: sup={report.sup_overall:.4g}, "
        f"violations={report.n_violations}, C={C:.4g}"
    )
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_check(args):
    data = {
        "pattern": {"id": "ap3", "m": 16},
        "construction": {"M": 256, "lam": 0.45},
        **(_load_json(args.config) if args.config else {}),
    }
    pattern, params = _pattern_and_params(data, args.seed)
    hoeff = hoeffding_check(np.ones(params.M), n_samples=10_000, seed=params.seed)
    split = split_sum_check(pattern, params, trials=50 if args.trials is None else args.trials)
    ok = (
        not any(row["exceeds"] for row in hoeff)
        and split["reconstruction_ok"]
        and split["tail_pass_rate"] >= 0.9
    )
    if args.out:
        _write_json(
            os.path.join(args.out, "check.json"),
            {"hoeffding": hoeff, "split_sum": split},
        )
    print(
        f"hoeffding exceedances: {sum(r['exceeds'] for r in hoeff)}; "
        f"split reconstruction error {split['reconstruction_error']:.2e}; "
        f"tail pass-rate {split['tail_pass_rate']:.2f}"
    )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_estimate_dim(args):
    from .dimension import box_dimension, fourier_dimension

    results = {}
    if args.config.endswith(".sfgm"):
        from .measures import GridMeasure

        mu = GridMeasure.load(args.config)
        results["fourier"] = fourier_dimension(mu).to_dict()
    else:
        config = WeightedConfiguration.load(args.config)
        r = config.radius_r
        results["box"] = box_dimension(
            config.points, scales=[16 * r, 8 * r, 4 * r, 2 * r, r], thicken=r
        ).to_dict()
        results["fourier"] = fourier_dimension(config).to_dict()
    if args.out:
        _write_json(os.path.join(args.out, "dimension.json"), results)
    for kind, est in results.items():
        print(f"{kind} dimension estimate: {est['value']:.4f}")
    return EXIT_PASS


def cmd_montecarlo(args):
    data = _load_json(args.config)
    if args.trials is not None:
        data["trials"] = args.trials
    if args.out is not None:
        data["out_dir"] = args.out
    if args.seed is not None:
        data.setdefault("construction", {})["seed"] = args.seed
    cfg = ExperimentConfig.from_dict(data)
    report = run_experiment(cfg)
    return _verdict(report, _battery_ok(report.aggregate))


def cmd_iterate(args):
    data = _load_json(args.config)
    from .measures import geometric_schedule, salem_iterate

    unknown = set(data) - {"pattern", "construction", "stages", "grid_G", "gamma", "factor"}
    if unknown:
        raise ValueError(f"unknown iterate config keys {sorted(unknown)}")
    pattern, params = _pattern_and_params(data, args.seed)
    stages = int(data.get("stages", 2))
    G = int(data.get("grid_G", 2048))
    gamma = float(data.get("gamma", params.lam))
    schedule = geometric_schedule(params, stages, factor=float(data.get("factor", 8.0)))
    trajectory = salem_iterate(pattern, schedule, G=G, gamma=gamma)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    rows = []
    for rec in trajectory:
        path = os.path.join(out, f"stage{rec['stage']}.sfgm")
        rec["measure"].save(path, provenance={"stage": rec["stage"]})
        config_path = os.path.join(out, f"stage{rec['stage']}.csv")
        rec["config"].save(config_path)
        rows.append(
            {
                "stage": rec["stage"],
                "radius": rec["radius"],
                "N": rec["config"].N,
                "sweep_violations": rec["sweep"].n_violations,
                "seminorm_step": rec["seminorm_step"]["value"],
                "measure_file": path,
                "config_file": config_path,
            }
        )
    _write_json(os.path.join(out, "iterate.json"), {"stages": rows})
    print(f"completed {len(rows)} stages; wrote {out}/iterate.json")
    return EXIT_PASS


def cmd_demo(args):
    # each demo keeps its own defaults for what the command line leaves out
    given = {k: v for k, v in (("trials", args.trials), ("seed", args.seed)) if v is not None}
    if args.which == "ap3":
        report = demo_ap3(out_dir=args.out, **given)
        return _verdict(report, _battery_ok(report.aggregate))
    if args.which == "linear-eq":
        report = demo_linear_equations(out_dir=args.out, **given)
        viol = sum(r["scan_violations"] for r in report.rows)
        return _verdict(report, viol == 0)
    if args.which == "isosceles-parabola":
        report = demo_isosceles(out_dir=args.out, **given)
        return _verdict(report, all(r["gap_positive"] for r in report.rows))
    raise ValueError(f"unknown demo {args.which!r}")


# every flag a subcommand may declare; each declares only those its cmd_* reads
_FLAGS = {
    "config": {"help": "path to a JSON config or data file"},
    "out": {"help": "output directory"},
    "trials": {"type": int},
    "seed": {"type": int},
    "C": {"type": float, "help": "bound constant (default: calibrate)"},
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="salemkit",
        description="Randomized pattern-avoiding constructions on the torus "
        "with Fourier-analytic certification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, summary, flags, needs_config=True):
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            sp.add_argument("--" + flag, **_FLAGS[flag])
        sp.set_defaults(func=func, needs_config=needs_config)
        return sp

    add("build", cmd_build, "build one weighted configuration", ["config", "out", "seed"])
    add(
        "sweep",
        cmd_sweep,
        "exponential-sum sweep of a configuration",
        ["config", "out", "seed", "C"],
    )
    add(
        "check",
        cmd_check,
        "concentration and split-sum checks",
        ["config", "out", "trials", "seed"],
        needs_config=False,
    )
    add(
        "estimate-dim",
        cmd_estimate_dim,
        "dimension estimates for a configuration or measure",
        ["config", "out"],
    )
    add(
        "montecarlo",
        cmd_montecarlo,
        "run a trial battery from a config file",
        ["config", "out", "trials", "seed"],
    )
    add("iterate", cmd_iterate, "multi-stage measure refinement", ["config", "out", "seed"])
    sp = add("demo", cmd_demo, "run a worked example", ["out", "trials", "seed"], needs_config=False)
    sp.add_argument("which", choices=["ap3", "linear-eq", "isosceles-parabola"])
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        print("error: --config is required for this subcommand", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (ConstructionFailure, DegenerateOverlapError) as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except BudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
