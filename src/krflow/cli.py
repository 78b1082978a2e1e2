"""Command-line surface: run, sweep, check, spectrum.

Exit codes: 0 all checks passed or report-only, 1 some check failed,
2 configuration or usage error, 3 numerical failure (solver, eigensolver,
or step rejection cascade).
"""

from __future__ import annotations

import argparse
import sys

from .geometry import ConfigError, NumericalError, check_scale
from .harness import (EXIT_CONFIG, EXIT_NUMERICAL, initial_metric, load_spec,
                      run_scenario, spectrum_dump, state_at, sweep_epsilon)
from .monitors import check_c0_vs_Y, check_weighted_poincare


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krflow",
        description="conformal Ricci-flow laboratory on the two-sphere")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one scenario, write artifacts")
    p_run.add_argument("spec")
    p_sweep = sub.add_parser("sweep", help="run the spec's eps sweep")
    p_sweep.add_argument("spec")
    p_check = sub.add_parser("check",
                             help="evaluate state monitors at one time")
    p_check.add_argument("spec")
    p_check.add_argument("--at", type=float, default=0.0)
    p_spec = sub.add_parser("spectrum", help="dump eigenvalues at one time")
    p_spec.add_argument("spec")
    p_spec.add_argument("--at", type=float, default=0.0)
    return parser


def _cmd_run(args) -> int:
    art = run_scenario(load_spec(args.spec))
    print(f"report written to {art.report_path}")
    if art.error:
        print(art.error, file=sys.stderr)
    return art.exit_code


def _cmd_sweep(args) -> int:
    art = sweep_epsilon(load_spec(args.spec))
    print(f"sweep summary written to {art.timeseries_path}")
    return art.exit_code


def _cmd_check(args) -> int:
    spec = load_spec(args.spec)
    params = spec.monitor_dict()
    check_scale(initial_metric(spec), params["rho"])  # before the flow
    state = state_at(spec, args.at)
    reports = [check_weighted_poincare(state, params["delta_measured"]),
               check_c0_vs_Y(state, params["rho"])]
    worst = 0
    for rep in reports:
        print(f"{rep.check_id}: {rep.verdict} margin="
              f"{rep.margin if rep.margin is not None else 'n/a'}")
        for k in sorted(rep.aux):
            print(f"  {k} = {rep.aux[k]}")
        if rep.verdict == "FAIL":
            worst = 1
    return worst


def _cmd_spectrum(args) -> int:
    spec = load_spec(args.spec)
    sys.stdout.write(spectrum_dump(spec, args.at))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "check": _cmd_check,
                "spectrum": _cmd_spectrum}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
