"""Command-line harness: single evaluations, grid sweeps, analytical vs
Monte Carlo comparison, optimizer runs, CSV emission.

Subcommands: ``eval``, ``sweep``, ``compare``, ``optimize``. Output is a
pure function of (config file, flags, seed): rows are computed in a
deterministic (lambda1, lambda2, configuration) order regardless of worker
count, and floats are serialized with shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import ConfigError, NonPositiveRateError, RateExceedsPopulationError
from .pairing import AccountingMode
from .params import SystemParams, load_params
from .sinr import all_configurations, candidate_configurations
from .throughput import (OPTIMAL_PRIORITY, LoadDistribution, average_throughput,
                         check_rate, conditional_table, optimal_configuration,
                         pick_optimal)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CSV_COLUMNS = ["lambda1", "lambda2", "configuration", "r", "h1", "h2", "h1_m", "h2_m",
               "accounting_mode", "throughput_bpshz", "mc_mean", "mc_ci_low",
               "mc_ci_high", "n_frames", "seed"]

ALTITUDE_SYMBOLS = ("H_l", "H_h")  # indexed by altitude level

OPTIMAL = "optimal"
EXHAUSTIVE = "exhaustive"

MAX_AXIS_VALUES = 10_000  # values per load axis of a grid


def _parse_values(spec: str, flag: str) -> list[float]:
    """Parse 'x', 'a,b,c' or 'start:stop:step' into a value list."""
    try:
        if ":" in spec:
            parts = [float(p) for p in spec.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if not all(math.isfinite(p) for p in parts):
                raise ConfigError(f"{flag}={spec!r}: start, stop and step must be finite")
            if step <= 0:
                raise ConfigError(f"{flag}={spec!r}: step must be > 0")
            last = (stop - start) / step + 1e-9  # index of the last value
            if last >= MAX_AXIS_VALUES:  # checked before the list is built
                raise ConfigError(f"{flag}={spec!r}: more than {MAX_AXIS_VALUES} values")
            values = [start + i * step for i in range(int(last) + 1)]
        else:
            values = [float(p) for p in spec.split(",") if p.strip()]
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(
            f"{flag}={spec!r}: expected a number, a comma list, or start:stop:step") from None
    if not values:
        raise ConfigError(f"{flag}={spec!r}: empty range")
    if len(values) > MAX_AXIS_VALUES:
        raise ConfigError(f"{flag}={spec!r}: more than {MAX_AXIS_VALUES} values")
    return values


def _load_axis(spec: str, flag: str) -> tuple[float, ...]:
    values = _parse_values(spec, flag)
    for value in values:
        check_rate(value, flag)
    return tuple(values)


def _point_loads(args) -> LoadDistribution:
    check_rate(args.lambda1, "--lambda1")
    check_rate(args.lambda2, "--lambda2")
    return LoadDistribution(args.lambda1, args.lambda2)


def _resolve_configurations(names: str) -> list[tuple[str, object]]:
    """Map a comma list of labels (or optimal/exhaustive) to configurations."""
    everything = all_configurations()
    selected = []
    for name in (n.strip() for n in names.split(",")):
        if not name:
            continue
        if name == OPTIMAL:
            selected.append((OPTIMAL, None))
        elif name == EXHAUSTIVE:
            selected.extend(everything.items())
        elif name in everything:
            selected.append((name, everything[name]))
        else:
            known = ", ".join([*everything, OPTIMAL, EXHAUSTIVE])
            raise ConfigError(f"unknown configuration {name!r}; choose from: {known}")
    if not selected:
        raise ConfigError("no configurations selected")
    return selected


def _accounting(args) -> AccountingMode:
    return AccountingMode.PAPER_LITERAL if args.accounting == "paper" else AccountingMode.CONSISTENT


@dataclass(frozen=True)
class SweepSpec:
    """One grid run: parameters, load ranges, configuration set with the
    conditional tables it needs, and mode flags."""

    params: SystemParams
    lambda1_values: tuple
    lambda2_values: tuple
    selections: tuple            # (label, Configuration-or-None) pairs
    tables: dict                 # label -> ConditionalTable, optimal's candidates included
    accounting: AccountingMode
    frames: int
    seed: int
    activation: str              # poisson | binomial | model | exhaustive
    worst_case_distances: bool
    mean_shadowing: bool
    workers: int

    @classmethod
    def from_args(cls, args) -> "SweepSpec":
        params = load_params(args.config, args.set)
        if args.frames < 0:
            raise ConfigError(f"--frames={args.frames}: must be >= 0")
        if args.workers < 1:
            raise ConfigError(f"--workers={args.workers}: must be >= 1")
        lambda1_values = _load_axis(args.lambda1, "--lambda1")
        lambda2_values = _load_axis(args.lambda2, "--lambda2")
        selections = tuple(_resolve_configurations(args.configurations))
        if args.command == "compare" and args.frames < 1 and args.activation != "exhaustive":
            raise ConfigError("compare requires --frames >= 1 (or --activation exhaustive)")

        accounting = _accounting(args)
        configs = {label: cfg for label, cfg in selections if label != OPTIMAL}
        if any(label == OPTIMAL for label, _ in selections):
            configs.update(candidate_configurations())
        return cls(
            params=params,
            lambda1_values=lambda1_values,
            lambda2_values=lambda2_values,
            selections=selections,
            tables={label: conditional_table(cfg, params, accounting)
                    for label, cfg in configs.items()},
            accounting=accounting,
            frames=args.frames,
            seed=args.seed,
            activation=args.activation,
            worst_case_distances=args.distances == "worst",
            mean_shadowing=args.shadowing == "mean",
            workers=args.workers,
        )


def _float_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _point_rows(spec: SweepSpec, point: tuple) -> list[dict]:
    """All CSV rows for one grid point ``(index, lambda1, lambda2)``.
    Module-level so worker processes can run it.

    The Skellam vector is computed once for the point, and every
    configuration's average once, the optimum reusing the candidates'."""
    point_index, lambda1, lambda2 = point
    params, accounting, activation = spec.params, spec.accounting, spec.activation
    loads = LoadDistribution(lambda1, lambda2)
    breakdowns = {}

    def average(label):
        if label not in breakdowns:
            breakdowns[label] = average_throughput(spec.tables[label], loads, params, accounting)
        return breakdowns[label]

    rows = []
    for config_index, (label, cfg) in enumerate(spec.selections):
        if label == OPTIMAL:
            breakdown = pick_optimal({c: average(c) for c in OPTIMAL_PRIORITY})
            cfg = breakdown.config
        else:
            breakdown = average(label)
        row = {
            "lambda1": repr(float(lambda1)),
            "lambda2": repr(float(lambda2)),
            "configuration": label,
            "r": cfg.r,
            "h1": ALTITUDE_SYMBOLS[cfg.t1],
            "h2": ALTITUDE_SYMBOLS[cfg.t2],
            "h1_m": repr(params.altitude(cfg.t1)),
            "h2_m": repr(params.altitude(cfg.t2)),
            "accounting_mode": accounting.value,
            "throughput_bpshz": repr(breakdown.total),
            "mc_mean": "", "mc_ci_low": "", "mc_ci_high": "",
            "n_frames": 0,
            "seed": spec.seed,
        }
        if spec.frames or activation == "exhaustive":
            from .montecarlo import ActivationModel, simulate, simulate_exhaustive
            if activation == "exhaustive":
                mc_mean, half_width, used_frames = (
                    simulate_exhaustive(cfg, loads, params), 0.0, 0)
            else:
                result = simulate(
                    cfg, loads, params, spec.frames,
                    seed=(spec.seed, point_index, config_index),
                    activation=ActivationModel(activation),
                    worst_case_distances=spec.worst_case_distances,
                    mean_shadowing=spec.mean_shadowing)
                mc_mean, half_width, used_frames = (
                    result.mean, result.ci_half_width, spec.frames)
            row.update(mc_mean=_float_cell(mc_mean),
                       mc_ci_low=_float_cell(mc_mean - half_width),
                       mc_ci_high=_float_cell(mc_mean + half_width),
                       n_frames=used_frames)
            row["_deviation"] = _deviation_flag(
                breakdown.total, mc_mean, half_width, spec.worst_case_distances,
                spec.mean_shadowing, activation)
        rows.append(row)
    return rows


def _deviation_flag(analytical, mc_mean, half_width, worst_case, mean_shadow,
                    activation) -> str:
    """Matched-assumption runs must reproduce the closed form; flag rows
    that do not. Physical runs are not gated."""
    gap = abs(mc_mean - analytical)
    if activation == "exhaustive":
        # exhaustive weighting always evaluates under matched assumptions
        return "DEVIATION" if gap > 1e-9 * max(abs(analytical), 1e-30) else "ok"
    if not (worst_case and mean_shadow):
        return ""
    return "DEVIATION" if gap > 3.0 * half_width + 1e-12 else "ok"


def _run_grid(args) -> list[dict]:
    spec = SweepSpec.from_args(args)
    points = [(index, *loads) for index, loads in
              enumerate(product(spec.lambda1_values, spec.lambda2_values))]
    rows_of = partial(_point_rows, spec)
    if spec.workers > 1:
        # imported here: it loads multiprocessing, which one process does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            per_point = list(pool.map(rows_of, points))
    else:
        per_point = [rows_of(point) for point in points]
    return [row for rows in per_point for row in rows]


def _write_csv(rows: list[dict], path, with_flag: bool) -> None:
    columns = CSV_COLUMNS + (["deviation_flag"] if with_flag else [])
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            record = [row.get(c, "") for c in CSV_COLUMNS]
            if with_flag:
                record.append(row.get("_deviation", ""))
            writer.writerow(record)
    finally:
        if path:
            out.close()


def cmd_eval(args) -> int:
    params = load_params(args.config, args.set)
    loads = _point_loads(args)
    accounting = _accounting(args)
    if args.exhaustive:
        configs = all_configurations()
    elif args.configuration:
        everything = all_configurations()
        if args.configuration not in everything:
            raise ConfigError(f"unknown configuration {args.configuration!r}; "
                              f"choose from: {', '.join(everything)}")
        configs = {args.configuration: everything[args.configuration]}
    else:
        configs = candidate_configurations()

    breakdowns = {label: average_throughput(cfg, loads, params, accounting)
                  for label, cfg in configs.items()}
    best = pick_optimal({
        label: breakdowns.get(label) or average_throughput(cfg, loads, params, accounting)
        for label, cfg in candidate_configurations().items()})

    print(f"lambda1={args.lambda1!r} lambda2={args.lambda2!r} "
          f"accounting={accounting.value} covered_mass={best.covered_mass!r}")
    print(f"{'configuration':<14} {'r':>1} {'h1':>3} {'h2':>3} {'h1_m':>10} "
          f"{'h2_m':>10}  throughput_bpshz")
    for label, cfg in configs.items():
        print(f"{label:<14} {cfg.r:>1} {ALTITUDE_SYMBOLS[cfg.t1]:>3} "
              f"{ALTITUDE_SYMBOLS[cfg.t2]:>3} {params.altitude(cfg.t1):>10.4f} "
              f"{params.altitude(cfg.t2):>10.4f}  {breakdowns[label].total!r}")
    print(f"optimal: {best.config.label} -> {best.total!r}")

    if args.per_k:
        n = params.n_users
        for label, breakdown in breakdowns.items():
            print(f"\nper-k breakdown for {label} (k, weight, conditional):")
            for k in range(-n, n + 1):
                weight, conditional = breakdown.per_k[k]
                print(f"  {k:>4} {weight!r} {conditional!r}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    params = load_params(args.config, args.set)
    loads = _point_loads(args)
    cfg, breakdown = optimal_configuration(loads, params, _accounting(args))
    print(f"optimal configuration for lambda1={args.lambda1!r}, lambda2={args.lambda2!r}: "
          f"{cfg.label}")
    print(f"  r={cfg.r} h1={ALTITUDE_SYMBOLS[cfg.t1]} ({params.altitude(cfg.t1)!r} m) "
          f"h2={ALTITUDE_SYMBOLS[cfg.t2]} ({params.altitude(cfg.t2)!r} m)")
    print(f"  throughput_bpshz={breakdown.total!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = _run_grid(args)
    _write_csv(rows, args.out, with_flag=False)
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = _run_grid(args)
    _write_csv(rows, args.out, with_flag=True)
    flagged = [row for row in rows if row.get("_deviation") == "DEVIATION"]
    if flagged:
        print(f"warning: {len(flagged)} row(s) deviate from the closed form "
              f"in matched-assumption mode", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uav-twoway",
        description="Two-cell UAV two-way TDD throughput model and simulator")
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="PATH",
                        help="key=value parameter file overriding the built-in defaults")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single parameter (repeatable)")
    common.add_argument("--accounting", choices=["paper", "consistent"],
                        default="consistent", help="same-cell pair accounting rule")

    point = argparse.ArgumentParser(add_help=False)
    point.add_argument("--lambda1", type=float, required=True,
                       help="mean active users in cell 1")
    point.add_argument("--lambda2", type=float, required=True,
                       help="mean active users in cell 2")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--lambda1", required=True, metavar="SPEC",
                      help="value, comma list, or start:stop:step")
    grid.add_argument("--lambda2", required=True, metavar="SPEC",
                      help="value, comma list, or start:stop:step")
    grid.add_argument("--configurations", default="r1_Hl_Hh,r1_Hh_Hl,r0_Hl_Hl,optimal",
                      help="comma list of configuration labels, 'optimal', or 'exhaustive'")
    grid.add_argument("--out", default=None, metavar="CSV",
                      help="output path (default: stdout)")
    grid.add_argument("--seed", type=int, default=1, help="base RNG seed")
    grid.add_argument("--frames", type=int, default=0,
                      help="Monte Carlo frames per row (0 = analytical only)")
    grid.add_argument("--activation", choices=["poisson", "binomial", "model", "exhaustive"],
                      default="poisson", help="activation model for Monte Carlo rows")
    grid.add_argument("--distances", choices=["exact", "worst"], default="exact",
                      help="simulator distance mode")
    grid.add_argument("--shadowing", choices=["sampled", "mean"], default="sampled",
                      help="simulator shadowing mode")
    grid.add_argument("--workers", type=int, default=1,
                      help="parallel workers over grid points (output order is fixed)")

    sub = subparsers.add_parser("eval", parents=[common, point],
                                help="evaluate the candidate configurations at one point")
    sub.add_argument("--configuration", default=None, metavar="LABEL",
                     help="evaluate a single configuration (e.g. r1_Hl_Hh)")
    sub.add_argument("--exhaustive", action="store_true",
                     help="include all 8 (r, h1, h2) tuples")
    sub.add_argument("--per-k", action="store_true", dest="per_k",
                     help="print the per-load-difference breakdown")
    sub.set_defaults(func=cmd_eval)

    sub = subparsers.add_parser("optimize", parents=[common, point],
                                help="print the throughput-optimal configuration")
    sub.set_defaults(func=cmd_optimize)

    sub = subparsers.add_parser("sweep", parents=[common, grid],
                                help="grid sweep to CSV")
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser("compare", parents=[common, grid],
                                help="sweep with both analytical and Monte Carlo columns")
    sub.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, NonPositiveRateError, RateExceedsPopulationError,
            FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as error:
        print(f"numeric error: {error}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
