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
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import product

from .errors import ConfigError, NonPositiveRateError
from .pairing import AccountingMode
from .params import SystemParams, load_params
from .sinr import all_configurations, candidate_configurations
from .throughput import (LoadDistribution, average_throughput, check_rate, conditional_table,
                         optimal_configuration, pick_optimal)

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
# Monte Carlo frames per row. A row holds one float64 per frame, 80 MB
# here, and its standard deviation works in place: a 10^6-frame physical
# row peaked 7.1 MB above a 10^5-frame one, a model-matched row 6.8 MB.
MAX_FRAMES = 10_000_000
# Worker processes of a grid run. A process pool forks all its workers at
# the first task, so the count is checked before any pool exists.
MAX_WORKERS = 64


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
            last = (stop - start) / step + 1e-9  # index of the last value, < 0 if none
            if last >= MAX_AXIS_VALUES:  # checked before the list is built
                raise ConfigError(f"{flag}={spec!r}: more than {MAX_AXIS_VALUES} values")
            values = [start + i * step for i in range(math.floor(last) + 1)]
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


def _load_params(args) -> SystemParams:
    """The parameters of ``--config`` and ``--set``; a ``--config`` file
    that cannot be read as text is a configuration error naming the flag.
    Cells close enough for a low lobe to reach the other cell get a
    warning on stderr: the worst-case bounds assume they do not."""
    try:
        params = load_params(args.config, args.set)
    except OSError as error:
        raise ConfigError(f"--config={args.config!r}: {error.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"--config={args.config!r}: not UTF-8 text") from None
    if params.d_sep < params.d_sep_min:
        print(f"warning: d_sep_m={params.d_sep!r} is below 2*d_0 + h_0*tan(phi_b) = "
              f"{params.d_sep_min!r} m: a low UAV's lobe reaches the other cell, "
              f"which the worst-case bounds assume it does not", file=sys.stderr)
    return params


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

    @property
    def simulated(self) -> bool:
        """Whether the rows carry a Monte Carlo or exhaustive mean."""
        return bool(self.frames) or self.activation == "exhaustive"

    @classmethod
    def from_args(cls, args) -> "SweepSpec":
        params = _load_params(args)
        if not 0 <= args.frames <= MAX_FRAMES:
            raise ConfigError(f"--frames={args.frames}: must lie in [0, {MAX_FRAMES}]")
        if not 1 <= args.workers <= MAX_WORKERS:
            raise ConfigError(f"--workers={args.workers}: must lie in [1, {MAX_WORKERS}]")
        if args.seed < 0:
            raise ConfigError(f"--seed={args.seed}: must be >= 0")
        lambda1_values = _load_axis(args.lambda1, "--lambda1")
        lambda2_values = _load_axis(args.lambda2, "--lambda2")
        selections = tuple(_resolve_configurations(args.configurations))
        if args.command == "compare" and args.frames < 1 and args.activation != "exhaustive":
            raise ConfigError("compare requires --frames >= 1 (or --activation exhaustive)")
        if args.frames and args.activation == "binomial":
            # each user is active with probability lambda / N
            for flag, values in (("--lambda1", lambda1_values), ("--lambda2", lambda2_values)):
                for value in values:
                    if value > params.n_users:
                        raise ConfigError(f"{flag}={value!r}: binomial activation needs "
                                          f"lambda <= n_users={params.n_users}")

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


def _point_rows(spec: SweepSpec, grids: dict, point: tuple) -> list[dict]:
    """All CSV rows for one grid point ``(index, lambda1, lambda2)``. A
    matched Monte Carlo row, and every exhaustive one, reads the
    ``MatchedGrid`` of its configuration in ``grids``, made by the first row
    that needs it, so a process builds each configuration's grid once across
    the points it runs; an ``optimal`` row reads its winner's. An exhaustive
    row is its grid's ``expectation`` under the point's model pmf, built
    once: what ``simulate_exhaustive`` returns, bit for bit. Module-level so
    worker processes can run it.

    The Skellam vector is computed once for the point, and every table's
    average once, the optimum reusing the candidates'."""
    point_index, lambda1, lambda2 = point
    params, accounting, activation = spec.params, spec.accounting, spec.activation
    loads = LoadDistribution(lambda1, lambda2)
    breakdowns = {label: average_throughput(table, loads) for label, table in spec.tables.items()}
    exhaustive, simulated = activation == "exhaustive", spec.simulated
    if simulated:
        from .montecarlo import ActivationModel, MatchedGrid, _model_pmf, simulate
        pmf = _model_pmf(loads, params) if exhaustive else None
    rows = []
    for config_index, (label, cfg) in enumerate(spec.selections):
        if label == OPTIMAL:
            breakdown = pick_optimal(breakdowns)
            cfg = breakdown.config
        else:
            breakdown = breakdowns[label]
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
        if simulated:
            matched = exhaustive or (spec.worst_case_distances and spec.mean_shadowing)
            if matched and cfg not in grids:
                grids[cfg] = MatchedGrid(cfg, params)
            if exhaustive:
                mc_mean, half_width, used_frames = grids[cfg].expectation(pmf), 0.0, 0
            else:
                result = simulate(
                    cfg, loads, params, spec.frames,
                    seed=(spec.seed, point_index, config_index),
                    activation=ActivationModel(activation),
                    worst_case_distances=spec.worst_case_distances,
                    mean_shadowing=spec.mean_shadowing, grid=grids.get(cfg))
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


@contextmanager
def _output(path):
    """``--out`` opened for writing, or stdout without it."""
    if not path:
        yield sys.stdout
        return
    try:
        out = open(path, "w", newline="", encoding="utf-8")
    except OSError as error:
        raise ConfigError(f"--out={path!r}: {error.strerror}") from None
    with out:
        yield out


def _run_grid(args, with_flag: bool) -> list[dict]:
    """Validate the run, open ``--out`` before any row is computed, then
    compute the rows and write them as CSV."""
    spec = SweepSpec.from_args(args)
    with _output(args.out) as out:
        points = [(index, *loads) for index, loads in
                  enumerate(product(spec.lambda1_values, spec.lambda2_values))]
        # configuration -> MatchedGrid, one set per process, each grid made
        # when a row first needs it: nothing is computed or sent up front
        rows_of = partial(_point_rows, spec, {})
        if spec.workers > 1:
            # imported here: it loads multiprocessing, which one process does not need
            from concurrent.futures import ProcessPoolExecutor
            if spec.simulated:
                # and numpy with it, once before the workers fork, not once per worker
                from . import montecarlo  # noqa: F401
            with ProcessPoolExecutor(max_workers=spec.workers, initializer=_start_worker,
                                     initargs=(rows_of,)) as pool:
                per_point = list(pool.map(_worker_rows, points))
        else:
            per_point = [rows_of(point) for point in points]
        rows = [row for rows in per_point for row in rows]
        _write_csv(rows, out, with_flag)
    return rows


# A worker process's ``_point_rows`` with the command's spec bound, sent
# once when the worker starts; a task then sends only its point. The
# worker, and this with it, ends with the command's pool.
_WORKER_ROWS = None


def _start_worker(rows_of) -> None:
    global _WORKER_ROWS
    _WORKER_ROWS = rows_of


def _worker_rows(point: tuple) -> list[dict]:
    return _WORKER_ROWS(point)


def _write_csv(rows: list[dict], out, with_flag: bool) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + (["deviation_flag"] if with_flag else []))
    for row in rows:
        record = [row.get(c, "") for c in CSV_COLUMNS]
        if with_flag:
            record.append(row.get("_deviation", ""))
        writer.writerow(record)


def cmd_eval(args) -> int:
    params = _load_params(args)
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

    breakdowns = {label: average_throughput(conditional_table(cfg, params, accounting), loads)
                  for label, cfg in {**configs, **candidate_configurations()}.items()}
    best = pick_optimal(breakdowns)

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
        for label in configs:
            breakdown = breakdowns[label]
            print(f"\nper-k breakdown for {label} (k, weight, conditional):")
            for k in range(-n, n + 1):
                print(f"  {k:>4} {breakdown.pmf[k]!r} {breakdown.conditional[k]!r}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    params = _load_params(args)
    loads = _point_loads(args)
    cfg, breakdown = optimal_configuration(loads, params, _accounting(args))
    print(f"optimal configuration for lambda1={args.lambda1!r}, lambda2={args.lambda2!r}: "
          f"{cfg.label}")
    print(f"  r={cfg.r} h1={ALTITUDE_SYMBOLS[cfg.t1]} ({params.altitude(cfg.t1)!r} m) "
          f"h2={ALTITUDE_SYMBOLS[cfg.t2]} ({params.altitude(cfg.t2)!r} m)")
    print(f"  throughput_bpshz={breakdown.total!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _run_grid(args, with_flag=False)
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = _run_grid(args, with_flag=True)
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
    grid.add_argument("--seed", type=int, default=1, help="base RNG seed, >= 0")
    grid.add_argument("--frames", type=int, default=0,
                      help=f"Monte Carlo frames per row, at most {MAX_FRAMES:,} "
                           "(0 = analytical only)")
    grid.add_argument("--activation", choices=["poisson", "binomial", "model", "exhaustive"],
                      default="poisson", help="activation model for Monte Carlo rows")
    grid.add_argument("--distances", choices=["exact", "worst"], default="exact",
                      help="simulator distance mode")
    grid.add_argument("--shadowing", choices=["sampled", "mean"], default="sampled",
                      help="simulator shadowing mode")
    grid.add_argument("--workers", type=int, default=1,
                      help=f"parallel workers over grid points, 1 to {MAX_WORKERS} "
                           "(output order is fixed)")

    sub = subparsers.add_parser("eval", parents=[common, point],
                                help="evaluate the candidate configurations at one point")
    selection = sub.add_mutually_exclusive_group()
    selection.add_argument("--configuration", default=None, metavar="LABEL",
                           help="evaluate a single configuration (e.g. r1_Hl_Hh)")
    selection.add_argument("--exhaustive", action="store_true",
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
    except (ConfigError, NonPositiveRateError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as error:
        print(f"numeric error: {error}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
