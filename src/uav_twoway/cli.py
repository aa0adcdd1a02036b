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
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, product

from .errors import ConfigError, NonPositiveRateError
from .pairing import AccountingMode
from .params import SystemParams, load_params
from .sinr import all_configurations, candidate_configurations
from .throughput import (ActivationModel, LoadDistribution, average_throughput, check_rate,
                         conditional_tables, optimal_configuration, pick_optimal)

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
# row peaked 7.1 MB above a 10^5-frame one (CHANGES.md).
MAX_FRAMES = 10_000_000
# Rows of a grid, points times rows per point: 26 s of analytical rows at
# 26 us each (sweep_grid, 10.2 ms for 400 rows, BENCH_39.json).
MAX_GRID_ROWS = 1_000_000
# Monte Carlo frames of a grid, its rows times --frames: 9 minutes at 5.4 us
# per physical frame (mc_exact, 32.5 ms for 6,000 frames, BENCH_39.json).
MAX_GRID_FRAMES = 100_000_000
# Worker processes of a grid run. A multiprocessing.Pool forks all its
# workers when it is built, so the count is checked before any pool exists,
# and a run starts at most one per grid point.
MAX_WORKERS = 64
# Grid points per worker task at most: a worker holds its chunk's rows, and
# a closed output is noticed at the next chunk. Each chunk costs the main
# process CPU, as the pool's threads wake on every result: a 600 x 100
# two-worker sweep took a median of 3.54 s at 64 points and 3.01 s at 512
# (CHANGES.md).
CHUNK_POINTS = 512
BOUND_BYTES = 200  # bytes an error line keeps of each end of a longer message
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _width(text: str) -> int:
    """The most bytes stderr writes ``text`` in: one per ASCII character,
    and per other character its backslash escape (4, 6 or 10 bytes), what
    an ASCII stream writes and never fewer than its UTF-8 bytes."""
    return len(text.encode("ascii", "backslashreplace"))


def _head(text: str) -> str:
    """The longest head of ``text`` at most BOUND_BYTES wide (``_width``)."""
    ends = accumulate(_width(c) for c in text[:BOUND_BYTES])
    return text[:sum(end <= BOUND_BYTES for end in ends)]


def _bounded(message: str) -> str:
    """``message`` as one short line: each character ``str.splitlines`` breaks
    at escaped, a lone surrogate (an undecodable argv byte) escaped as
    stderr escapes it, and the middle of one over ``2 * BOUND_BYTES`` wide
    cut to its length, keeping a head and a tail each at most BOUND_BYTES
    wide."""
    message = message.translate(_LINE_BREAKS).encode("utf-8", "backslashreplace").decode()
    if _width(message) <= 2 * BOUND_BYTES:
        return message
    tail = _head(message[:-BOUND_BYTES - 1:-1])[::-1]
    return f"{_head(message)}...({len(message):,} characters)...{tail}"


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose error line is bounded as ``main``'s are."""

    def error(self, message):
        super().error(_bounded(message))


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
        raise ConfigError(f"{flag}={spec!r}: expected a number, a comma list, "
                          "or start:stop:step") from None
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
            raise ConfigError(f"--configurations: unknown configuration {name!r}; "
                              f"choose from: {known}")
    if not selected:
        raise ConfigError(f"--configurations={names!r}: no configurations selected")
    return selected


def _load_params(args) -> SystemParams:
    """The parameters of ``--config`` and ``--set``; a ``--config`` file
    that cannot be read as text is a configuration error naming the flag.
    Cells close enough for a low lobe to reach the other cell get a
    warning on stderr: the worst-case bounds assume they do not."""
    with _naming(f"--config={args.config!r}"):
        params = load_params(args.config, args.set)
    if params.d_sep < params.d_sep_min:
        print(f"warning: d_sep_m={params.d_sep!r} is below 2*d_0 + h_0*tan(phi_b) = "
              f"{params.d_sep_min!r} m: a low UAV's lobe reaches the other cell, "
              f"which the worst-case bounds assume it does not", file=sys.stderr)
    return params


@dataclass(frozen=True)
class SweepSpec:
    """One grid run: parameters, load ranges, configuration set with the
    conditional tables and constant CSV cells it needs, and how its rows
    are simulated, decided once here. A row runs ``frames`` Monte Carlo
    frames of the ``activation`` law, or, if ``exact``, is the exact mean
    over every (K1, K2); with neither it is analytical only.
    ``--activation exhaustive`` is exact rows of the model law, with
    worst-case distances and mean shadowing."""

    params: SystemParams
    lambda1_values: tuple
    lambda2_values: tuple
    selections: tuple            # (label, Configuration-or-None) pairs
    tables: dict                 # label -> ConditionalTable, optimal's candidates included
    cells: dict                  # Configuration -> its CSV cells r .. accounting_mode, a list
    frames: int
    seed: int
    activation: ActivationModel
    exact: bool
    worst_case_distances: bool
    mean_shadowing: bool
    workers: int

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
        exact = args.activation == EXHAUSTIVE
        if exact:
            # an exact mean over every (K1, K2) under the matched assumptions
            for flag, value, honoured, reason in (
                    ("--frames", args.frames, 0, "draws no frames"),
                    ("--distances", args.distances, "worst", "reads worst-case distances"),
                    ("--shadowing", args.shadowing, "mean", "reads mean shadowing")):
                if value not in (None, honoured):
                    raise ConfigError(f"{flag}={value}: --activation exhaustive {reason}")
        elif args.command == "compare" and args.frames < 1:
            raise ConfigError("compare requires --frames >= 1 (or --activation exhaustive)")
        rows = len(lambda1_values) * len(lambda2_values) * len(selections)
        flags = "--lambda1 values x --lambda2 values x --configurations rows"
        if rows > MAX_GRID_ROWS:
            raise ConfigError(f"{flags}: {rows:,} rows, more than {MAX_GRID_ROWS:,}")
        if rows * args.frames > MAX_GRID_FRAMES:
            raise ConfigError(f"{flags} x --frames: {rows * args.frames:,} frames, "
                              f"more than {MAX_GRID_FRAMES:,}")
        activation = ActivationModel.MODEL_MATCHED if exact else ActivationModel(args.activation)
        if args.frames and activation is ActivationModel.BINOMIAL_PER_USER:
            # each user is active with probability lambda / N
            for flag, values in (("--lambda1", lambda1_values), ("--lambda2", lambda2_values)):
                for value in values:
                    if value > params.n_users:
                        raise ConfigError(f"{flag}={value!r}: binomial activation needs "
                                          f"lambda <= n_users={params.n_users}")

        accounting = AccountingMode(args.accounting)
        configs = {label: cfg for label, cfg in selections if label != OPTIMAL}
        if any(label == OPTIMAL for label, _ in selections):
            configs.update(candidate_configurations())
        return cls(
            params=params,
            lambda1_values=lambda1_values,
            lambda2_values=lambda2_values,
            selections=selections,
            tables=conditional_tables(configs, params, accounting),
            cells={cfg: [cfg.r, ALTITUDE_SYMBOLS[cfg.t1], ALTITUDE_SYMBOLS[cfg.t2],
                         repr(params.altitude(cfg.t1)), repr(params.altitude(cfg.t2)),
                         accounting.value]
                   for cfg in configs.values()},
            frames=args.frames,
            seed=args.seed,
            activation=activation,
            exact=exact,
            worst_case_distances=exact or args.distances == "worst",
            mean_shadowing=exact or args.shadowing == "mean",
            workers=args.workers,
        )


def _point_rows(spec: SweepSpec, point: tuple) -> list[list]:
    """The CSV rows of one grid point ``(index, (lambda1, lambda2))``, each
    a list in ``CSV_COLUMNS`` order with its deviation flag last. A
    simulated row is a ``SimResult``: a ``simulate`` call, or an exact
    row's ``simulate_exhaustive`` value with a zero-width interval; an
    ``optimal`` row runs its winner's. A row under worst-case distances and
    mean shadowing must reproduce the closed form, to rounding if exact and
    within three half-widths if Monte Carlo, and is flagged ``ok`` or
    ``DEVIATION``; other rows are not gated. Module-level so worker
    processes can run it.

    The Skellam vector is computed once for the point, and every table's
    average once, the optimum reusing the candidates'; the load cells are
    formatted once for the point, a configuration's cells once per run."""
    point_index, (lambda1, lambda2) = point
    load_cells = [repr(float(lambda1)), repr(float(lambda2))]
    loads = LoadDistribution(lambda1, lambda2)
    breakdowns = {label: average_throughput(table, loads) for label, table in spec.tables.items()}
    simulated, gated = spec.exact or spec.frames, spec.worst_case_distances and spec.mean_shadowing
    if simulated:
        from .montecarlo import SimResult, simulate, simulate_exhaustive
    rows = []
    for config_index, (label, cfg) in enumerate(spec.selections):
        if label == OPTIMAL:
            breakdown = pick_optimal(breakdowns)
            cfg = breakdown.config
        else:
            breakdown = breakdowns[label]
        row = [*load_cells, label, *spec.cells[cfg], repr(breakdown.total)]
        if not simulated:
            rows.append([*row, "", "", "", 0, spec.seed, ""])
            continue
        if spec.exact:
            result = SimResult(simulate_exhaustive(cfg, loads, spec.params), 0.0)
            tolerance = 1e-9 * max(abs(breakdown.total), 1e-30)
        else:
            result = simulate(
                cfg, loads, spec.params, spec.frames,
                seed=(spec.seed, point_index, config_index),
                activation=spec.activation,
                worst_case_distances=spec.worst_case_distances,
                mean_shadowing=spec.mean_shadowing)
            tolerance = 3.0 * result.ci_half_width + 1e-12
        flag = ("" if not gated else
                "DEVIATION" if abs(result.mean - breakdown.total) > tolerance else "ok")
        rows.append([*row, repr(result.mean), repr(result.ci_low), repr(result.ci_high),
                     spec.frames, spec.seed, flag])
    return rows


def _quiet_stdout() -> None:
    """Point stdout at devnull, so that the interpreter's last flush of
    what a failed write left buffered cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@contextmanager
def _naming(name: str, out=None):
    """A block whose I/O failure is a configuration error naming ``name``:
    the system's reason, or ``not UTF-8 text``; a closed pipe is left to
    ``main``. A block of writes to ``out`` ends with its own flush, and one
    that fails on stdout points stdout at devnull first."""
    try:
        yield
        if out is not None:
            out.flush()
    except BrokenPipeError:
        raise
    except OSError as error:
        if out is sys.stdout:
            _quiet_stdout()
        raise ConfigError(f"{name}: {error.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{name}: not UTF-8 text") from None


@contextmanager
def _output(path):
    """``--out`` opened for writing, or stdout without it, and the name
    that ``_naming`` gives its failures. ``--out`` is closed when the block
    ends; a failed run closes it quietly, as its error is already raised."""
    if path is None:
        yield sys.stdout, "stdout"
        return
    name = f"--out={path!r}"
    with _naming(name):
        out = open(path, "w", newline="", encoding="utf-8")
    try:
        yield out, name
    except BaseException:
        with suppress(OSError):  # a failed write's bytes, flushed again
            out.close()
        raise
    with _naming(name):
        out.close()


def _run_grid(args, with_flag: bool) -> int:
    """Validate the run and open ``--out`` before any row is computed; then
    write the CSV header, and each point's rows as soon as they are
    computed, in point order. Each is a ``_naming`` block of writes, which
    flushes it, so a run that fails or is killed leaves the header and its
    finished points. Returns the number of ``DEVIATION`` rows."""
    spec = SweepSpec.from_args(args)
    with _output(args.out) as (out, name), _rows_per_point(spec) as rows_per_point:
        writer = csv.writer(out, lineterminator="\n")
        with _naming(name, out):
            writer.writerow(CSV_COLUMNS + (["deviation_flag"] if with_flag else []))
        deviations = 0
        for rows in rows_per_point:
            with _naming(name, out):
                for row in rows:
                    deviations += row[-1] == "DEVIATION"
                    writer.writerow(row if with_flag else row[:-1])
    return deviations


@contextmanager
def _rows_per_point(spec: SweepSpec):
    """Each grid point's rows, in point order: computed in this process, or
    by up to ``spec.workers`` processes, at most one per point, in chunks
    of points."""
    points = enumerate(product(spec.lambda1_values, spec.lambda2_values))
    count = len(spec.lambda1_values) * len(spec.lambda2_values)
    workers = min(spec.workers, count)
    rows_of = partial(_point_rows, spec)
    if workers == 1:
        yield map(rows_of, points)
        return
    import multiprocessing  # here: one process does not need it
    if spec.exact or spec.frames:
        # numpy too, once before the workers fork, not once per worker
        from . import montecarlo  # noqa: F401
    # multiprocessing.Pool.map's rule, about four chunks per worker, capped
    chunksize = -(-count // (4 * workers))
    # imap feeds chunks as workers take them; leaving the block terminates the pool
    with multiprocessing.Pool(workers, _start_worker, (rows_of,)) as pool:
        yield pool.imap(_worker_rows, points, min(chunksize, CHUNK_POINTS))


# A worker process's ``_point_rows`` with the command's spec bound, sent
# once when the worker starts; a task then sends only its chunk of points.
# The worker, and this with it, ends with the command's pool.
_WORKER_ROWS = None


def _start_worker(rows_of) -> None:
    global _WORKER_ROWS
    _WORKER_ROWS = rows_of


def _worker_rows(point: tuple) -> list[list]:
    return _WORKER_ROWS(point)


def cmd_eval(args) -> int:
    params = _load_params(args)
    loads = _point_loads(args)
    accounting = AccountingMode(args.accounting)
    if args.exhaustive:
        configs = all_configurations()
    elif args.configuration is not None:
        everything = all_configurations()
        if args.configuration not in everything:
            raise ConfigError(f"--configuration: unknown configuration {args.configuration!r}; "
                              f"choose from: {', '.join(everything)}")
        configs = {args.configuration: everything[args.configuration]}
    else:
        configs = candidate_configurations()

    tables = conditional_tables({**configs, **candidate_configurations()}, params, accounting)
    breakdowns = {label: average_throughput(table, loads) for label, table in tables.items()}
    best = pick_optimal(breakdowns)

    with _naming("stdout", sys.stdout):
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
    cfg, breakdown = optimal_configuration(loads, params, AccountingMode(args.accounting))
    with _naming("stdout", sys.stdout):
        print(f"optimal configuration for lambda1={args.lambda1!r}, "
              f"lambda2={args.lambda2!r}: {cfg.label}")
        print(f"  r={cfg.r} h1={ALTITUDE_SYMBOLS[cfg.t1]} ({params.altitude(cfg.t1)!r} m) "
              f"h2={ALTITUDE_SYMBOLS[cfg.t2]} ({params.altitude(cfg.t2)!r} m)")
        print(f"  throughput_bpshz={breakdown.total!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    _run_grid(args, with_flag=False)
    return EXIT_OK


def cmd_compare(args) -> int:
    flagged = _run_grid(args, with_flag=True)
    if flagged:
        print(f"warning: {flagged} row(s) deviate from the closed form "
              f"in matched-assumption mode", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uav-twoway",
        description="Two-cell UAV two-way TDD throughput model and simulator")
    subparsers = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", default=None, metavar="PATH",
                        help="key=value parameter file overriding the built-in defaults")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single parameter (repeatable)")
    common.add_argument("--accounting", choices=["paper", "consistent"],
                        default="consistent", help="same-cell pair accounting rule")

    point = _Parser(add_help=False)
    point.add_argument("--lambda1", type=float, required=True,
                       help="mean active users in cell 1")
    point.add_argument("--lambda2", type=float, required=True,
                       help="mean active users in cell 2")

    grid = _Parser(add_help=False)
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
    grid.add_argument("--activation", choices=[*(law.value for law in ActivationModel), EXHAUSTIVE],
                      default="poisson", help="activation model for Monte Carlo rows")
    # None, unless given, resolves to exact and sampled, so that only an
    # explicit value is rejected under --activation exhaustive
    grid.add_argument("--distances", choices=["exact", "worst"], default=None,
                      help="simulator distance mode (default: exact)")
    grid.add_argument("--shadowing", choices=["sampled", "mean"], default=None,
                      help="simulator shadowing mode (default: sampled)")
    grid.add_argument("--workers", type=int, default=1,
                      help=f"parallel workers over grid points, 1 to {MAX_WORKERS}, "
                           "at most one per point (output order is fixed)")

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
        print(f"error: {_bounded(str(error))}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as error:
        print(f"numeric error: {_bounded(str(error))}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # stdout's reader has gone (``sweep ... | head -1``). As Python's
        # signal docs advise (note on SIGPIPE), point stdout at devnull and
        # end quietly
        _quiet_stdout()
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
