"""Benchmark of the uav-twoway CLI, run in-process on one workload.

    python3 perfbench/run.py --workload sweep_grid --seed 3 --seconds 20 --trace 0

Imports the package from ``src/`` next to this directory, then:

- measures set-up time: fresh interpreters that import ``uav_twoway.cli``,
  run ``load_params()`` and build the parser (median of several);
- makes one warm-up ``cli.main`` call, then repeats the call until
  ``--seconds`` have passed. Each call has a time limit; an overrun or a
  non-zero exit counts all of its rows as failed and ends the run;
- scales set-up and call times to the reference machine's speed with
  ``speed``, because the shared machine's own speed drifts;
- checks every call's CSV with ``oracle.check``;
- with ``--trace 1``, alternates untraced calls with calls traced by
  ``layertrace`` and reports per-layer counts and self-time shares instead
  of the end-to-end metrics.

Prints a JSON record (environment, samples, trace tree) and, as the last
line, the result: ``{"correct", "attempted", "failed", "metrics"}``.
Exits 2 without a result when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from layertrace import LayerTrace
from oracle import Reference, check
from speed import PROBE_REFERENCE_S, Samples
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CALL_LIMIT_S = 60.0
SETUP_REPEATS = 7
# Set-up ends with the parser built. The child then samples its own CPU's
# speed and prints how long that took and the mean probe time.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import uav_twoway.cli as cli
from uav_twoway.params import load_params
load_params()
cli.build_parser()
from time import perf_counter
start = perf_counter()
import speed
probes = [speed.probe() for _ in range(2 * speed.PROBES_AROUND)]
print(perf_counter() - start, sum(probes) / len(probes))
"""

# Per-layer metrics: .calls and .self_share of these functions; a group sums
# several functions under one name. A share, not seconds, because a layer
# that does not run on a workload would report a constant 0 s.
TRACED = {name: (name,) for name in (
    "throughput.skellam_pmf", "throughput.conditional_throughput",
    "throughput.average_throughput", "throughput.optimal_configuration",
    "pairing.pair_counts", "pairing.schedule_frame", "rates.rate_set",
    "sinr.altitude_indicator", "montecarlo.run_frame", "montecarlo.sample_layout",
    "montecarlo.frame_rng", "montecarlo.draw_activation", "montecarlo.simulate",
    "params.load_params", "cli.main")}
TRACED["channel.rx_power"] = ("channel.rx_power_uav_to_ground",
                              "channel.rx_power_ground_to_uav",
                              "channel.rx_power_ground_to_ground")


class CallTimeout(BaseException):
    """Raised in the main thread when a call overruns its limit. Derived
    from BaseException so that no handler in the program swallows it."""


def _raise_timeout(signum, frame):
    raise CallTimeout()


@dataclass
class Call:
    seconds: float    # the program's own time, speed probes taken out
    ok: bool          # exit code 0 within the limit
    text: str         # captured stdout: the CSV
    note: str = ""
    speed: Samples | None = None


def _main(cli, argv: list[str], limit: float) -> tuple[int | None, str, str]:
    """cli.main(argv) -> (exit code or None, note, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        note = "" if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
    except CallTimeout:
        code, note = None, f"over the {limit:g} s limit"
    except SystemExit as error:  # argparse rejects the command line
        code, note = error.code, f"exit {error.code}"
    except Exception:  # a crash in the program fails the call, not the benchmark
        code, note = None, traceback.format_exc(limit=3)
    return code, note, out.getvalue()


def run_call(cli, argv: list[str], limit: float = CALL_LIMIT_S,
             sample_speed: bool = False) -> Call:
    """One in-process ``cli.main(argv)`` with stdout captured and a time
    limit, optionally sampling the machine's speed around and during it."""
    speed = Samples() if sample_speed else None
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with speed.taken() if speed else nullcontext():
            start = perf_counter()
            code, note, text = _main(cli, argv, limit)
            seconds = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if speed:
        seconds -= speed.probing_s()
    return Call(seconds, code == 0, text, note, speed)


def import_program():
    """Import uav_twoway.cli from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import uav_twoway.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"uav_twoway imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to a ready CLI, per repeat: as
    measured, and at the reference machine's speed."""
    command = [sys.executable, "-c", SETUP_CODE, str(SRC), str(Path(__file__).parent)]
    subprocess.run(command, check=True, timeout=60, capture_output=True)  # warms the bytecode cache
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        done = subprocess.run(command, check=True, timeout=60, capture_output=True, text=True)
        elapsed = perf_counter() - start
        probing_s, probe_s = (float(x) for x in done.stdout.split()[-2:])
        raw.append(elapsed - probing_s)
        scaled.append(raw[-1] * PROBE_REFERENCE_S / probe_s)
    return raw, scaled


def summary(samples: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples
    beyond it (none below eleven samples), with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    quartiles = statistics.quantiles(ordered, n=4) if n >= 2 else [ordered[0]] * 3
    return {"n": n, "median": statistics.median(ordered), "q1": quartiles[0],
            "q3": quartiles[2], "tail": tail, "samples": samples}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu_model = next((line.split(":", 1)[1].strip() for line in info
                              if line.startswith("model name")), None)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model or platform.processor(), "git_sha": _git_sha(),
            "src_sha256": source.hexdigest(), "seed": seed}


class Run:
    """The calls of one benchmark run and the verdicts on their output."""

    def __init__(self, cli, workload, seed: int, *, sample_speed: bool = False,
                 limit: float = CALL_LIMIT_S):
        self.cli = cli
        self.argv = workload.command(seed)
        self.reference = Reference.load(workload.name)
        self.seed = seed
        self.sample_speed = sample_speed
        self.limit = limit
        self.first_text = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.stopped = False

    def call(self) -> Call:
        result = run_call(self.cli, self.argv, self.limit, self.sample_speed)
        if result.ok:
            verdict = check(result.text, self.reference, self.seed, self.first_text)
            attempted, failed, problems = verdict.attempted, verdict.failed, verdict.problems
            if self.first_text is None:
                self.first_text = result.text
        else:
            attempted = failed = len(self.reference.rows)
            problems = (result.note,)
            self.stopped = True  # an overrun or a crash would repeat; stop here
        self.attempted += attempted
        self.failed += failed
        if problems and len(self.problems) < 10:
            self.problems.extend(problems)
        return result

    def outcome(self) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed}


def measure(run: Run, workload, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off."""
    setup_raw, setup = measure_setup()
    warm_up = run.call()
    calls = []
    deadline = perf_counter() + seconds
    while not run.stopped and (perf_counter() < deadline or not calls):
        calls.append(run.call())
    calls = calls or [warm_up]  # the warm-up failed; its time is all there is
    raw = [call.seconds for call in calls]
    walls = [call.speed.at_reference_speed() for call in calls]
    probes = [call.speed.mean_probe_s() for call in calls]
    wall = statistics.median(walls)
    items = workload.items(len(run.reference.rows))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": items / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    rate_name = "frames_per_s" if workload.frames_per_row else "points_per_s"
    record = {"wall_s": summary(walls), "setup_s": summary(setup),
              "raw_wall_s": summary(raw), "raw_setup_s": summary(setup_raw),
              "mean_probe_s": probes, "items_per_call": items,
              rate_name: items / wall, f"raw_{rate_name}": items / statistics.median(raw)}
    return metrics, record


def measure_traced(run: Run, workload, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced calls alternate, so the
    tracing overhead is measured in the same run."""
    warm_up = run.call()
    plain, traced = [], []  # wall seconds; (wall seconds, trace, csv bytes)
    deadline = perf_counter() + seconds
    while not run.stopped and (perf_counter() < deadline or not plain or not traced):
        if len(traced) <= len(plain):
            trace = LayerTrace()
            with trace.installed():
                result = run.call()
            traced.append((result.seconds, trace, len(result.text.encode("utf-8"))))
        else:
            plain.append(run.call().seconds)
    # after a failed call, report what was measured and zeros for the rest
    traced = traced or [(warm_up.seconds, LayerTrace(), len(warm_up.text.encode("utf-8")))]
    plain = plain or [warm_up.seconds]

    tables = [trace.per_function() for _, trace, _ in traced]
    first = tables[0]
    frames = workload.frames_per_row * len(run.reference.rows)
    metrics = {}
    for metric, names in TRACED.items():
        calls = sum(first.get(name, (0, 0.0, 0.0))[0] for name in names)
        share = statistics.median(
            sum(table.get(name, (0, 0.0, 0.0))[2] for name in names) / seconds
            for table, (seconds, _, _) in zip(tables, traced))
        metrics[f"{metric}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{metric}.self_share"] = {"value": share, "unit": "ratio"}
    first_trace = traced[0][1]
    averages = first.get("throughput.average_throughput", (0,))[0]
    frame_calls = first.get("montecarlo.run_frame", (0,))[0]
    traced_wall = statistics.median(seconds for seconds, _, _ in traced)
    metrics.update({
        "throughput.average_unique_ratio": {
            "value": len(first_trace.average_keys) / averages if averages else 0.0,
            "unit": "ratio"},
        "montecarlo.slots_per_frame": {
            "value": first_trace.frame_slots / frame_calls if frame_calls else 0.0,
            "unit": "slots"},
        "montecarlo.matched_memo_hit_ratio": {
            "value": 1.0 - frame_calls / frames if frames else 0.0, "unit": "ratio"},
        "cli.csv_bytes": {"value": traced[0][2], "unit": "bytes"},
        "trace_overhead_frac": {
            "value": traced_wall / statistics.median(plain) - 1.0, "unit": "ratio"},
    })
    counts = [{name: entry[0] for name, entry in table.items()} for table in tables]
    record = {"untraced_wall_s": summary(plain),
              "traced_wall_s": summary([seconds for seconds, _, _ in traced]),
              "counts_repeat": all(c == counts[0] for c in counts),
              "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                            for name, (c, t, s) in sorted(first.items())},
              "tree": first_trace.tree()}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        cli = import_program()
    except ImportError as error:
        print(f"error: cannot import the program: {error}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run = Run(cli, workload, args.seed, sample_speed=not args.trace)
    if args.trace:
        metrics, details = measure_traced(run, workload, args.seconds)
    else:
        metrics, details = measure(run, workload, args.seconds)

    outcome = run.outcome()
    record = {"workload": workload.name, "why": workload.why, "argv": run.argv,
              "trace": args.trace, "env": environment(args.seed),
              "failed_frac": outcome["failed"] / outcome["attempted"],
              "problems": run.problems, **details}
    print(json.dumps({"record": record}))
    print(json.dumps({**outcome, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
