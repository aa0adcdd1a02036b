#!/usr/bin/env python3
"""The workflow's gates on the installed ``uav-twoway`` command, one name each.

    python tools/ci_gates.py NAME...      # run the named gates in turn

Each gate runs the console script (and, for memory, the package through
``python -c``) with the flags, timeouts and bounds the workflow has always
used, and prints its name, its docstring and what it ran; the workflow
names each step after its gate. The first failing gate stops the run with
exit 1; no name, or an unknown one, exits 2 and lists the gates. Output
files (``*.csv``, ``*.err``) land in a temporary directory, removed when the
run ends. Needs only the standard library and an installed package
(``pip install -e .``).
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

CANDIDATES = "r1_Hl_Hh,r1_Hh_Hl,r0_Hl_Hl"
MATCHED = ("--activation", "model", "--distances", "worst", "--shadowing", "mean")
# a command's peak RSS [MB] and its largest worker's (0 without workers),
# printed after the CSV is written
PEAK_MB = ("import resource, sys; from uav_twoway import cli; code = cli.main(sys.argv[1:]); "
           "sys.exit(code) if code else "
           "print(*(resource.getrusage(who).ru_maxrss / 1024 "
           "for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))")


class GateFailed(Exception):
    pass


def run(argv, *, timeout=None, expect=0, stdout=None, stderr=None) -> str:
    """Run ``argv``; fail unless it exits ``expect`` within ``timeout`` s,
    and, if ``expect`` is 2 (a rejected input), unless its stderr is one
    line under 500 bytes. Returns its stdout when ``stdout`` is
    ``subprocess.PIPE``."""
    print("+", " ".join(argv), flush=True)
    if expect == 2:
        stderr = subprocess.PIPE
    try:
        done = subprocess.run(argv, timeout=timeout, stdout=stdout, stderr=stderr, text=True)
    except subprocess.TimeoutExpired:
        raise GateFailed(f"over the {timeout} s limit: {' '.join(argv)}") from None
    except OSError as error:  # e.g. the console script is not installed
        raise GateFailed(f"cannot run {argv[0]}: {error}") from None
    if done.returncode != expect:
        raise GateFailed(f"exit {done.returncode}, expected {expect}: {' '.join(argv)}")
    if expect == 2:
        print(done.stderr, end="")
        if done.stderr.count("\n") != 1 or len(done.stderr.encode()) >= 500:
            raise GateFailed(f"stderr not one line under 500 bytes: {' '.join(argv)}")
    return done.stdout


def console_script(out: Path):
    """eval, a 10-frame compare; bad --out, --frames and --config values exit 2 in one line."""
    run(["uav-twoway", "eval", "--lambda1", "5", "--lambda2", "3"])
    run(["uav-twoway", "compare", "--lambda1", "6", "--lambda2", "4", "--frames", "10"])
    run(["uav-twoway", "compare", "--lambda1", "6", "--lambda2", "4", "--activation",
         "exhaustive", "--frames", "5"], expect=2)
    run(["uav-twoway", "sweep", "--lambda1", "1", "--lambda2", "1", "--out", "."], expect=2)
    run(["uav-twoway", "sweep", "--lambda1", "1", "--lambda2", "1", "--out", ""], expect=2)
    run(["uav-twoway", "sweep", "--lambda1", "1", "--lambda2", "1", "--out", "/dev/full"],
        expect=2)
    run(["uav-twoway", "eval", "--lambda1", "5", "--lambda2", "3", "--config", "c" * 600],
        expect=2)


def closed_form_200(out: Path):
    """eval, optimize and an exhaustive sweep at n_users=200, each within 30 s."""
    run(["uav-twoway", "eval", "--lambda1", "60", "--lambda2", "40", "--exhaustive",
         "--set", "n_users=200"], timeout=30)
    run(["uav-twoway", "optimize", "--lambda1", "60", "--lambda2", "40",
         "--set", "n_users=200"], timeout=30)
    run(["uav-twoway", "sweep", "--lambda1", "6", "--lambda2", "4",
         "--configurations", "exhaustive,optimal", "--set", "n_users=200"], timeout=30)


def peak_mb(out: Path, *argv: str) -> tuple[float, float]:
    """Peak RSS [MB] of ``argv`` run in one process, its CSV written to
    ``out``, and of its largest worker (0 without workers)."""
    main_mb, worker_mb = run([sys.executable, "-c", PEAK_MB, *argv, "--out", str(out)],
                             timeout=120, stdout=subprocess.PIPE).split()
    return float(main_mb), float(worker_mb)


def memory(out: Path):
    """Rows of 10^6 frames within 20 MB of 10^5; 600 x 100 sweeps within 10 MB of 10 x 10."""
    row = ("compare", "--lambda1", "6", "--lambda2", "4", "--configurations", "r0_Hl_Hl")
    small_grid = ("sweep", "--lambda1", "1:10:1", "--lambda2", "1:10:1")
    large_grid = ("sweep", "--lambda1", "1:600:1", "--lambda2", "1:100:1")
    # (name, what is compared, small command, large command, bound [MB])
    for name, sizes, small, large, bound in (
            ("row", ("10^5 frames", "10^6 frames"), (*row, "--frames", "100000"),
             (*row, "--frames", "1000000"), 20),
            ("matched_row", ("10^5 frames", "10^6 frames"),
             (*row, "--frames", "100000", *MATCHED), (*row, "--frames", "1000000", *MATCHED), 20),
            ("sweep", ("10 x 10 points", "600 x 100 points"), small_grid, large_grid, 10),
            ("workers_sweep", ("10 x 10 points", "600 x 100 points at two workers"),
             small_grid, (*large_grid, "--workers", "2"), 10)):
        small_mb, _ = peak_mb(out / f"{name}_small.csv", *small)
        large_mb, worker_mb = peak_mb(out / f"{name}_large.csv", *large)
        print(f"{name} peak RSS: {small_mb} MB at {sizes[0]}, {large_mb} MB at {sizes[1]}"
              + (f" (largest worker {worker_mb} MB)" if worker_mb else ""))
        excess = max(large_mb, worker_mb) - small_mb  # each process within the bound
        if excess >= bound:
            raise GateFailed(f"{name}: {sizes[1]} peak {excess:.1f} MB higher than {sizes[0]}")


def matches_closed_form(out: Path, name: str, argv, timeout=None):
    """Run a compare into ``name``.csv and .err in ``out``; fail if a row deviates."""
    csv_path, err_path = out / f"{name}.csv", out / f"{name}.err"
    try:
        with open(err_path, "w") as err:
            run(["uav-twoway", "compare", *argv, "--out", str(csv_path)],
                timeout=timeout, stderr=err)
    finally:
        messages = err_path.read_text()
        print(messages, end="")
    deviation = "DEVIATION" in csv_path.read_text()
    if "deviate from the closed form" in messages or deviation:
        raise GateFailed(f"{name}: a row deviates from the closed form")


def model_matched(out: Path):
    """A model-matched compare: one uniform per frame, inverted by the joint cdf."""
    matches_closed_form(out, "model_matched", [
        "--lambda1", "6,31", "--lambda2", "4", "--configurations", CANDIDATES,
        "--frames", "5000", *MATCHED])


def model_matched_200(out: Path):
    """A model-matched compare at n_users=200: the largest cdf, 40,401 cells, in bounded time."""
    matches_closed_form(out, "model_matched200", [
        "--lambda1", "60", "--lambda2", "40", "--configurations", "r1_Hl_Hh,r0_Hl_Hl",
        "--frames", "5000", *MATCHED, "--set", "n_users=200"], timeout=60)


def exhaustive(out: Path):
    """An exhaustive compare: the matched engine reproduces the closed form."""
    matches_closed_form(out, "exhaustive", [
        "--lambda1", "6,12", "--lambda2", "4", "--configurations", "exhaustive",
        "--activation", "exhaustive"])


def exhaustive_100(out: Path):
    """An exhaustive compare at n_users=100: each grid built once, in bounded time."""
    matches_closed_form(out, "exhaustive100", [
        "--lambda1", "6,12", "--lambda2", "4", "--configurations", CANDIDATES,
        "--activation", "exhaustive", "--set", "n_users=100"], timeout=120)


def exhaustive_200(out: Path):
    """An exhaustive compare at n_users=200: all eight grids, built whole, in bounded time."""
    matches_closed_form(out, "exhaustive200", [
        "--lambda1", "6", "--lambda2", "4", "--configurations", "exhaustive",
        "--activation", "exhaustive", "--set", "n_users=200"], timeout=30)


# each gate takes the directory its output files go to
GATES = {"console-script": console_script, "closed-form-200": closed_form_200,
         "memory": memory, "model-matched": model_matched,
         "model-matched-200": model_matched_200, "exhaustive": exhaustive,
         "exhaustive-100": exhaustive_100, "exhaustive-200": exhaustive_200}


def main(argv) -> int:
    unknown = [name for name in argv if name not in GATES]
    if not argv or unknown:
        print("usage: ci_gates.py NAME...", *(f"unknown gate: {name}" for name in unknown),
              *(f"  {name:18} {gate.__doc__}" for name, gate in GATES.items()),
              sep="\n", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as out:
        for name in argv:
            print(f"== {name}", GATES[name].__doc__, sep="\n", flush=True)
            try:
                GATES[name](Path(out))
            except GateFailed as failure:
                print(f"FAILED {name}: {failure}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
