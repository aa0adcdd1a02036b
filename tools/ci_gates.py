#!/usr/bin/env python3
"""The workflow's gates on the installed ``uav-twoway`` command, one name each.

    python tools/ci_gates.py NAME...      # run the named gates in turn

Each gate runs the console script (and, for memory, the package through
``python -c``) with the flags, timeouts and bounds the workflow has always
used, and prints what it ran. The first failing gate stops the run with
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
# a one-row compare's peak RSS [MB], printed after the CSV is written
PEAK_MB = ("import resource, sys; from uav_twoway import cli; code = cli.main(sys.argv[1:]); "
           "sys.exit(code) if code else "
           "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)")


class GateFailed(Exception):
    pass


def run(argv, *, timeout=None, expect=0, stdout=None, stderr=None) -> str:
    """Run ``argv``; fail unless it exits ``expect`` within ``timeout`` s.
    Returns its stdout when ``stdout`` is ``subprocess.PIPE``."""
    print("+", " ".join(argv), flush=True)
    try:
        done = subprocess.run(argv, timeout=timeout, stdout=stdout, stderr=stderr, text=True)
    except subprocess.TimeoutExpired:
        raise GateFailed(f"over the {timeout} s limit: {' '.join(argv)}") from None
    except OSError as error:  # e.g. the console script is not installed
        raise GateFailed(f"cannot run {argv[0]}: {error}") from None
    if done.returncode != expect:
        raise GateFailed(f"exit {done.returncode}, expected {expect}: {' '.join(argv)}")
    return done.stdout


def console_script(out: Path):
    """eval, a 10-frame compare, an unwritable --out exits 2."""
    run(["uav-twoway", "eval", "--lambda1", "5", "--lambda2", "3"])
    run(["uav-twoway", "compare", "--lambda1", "6", "--lambda2", "4", "--frames", "10"])
    run(["uav-twoway", "sweep", "--lambda1", "1", "--lambda2", "1", "--out", "."], expect=2)


def closed_form_200(out: Path):
    """The closed form at n_users=200 in bounded time."""
    run(["uav-twoway", "eval", "--lambda1", "60", "--lambda2", "40", "--exhaustive",
         "--set", "n_users=200"], timeout=30)
    run(["uav-twoway", "optimize", "--lambda1", "60", "--lambda2", "40",
         "--set", "n_users=200"], timeout=30)


def peak_mb(frames: int, out: Path, *flags: str) -> float:
    """Peak RSS [MB] of a one-row compare of ``frames`` frames."""
    return float(run([sys.executable, "-c", PEAK_MB, "compare", "--lambda1", "6",
                      "--lambda2", "4", "--configurations", "r0_Hl_Hl", "--frames", str(frames),
                      "--out", str(out), *flags], timeout=120, stdout=subprocess.PIPE))


def memory(out: Path):
    """A 10^6-frame row within 20 MB of a 10^5-frame one, physical and model-matched."""
    for name, flags in (("row", ()), ("matched_row", MATCHED)):
        small = peak_mb(100_000, out / f"{name}_100000.csv", *flags)
        large = peak_mb(1_000_000, out / f"{name}_1000000.csv", *flags)
        print(f"{name} peak RSS: {small} MB at 10^5 frames, {large} MB at 10^6 frames")
        if large - small >= 20:
            raise GateFailed(f"{name}: a 10^6-frame row peaks {large - small:.1f} MB higher")


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
    """One uniform per frame, inverted by the joint cdf."""
    matches_closed_form(out, "model_matched", [
        "--lambda1", "6,31", "--lambda2", "4", "--configurations", CANDIDATES,
        "--frames", "5000", *MATCHED])


def model_matched_200(out: Path):
    """The largest cdf, 40,401 cells, in bounded time."""
    matches_closed_form(out, "model_matched200", [
        "--lambda1", "60", "--lambda2", "40", "--configurations", "r1_Hl_Hh,r0_Hl_Hl",
        "--frames", "5000", *MATCHED, "--set", "n_users=200"], timeout=60)


def exhaustive(out: Path):
    """The matched engine reproduces the closed form."""
    matches_closed_form(out, "exhaustive", [
        "--lambda1", "6,12", "--lambda2", "4", "--configurations", "exhaustive",
        "--activation", "exhaustive"])


def exhaustive_100(out: Path):
    """The large-N matched path, each grid built once, in bounded time."""
    matches_closed_form(out, "exhaustive100", [
        "--lambda1", "6,12", "--lambda2", "4", "--configurations", CANDIDATES,
        "--activation", "exhaustive", "--set", "n_users=100"], timeout=120)


def exhaustive_200(out: Path):
    """All eight grids, each built whole, in bounded time."""
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
            print(f"== {name}", flush=True)
            try:
                GATES[name](Path(out))
            except GateFailed as failure:
                print(f"FAILED {name}: {failure}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
