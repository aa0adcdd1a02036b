"""Self-test of the benchmark's oracle and time limit.

    python3 perfbench/selftest.py

For each workload, one call at the reference seed must pass the oracle;
then every row's ``throughput_bpshz`` is perturbed by 1e-6 relative, one
row at a time, and each perturbed copy must be counted as failed. Last, an
input that never ends today (Poisson activation with lambda far above the
30 users of a cell) must be cut at the call's time limit and counted as
failed. Exits 1 if any of this does not hold.
"""

from __future__ import annotations

import sys

from oracle import check
from run import Run, import_program
from workloads import REFERENCE_SEED, WORKLOADS

PERTURBATION = 1e-6
HANG_ARGV = ["compare", "--lambda1", "1000", "--lambda2", "4", "--frames", "1",
             "--configurations", "r0_Hl_Hl", "--seed", "1"]
HANG_LIMIT_S = 2.0


def perturbed(text: str, row: int) -> str:
    """Copy of the CSV with one row's throughput scaled by 1 + PERTURBATION.
    The CSV has no quoted cells, so splitting on commas is exact."""
    lines = text.split("\n")
    column = lines[0].split(",").index("throughput_bpshz")
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + PERTURBATION))
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def main() -> int:
    cli = import_program()
    ok = True
    for workload in WORKLOADS.values():
        run = Run(cli, workload, REFERENCE_SEED)
        call = run.call()
        clean = run.outcome()
        rows = clean["attempted"]
        detected = sum(
            check(perturbed(call.text, row), run.reference, REFERENCE_SEED).failed > 0
            for row in range(1, rows + 1))
        passed = call.ok and clean["failed"] == 0 and detected == rows
        ok &= passed
        print(f"{workload.name}: clean copy {clean['failed']} of {rows} rows failed; "
              f"perturbed copies detected {detected} of {rows} -> "
              f"{'ok' if passed else 'FAIL'}")

    run = Run(cli, WORKLOADS["mc_exact"], 1, limit=HANG_LIMIT_S)
    run.argv = HANG_ARGV
    call = run.call()
    outcome = run.outcome()
    passed = (not call.ok and call.seconds < HANG_LIMIT_S + 1.0 and run.stopped
              and outcome["failed"] == outcome["attempted"] > 0)
    ok &= passed
    print(f"time limit: hanging call ended after {call.seconds:.2f} s ({call.note}); "
          f"{outcome['failed']} of {outcome['attempted']} rows failed -> "
          f"{'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
