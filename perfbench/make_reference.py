"""Write the oracle's reference CSVs: one call per workload at the reference seed.

    python3 perfbench/make_reference.py

The stored references were produced at the commit that introduced this
benchmark, before any optimisation. Regenerate them only when a change to
the output is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import sys

from oracle import REFERENCE_DIR, Reference, check
from run import import_program, run_call
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    cli = import_program()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        call = run_call(cli, workload.command(REFERENCE_SEED))
        if not call.ok:
            print(f"{workload.name}: {call.note}", file=sys.stderr)
            return 1
        path = REFERENCE_DIR / f"{workload.name}.csv"
        path.write_text(call.text, encoding="utf-8")
        verdict = check(call.text, Reference.load(workload.name), REFERENCE_SEED)
        if verdict.failed:  # the invariants must hold on the reference itself
            print(f"{workload.name}: {verdict.problems}", file=sys.stderr)
            return 1
        print(f"{workload.name}: {verdict.attempted} rows in {call.seconds:.2f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
