"""The benchmark's workloads: one ``uav-twoway`` command line each.

Every workload runs single-process (``--workers 1``). The benchmark seed is
passed to the program as ``--seed``; the grids and frame counts are fixed,
so a seed changes the Monte Carlo streams and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

CANDIDATES = "r1_Hl_Hh,r1_Hh_Hl,r0_Hl_Hl"

# Seed the stored reference CSVs were produced with.
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]     # CLI arguments, without --seed and --workers
    frames_per_row: int       # Monte Carlo frames per CSV row; 0 = analytical
    why: str

    def command(self, seed: int) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--workers", "1"]

    def items(self, rows: int) -> int:
        """Work units of one call: grid rows for a sweep, frames for a compare."""
        return rows * self.frames_per_row if self.frames_per_row else rows


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep_grid",
        ("sweep", "--lambda1", "1:20:1", "--lambda2", "2,6,10,14,18"),
        0,
        "The paper's figure grid, analytical only: the conditional-throughput "
        "path (conditional_throughput, pair_counts) and skellam_pmf at small lambda.",
    ),
    Workload(
        "sweep_heavy",
        ("sweep", "--lambda1", "100,300,1000", "--lambda2", "100,1000"),
        0,
        "Analytical at large lambda: the O(lambda) Bessel series in skellam_pmf "
        "dominates, so a speed-up for small lambda that slows large lambda shows.",
    ),
    Workload(
        "mc_exact",
        ("compare", "--lambda1", "6,12", "--lambda2", "4", "--configurations",
         CANDIDATES, "--frames", "1000"),
        1000,
        "The physical simulation users run (exact distances, sampled shadowing, "
        "Poisson activation): run_frame, geometry, shadowing and channel per frame.",
    ),
    Workload(
        "mc_matched",
        ("compare", "--lambda1", "6,12", "--lambda2", "4", "--configurations",
         CANDIDATES, "--frames", "20000", "--activation", "model",
         "--distances", "worst", "--shadowing", "mean"),
        20000,
        "Matched-assumption simulation: run_frame is memoized, so per-frame RNG "
        "setup, activation draws and simulate's own loop dominate.",
    ),
)}
