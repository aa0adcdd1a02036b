"""Correctness checks for one workload call's CSV output.

A row fails when any of these does not hold:

- its (lambda1, lambda2, configuration) key appears once and is in the
  reference CSV, which was produced at the seed commit with seed 1;
- every column that does not depend on the seed equals the reference
  exactly; ``throughput_bpshz`` is finite and within 1e-9 relative of it;
- the ``seed`` column echoes the run's seed;
- an ``optimal`` row equals the largest of its point's candidate rows;
- mirror symmetry, bit for bit: r1_Hl_Hh at (a, b) equals r1_Hh_Hl at
  (b, a), and r0_Hl_Hl at (a, b) equals r0_Hl_Hl at (b, a);
- a Monte Carlo mean is finite and lies within 3*sqrt(hw^2 + hw_ref^2) of
  the reference mean, hw being the 95% half-width. The test is
  statistical, so other seeds and other RNG streams pass it;
- the text equals the run's first output byte for byte, when that is given.

Reference rows missing from the output and rows the reference lacks count
as failed too, up to the number of rows attempted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RELATIVE_TOLERANCE = 1e-9
MC_SIGMAS = 3.0

# Columns that vary with the seed; every other column must match exactly.
SEEDED = ("seed", "throughput_bpshz", "mc_mean", "mc_ci_low", "mc_ci_high")
CANDIDATE_LABELS = ("r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl")
MIRROR = {"r1_Hl_Hh": "r1_Hh_Hl", "r1_Hh_Hl": "r1_Hl_Hh", "r0_Hl_Hl": "r0_Hl_Hl"}


def _key(row: dict) -> tuple[str, str, str]:
    return row["lambda1"], row["lambda2"], row["configuration"]


def _float(text: str | None) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):  # a short row leaves None
        return math.nan


@dataclass(frozen=True)
class Reference:
    header: list[str]
    rows: dict  # key -> row dict

    @classmethod
    def load(cls, workload: str) -> "Reference":
        text = (REFERENCE_DIR / f"{workload}.csv").read_text(encoding="utf-8")
        reader = csv.DictReader(text.splitlines())
        return cls(header=list(reader.fieldnames), rows={_key(r): r for r in reader})


@dataclass(frozen=True)
class Verdict:
    attempted: int
    failed: int
    problems: tuple[str, ...]  # first few failure reasons, for the record


def _row_problem(row: dict, ref: dict, header: list[str], seed: int) -> str | None:
    for column in header:
        if column not in SEEDED and row[column] != ref[column]:
            return f"{column}={row[column]!r}, reference {ref[column]!r}"
    if row["seed"] != str(seed):
        return f"seed={row['seed']!r}, run seed {seed}"
    value, expected = _float(row["throughput_bpshz"]), float(ref["throughput_bpshz"])
    if not (math.isfinite(value)
            and abs(value - expected) <= RELATIVE_TOLERANCE * abs(expected)):
        return f"throughput_bpshz={row['throughput_bpshz']}, reference {expected!r}"
    if ref.get("mc_mean"):
        mean, ref_mean = _float(row["mc_mean"]), float(ref["mc_mean"])
        half = _float(row["mc_ci_high"]) - mean
        ref_half = float(ref["mc_ci_high"]) - ref_mean
        limit = MC_SIGMAS * math.hypot(half, ref_half)
        if not (math.isfinite(mean) and math.isfinite(half) and abs(mean - ref_mean) <= limit):
            return f"mc_mean={row['mc_mean']}, reference {ref_mean!r} +- {limit!r}"
    return None


def check(text: str, reference: Reference, seed: int,
          first_text: str | None = None) -> Verdict:
    """Check one call's CSV text against the reference and the invariants."""
    attempted = len(reference.rows)
    problems: dict = {}  # key -> first reason it failed

    def fail(key, reason):
        problems.setdefault(key, reason)

    lines = text.splitlines()
    reader = csv.DictReader(lines)
    if reader.fieldnames != reference.header:
        return Verdict(attempted, attempted, (f"header {reader.fieldnames!r}",))
    first_lines = first_text.splitlines() if first_text is not None else None
    rows: dict = {}
    for index, (line, row) in enumerate(zip(lines[1:], reader), start=1):
        key = _key(row)
        if key in rows:
            fail(key, "duplicate row")
        rows[key] = row
        if first_lines is not None and first_lines[index:index + 1] != [line]:
            fail(key, "output differs from the run's first call")
    if first_text is not None and text != first_text and not problems:
        fail(("", "", "csv"), "output differs from the run's first call")

    for key, ref in reference.rows.items():
        row = rows.get(key)
        if row is None:
            fail(key, "missing row")
            continue
        reason = _row_problem(row, ref, reference.header, seed)
        if reason:
            fail(key, reason)
    for key in rows.keys() - reference.rows.keys():
        fail(key, "row not in the reference")

    for (lambda1, lambda2, label), row in rows.items():
        if label == "optimal":
            candidates = [_float(rows[(lambda1, lambda2, c)]["throughput_bpshz"])
                          for c in CANDIDATE_LABELS if (lambda1, lambda2, c) in rows]
            if not candidates or _float(row["throughput_bpshz"]) != max(candidates):
                fail((lambda1, lambda2, label), "optimal is not the best candidate")
        partner = rows.get((lambda2, lambda1, MIRROR.get(label)))
        if partner is not None and partner["throughput_bpshz"] != row["throughput_bpshz"]:
            fail((lambda1, lambda2, label), "mirror symmetry broken")

    reasons = tuple(f"{k}: {r}" for k, r in list(problems.items())[:5])
    return Verdict(attempted, min(len(problems), attempted), reasons)
