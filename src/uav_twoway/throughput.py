"""Closed-form average throughput over the load-difference distribution,
and the optimal spin/altitude configuration.

The difference k = K1 - K2 of two independent Poisson loads follows the
Skellam distribution. For each k, the admissible splits (K2, K2 + k) with
both counts in [1, N] are averaged with weights C(N, K2+k)*C(N, K2)
(the number of distinct active-user cases), and each split contributes its
conditional per-slot throughput. Only the cross-cell pair count depends on
K2, so a k's values come from one ``pair_counts`` call. The weights depend
on N alone: ``SystemParams.split_weights`` builds them once per parameter
set, each k < 0 diagonal the transpose of the -k one, and every table built
from it reads them. Swapping the cells maps (r, t1, t2) to its mirror
(r, t2, t1) and k to -k, bit for bit, so a table is its own k >= 0 half
followed by its mirror's k > 0 entries, reversed: ``conditional_tables``
builds each half once for all the tables of a call.

The average therefore factors into a load-only vector P(lambda)[k]
(``skellam_vector``) and a configuration-only vector C(cfg)[k]
(``conditional_table``), and the closed form is their dot product over
k in [-N, N]. Both vectors hold 2N + 1 floats indexed by k itself: k >= 0
at position k and -k at position -k, so ``vector[k]`` reads either sign.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field

from .errors import NonPositiveRateError
from .pairing import AccountingMode, pair_counts
from .params import SystemParams, admissible_k2
from .rates import RateSet, rate_set
from .sinr import Configuration, candidate_configurations

# Candidates in tie-break order: the optimum is the first strictly largest.
OPTIMAL_PRIORITY = ("r0_Hl_Hl", "r1_Hl_Hh", "r1_Hh_Hl")

# Miller's recurrence multiplies its values by 1/_RESCALE before they can
# overflow; below _SERIES_Z the leading power-series term is exact instead.
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_SERIES_Z = 1e-8


# Miller's recurrence runs about 9*sqrt(2*lambda) steps: 0.2 s at this
# ceiling, and without one a huge finite rate would never end.
MAX_RATE = 1e10


def check_rate(value: float, name: str) -> None:
    """Reject an activity rate outside (0, MAX_RATE], naming it."""
    if not 0 < value <= MAX_RATE:
        raise NonPositiveRateError(
            f"{name}={value!r}: activity rate must be finite, > 0 and <= {MAX_RATE:g}")


def _check_rates(lambda1: float, lambda2: float) -> None:
    check_rate(lambda1, "lambda1")
    check_rate(lambda2, "lambda2")


@dataclass(frozen=True)
class LoadDistribution:
    """Mean number of active users per cell and frame, each in (0, MAX_RATE]."""

    lambda1: float
    lambda2: float
    _vectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_rates(self.lambda1, self.lambda2)

    def skellam_vector(self, n: int) -> tuple[float, ...]:
        """``skellam_vector(n, lambda1, lambda2)``, computed once per n for
        this load pair."""
        vector = self._vectors.get(n)
        if vector is None:
            vector = self._vectors[n] = tuple(skellam_vector(n, self.lambda1, self.lambda2))
        return vector


class ActivationModel(enum.Enum):
    """How the simulator draws a frame's per-cell active-user counts from a
    ``LoadDistribution``; the value names the law on the command line.

    TRUNCATED_POISSON draws a frame's two Poisson counts again until both
    land in [1, N]; the cells are independent, so each count follows its
    Poisson law truncated to [1, N]. BINOMIAL_PER_USER activates each of
    the N users independently with probability lambda/N. MODEL_MATCHED
    draws (K1, K2) from the closed form's own law, so the sampled mean is
    an unbiased estimate of the closed-form average. Defined here, not in
    the simulator, so that naming a law loads no numpy.
    """

    TRUNCATED_POISSON = "poisson"
    BINOMIAL_PER_USER = "binomial"
    MODEL_MATCHED = "model"


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Average throughput of one configuration with the two vectors it
    multiplies: ``total`` is the dot product of ``pmf``, P(lambda), and
    ``conditional``, C(cfg), over k in [-N, N], both indexed by k.
    """

    total: float
    config: Configuration
    pmf: tuple = field(repr=False)
    conditional: tuple = field(repr=False)

    @property
    def covered_mass(self) -> float:
        """The Skellam probability of [-N, N]: the mass outside it
        contributes nothing and is not renormalised away."""
        return math.fsum(self.pmf)


def _log_scaled_bessel(n: int, z: float) -> list[float]:
    """log(e^-z I_k(z)) for k = 0..n, z > 0.

    Miller's backward recurrence I_{k-1} = (2k/z) I_k + I_{k+1} (A&S 9.12,
    Numerical Recipes 6.6) starts far enough above both n and the bulk of
    e^z = I_0 + 2 sum_{k>=1} I_k (about 9 sqrt(z) orders) that its error
    has died out, and that sum normalises it. Each stored value keeps the
    number of rescalings made before it, so tiny values keep their precision.
    """
    if z < _SERIES_Z:  # e^-z I_k(z) = (z/2)^k / k! to within z^2/4 relative
        log_half_z = math.log(0.5 * z)
        return [k * log_half_z - math.lgamma(k + 1) - z for k in range(n + 1)]
    start = n + 20 + int(math.sqrt(80.0 * z + 400.0))
    upper, current = 0.0, 1.0  # I_{m+1}, I_m up to a common factor
    total, scale = 0.0, 0
    stored = [(0.0, 0)] * (n + 1)
    for m in range(start, 0, -1):
        if m <= n:
            stored[m] = (current, scale)
        total += 2.0 * current
        upper, current = current, (2.0 * m / z) * current + upper
        if current > _RESCALE:
            upper /= _RESCALE
            current /= _RESCALE
            total /= _RESCALE
            scale += 1
    stored[0] = (current, scale)
    total += current
    log_total = math.log(total)
    return [math.log(value) - (scale - at) * _LOG_RESCALE - log_total
            for value, at in stored]


def skellam_vector(n: int, lambda1: float, lambda2: float) -> list[float]:
    """P{K1 - K2 = k} for k in [-n, n], indexed by k (see the module notes).

    Each entry is exp(-(sqrt(l1) - sqrt(l2))^2 + k/2 (log l1 - log l2)
    + log(e^-z I_|k|(z))) with z = 2 sqrt(l1 l2), so values far below 1 keep
    full relative precision, and swapping the rates mirrors k bit for bit.
    """
    _check_rates(lambda1, lambda2)
    root1, root2 = math.sqrt(lambda1), math.sqrt(lambda2)
    base = -(root1 - root2) ** 2  # -(lambda1 + lambda2) + z, without cancellation
    half_log_ratio = 0.5 * (math.log(lambda1) - math.log(lambda2))
    logs = _log_scaled_bessel(n, 2.0 * root1 * root2)
    return ([math.exp(base + k * half_log_ratio + logs[k]) for k in range(n + 1)]
            + [math.exp(base - k * half_log_ratio + logs[k]) for k in range(n, 0, -1)])


def _frame_throughputs(k: int, splits: range, cfg: Configuration, mode: AccountingMode,
                       rates: RateSet) -> list[float]:
    """Per-slot throughput [bits/s/Hz] of the frames with loads (K2 + k, K2),
    k >= 0, one per K2 of ``splits`` (no empty frame among them).

    a_s and b depend on k alone and a_d = K2, so one ``pair_counts`` call
    serves all the splits. Leftover users are in cell 1, whose own UAV
    serves them in the final step: they get UAV1's individual rate.
    """
    counts = pair_counts(k, splits.start, cfg.t1, cfg.t2, mode)
    others = counts.a_s + counts.b
    same = counts.a_s * rates.r_cochannel_same
    alone = counts.b * rates.r_individual
    r_d = rates.r_cochannel_diff
    return [(a_d * r_d + same + alone) / (2 * (a_d + others)) for a_d in splits]


@dataclass(frozen=True)
class ConditionalTable:
    """C(cfg)[k]: the split-weighted conditional throughput of one
    configuration for k in [-N, N], indexed by k, so N is
    ``len(values) // 2``. A k without admissible split holds 0."""

    config: Configuration
    values: tuple[float, ...]


def _half_table(cfg: Configuration, params: SystemParams, mode: AccountingMode) -> list[float]:
    """C(cfg)[k] for k = 0..N from the closed-form conditional throughput
    under accounting ``mode``: one ``pair_counts`` call and one pass over the
    splits per k. A k's frames (K2 + k, K2), one per admissible K2, are
    weighted with ``params.split_weights`` read at stride N + 2 from the
    first split's cell (``map`` stops with the splits). Each entry is an
    exactly rounded sum (``math.fsum``), so it does not depend on the order
    of the splits."""
    n, weights, rates = params.n_users, params.split_weights, rate_set(cfg, params)

    def entry(k: int) -> float:
        first = (k + 1) * (n + 1) + 1  # cell (1 + k, 1): K2 = 1 is the first split
        return math.fsum(map(operator.mul, weights[first::n + 2],
                             _frame_throughputs(k, admissible_k2(k, n), cfg, mode, rates)))

    return [entry(k) for k in range(n + 1)]


def conditional_tables(configs: dict[str, Configuration], params: SystemParams,
                       mode: AccountingMode = AccountingMode.CONSISTENT
                       ) -> dict[str, ConditionalTable]:
    """C(cfg) under accounting ``mode`` for each label -> configuration of
    ``configs``, from one k >= 0 half per configuration or mirror:
    C(cfg.mirror)[k] == C(cfg)[-k]."""
    if not isinstance(mode, AccountingMode):
        raise ValueError(f"mode must be an AccountingMode, got {mode!r}")
    needed = {*configs.values(), *(cfg.mirror for cfg in configs.values())}
    halves = {cfg: _half_table(cfg, params, mode) for cfg in needed}
    return {label: ConditionalTable(cfg, tuple(halves[cfg] + halves[cfg.mirror][:0:-1]))
            for label, cfg in configs.items()}


def conditional_table(cfg: Configuration, params: SystemParams,
                      mode: AccountingMode = AccountingMode.CONSISTENT) -> ConditionalTable:
    """C(cfg) alone: ``conditional_tables`` of one configuration."""
    return conditional_tables({cfg.label: cfg}, params, mode)[cfg.label]


def average_throughput(table: ConditionalTable, loads: LoadDistribution) -> ThroughputBreakdown:
    """Skellam-weighted average of the conditional throughput over k in
    [-N, N]: the product P(lambda) . C(cfg), with N taken from ``table``.

    The mass outside [-N, N] contributes zero without renormalizing.
    Contributions are accumulated as (+k) + (-k) pairs so that swapping
    cells and mirroring the configuration reproduces the total bitwise.
    """
    n = len(table.values) // 2
    pmf = loads.skellam_vector(n)
    conditional = table.values
    total = pmf[0] * conditional[0]
    for j in range(1, n + 1):
        total += pmf[j] * conditional[j] + pmf[-j] * conditional[-j]
    return ThroughputBreakdown(total=total, config=table.config, pmf=pmf,
                               conditional=conditional)


def pick_optimal(breakdowns: dict) -> ThroughputBreakdown:
    """The optimum of the candidates' breakdowns (label -> breakdown, other
    labels ignored): the largest total, ties going to the earliest label in
    OPTIMAL_PRIORITY."""
    best = None
    for label in OPTIMAL_PRIORITY:
        if best is None or breakdowns[label].total > best.total:
            best = breakdowns[label]
    return best


def optimal_configuration(loads: LoadDistribution, params: SystemParams,
                          mode: AccountingMode = AccountingMode.CONSISTENT
                          ) -> tuple[Configuration, ThroughputBreakdown]:
    """Argmax of the average throughput over the three candidate configurations.

    Ties prefer the same-direction low/low configuration, then low/high.
    """
    tables = conditional_tables(candidate_configurations(), params, mode)
    best = pick_optimal({label: average_throughput(t, loads) for label, t in tables.items()})
    return best.config, best
