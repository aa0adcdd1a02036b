"""Closed-form average throughput over the load-difference distribution,
and the optimal spin/altitude configuration.

The difference k = K1 - K2 of two independent Poisson loads follows the
Skellam distribution. For each k, the admissible splits (K2, K2 + k) with
both counts in [1, N] are averaged with weights C(N, K2+k)*C(N, K2)
(the number of distinct active-user cases), and each split contributes its
conditional per-slot throughput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonPositiveRateError
from .pairing import AccountingMode, pair_counts
from .params import DerivedConstants, SystemParams
from .rates import RateSet, rate_set
from .sinr import Configuration, candidate_configurations


def _check_rates(lambda1: float, lambda2: float) -> None:
    if not (0 < lambda1 < math.inf and 0 < lambda2 < math.inf):
        raise NonPositiveRateError(
            f"activity rates must be finite and > 0, got ({lambda1!r}, {lambda2!r})")


@dataclass(frozen=True)
class LoadDistribution:
    """Mean number of active users per cell and frame (both finite and > 0)."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        _check_rates(self.lambda1, self.lambda2)


@dataclass(frozen=True)
class ThroughputBreakdown:
    """Average throughput with its per-load-difference decomposition.

    ``per_k`` maps k to (probability weight, conditional average); the
    total is the weight-conditional dot product over k in [-N, N].
    """

    total: float
    per_k: dict = field(repr=False)
    config: Configuration = None
    lambda1: float = None
    lambda2: float = None
    accounting: AccountingMode = AccountingMode.CONSISTENT
    shadowing: str = "mean_db"  # the closed form always uses the mean-dB factor


def _log_bessel_i(order: int, z: float) -> float:
    """log I_k(z) for integer order via the ascending power series.

    Terms are accumulated in log space; the series is truncated once past
    its peak when terms drop below 1e-17 of the running maximum.
    """
    k = abs(order)
    if z == 0.0:
        return 0.0 if k == 0 else -math.inf
    log_half_z = math.log(z / 2.0)
    term_logs = []
    peak = -math.inf
    m = 0
    while True:
        term = (2 * m + k) * log_half_z - math.lgamma(m + 1) - math.lgamma(m + k + 1)
        term_logs.append(term)
        peak = max(peak, term)
        if m > z / 2.0 and term < peak - 40.0:
            break
        m += 1
    return peak + math.log(math.fsum(math.exp(t - peak) for t in term_logs))


def skellam_pmf(k: int, lambda1: float, lambda2: float) -> float:
    """P{K1 - K2 = k} for independent Poisson counts with means lambda1, lambda2."""
    _check_rates(lambda1, lambda2)
    z = 2.0 * math.sqrt(lambda1 * lambda2)
    log_pmf = (-(lambda1 + lambda2)
               + 0.5 * k * (math.log(lambda1) - math.log(lambda2))
               + _log_bessel_i(abs(k), z))
    return math.exp(log_pmf)


def admissible_k2(k: int, n: int) -> range:
    """K2 values with both K2 and K2 + k inside [1, n]."""
    return range(max(1, 1 - k), min(n, n - k) + 1)


def _log_choose(n: int, m: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)


def conditional_throughput(k: int, big_k2: int, cfg: Configuration, params: SystemParams,
                           derived: DerivedConstants,
                           mode: AccountingMode = AccountingMode.CONSISTENT,
                           rates: RateSet | None = None) -> float:
    """Per-slot throughput [bits/s/Hz] of one frame with loads (K2 + k, K2).

    The individual rate applies the altitude of the surplus cell's own UAV,
    which is the one that serves leftover users in the final step. An empty
    frame (no units at all) contributes 0 by convention.
    """
    counts = pair_counts(k, big_k2, cfg.t1, cfg.t2, mode)
    if counts.units == 0:
        return 0.0
    if rates is None:
        rates = rate_set(cfg, params, derived)
    r_ind = rates.r_individual_1 if k > 0 else rates.r_individual_2
    numerator = (counts.a_d * rates.r_cochannel_diff
                 + counts.a_s * rates.r_cochannel_same
                 + counts.b * r_ind)
    return numerator / (2 * counts.units)


def average_throughput(cfg: Configuration, loads: LoadDistribution, params: SystemParams,
                       derived: DerivedConstants,
                       mode: AccountingMode = AccountingMode.CONSISTENT) -> ThroughputBreakdown:
    """Skellam-weighted average of the conditional throughput over k in [-N, N].

    A k whose stratum has no admissible split contributes zero without
    renormalizing the remaining probability mass. Contributions are
    accumulated as (+k) + (-k) pairs so that swapping cells and mirroring
    the configuration reproduces the total bitwise.
    """
    n = params.n_users
    rates = rate_set(cfg, params, derived)
    per_k = {}

    def contribution(k: int) -> float:
        pmf = skellam_pmf(k, loads.lambda1, loads.lambda2)
        splits = admissible_k2(k, n)
        if len(splits) == 0:
            per_k[k] = (pmf, 0.0)
            return 0.0
        log_weights = [_log_choose(n, big_k2 + k) + _log_choose(n, big_k2)
                       for big_k2 in splits]
        log_total = _logsumexp(log_weights)
        average = math.fsum(
            math.exp(log_w - log_total)
            * conditional_throughput(k, big_k2, cfg, params, derived, mode, rates)
            for log_w, big_k2 in zip(log_weights, splits))
        per_k[k] = (pmf, average)
        return pmf * average

    total = contribution(0)
    for j in range(1, n + 1):
        total += contribution(j) + contribution(-j)
    return ThroughputBreakdown(total=total, per_k=per_k, config=cfg,
                               lambda1=loads.lambda1, lambda2=loads.lambda2,
                               accounting=mode)


def _logsumexp(values) -> float:
    peak = max(values)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in values))


def optimal_configuration(loads: LoadDistribution, params: SystemParams,
                          derived: DerivedConstants,
                          mode: AccountingMode = AccountingMode.CONSISTENT
                          ) -> tuple[Configuration, ThroughputBreakdown]:
    """Argmax of the average throughput over the three candidate configurations.

    Ties prefer the same-direction low/low configuration, then low/high.
    """
    candidates = candidate_configurations()
    priority = ("r0_Hl_Hl", "r1_Hl_Hh", "r1_Hh_Hl")
    best = None
    for label in priority:
        cfg = candidates[label]
        breakdown = average_throughput(cfg, loads, params, derived, mode)
        if best is None or breakdown.total > best[1].total:
            best = (cfg, breakdown)
    return best
