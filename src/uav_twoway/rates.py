"""Two-way sum-rates over the worst-case SINR bounds, in bits/s/Hz.

The band is normalized to 1 Hz; a service unit spans two slots (one per
direction), so each sum-rate below adds the downlink and uplink Shannon
rates of the links it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import DerivedConstants, SystemParams
from .sinr import (Configuration, sinr_dl_diff, sinr_dl_same, sinr_ul_diff,
                   sinr_ul_same, snr_individual)


@dataclass(frozen=True)
class RateSet:
    """The sum-rates entering the throughput average for one configuration."""

    r_cochannel_diff: float   # cross-cell pair, two links
    r_cochannel_same: float   # same-cell pair, two links
    r_individual_1: float     # single user under UAV1's altitude
    r_individual_2: float     # single user under UAV2's altitude


def _shannon(sinr: float) -> float:
    return math.log2(1.0 + sinr)


def rate_cochannel_diff(cfg: Configuration, params: SystemParams,
                        derived: DerivedConstants) -> float:
    """Sum-rate of two co-channel links serving users in different cells.

    Per-link sums are grouped before the final add so that mirrored
    configurations produce bitwise-identical totals.
    """
    link1 = _shannon(sinr_dl_diff(cfg, params, derived, 1)) + _shannon(
        sinr_ul_diff(cfg, params, derived, 1))
    link2 = _shannon(sinr_dl_diff(cfg, params, derived, 2)) + _shannon(
        sinr_ul_diff(cfg, params, derived, 2))
    return link1 + link2


def rate_cochannel_same(cfg: Configuration, params: SystemParams,
                        derived: DerivedConstants) -> float:
    """Sum-rate of two co-channel links jointly serving one cell."""
    link1 = _shannon(sinr_dl_same(cfg, params, derived, 1)) + _shannon(
        sinr_ul_same(cfg, params, derived, 1))
    link2 = _shannon(sinr_dl_same(cfg, params, derived, 2)) + _shannon(
        sinr_ul_same(cfg, params, derived, 2))
    return link1 + link2


def rate_individual(h: float, params: SystemParams, derived: DerivedConstants) -> float:
    """Two-way sum-rate of an interference-free individually served user."""
    snr_dl, snr_ul = snr_individual(h, params, derived)
    return _shannon(snr_dl) + _shannon(snr_ul)


def rate_set(cfg: Configuration, params: SystemParams, derived: DerivedConstants) -> RateSet:
    return RateSet(
        r_cochannel_diff=rate_cochannel_diff(cfg, params, derived),
        r_cochannel_same=rate_cochannel_same(cfg, params, derived),
        r_individual_1=rate_individual(derived.altitude(cfg.t1), params, derived),
        r_individual_2=rate_individual(derived.altitude(cfg.t2), params, derived),
    )
