"""Two-way sum-rates over the worst-case SINR bounds, in bits/s/Hz.

The band is normalized to 1 Hz; a service unit spans two slots (one per
direction), so each sum-rate below adds the downlink and uplink Shannon
rates of the links it covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import SystemParams
from .sinr import Configuration, link_sinr, snr_individual


@dataclass(frozen=True)
class RateSet:
    """The sum-rates entering the throughput average for one configuration.
    UAV2's individual rate is ``r_individual`` of the mirror configuration."""

    r_cochannel_diff: float   # cross-cell pair, two links
    r_cochannel_same: float   # same-cell pair, two links
    r_individual: float       # single user under UAV1's altitude


def _two_way(sinrs: tuple[float, float]) -> float:
    """Sum-rate of one link's (downlink, uplink) slots: their Shannon rates."""
    downlink, uplink = sinrs
    return math.log2(1.0 + downlink) + math.log2(1.0 + uplink)


def rate_individual(h: float, params: SystemParams) -> float:
    """Two-way sum-rate of an interference-free individually served user."""
    return _two_way(snr_individual(h, params))


def rate_set(cfg: Configuration, params: SystemParams) -> RateSet:
    """A co-channel pair's sum-rate adds UAV1's link and the mirror's UAV1
    link, each link's two slots summed first, so that mirrored
    configurations give bitwise-identical totals."""
    def pair(same_cell: bool) -> float:
        return (_two_way(link_sinr(cfg, params, same_cell))
                + _two_way(link_sinr(cfg.mirror, params, same_cell)))

    return RateSet(r_cochannel_diff=pair(False), r_cochannel_same=pair(True),
                   r_individual=rate_individual(params.altitude(cfg.t1), params))
