"""Worst-case SINR/SNR bounds as functions of spin and altitudes.

All bounds put the served user at the main-lobe edge (slant distance
h/cos(phi_b)) and every interferer at its closest admissible position:
the interfering UAV directly above the receiver (distance = its altitude),
the interfering ground user at the minimal grid separation d_min. The
deterministic mean-dB shadowing factor is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import channel
from .params import SystemParams


@dataclass(frozen=True)
class Configuration:
    """Joint decision variable: relative spin and the two UAV altitude levels.

    ``r`` is the XOR of the per-link spins: 0 when both two-way links use
    the same transmission direction in each slot, 1 when opposite. ``t1``
    and ``t2`` are the altitude levels of UAV1 and UAV2: 0 low, 1 high.
    """

    r: int
    t1: int
    t2: int

    def __post_init__(self):
        for name, value in (("r", self.r), ("t1", self.t1), ("t2", self.t2)):
            if type(value) is not int or value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")

    @property
    def mirror(self) -> Configuration:
        """The same configuration seen from the other cell: the UAVs'
        altitudes swap, and UAV2's link becomes UAV1's."""
        return Configuration(self.r, self.t2, self.t1)

    @property
    def label(self) -> str:
        low_high = ("Hl", "Hh")
        return f"r{self.r}_{low_high[self.t1]}_{low_high[self.t2]}"


def candidate_configurations() -> dict[str, Configuration]:
    """The three configurations that can attain the maximal throughput."""
    candidates = (Configuration(1, 0, 1), Configuration(1, 1, 0), Configuration(0, 0, 0))
    return {cfg.label: cfg for cfg in candidates}


def all_configurations() -> dict[str, Configuration]:
    """All 8 (r, t1, t2) tuples, for exhaustive verification sweeps."""
    configs = (Configuration(*bits) for bits in product((0, 1), repeat=3))
    return {cfg.label: cfg for cfg in configs}


def link_sinr(cfg: Configuration, params: SystemParams, same_cell: bool) -> tuple[float, float]:
    """(downlink, uplink) SINR bounds of UAV1's link; UAV2's are those of
    ``cfg.mirror``.

    ``same_cell`` says whether the co-channel partner's user shares UAV1's
    cell. The downlink receiver hears the partner's ground user at d_min
    when r=1, and the partner UAV when r=0, if its lobe reaches the
    receiver: always in the same cell, only when it is high (t2) in the
    other. The uplink receiver hears the co-channel user only when r=0 and
    that user is inside its cone: always in the same cell, only when UAV1
    is high (t1) in the other, since a low UAV's cone excludes the other
    cell.
    """
    reach_dl = 1 if same_cell else cfg.t2  # the partner UAV's lobe
    reach_ul = 1 if same_cell else cfg.t1  # UAV1's own cone
    h_serve, h_other = params.altitude(cfg.t1), params.altitude(cfg.t2)
    edge = h_serve / math.cos(params.phi_b)
    tx_dl, tx_ul = channel.los_tx(params)
    downlink = channel.rx_power_los(edge, tx_dl, params) / (
        cfg.r * channel.rx_power_ground_to_ground(params.d_min, params)
        + reach_dl * (1 - cfg.r) * channel.rx_power_los(h_other, tx_dl, params)
        + params.noise_power)
    uplink = channel.rx_power_los(edge, tx_ul, params) / (
        reach_ul * (1 - cfg.r) * channel.rx_power_los(h_serve, tx_ul, params)
        + params.noise_power)
    return downlink, uplink


def snr_individual(h: float, params: SystemParams) -> tuple[float, float]:
    """(downlink, uplink) SNR of an individually served user at altitude h [m]."""
    d = h / math.cos(params.phi_b)
    return tuple(channel.rx_power_los(d, tx, params) / params.noise_power
                 for tx in channel.los_tx(params))
