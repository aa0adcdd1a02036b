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
from .params import DerivedConstants, SystemParams


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
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value!r}")

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


def _serving_and_other(cfg: Configuration, link: int) -> tuple[int, int]:
    """Altitude levels of the serving UAV and of the other UAV."""
    if link == 1:
        return cfg.t1, cfg.t2
    if link == 2:
        return cfg.t2, cfg.t1
    raise ValueError(f"link must be 1 or 2, got {link!r}")


def sinr_dl_diff(cfg: Configuration, params: SystemParams, derived: DerivedConstants,
                 link: int = 1) -> float:
    """Downlink SINR bound when the co-channel users sit in different cells.

    With r=1 the interference is ground-to-ground at d_min; with r=0 the
    other UAV interferes only if it is high enough for its lobe to cover
    the receiver's cell.
    """
    t_serve, t_other = _serving_and_other(cfg, link)
    h_serve, h_other = derived.altitude(t_serve), derived.altitude(t_other)
    signal = channel.rx_power_uav_to_ground(h_serve / math.cos(params.phi_b), params, derived)
    denom = (cfg.r * channel.rx_power_ground_to_ground(derived.d_min, params, derived)
             + t_other * (1 - cfg.r) * channel.rx_power_uav_to_ground(h_other, params, derived)
             + params.noise_power)
    return signal / denom


def sinr_ul_diff(cfg: Configuration, params: SystemParams, derived: DerivedConstants,
                 link: int = 1) -> float:
    """Uplink SINR bound, different-cell scenario.

    The other cell's simultaneous uplink (r=0) is heard only when the
    receiving UAV is high; a low UAV's receive cone excludes the other cell.
    """
    t_serve, _ = _serving_and_other(cfg, link)
    h_serve = derived.altitude(t_serve)
    signal = channel.rx_power_ground_to_uav(h_serve / math.cos(params.phi_b), params, derived)
    denom = (t_serve * (1 - cfg.r) * channel.rx_power_ground_to_uav(h_serve, params, derived)
             + params.noise_power)
    return signal / denom


def sinr_dl_same(cfg: Configuration, params: SystemParams, derived: DerivedConstants,
                 link: int = 1) -> float:
    """Downlink SINR bound when both co-channel users share one cell.

    The partner UAV serves the same cell, so with r=0 its downlink always
    interferes regardless of the altitude indicator.
    """
    t_serve, t_other = _serving_and_other(cfg, link)
    h_serve, h_other = derived.altitude(t_serve), derived.altitude(t_other)
    signal = channel.rx_power_uav_to_ground(h_serve / math.cos(params.phi_b), params, derived)
    denom = (cfg.r * channel.rx_power_ground_to_ground(derived.d_min, params, derived)
             + (1 - cfg.r) * channel.rx_power_uav_to_ground(h_other, params, derived)
             + params.noise_power)
    return signal / denom


def sinr_ul_same(cfg: Configuration, params: SystemParams, derived: DerivedConstants,
                 link: int = 1) -> float:
    """Uplink SINR bound, same-cell scenario: the co-channel user is always
    inside the receiving UAV's cone, so only r=1 silences it."""
    t_serve, _ = _serving_and_other(cfg, link)
    h_serve = derived.altitude(t_serve)
    signal = channel.rx_power_ground_to_uav(h_serve / math.cos(params.phi_b), params, derived)
    denom = ((1 - cfg.r) * channel.rx_power_ground_to_uav(h_serve, params, derived)
             + params.noise_power)
    return signal / denom


def snr_individual(h: float, params: SystemParams, derived: DerivedConstants) -> tuple[float, float]:
    """(downlink, uplink) SNR of an individually served user at altitude h [m]."""
    d = h / math.cos(params.phi_b)
    snr_dl = channel.rx_power_uav_to_ground(d, params, derived) / params.noise_power
    snr_ul = channel.rx_power_ground_to_uav(d, params, derived) / params.noise_power
    return snr_dl, snr_ul
