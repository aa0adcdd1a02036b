"""Large-scale received-power primitives.

UAV-ground links are LoS and see the UAV's conical directional antenna;
ground-ground links are NLoS and omnidirectional. Shadow fading is normal
in dB and divides the received power as a linear factor.
"""

from __future__ import annotations

from .params import DerivedConstants, SystemParams


class ShadowingMode:
    """Source of the linear shadow-fading divisor.

    With ``rng=None`` (deterministic mode) the factor is taken at the mean
    dB value; with a generator, a fresh dB value ~ Normal(mu, sigma^2) is
    drawn on every call. Concurrent callers must supply independent streams.
    """

    __slots__ = ("rng",)

    def __init__(self, rng=None):
        self.rng = rng

    def factor(self, mu_db: float, sigma_db: float) -> float:
        if self.rng is None:
            return 10.0 ** (mu_db / 10.0)
        return 10.0 ** (self.rng.normal(mu_db, sigma_db) / 10.0)


MEAN_DB = ShadowingMode()


def rx_power_uav_to_ground(d: float, params: SystemParams, derived: DerivedConstants,
                           shadowing: ShadowingMode = MEAN_DB) -> float:
    """Received power [W] of a downlink at slant distance d [m].

    Caller guarantees the receiver is inside the main lobe (gain > 0).
    """
    gain = derived.g0 / params.phi_b ** 2
    psi = shadowing.factor(params.mu_los, params.sigma_los)
    return params.p_u * gain / psi * (derived.k_freespace * d) ** (-params.n_los)


def rx_power_ground_to_uav(d: float, params: SystemParams, derived: DerivedConstants,
                           shadowing: ShadowingMode = MEAN_DB) -> float:
    """Received power [W] at a UAV from a ground transmitter at distance d [m]."""
    psi = shadowing.factor(params.mu_los, params.sigma_los)
    return params.p_g * derived.g0 / psi * (derived.k_freespace * d) ** (-params.n_los)


def rx_power_ground_to_ground(d: float, params: SystemParams, derived: DerivedConstants,
                              shadowing: ShadowingMode = MEAN_DB) -> float:
    """Received power [W] between two ground users at distance d [m] (NLoS)."""
    psi = shadowing.factor(params.mu_nlos, params.sigma_nlos)
    return params.p_g * derived.g0 / psi * (derived.k_freespace * d) ** (-params.n_nlos)
