"""Large-scale received-power primitives.

UAV-ground links are LoS and see the UAV's conical directional antenna;
ground-ground links are NLoS and omnidirectional. Shadow fading is normal
in dB and divides the received power as a linear factor. Its draw enters
as a standard-normal deviate ``z``: the shadowing is ``mu + sigma * z`` dB,
so the default ``z = 0.0`` is the mean. Distances and deviates may be
floats or equal-shaped arrays; nothing here needs numpy.
"""

from __future__ import annotations

from .params import SystemParams


def _shadowing_factor(mu_db: float, sigma_db: float, z):
    return 10.0 ** ((mu_db + sigma_db * z) / 10.0)


def rx_power_uav_to_ground(d, params: SystemParams, z=0.0):
    """Received power [W] of a downlink at slant distance d [m].

    Caller guarantees the receiver is inside the main lobe (gain > 0).
    """
    gain = params.g0 / params.phi_b ** 2
    psi = _shadowing_factor(params.mu_los, params.sigma_los, z)
    return params.p_u * gain / psi * (params.k_freespace * d) ** (-params.n_los)


def rx_power_ground_to_uav(d, params: SystemParams, z=0.0):
    """Received power [W] at a UAV from a ground transmitter at distance d [m]."""
    psi = _shadowing_factor(params.mu_los, params.sigma_los, z)
    return params.p_g * params.g0 / psi * (params.k_freespace * d) ** (-params.n_los)


def rx_power_ground_to_ground(d, params: SystemParams, z=0.0):
    """Received power [W] between two ground users at distance d [m] (NLoS)."""
    psi = _shadowing_factor(params.mu_nlos, params.sigma_nlos, z)
    return params.p_g * params.g0 / psi * (params.k_freespace * d) ** (-params.n_nlos)
