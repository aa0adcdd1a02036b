"""Large-scale received-power primitives.

UAV-ground links are LoS and see the UAV's conical directional antenna;
ground-ground links are NLoS and omnidirectional. Shadow fading is normal
in dB and divides the received power as a linear factor. Its draw enters
as a standard-normal deviate ``z``: the shadowing is ``mu + sigma * z`` dB,
so the default ``z = 0.0`` is the mean. Distances and deviates may be
floats or equal-shaped arrays; nothing here needs numpy. The two LoS
directions differ only in their transmit term, so both are
``rx_power_los``: the simulator computes every LoS reception of a pass in
one call, with one transmit term per row.
"""

from __future__ import annotations

from .params import SystemParams


def _shadowing_factor(mu_db: float, sigma_db: float, z):
    return 10.0 ** ((mu_db + sigma_db * z) / 10.0)


def los_tx(params: SystemParams) -> tuple[float, float]:
    """The (downlink, uplink) transmit terms [W] of the LoS links: transmit
    power times antenna gains."""
    return params.p_u * (params.g0 / params.phi_b ** 2), params.p_g * params.g0


def rx_power_los(d, tx, params: SystemParams, z=0.0):
    """Received power [W] of a LoS UAV-ground link at slant distance d [m]
    with transmit term ``tx`` [W] (see ``los_tx``), a float or one per
    distance. Caller guarantees the ground end is inside the main lobe
    (gain > 0)."""
    psi = _shadowing_factor(params.mu_los, params.sigma_los, z)
    return tx / psi * (params.k_freespace * d) ** (-params.n_los)


def rx_power_ground_to_ground(d, params: SystemParams, z=0.0):
    """Received power [W] between two ground users at distance d [m] (NLoS)."""
    psi = _shadowing_factor(params.mu_nlos, params.sigma_nlos, z)
    return params.p_g * params.g0 / psi * (params.k_freespace * d) ** (-params.n_nlos)
