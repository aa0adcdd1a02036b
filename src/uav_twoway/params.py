"""System constants: config parsing, validation, dBm conversion, derived geometry.

Single source of truth for every symbol used by the channel, SINR, rate and
throughput layers. Powers are configured in dBm and stored linear (watts);
everything else is plain SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigError, GuardViolationError, MissingKeyError, OutOfRangeError

SPEED_OF_LIGHT = 299792458.0  # m/s


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class SystemParams:
    """Validated physical and layout constants.

    f_c [Hz], c_light [m/s], p_u/p_g/noise_power [W] (stored linear),
    d_0/d_sep/h_0 [m], phi_b [rad] in (0, pi/2), path-loss exponents
    dimensionless, shadowing means/stds in dB.
    """

    f_c: float
    c_light: float
    p_u: float
    p_g: float
    noise_power: float
    d_0: float
    d_sep: float
    n_users: int
    phi_b: float
    h_0: float
    n_los: float
    n_nlos: float
    mu_los: float
    sigma_los: float
    mu_nlos: float
    sigma_nlos: float


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from :class:`SystemParams`.

    g0 is the antenna gain coefficient, h_low/h_high [m] the two admissible
    UAV altitudes, d_min [m] the equidistant-grid minimal user separation,
    k_freespace = 4*pi*f_c/c [1/m].
    """

    g0: float
    h_low: float
    h_high: float
    d_min: float
    k_freespace: float

    def altitude(self, t: int) -> float:
        """Altitude [m] of level ``t``: 0 is h_low, 1 is h_high."""
        return self.h_high if t else self.h_low


def _positive(value: float, key: str) -> float:
    if not value > 0:
        raise OutOfRangeError(f"{key}={value!r}: must be > 0")
    return value


def _non_negative(value: float, key: str) -> float:
    if value < 0:
        raise OutOfRangeError(f"{key}={value!r}: must be >= 0")
    return value


def _any_real(value: float, key: str) -> float:
    return value


def _half_beamwidth(value: float, key: str) -> float:
    if not 0.0 < value < math.pi / 2:
        raise OutOfRangeError(f"{key}={value!r}: must lie in the open interval (0, pi/2)")
    return value


def _user_count(value: float, key: str) -> int:
    if value != int(value) or int(value) < 1:
        raise OutOfRangeError(f"{key}={value!r}: must be an integer >= 1")
    return int(value)


# key -> (validator, unit note). Powers are given in dBm and converted on load.
CONFIG_SCHEMA = {
    "f_c_hz": (_positive, "carrier frequency [Hz]"),
    "c_mps": (_positive, "propagation speed [m/s]"),
    "p_u_dbm": (_any_real, "UAV transmit power [dBm]"),
    "p_g_dbm": (_any_real, "ground-user transmit power [dBm]"),
    "noise_dbm": (_any_real, "noise power [dBm]"),
    "d_0_m": (_positive, "cell radius [m]"),
    "d_sep_m": (_positive, "distance between cell centers [m]"),
    "n_users": (_user_count, "users per cell"),
    "phi_b_rad": (_half_beamwidth, "antenna half beamwidth [rad], open (0, pi/2)"),
    "h_0_m": (_non_negative, "altitude guard offset [m]"),
    "n_los": (_positive, "LoS path-loss exponent"),
    "n_nlos": (_positive, "NLoS path-loss exponent"),
    "mu_los_db": (_any_real, "LoS shadowing mean [dB]"),
    "sigma_los_db": (_non_negative, "LoS shadowing std [dB]"),
    "mu_nlos_db": (_any_real, "NLoS shadowing mean [dB]"),
    "sigma_nlos_db": (_non_negative, "NLoS shadowing std [dB]"),
}


def default_config() -> dict:
    """Reference parameter set: 2 GHz urban deployment, 35 dBm transmitters."""
    return {
        "f_c_hz": 2e9,
        "c_mps": SPEED_OF_LIGHT,
        "p_u_dbm": 35.0,
        "p_g_dbm": 35.0,
        "noise_dbm": -120.0,
        "d_0_m": 100.0,
        "d_sep_m": 300.0,
        "n_users": 30,
        "phi_b_rad": math.pi / 3,
        "h_0_m": 1.0,
        "n_los": 2.0,
        "n_nlos": 4.0,
        "mu_los_db": 1.0,
        "sigma_los_db": 1.0,
        "mu_nlos_db": 30.0,
        "sigma_nlos_db": 8.0,
    }


def validate_and_derive(raw: Mapping) -> tuple[SystemParams, DerivedConstants]:
    """Validate a raw key-value mapping and derive the geometry constants.

    Values may be numbers or strings (as read from a config file). Raises
    MissingKeyError / OutOfRangeError naming the offending key, and
    GuardViolationError if the derived altitudes collapse (h_low >= h_high).
    """
    unknown = sorted(set(raw) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")

    values = {}
    for key, (validator, _) in CONFIG_SCHEMA.items():
        if key not in raw:
            raise MissingKeyError(f"missing configuration key: {key}")
        try:
            numeric = float(raw[key])
        except (TypeError, ValueError):
            raise OutOfRangeError(f"{key}={raw[key]!r}: not a number") from None
        if not math.isfinite(numeric):
            raise OutOfRangeError(f"{key}={raw[key]!r}: must be finite")
        values[key] = validator(numeric, key)

    params = SystemParams(
        f_c=values["f_c_hz"],
        c_light=values["c_mps"],
        p_u=dbm_to_watts(values["p_u_dbm"]),
        p_g=dbm_to_watts(values["p_g_dbm"]),
        noise_power=dbm_to_watts(values["noise_dbm"]),
        d_0=values["d_0_m"],
        d_sep=values["d_sep_m"],
        n_users=values["n_users"],
        phi_b=values["phi_b_rad"],
        h_0=values["h_0_m"],
        n_los=values["n_los"],
        n_nlos=values["n_nlos"],
        mu_los=values["mu_los_db"],
        sigma_los=values["sigma_los_db"],
        mu_nlos=values["mu_nlos_db"],
        sigma_nlos=values["sigma_nlos_db"],
    )
    return params, derive_constants(params)


def derive_constants(params: SystemParams) -> DerivedConstants:
    derived = DerivedConstants(
        g0=30000.0 / 4.0 * (math.pi / 180.0) ** 2,
        h_low=params.d_0 / math.tan(params.phi_b) + params.h_0,
        h_high=(params.d_0 + params.d_sep) / math.tan(params.phi_b),
        d_min=2.0 * params.d_0 / params.n_users,
        k_freespace=4.0 * math.pi * params.f_c / params.c_light,
    )
    if not derived.h_low < derived.h_high:
        raise GuardViolationError(
            f"h_low={derived.h_low:.3f} m must stay below h_high={derived.h_high:.3f} m "
            f"(guard offset h_0_m too large for d_sep_m)"
        )
    return derived


def parse_config_file(path) -> dict:
    """Read a ``key = value`` file; '#' starts a comment, blank lines ignored."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
            key, _, value = stripped.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def apply_overrides(config: Mapping, assignments: Iterable[str]) -> dict:
    """Overlay ``key=value`` strings (e.g. from ``--set``) onto a config map."""
    merged = dict(config)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r}: expected key=value")
        key, _, value = assignment.partition("=")
        merged[key.strip()] = value.strip()
    return merged


def load_params(config_path=None, overrides: Iterable[str] = ()) -> tuple[SystemParams, DerivedConstants]:
    """Defaults, overlaid with an optional config file, then ``--set`` overrides."""
    config = default_config()
    if config_path is not None:
        config.update(parse_config_file(config_path))
    config = apply_overrides(config, overrides)
    return validate_and_derive(config)
