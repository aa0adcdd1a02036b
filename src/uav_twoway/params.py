"""System constants: config parsing, validation, dBm conversion, and the
geometry they imply.

Single source of truth for every symbol used by the channel, SINR, rate and
throughput layers. Powers are configured in dBm and stored linear (watts);
everything else is plain SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ConfigError, GuardViolationError, MissingKeyError, OutOfRangeError

SPEED_OF_LIGHT = 299792458.0  # m/s
# Users per cell. The split weights and each table cost O(N^2): `eval
# --exhaustive` takes about 0.14 s in process at this ceiling on a 2-core
# Xeon, and the weights' big-integer sums overflow a float from N = 515 on.
MAX_USERS = 200


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Validated physical and layout constants, with the geometry they imply.

    f_c [Hz], c_light [m/s], p_u/p_g/noise_power [W] (stored linear),
    d_0/d_sep/h_0 [m], phi_b [rad] in [1e-3, pi/2 - 1e-3], path-loss exponents
    dimensionless, shadowing means/stds in dB.

    Computed on construction: g0 the antenna gain coefficient, h_low/h_high
    [m] the two admissible UAV altitudes, d_min [m] the equidistant-grid
    minimal user separation, k_freespace = 4*pi*f_c/c [1/m]. Construction
    raises GuardViolationError unless h_low < h_high.
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
    g0: float = field(init=False)
    h_low: float = field(init=False)
    h_high: float = field(init=False)
    d_min: float = field(init=False)
    k_freespace: float = field(init=False)

    def __post_init__(self):
        h_low = self.d_0 / math.tan(self.phi_b) + self.h_0
        h_high = (self.d_0 + self.d_sep) / math.tan(self.phi_b)
        if not h_low < h_high:
            raise GuardViolationError(
                f"h_low={h_low:.3f} m must stay below h_high={h_high:.3f} m: the guard "
                f"offset h_0_m={self.h_0!r} must be below d_sep_m / tan(phi_b_rad) = "
                f"{self.d_sep!r} / tan({self.phi_b!r})")
        for name, value in (("g0", 30000.0 / 4.0 * (math.pi / 180.0) ** 2),
                            ("h_low", h_low), ("h_high", h_high),
                            ("d_min", 2.0 * self.d_0 / self.n_users),
                            ("k_freespace", 4.0 * math.pi * self.f_c / self.c_light)):
            object.__setattr__(self, name, value)

    @property
    def d_sep_min(self) -> float:
        """The least d_sep [m] at which a low UAV's lobe, of footprint radius
        d_0 + h_0 tan(phi_b) around its cell's center, misses the other
        cell: 2 d_0 + h_0 tan(phi_b). The worst-case bounds assume it."""
        return 2.0 * self.d_0 + self.h_0 * math.tan(self.phi_b)

    def altitude(self, t: int) -> float:
        """Altitude [m] of level ``t``: 0 is h_low, 1 is h_high."""
        return self.h_high if t else self.h_low

    @cached_property
    def split_weights(self) -> tuple[float, ...]:
        """``split_weight_grid(n_users)``, built on first use and kept with
        this object only (a ``dataclasses.replace`` copy builds its own)."""
        return split_weight_grid(self.n_users)


def admissible_k2(k: int, n: int) -> range:
    """K2 values with both K2 and K2 + k inside [1, n]."""
    return range(max(1, 1 - k), min(n, n - k) + 1)


def split_weight_grid(n: int) -> tuple[float, ...]:
    """The case-count weights C(N, K1) * C(N, K2) of the splits (K1, K2) of
    [1, N]^2, normalised to sum to one over each difference k = K1 - K2, as
    a row-major (N + 1)^2 grid: cell (K1, K2) at K1 * (N + 1) + K2, 0 off
    [1, N]^2, so a k's weights lie at stride N + 2 along its diagonal. Each
    is an exact integer product over the products' exact integer sum, both
    rounded to floats before the division. The grid is its own transpose:
    each k >= 0 diagonal is computed once and written to the -k one too."""
    row = [math.comb(n, j) for j in range(n + 1)]
    grid = [0.0] * (n + 1) ** 2
    for k in range(n):  # |k| = N has no admissible split
        products = [row[big_k2 + k] * row[big_k2] for big_k2 in admissible_k2(k, n)]
        total = float(sum(products))
        weights = [p / total for p in products]
        for first in ((k + 1) * (n + 1) + 1, n + 2 + k):  # cells (1 + k, 1) and (1, 1 + k)
            grid[first:first + len(weights) * (n + 2):n + 2] = weights
    return tuple(grid)


def _non_negative(value: float, key: str) -> float:
    if value < 0:
        raise OutOfRangeError(f"{key}={value!r}: must be >= 0")
    return value


def _within(low: float, high: float):
    """Validator of the closed range [low, high]."""
    def check(value: float, key: str) -> float:
        if not low <= value <= high:
            raise OutOfRangeError(f"{key}={value!r}: must lie in [{low:g}, {high:g}]")
        return value
    return check


# Far beyond any deployment, and far inside the float range: 10 ** (dB / 10)
# neither overflows nor reaches zero, so no power, noise or shadowing factor
# turns into inf or a division by zero, even at a shadowing deviate of 10.
_POWER_DBM = _within(-100.0, 100.0)
_NOISE_DBM = _within(-250.0, 0.0)
_SHADOWING_MEAN_DB = _within(-100.0, 100.0)
_SHADOWING_STD_DB = _within(0.0, 50.0)
# Likewise for the path loss (k d) ** -n, k = 4 pi f_c / c: k lies in
# [0.0126, 1.26e6] 1/m and d from d_min = 2 d_0 / N >= 0.01 m, so it stays
# finite and nonzero.
_FREQUENCY_HZ = _within(1e6, 1e12)
_SPEED_MPS = _within(1e7, 1e9)
_RADIUS_M = _within(1.0, 1e5)
_SEPARATION_M = _within(1.0, 1e6)
_EXPONENT = _within(1.0, 10.0)


# Narrower lobes lift the UAVs above d_0 / tan(1e-3), 1000 cell radii, and
# below about 1e-162 rad the gain g0 / phi_b ** 2 divides by zero. Wider
# lobes put the low UAV below d_0 / tan(pi/2 - 1e-3), d_0 / 1000, and
# towards pi/2 on the ground.
MIN_HALF_BEAMWIDTH = 1e-3  # rad
MAX_HALF_BEAMWIDTH = math.pi / 2 - 1e-3  # rad


def _half_beamwidth(value: float, key: str) -> float:
    if not MIN_HALF_BEAMWIDTH <= value <= MAX_HALF_BEAMWIDTH:
        raise OutOfRangeError(
            f"{key}={value!r}: must lie in [{MIN_HALF_BEAMWIDTH:g}, pi/2 - 1e-3] rad")
    return value


def _user_count(value: float, key: str) -> int:
    if value != int(value) or not 1 <= int(value) <= MAX_USERS:
        raise OutOfRangeError(f"{key}={value!r}: must be an integer in [1, {MAX_USERS}]")
    return int(value)


# key -> (SystemParams field, default, validator, unit note), in the order
# they are checked. Keys ending in _dbm are given in dBm and stored linear.
CONFIG_SCHEMA = {
    "f_c_hz": ("f_c", 2e9, _FREQUENCY_HZ, "carrier frequency [Hz]"),
    "c_mps": ("c_light", SPEED_OF_LIGHT, _SPEED_MPS, "propagation speed [m/s]"),
    "p_u_dbm": ("p_u", 35.0, _POWER_DBM, "UAV transmit power [dBm]"),
    "p_g_dbm": ("p_g", 35.0, _POWER_DBM, "ground-user transmit power [dBm]"),
    "noise_dbm": ("noise_power", -120.0, _NOISE_DBM, "noise power [dBm]"),
    "d_0_m": ("d_0", 100.0, _RADIUS_M, "cell radius [m]"),
    "d_sep_m": ("d_sep", 300.0, _SEPARATION_M, "distance between cell centers [m]"),
    "n_users": ("n_users", 30, _user_count, "users per cell"),
    "phi_b_rad": ("phi_b", math.pi / 3, _half_beamwidth,
                  "antenna half beamwidth [rad], in [1e-3, pi/2 - 1e-3]"),
    "h_0_m": ("h_0", 1.0, _non_negative, "altitude guard offset [m]"),
    "n_los": ("n_los", 2.0, _EXPONENT, "LoS path-loss exponent"),
    "n_nlos": ("n_nlos", 4.0, _EXPONENT, "NLoS path-loss exponent"),
    "mu_los_db": ("mu_los", 1.0, _SHADOWING_MEAN_DB, "LoS shadowing mean [dB]"),
    "sigma_los_db": ("sigma_los", 1.0, _SHADOWING_STD_DB, "LoS shadowing std [dB]"),
    "mu_nlos_db": ("mu_nlos", 30.0, _SHADOWING_MEAN_DB, "NLoS shadowing mean [dB]"),
    "sigma_nlos_db": ("sigma_nlos", 8.0, _SHADOWING_STD_DB, "NLoS shadowing std [dB]"),
}


def default_config() -> dict:
    """Reference parameter set: 2 GHz urban deployment, 35 dBm transmitters."""
    return {key: default for key, (_, default, _, _) in CONFIG_SCHEMA.items()}


def validate_and_derive(raw: Mapping) -> SystemParams:
    """Validate a raw key-value mapping into one SystemParams.

    Values may be numbers or strings (as read from a config file). Raises
    MissingKeyError / OutOfRangeError naming the offending key; building
    the SystemParams raises GuardViolationError if h_low >= h_high.
    """
    unknown = sorted(set(raw) - set(CONFIG_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")

    values = {}
    for key, (name, _, validator, _) in CONFIG_SCHEMA.items():
        if key not in raw:
            raise MissingKeyError(f"missing configuration key: {key}")
        try:
            numeric = float(raw[key])
        except (TypeError, ValueError):
            raise OutOfRangeError(f"{key}={raw[key]!r}: not a number") from None
        if not math.isfinite(numeric):
            raise OutOfRangeError(f"{key}={raw[key]!r}: must be finite")
        value = validator(numeric, key)
        values[name] = dbm_to_watts(value) if key.endswith("_dbm") else value
    return SystemParams(**values)


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


def load_params(config_path=None, overrides: Iterable[str] = ()) -> SystemParams:
    """Defaults, overlaid with an optional config file, then ``--set`` overrides."""
    config = default_config()
    if config_path is not None:
        config.update(parse_config_file(config_path))
    config = apply_overrides(config, overrides)
    return validate_and_derive(config)
