import dataclasses
import math
import random

import pytest
from numpy.testing import assert_allclose

from uav_twoway import SystemParams, default_config, validate_and_derive
from uav_twoway.errors import (ConfigError, GuardViolationError, MissingKeyError,
                               OutOfRangeError)
from uav_twoway.params import (apply_overrides, dbm_to_watts, load_params,
                               parse_config_file, watts_to_dbm)

# frozen from a standalone transcription of the defining formulas
G0 = 2.2846306484003143
H_LOW = 58.735026918962596
H_HIGH = 230.94010767585038
D_MIN = 6.666666666666667
K_FREESPACE = 83.83380087806727


def test_derived_constants(params):
    assert_allclose(params.g0, G0, rtol=1e-12)
    assert_allclose(params.h_low, H_LOW, rtol=1e-12)
    assert_allclose(params.h_high, H_HIGH, rtol=1e-12)
    assert_allclose(params.d_min, D_MIN, rtol=1e-12)
    assert_allclose(params.k_freespace, K_FREESPACE, rtol=1e-12)


def test_g0_reference_value(params):
    assert abs(params.g0 - 2.2846) < 1e-4


def test_powers_stored_linear(params):
    assert_allclose(params.p_u, 3.1622776601683795, rtol=1e-12)
    assert_allclose(params.p_g, params.p_u, rtol=0)
    assert_allclose(params.noise_power, 1e-15, rtol=1e-12)


def test_dbm_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        dbm = rng.uniform(-150.0, 60.0)
        assert abs(watts_to_dbm(dbm_to_watts(dbm)) - dbm) < 1e-9


def test_missing_key():
    config = default_config()
    del config["d_0_m"]
    with pytest.raises(MissingKeyError, match="d_0_m"):
        validate_and_derive(config)


@pytest.mark.parametrize("key,value", [
    ("d_0_m", -5), ("d_0_m", 0), ("f_c_hz", 0), ("n_users", 0), ("n_users", 2.5),
    ("phi_b_rad", 0.0), ("phi_b_rad", math.pi / 2), ("phi_b_rad", 2.0),
    ("h_0_m", -1), ("sigma_los_db", -0.5), ("n_los", 0), ("d_sep_m", "abc"),
    ("mu_los_db", math.nan), ("p_u_dbm", math.inf),
])
def test_out_of_range(key, value):
    config = default_config()
    config[key] = value
    with pytest.raises(OutOfRangeError, match=key):
        validate_and_derive(config)


def test_unknown_key():
    config = default_config()
    config["bandwidth_hz"] = 1e6
    with pytest.raises(ConfigError, match="bandwidth_hz"):
        validate_and_derive(config)


def test_guard_violation():
    # h_0 >= d_sep / tan(phi_b) collapses the altitude levels
    config = default_config()
    config["h_0_m"] = 200.0
    with pytest.raises(GuardViolationError):
        validate_and_derive(config)


def test_guard_runs_at_construction(params):
    # every SystemParams is consistent when built, not only a validated one
    gap = params.h_high - params.h_low + params.h_0  # h_0 at which h_low = h_high
    for h_0 in (params.h_high, 1.01 * gap):
        with pytest.raises(GuardViolationError, match="h_low"):
            dataclasses.replace(params, h_0=h_0)
    assert dataclasses.replace(params, h_0=0.99 * gap).h_low < params.h_high


def test_geometry_is_computed_not_passed(params):
    assert isinstance(validate_and_derive(default_config()), SystemParams)
    assert (params.altitude(0), params.altitude(1)) == (params.h_low, params.h_high)
    with pytest.raises(ValueError, match="h_low"):
        dataclasses.replace(params, h_low=1.0)
    narrower = dataclasses.replace(params, n_users=10)
    assert narrower.d_min == 2.0 * params.d_0 / 10


def test_derivation_is_pure():
    first = validate_and_derive(default_config())
    second = validate_and_derive(default_config())
    assert first == second


def test_high_above_low_for_random_valid_configs():
    rng = random.Random(7)
    for _ in range(300):
        config = default_config()
        config["d_0_m"] = rng.uniform(1.0, 500.0)
        config["d_sep_m"] = rng.uniform(1.0, 2000.0)
        config["phi_b_rad"] = rng.uniform(0.05, math.pi / 2 - 0.05)
        # keep the guard below the separation-driven gap so the config is valid
        gap = config["d_sep_m"] / math.tan(config["phi_b_rad"])
        config["h_0_m"] = rng.uniform(0.0, 0.95 * gap)
        params = validate_and_derive(config)
        assert params.h_high > params.h_low


def test_string_values_accepted():
    config = {key: str(value) for key, value in default_config().items()}
    params = validate_and_derive(config)
    assert params.n_users == 30


def test_parse_config_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text("# comment\nd_0_m = 50\n\nn_users=10  # trailing comment\n")
    assert parse_config_file(path) == {"d_0_m": "50", "n_users": "10"}


def test_parse_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text("d_0_m 50\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(path)


def test_apply_overrides():
    merged = apply_overrides({"d_0_m": 100}, ["d_0_m=42", "h_0_m=2"])
    assert merged == {"d_0_m": "42", "h_0_m": "2"}
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["oops"])


def test_load_params_layering(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text("d_0_m = 50\n")
    params = load_params(path, overrides=["n_users=10"])
    assert params.d_0 == 50.0
    assert params.n_users == 10


def test_shipped_default_file_matches_builtin():
    import pathlib
    repo_cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    from_file = validate_and_derive(parse_config_file(repo_cfg))
    from_builtin = validate_and_derive(default_config())
    assert from_file == from_builtin
