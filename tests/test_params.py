import dataclasses
import math
import pickle
import random

import pytest
from numpy.testing import assert_allclose

from uav_twoway import SystemParams, default_config, validate_and_derive
from uav_twoway.errors import (ConfigError, GuardViolationError, MissingKeyError,
                               OutOfRangeError)
from uav_twoway.cli import main
from uav_twoway.params import (CONFIG_SCHEMA, MAX_HALF_BEAMWIDTH, MAX_USERS, apply_overrides,
                               dbm_to_watts, load_params, parse_config_file, split_weight_grid)

# frozen from a standalone transcription of the defining formulas
G0 = 2.2846306484003143
H_LOW = 58.735026918962596
H_HIGH = 230.94010767585038
D_MIN = 6.666666666666667
K_FREESPACE = 83.83380087806727
# the reference parameter set, in schema order; configs/default.cfg holds the same
REFERENCE_CONFIG = {
    "f_c_hz": 2e9, "c_mps": 299792458.0, "p_u_dbm": 35.0, "p_g_dbm": 35.0,
    "noise_dbm": -120.0, "d_0_m": 100.0, "d_sep_m": 300.0, "n_users": 30,
    "phi_b_rad": math.pi / 3, "h_0_m": 1.0, "n_los": 2.0, "n_nlos": 4.0,
    "mu_los_db": 1.0, "sigma_los_db": 1.0, "mu_nlos_db": 30.0, "sigma_nlos_db": 8.0,
}


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
        assert abs(10.0 * math.log10(dbm_to_watts(dbm)) + 30.0 - dbm) < 1e-9


def test_schema_names_every_field_and_default_once():
    init_fields = [f.name for f in dataclasses.fields(SystemParams) if f.init]
    assert [name for name, _, _, _ in CONFIG_SCHEMA.values()] == init_fields
    config = default_config()
    assert list(config) == list(CONFIG_SCHEMA)
    assert config == REFERENCE_CONFIG
    # n_users an int, every other value a float
    assert [type(v) for v in config.values()] == [type(v) for v in REFERENCE_CONFIG.values()]


def test_missing_key():
    config = default_config()
    del config["d_0_m"]
    with pytest.raises(MissingKeyError, match="d_0_m"):
        validate_and_derive(config)


@pytest.mark.parametrize("key,value", [
    ("d_0_m", -5), ("d_0_m", 0), ("f_c_hz", 0), ("n_users", 0), ("n_users", 2.5),
    ("phi_b_rad", 0.0), ("phi_b_rad", math.pi / 2), ("phi_b_rad", 2.0), ("phi_b_rad", 1e-300),
    ("phi_b_rad", 1.5707963267948963), ("phi_b_rad", math.nextafter(MAX_HALF_BEAMWIDTH, 2.0)),
    ("h_0_m", -1), ("sigma_los_db", -0.5), ("n_los", 0), ("d_sep_m", "abc"),
    ("mu_los_db", math.nan), ("p_u_dbm", math.inf), ("n_users", MAX_USERS + 1),
    ("p_u_dbm", 100.5), ("p_g_dbm", -101), ("noise_dbm", 0.5), ("noise_dbm", -251),
    ("mu_los_db", 101), ("mu_nlos_db", -101), ("sigma_los_db", 1e300), ("sigma_nlos_db", 50.5),
    ("f_c_hz", 1e-300), ("f_c_hz", 2e12), ("c_mps", 1e6), ("c_mps", 1e300), ("d_0_m", 1e-300),
    ("d_0_m", 2e5), ("d_sep_m", 0.5), ("d_sep_m", 2e6), ("n_los", 0.5), ("n_nlos", 11),
])
def test_out_of_range(key, value):
    config = default_config()
    config[key] = value
    with pytest.raises(OutOfRangeError, match=key):
        validate_and_derive(config)


@pytest.mark.parametrize("assignment", [
    "mu_los_db=4000", "mu_nlos_db=-4000", "p_u_dbm=4000", "p_g_dbm=4000",
    "noise_dbm=-4000", "n_users=1000", "f_c_hz=1e-300", "d_0_m=1e-300", "c_mps=1e300",
    "phi_b_rad=1e-300",
])
def test_out_of_range_override_exits_2_naming_the_key(capsys, assignment):
    # each once overflowed, divided by zero or ran for seconds past validation
    assert main(["eval", "--lambda1", "5", "--lambda2", "3", "--set", assignment]) == 2
    key = assignment.partition("=")[0]
    assert f"error: {key}=" in capsys.readouterr().err


@pytest.mark.parametrize("assignment", ["sigma_los_db=1e300", "sigma_nlos_db=1e300"])
def test_unbounded_shadowing_std_exits_2_naming_the_key(capsys, assignment):
    # sigma_los_db=1e300 once gave an inf mean and nan interval cells with exit 0
    assert main(["compare", "--lambda1", "5", "--lambda2", "3", "--frames", "3",
                 "--configurations", "r0_Hl_Hl", "--set", assignment]) == 2
    assert f"error: {assignment.partition('=')[0]}=" in capsys.readouterr().err


def test_range_ends_are_accepted():
    config = default_config()
    config.update(p_u_dbm=100.0, p_g_dbm=-100.0, noise_dbm=-250.0, mu_los_db=-100.0,
                  mu_nlos_db=100.0, n_users=MAX_USERS, sigma_los_db=50.0, sigma_nlos_db=0.0,
                  f_c_hz=1e6, c_mps=1e9, d_0_m=1.0, d_sep_m=1e6, n_los=1.0, n_nlos=10.0)
    assert validate_and_derive(config).n_users == MAX_USERS
    config.update(noise_dbm=0.0, f_c_hz=1e12, c_mps=1e7, d_0_m=1e5, n_los=10.0, n_nlos=1.0)
    assert validate_and_derive(config).noise_power == dbm_to_watts(0.0)


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


def test_guard_violation_names_every_key_it_involves(capsys):
    # phi_b_rad=1.569 lies inside its range, but d_sep / tan(phi_b) = 0.54 m
    # is below h_0 = 1 m, which lifts h_low above h_high
    assert main(["eval", "--lambda1", "5", "--lambda2", "3", "--set", "phi_b_rad=1.569"]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("h_0_m", "d_sep_m", "phi_b_rad")), err


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


def test_split_weights_are_kept_per_parameter_set():
    params = validate_and_derive(default_config())
    fresh = validate_and_derive(default_config())
    weights = params.split_weights
    assert params.split_weights is weights and weights == split_weight_grid(30)
    # the memo is no field: equality and hashing ignore it
    assert params == fresh and hash(params) == hash(fresh) and "split_weights" not in vars(fresh)
    # a copy with another N builds its own, never the original's
    narrower = dataclasses.replace(params, n_users=10)
    assert narrower.split_weights == split_weight_grid(10) and len(narrower.split_weights) == 121
    assert dataclasses.replace(narrower, n_users=30).split_weights == weights
    assert len(params.split_weights) == 961
    # a pickled copy, as worker processes get it, keeps the built weights
    shipped = pickle.loads(pickle.dumps(params))
    assert shipped == params and vars(shipped)["split_weights"] == weights


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
