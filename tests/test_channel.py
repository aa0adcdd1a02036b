import math
import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uav_twoway import default_config, validate_and_derive
from uav_twoway.channel import los_tx, rx_power_ground_to_ground, rx_power_los

# frozen from a standalone transcription of the link-budget formulas
P_UAV_GROUND_EDGE_LOW = 5.395927595490394e-08   # slant = h_low / cos(phi_b)
P_GROUND_UAV_EDGE_LOW = 5.917296749379056e-08
P_GROUND_GROUND_DMIN = 7.404647825753171e-14


def downlink_power(d, params, z=0.0):
    """A downlink's received power: the LoS power with the UAV's transmit term."""
    return rx_power_los(d, los_tx(params)[0], params, z)


def uplink_power(d, params, z=0.0):
    """An uplink's received power: the LoS power with the user's transmit term."""
    return rx_power_los(d, los_tx(params)[1], params, z)


def test_rx_power_pins(params):
    edge = params.h_low / math.cos(params.phi_b)
    assert_allclose(downlink_power(edge, params),
                    P_UAV_GROUND_EDGE_LOW, rtol=1e-12)
    assert_allclose(uplink_power(edge, params),
                    P_GROUND_UAV_EDGE_LOW, rtol=1e-12)
    assert_allclose(rx_power_ground_to_ground(params.d_min, params),
                    P_GROUND_GROUND_DMIN, rtol=1e-12)


def test_inverse_square_law(params):
    d = 200.0
    assert_allclose(downlink_power(2 * d, params),
                    downlink_power(d, params) / 4.0, rtol=1e-12)
    assert_allclose(uplink_power(2 * d, params),
                    uplink_power(d, params) / 4.0, rtol=1e-12)


def test_fourth_power_law(params):
    d = 40.0
    assert_allclose(rx_power_ground_to_ground(2 * d, params),
                    rx_power_ground_to_ground(d, params) / 16.0, rtol=1e-12)


def test_uplink_downlink_gain_ratio(params):
    # same distance, equal powers: flat g0 over directional g0/phi_b^2
    d = 150.0
    ratio = uplink_power(d, params) / downlink_power(d, params)
    assert_allclose(ratio, params.phi_b ** 2, rtol=1e-12)


def test_linear_in_transmit_power(params):
    config = default_config()
    config["p_g_dbm"] = 45.0  # +10 dB = x10
    boosted = validate_and_derive(config)
    assert_allclose(uplink_power(100.0, boosted),
                    10.0 * uplink_power(100.0, params), rtol=1e-12)


def test_mean_shadowing_offset():
    config = default_config()
    config["mu_los_db"] = 0.0
    zero_db = validate_and_derive(config)
    one_db = validate_and_derive(default_config())
    ratio = downlink_power(100.0, zero_db) / downlink_power(100.0, one_db)
    assert_allclose(ratio, 10.0 ** 0.1, rtol=1e-12)


def test_nlos_vs_los_shadowing_gap():
    # force equal exponents so only the 29 dB shadowing-mean gap remains
    config = default_config()
    config["n_nlos"] = 2.0
    params = validate_and_derive(config)
    d = 80.0
    ratio = rx_power_ground_to_ground(d, params) / uplink_power(d, params)
    assert_allclose(ratio, 10.0 ** -2.9, rtol=1e-12)


def test_monotonic_in_distance(params):
    rng = random.Random(11)
    for func in (downlink_power, uplink_power,
                 rx_power_ground_to_ground):
        for _ in range(100):
            near = rng.uniform(1.0, 500.0)
            far = near * rng.uniform(1.0001, 10.0)
            assert func(far, params) < func(near, params)


def test_independent_of_noise_power(params):
    config = default_config()
    config["noise_dbm"] = -123.0  # halve sigma^2 (approx); outputs must not move
    quieter = validate_and_derive(config)
    assert downlink_power(100.0, quieter) == downlink_power(100.0, params)


def test_sampled_shadowing_mean_converges(params):
    # a column of deviates: the shadowing in dB is mu + sigma * z
    z = np.random.default_rng(123).standard_normal(100_000)
    d = 80.0
    column = rx_power_ground_to_ground(d, params, z)
    draws_db = params.mu_nlos + 10.0 * np.log10(
        rx_power_ground_to_ground(d, params) / column)
    n = len(z)
    assert abs(draws_db.mean() - params.mu_nlos) < 3.0 * params.sigma_nlos / math.sqrt(n)
    assert abs(draws_db.std() - params.sigma_nlos) < 0.1


def test_sampled_shadowing_deterministic(params):
    # a column of deviates gives, row by row, the powers of scalar calls
    z = np.random.default_rng(5).standard_normal(10)
    for func in (downlink_power, uplink_power,
                 rx_power_ground_to_ground):
        column = func(120.0, params, z)
        assert np.array_equal(column, func(120.0, params, z.copy()))
        assert_allclose(column, [func(120.0, params, float(v)) for v in z],
                        rtol=1e-14)


def test_mean_mode_is_deterministic(params):
    # the default deviate is the mean, bit for bit; one standard deviation
    # up divides the power by 10^(sigma/10)
    edge = params.h_low / math.cos(params.phi_b)
    at_mean = (params.p_u * (params.g0 / params.phi_b ** 2) / 10.0 ** (params.mu_los / 10.0)
               * (params.k_freespace * edge) ** (-params.n_los))
    assert downlink_power(edge, params) == at_mean
    assert downlink_power(edge, params, 0.0) == at_mean
    assert_allclose(downlink_power(100.0, params, 1.0),
                    downlink_power(100.0, params)
                    / 10.0 ** (params.sigma_los / 10.0), rtol=1e-12)


@given(st.lists(st.tuples(st.floats(1.0, 5000.0), st.floats(-6.0, 6.0), st.booleans()),
                min_size=1, max_size=40),
       st.booleans())
def test_los_power_keeps_the_bits_of_both_directions(params, receptions, mean):
    # the simulator computes a pass's LoS powers in one call, with each row's
    # transmit term; each direction's scalar term on its own rows gives the
    # same bits
    d, z, downlink = (np.array(column) for column in zip(*receptions))
    power = rx_power_los(d, np.where(downlink, *los_tx(params)), params, 0.0 if mean else z)
    for rows, rx_power in ((downlink, downlink_power), (~downlink, uplink_power)):
        assert np.array_equal(power[rows], rx_power(d[rows], params, 0.0 if mean else z[rows]))
