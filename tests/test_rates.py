import math
from dataclasses import astuple

import pytest
from numpy.testing import assert_allclose

from uav_twoway import default_config, validate_and_derive
from uav_twoway.rates import rate_individual, rate_set
from uav_twoway.sinr import Configuration, all_configurations, link_sinr, snr_individual

# frozen from a standalone transcription of the sum-rate expressions
R_DIFF_LOW_HIGH_R1 = 82.6473107207352
R_DIFF_LOW_LOW_R0 = 103.00760523333344
R_SAME_HIGH_LOW_R1 = 82.6473107207352
R_IND_LOW = 51.50380261666672
R_IND_HIGH = 43.60290045043636


def test_pinned_rates(params, candidates):
    assert_allclose(rate_set(candidates["r1_Hl_Hh"], params).r_cochannel_diff,
                    R_DIFF_LOW_HIGH_R1, rtol=1e-12)
    assert_allclose(rate_set(candidates["r0_Hl_Hl"], params).r_cochannel_diff,
                    R_DIFF_LOW_LOW_R0, rtol=1e-12)
    assert_allclose(rate_set(candidates["r1_Hh_Hl"], params).r_cochannel_same,
                    R_SAME_HIGH_LOW_R1, rtol=1e-12)
    assert_allclose(rate_individual(params.h_low, params), R_IND_LOW, rtol=1e-12)
    assert_allclose(rate_individual(params.h_high, params), R_IND_HIGH, rtol=1e-12)


def test_four_equal_streams():
    # equal powers and a 1 rad half-beamwidth make the directional and flat
    # gains coincide, so all four interference-free streams carry one SNR
    config = default_config()
    config["phi_b_rad"] = 1.0
    params = validate_and_derive(config)
    cfg = Configuration(0, 0, 0)
    snr_dl, snr_ul = snr_individual(params.h_low, params)
    assert snr_dl == snr_ul
    assert_allclose(rate_set(cfg, params).r_cochannel_diff,
                    4.0 * math.log2(1.0 + snr_dl), rtol=1e-12)


def test_interference_free_reduction(params, candidates):
    # same direction at low altitudes: no interference term survives, so the
    # cross-cell sum-rate is exactly twice the individual rate
    cfg = candidates["r0_Hl_Hl"]
    individual = rate_individual(params.h_low, params)
    assert rate_set(cfg, params).r_cochannel_diff == individual + individual


def test_cochannel_bounded_by_individual_sum(params):
    for cfg in all_configurations().values():
        rates = rate_set(cfg, params)
        ceiling = (rate_individual(params.altitude(cfg.t1), params)
                   + rate_individual(params.altitude(cfg.t2), params))
        assert rates.r_cochannel_diff <= ceiling
        assert rates.r_cochannel_same <= ceiling


def test_rates_decrease_with_noise(candidates):
    noisier_cfg = default_config()
    noisier_cfg["noise_dbm"] = -110.0
    noisier = validate_and_derive(noisier_cfg)
    base = validate_and_derive(default_config())
    cfg = Configuration(1, 0, 1)
    assert rate_set(cfg, noisier).r_cochannel_diff < rate_set(cfg, base).r_cochannel_diff
    assert rate_individual(noisier.h_low, noisier) < rate_individual(base.h_low, base)


def test_low_altitude_beats_high(params):
    assert rate_individual(params.h_low, params) > rate_individual(
        params.h_high, params)


def link_rate(cfg, params, same_cell):
    """UAV1's two-way rate: its downlink and uplink Shannon rates."""
    downlink, uplink = link_sinr(cfg, params, same_cell)
    return math.log2(1.0 + downlink) + math.log2(1.0 + uplink)


def test_rate_set_bundles_everything(params, candidates):
    # a pair's sum-rate is UAV1's link plus the mirror's UAV1 link, UAV2's
    cfg = candidates["r1_Hl_Hh"]
    rates = rate_set(cfg, params)
    assert rates.r_cochannel_diff == (link_rate(cfg, params, False)
                                      + link_rate(cfg.mirror, params, False))
    assert rates.r_cochannel_same == (link_rate(cfg, params, True)
                                      + link_rate(cfg.mirror, params, True))
    assert rates.r_individual == rate_individual(params.altitude(cfg.t1), params)
    assert rate_set(cfg.mirror, params).r_individual == rate_individual(
        params.altitude(cfg.t2), params)


def test_mirrored_configs_have_identical_rates(params, candidates):
    one = rate_set(candidates["r1_Hl_Hh"], params)
    other = rate_set(candidates["r1_Hh_Hl"], params)
    assert one.r_cochannel_diff == other.r_cochannel_diff
    assert one.r_cochannel_same == other.r_cochannel_same
    assert one.r_individual == rate_individual(params.h_low, params)
    assert other.r_individual == rate_individual(params.h_high, params)


def test_all_rates_nonnegative_finite(params):
    for cfg in all_configurations().values():
        for value in astuple(rate_set(cfg, params)):
            assert value >= 0 and math.isfinite(value)


# Each configuration's (r_cochannel_diff, r_cochannel_same, UAV1's individual
# rate), frozen bit for bit; UAV2's individual rate is its mirror's third value.
FOUND_56 = {"p_u_dbm": 45.0, "p_g_dbm": 0.0, "noise_dbm": -130.0, "d_0_m": 20.0,
            "d_sep_m": 100.0, "phi_b_rad": 1.3, "n_nlos": 5.0, "mu_nlos_db": 40.0,
            "h_0_m": 10.0}
FROZEN_RATE_SETS = {
    "defaults": {
        "r0_Hl_Hl": (103.00760523333344, 1.2877123744376782, 51.50380261666672),
        "r0_Hl_Hh": (50.15770587451853, 2.9494255487829455, 51.50380261666672),
        "r0_Hh_Hl": (50.15770587451853, 2.9494255487829455, 43.60290045043636),
        "r0_Hh_Hh": (1.2877123005223887, 1.2877123005223887, 43.60290045043636),
        "r1_Hl_Hl": (90.54818426030886, 90.54818426030886, 51.50380261666672),
        "r1_Hl_Hh": (82.6473107207352, 82.6473107207352, 51.50380261666672),
        "r1_Hh_Hl": (82.6473107207352, 82.6473107207352, 43.60290045043636),
        "r1_Hh_Hh": (74.74643718116155, 74.74643718116155, 43.60290045043636),
    },
    "found_56": {
        "r0_Hl_Hl": (106.55534038923685, 0.39882694485895487, 53.27767019461842),
        "r0_Hl_Hh": (51.58899697567323, 0.6313468751531364, 53.27767019461842),
        "r0_Hh_Hl": (51.58899697567323, 0.6313468751531364, 48.88170043641585),
        "r0_Hh_Hh": (0.39882688008974543, 0.39882688008974543, 48.88170043641585),
        "r1_Hl_Hl": (106.20033083831689, 106.20033083831689, 53.27767019461842),
        "r1_Hl_Hh": (101.80436108016173, 101.80436108016173, 53.27767019461842),
        "r1_Hh_Hl": (101.80436108016173, 101.80436108016173, 48.88170043641585),
        "r1_Hh_Hh": (97.40839132200657, 97.40839132200657, 48.88170043641585),
    },
}


@pytest.mark.parametrize("name", FROZEN_RATE_SETS)
def test_rate_sets_keep_their_bits(name):
    config = default_config()
    if name == "found_56":
        config.update(FOUND_56)
    params = validate_and_derive(config)
    for label, cfg in all_configurations().items():
        assert astuple(rate_set(cfg, params))[:3] == FROZEN_RATE_SETS[name][label]
        mirror = FROZEN_RATE_SETS[name][f"r{cfg.r}_{label[6:]}_{label[3:5]}"]  # tags swapped
        assert rate_individual(params.altitude(cfg.t2), params) == mirror[2]
