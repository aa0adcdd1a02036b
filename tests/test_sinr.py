import math

import pytest
from numpy.testing import assert_allclose

from uav_twoway import default_config, validate_and_derive
from uav_twoway.sinr import (Configuration, all_configurations, sinr_dl_diff,
                             sinr_dl_same, sinr_ul_diff, sinr_ul_same, snr_individual)

# frozen from a standalone transcription of the bound expressions
SINR_DL_DIFF_LOW_SERVE_R1 = 719011.4340840313      # serve h_low, r=1
SINR_UL_DIFF_HIGH_SERVE_R0 = 0.24999998367094617   # serve h_high, r=0
SINR_DL_SAME_R0_LOW_LOW = 0.24999999884171922
SINR_UL_SAME_R0_LOW = 0.24999999894377462
SNR_DL_LOW = 53959275.95490394
SNR_UL_LOW = 59172967.49379055


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(2, 0, 0)
    with pytest.raises(ValueError):
        Configuration(1, 0, 2)


def test_candidate_set(candidates):
    assert list(candidates) == ["r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl"]
    assert len(all_configurations()) == 8
    for label, cfg in candidates.items():
        assert cfg.label == label


def test_dl_diff_r1_only_ground_interference(params, derived, candidates):
    # r=1 with the partner high: the altitude-gated UAV term vanishes
    cfg = candidates["r1_Hl_Hh"]
    value = sinr_dl_diff(cfg, params, derived, link=1)
    assert_allclose(value, SINR_DL_DIFF_LOW_SERVE_R1, rtol=1e-12)


def test_dl_diff_r0_low_partner_is_interference_free(params, derived, candidates):
    cfg = candidates["r0_Hl_Hl"]
    snr_dl, _ = snr_individual(derived.altitude(cfg.t1), params, derived)
    assert sinr_dl_diff(cfg, params, derived, link=1) == snr_dl


def test_ul_diff_trivial_zeros(params, derived, candidates):
    # serving UAV low: interference-free for either spin
    low_cfg = candidates["r0_Hl_Hl"]
    _, snr_ul = snr_individual(derived.altitude(low_cfg.t1), params, derived)
    assert sinr_ul_diff(low_cfg, params, derived, link=1) == snr_ul
    # r=1: interference-free even at the high altitude
    high_r1 = candidates["r1_Hh_Hl"]
    _, snr_ul_high = snr_individual(derived.altitude(high_r1.t1), params, derived)
    assert sinr_ul_diff(high_r1, params, derived, link=1) == snr_ul_high


def test_ul_diff_high_serve_r0_pin(params, derived):
    cfg = Configuration(0, 1, 0)
    assert_allclose(sinr_ul_diff(cfg, params, derived, link=1),
                    SINR_UL_DIFF_HIGH_SERVE_R0, rtol=1e-12)


def test_dl_same_matches_diff_when_r1(params, derived, candidates):
    # with r=1 both scenarios see only the d_min ground interferer
    cfg = candidates["r1_Hh_Hl"]
    assert sinr_dl_same(cfg, params, derived, link=2) == sinr_dl_diff(
        cfg, params, derived, link=2)
    assert_allclose(sinr_dl_same(cfg, params, derived, link=2),
                    SINR_DL_DIFF_LOW_SERVE_R1, rtol=1e-12)


def test_dl_same_r0_pin(params, derived, candidates):
    cfg = candidates["r0_Hl_Hl"]
    assert_allclose(sinr_dl_same(cfg, params, derived, link=1),
                    SINR_DL_SAME_R0_LOW_LOW, rtol=1e-12)


def test_ul_same_pins(params, derived, candidates):
    low_low = candidates["r0_Hl_Hl"]
    assert_allclose(sinr_ul_same(low_low, params, derived, link=1),
                    SINR_UL_SAME_R0_LOW, rtol=1e-12)
    r1 = candidates["r1_Hl_Hh"]
    _, snr_ul = snr_individual(derived.altitude(r1.t1), params, derived)
    assert sinr_ul_same(r1, params, derived, link=1) == snr_ul


def test_snr_individual_pins(params, derived):
    snr_dl, snr_ul = snr_individual(derived.h_low, params, derived)
    assert_allclose(snr_dl, SNR_DL_LOW, rtol=1e-12)
    assert_allclose(snr_ul, SNR_UL_LOW, rtol=1e-12)


def test_snr_scales_with_noise(derived):
    config = default_config()
    config["noise_dbm"] = -130.0
    quieter, derived_q = validate_and_derive(config)
    base, derived_b = validate_and_derive(default_config())
    dl_q, ul_q = snr_individual(derived_q.h_low, quieter, derived_q)
    dl_b, ul_b = snr_individual(derived_b.h_low, base, derived_b)
    assert_allclose(dl_q, 10.0 * dl_b, rtol=1e-12)
    assert_allclose(ul_q, 10.0 * ul_b, rtol=1e-12)


def test_snr_ratio_is_beamwidth_squared(params, derived):
    snr_dl, snr_ul = snr_individual(derived.h_low, params, derived)
    assert_allclose(snr_ul / snr_dl, params.phi_b ** 2, rtol=1e-12)


def test_every_sinr_below_matching_snr(params, derived):
    for cfg in all_configurations().values():
        for link in (1, 2):
            h_serve = derived.altitude(cfg.t1 if link == 1 else cfg.t2)
            snr_dl, snr_ul = snr_individual(h_serve, params, derived)
            assert sinr_dl_diff(cfg, params, derived, link) <= snr_dl
            assert sinr_dl_same(cfg, params, derived, link) <= snr_dl
            assert sinr_ul_diff(cfg, params, derived, link) <= snr_ul
            assert sinr_ul_same(cfg, params, derived, link) <= snr_ul


def test_all_bounds_positive_finite(params, derived):
    for cfg in all_configurations().values():
        for link in (1, 2):
            for func in (sinr_dl_diff, sinr_ul_diff, sinr_dl_same, sinr_ul_same):
                value = func(cfg, params, derived, link)
                assert value > 0 and math.isfinite(value)


def test_same_cell_dl_below_diff_cell_when_low_partner_r0(params, derived, candidates):
    # the shared-cell bound keeps the partner-UAV term that the cross-cell
    # bound gates away at the low altitude
    cfg = candidates["r0_Hl_Hl"]
    assert sinr_dl_same(cfg, params, derived, link=1) < sinr_dl_diff(
        cfg, params, derived, link=1)


def test_link_two_swaps_roles(params, derived):
    cfg = Configuration(1, 0, 1)
    mirrored = Configuration(1, 1, 0)
    for func in (sinr_dl_diff, sinr_ul_diff, sinr_dl_same, sinr_ul_same):
        assert func(cfg, params, derived, link=2) == func(mirrored, params, derived, link=1)
