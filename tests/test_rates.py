import math

from numpy.testing import assert_allclose

from uav_twoway import default_config, validate_and_derive
from uav_twoway.rates import (rate_cochannel_diff, rate_cochannel_same,
                              rate_individual, rate_set)
from uav_twoway.sinr import Configuration, snr_individual

# frozen from a standalone transcription of the sum-rate expressions
R_DIFF_LOW_HIGH_R1 = 82.6473107207352
R_DIFF_LOW_LOW_R0 = 103.00760523333344
R_SAME_HIGH_LOW_R1 = 82.6473107207352
R_IND_LOW = 51.50380261666672
R_IND_HIGH = 43.60290045043636


def test_pinned_rates(params, candidates):
    assert_allclose(rate_cochannel_diff(candidates["r1_Hl_Hh"], params),
                    R_DIFF_LOW_HIGH_R1, rtol=1e-12)
    assert_allclose(rate_cochannel_diff(candidates["r0_Hl_Hl"], params),
                    R_DIFF_LOW_LOW_R0, rtol=1e-12)
    assert_allclose(rate_cochannel_same(candidates["r1_Hh_Hl"], params),
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
    assert_allclose(rate_cochannel_diff(cfg, params),
                    4.0 * math.log2(1.0 + snr_dl), rtol=1e-12)


def test_interference_free_reduction(params, candidates):
    # same direction at low altitudes: no interference term survives, so the
    # cross-cell sum-rate is exactly twice the individual rate
    cfg = candidates["r0_Hl_Hl"]
    individual = rate_individual(params.h_low, params)
    assert rate_cochannel_diff(cfg, params) == individual + individual


def test_cochannel_bounded_by_individual_sum(params):
    from uav_twoway.sinr import all_configurations
    for cfg in all_configurations().values():
        ceiling = (rate_individual(params.altitude(cfg.t1), params)
                   + rate_individual(params.altitude(cfg.t2), params))
        assert rate_cochannel_diff(cfg, params) <= ceiling
        assert rate_cochannel_same(cfg, params) <= ceiling


def test_rates_decrease_with_noise(candidates):
    noisier_cfg = default_config()
    noisier_cfg["noise_dbm"] = -110.0
    noisier = validate_and_derive(noisier_cfg)
    base = validate_and_derive(default_config())
    cfg = Configuration(1, 0, 1)
    assert rate_cochannel_diff(cfg, noisier) < rate_cochannel_diff(cfg, base)
    assert rate_individual(noisier.h_low, noisier) < rate_individual(base.h_low, base)


def test_low_altitude_beats_high(params):
    assert rate_individual(params.h_low, params) > rate_individual(
        params.h_high, params)


def test_rate_set_bundles_everything(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    rates = rate_set(cfg, params)
    assert rates.r_cochannel_diff == rate_cochannel_diff(cfg, params)
    assert rates.r_cochannel_same == rate_cochannel_same(cfg, params)
    assert rates.r_individual_1 == rate_individual(params.altitude(cfg.t1), params)
    assert rates.r_individual_2 == rate_individual(params.altitude(cfg.t2), params)


def test_mirrored_configs_have_identical_rates(params, candidates):
    one = rate_set(candidates["r1_Hl_Hh"], params)
    other = rate_set(candidates["r1_Hh_Hl"], params)
    assert one.r_cochannel_diff == other.r_cochannel_diff
    assert one.r_cochannel_same == other.r_cochannel_same
    assert one.r_individual_1 == other.r_individual_2
    assert one.r_individual_2 == other.r_individual_1


def test_all_rates_nonnegative_finite(params):
    from uav_twoway.sinr import all_configurations
    for cfg in all_configurations().values():
        for value in (rate_cochannel_diff(cfg, params),
                      rate_cochannel_same(cfg, params),
                      rate_individual(params.altitude(cfg.t1), params)):
            assert value >= 0 and math.isfinite(value)
