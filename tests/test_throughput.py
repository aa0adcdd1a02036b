import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uav_twoway import default_config, throughput, validate_and_derive
from uav_twoway.errors import NonPositiveRateError
from uav_twoway.montecarlo import _matched_values
from uav_twoway.pairing import AccountingMode, pair_counts
from uav_twoway.params import split_weight_grid
from uav_twoway.rates import rate_individual, rate_set
from uav_twoway.sinr import Configuration, all_configurations, candidate_configurations
from uav_twoway.throughput import (LoadDistribution, _frame_throughputs, admissible_k2,
                                   average_throughput, conditional_table, conditional_tables,
                                   optimal_configuration, skellam_vector)

SKELLAM_0_1_1 = 0.30850832255367105  # frozen from the convolution oracle below
COND_K3_K2_2_MIXED = 37.43071684735904


def skellam_convolution(k, lam1, lam2, terms=600):
    """Independent oracle: direct sum of Poisson(m+k)*Poisson(m) products."""
    total = 0.0
    for m in range(max(0, -k), max(0, -k) + terms):
        log_term = (-lam1 + (m + k) * math.log(lam1) - math.lgamma(m + k + 1)
                    - lam2 + m * math.log(lam2) - math.lgamma(m + 1))
        total += math.exp(log_term)
    return total


def brute_force_average(cfg, lam1, lam2, params):
    """Independent oracle: double sum over every (K1, K2) split with the
    convolution pmf and exact integer case-count weights."""
    n = params.n_users
    rates = rate_set(cfg, params)
    total = 0.0
    for k1 in range(1, n + 1):
        for k2 in range(1, n + 1):
            k = k1 - k2
            stratum = sum(math.comb(n, m + k) * math.comb(n, m)
                          for m in range(1, n + 1) if 1 <= m + k <= n)
            weight = (skellam_convolution(k, lam1, lam2)
                      * math.comb(n, k1) * math.comb(n, k2) / stratum)
            # independent transcription of the consistent unit counts
            a_d = min(k1, k2)
            surplus = abs(k)
            helping = (cfg.t2 if k > 0 else cfg.t1) == 1
            a_s = surplus // 2 if helping else 0
            b = surplus - 2 * a_s
            r_ind = (rates.r_individual if k > 0
                     else rate_individual(params.altitude(cfg.t2), params))
            value = (a_d * rates.r_cochannel_diff + a_s * rates.r_cochannel_same
                     + b * r_ind) / (2 * (a_d + a_s + b))
            total += weight * value
    return total


def test_skellam_pinned_value():
    assert_allclose(skellam_vector(0, 1.0, 1.0)[0], SKELLAM_0_1_1, rtol=1e-12)


def test_skellam_matches_convolution():
    for lam1, lam2 in ((0.5, 0.5), (2.0, 0.5), (10.0, 2.0), (10.0, 10.0)):
        for k in range(-30, 31):
            assert abs(skellam_vector(abs(k), lam1, lam2)[k]
                       - skellam_convolution(k, lam1, lam2)) <= 1e-10


def test_skellam_symmetry():
    for k in range(0, 25):
        assert skellam_vector(k, 5.0, 5.0)[k] == skellam_vector(k, 5.0, 5.0)[-k]


def test_skellam_mass_sums_to_one():
    mass = math.fsum(skellam_vector(abs(k), 5.0, 5.0)[k] for k in range(-60, 61))
    assert abs(mass - 1.0) < 1e-12


def test_skellam_vector_matches_convolution():
    # tiny z, and z large enough that the recurrence starts far above N;
    # the oracle needs more terms once the Poisson mass reaches ~300 + 10 sd
    for lam1 in (1e-3, 50.0, 300.0):
        for lam2 in (1e-3, 50.0, 300.0):
            pmf = skellam_vector(30, lam1, lam2)
            assert len(pmf) == 61
            for k in range(-30, 31):
                assert abs(pmf[k] - skellam_convolution(k, lam1, lam2, terms=1000)) <= 1e-10
    # z = 2 sqrt(lambda1 lambda2) so small that the recurrence would overflow
    for lam1, lam2 in ((1e-60, 1e-60), (1e-60, 3.0)):
        pmf = skellam_vector(30, lam1, lam2)
        for k in range(-30, 31):
            assert abs(pmf[k] - skellam_convolution(k, lam1, lam2)) <= 1e-10
        assert math.isclose(pmf[1], skellam_convolution(1, lam1, lam2), rel_tol=1e-12)


def test_skellam_vector_mass_at_large_rate():
    # the sd of K1 - K2 is sqrt(2e5) = 447; [-4000, 4000] leaves out < 1e-17,
    # while [-3000, 3000] would leave out 2e-11
    assert abs(math.fsum(skellam_vector(4000, 1e5, 1e5)) - 1.0) <= 1e-12


def test_skellam_vector_mirror_bitwise():
    for lam1, lam2 in ((100.0, 1000.0), (300.0, 100.0), (1e-3, 7.0)):
        forward = skellam_vector(30, lam1, lam2)
        backward = skellam_vector(30, lam2, lam1)
        for k in range(-30, 31):
            assert forward[k] == backward[-k]
            assert skellam_vector(abs(k), lam1, lam2)[k] == skellam_vector(abs(k), lam2, lam1)[-k]


@pytest.mark.parametrize("lam, mass", [(40.0, 0.99932), (100.0, 0.96895),
                                       (1000.0, 0.50479), (1e5, 0.054374)])
def test_covered_mass(params, candidates, lam, mass):
    breakdown = average_throughput(conditional_table(candidates["r0_Hl_Hl"], params),
                                   LoadDistribution(lam, lam))
    assert abs(breakdown.covered_mass - mass) <= 1e-4
    assert math.isfinite(breakdown.total)


def test_skellam_rejects_nonpositive_rates():
    with pytest.raises(NonPositiveRateError):
        skellam_vector(0, 0.0, 1.0)
    with pytest.raises(NonPositiveRateError):
        LoadDistribution(1.0, -2.0)
    # LoadDistribution first: a non-finite rate that reached the Bessel
    # series would never return
    with pytest.raises(NonPositiveRateError, match="finite"):
        LoadDistribution(math.inf, 1.0)
    with pytest.raises(NonPositiveRateError, match="finite"):
        skellam_vector(0, 1.0, math.inf)
    # above the 1e10 ceiling the recurrence would run without bound
    LoadDistribution(1e10, 1e10)
    with pytest.raises(NonPositiveRateError, match="lambda2=1e\\+300"):
        LoadDistribution(1.0, 1e300)
    with pytest.raises(NonPositiveRateError, match="lambda1"):
        skellam_vector(3, 2e10, 1.0)


def test_admissible_k2_bounds():
    assert list(admissible_k2(0, 4)) == [1, 2, 3, 4]
    assert list(admissible_k2(2, 4)) == [1, 2]
    assert list(admissible_k2(-3, 4)) == [4]
    assert list(admissible_k2(4, 4)) == []
    assert list(admissible_k2(-4, 4)) == []


def test_conditional_single_rate_class(params, candidates):
    # balanced load: only cross-cell pairs, the ratio collapses to R/2
    cfg = candidates["r0_Hl_Hl"]
    rates = rate_set(cfg, params)
    for big_k2 in (1, 3, 17):
        assert _frame_throughputs(0, range(big_k2, big_k2 + 1), cfg, AccountingMode.CONSISTENT,
                                  rates) == [rates.r_cochannel_diff / 2.0]


def test_conditional_pinned_mixed_case(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    [value] = _frame_throughputs(3, range(2, 3), cfg, AccountingMode.CONSISTENT,
                                 rate_set(cfg, params))
    assert_allclose(value, COND_K3_K2_2_MIXED, rtol=1e-12)


def test_conditional_empty_frame_is_zero(params, candidates):
    assert _matched_values(candidates["r0_Hl_Hl"], params)[0] == 0.0


def reference_weights(k, n):
    """The admissible splits' weights of k: exact integer case counts over
    their exact sum."""
    counts = [math.comb(n, big_k2 + k) * math.comb(n, big_k2) for big_k2 in admissible_k2(k, n)]
    total = float(sum(counts))
    return [count / total for count in counts]


@pytest.mark.parametrize("n", [1, 2, 30, 200])
def test_split_weights_are_the_reference_weights(n):
    # a k's weights lie at stride N + 2 from the cell (K2 + k, K2) of its
    # least admissible K2, bit for bit the reference; every other cell is 0
    config = default_config()
    config["n_users"] = n
    grid = validate_and_derive(config).split_weights
    expected = [0.0] * (n + 1) ** 2
    for k in range(-n, n + 1):
        splits, weights = admissible_k2(k, n), reference_weights(k, n)
        first = (splits.start + k) * (n + 1) + splits.start
        assert list(grid[first::n + 2][:len(splits)]) == weights
        for big_k2, weight in zip(splits, weights):
            expected[(big_k2 + k) * (n + 1) + big_k2] = weight
    assert list(grid) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 30, 200])
def test_split_weight_grid_is_its_own_transpose(n):
    grid = split_weight_grid(n)
    assert all(grid[k1 * (n + 1) + k2] == grid[k2 * (n + 1) + k1]
               for k1 in range(n + 1) for k2 in range(n + 1))


def frame_throughput(k, big_k2, cfg, rates, params, mode=AccountingMode.CONSISTENT):
    """Reference per-slot throughput of the frame with loads (K2 + k, K2),
    transcribed from its pair counts and the configuration's ``rate_set``,
    with UAV2's individual rate for a surplus in cell 2; an empty frame
    gives 0."""
    counts = pair_counts(k, big_k2, cfg.t1, cfg.t2, mode)
    units = counts.a_d + counts.a_s + counts.b
    if not units:
        return 0.0
    r_ind = rates.r_individual if k > 0 else rate_individual(params.altitude(cfg.t2), params)
    return (counts.a_d * rates.r_cochannel_diff + counts.a_s * rates.r_cochannel_same
            + counts.b * r_ind) / (2 * units)


def per_split_table(cfg, params, mode):
    """Reference C(cfg), split by split: each frame's ``frame_throughput``,
    weighted by exact integer case counts. ``_frame_throughputs`` must give
    the k >= 0 frames bit for bit."""
    n = params.n_users
    rates = rate_set(cfg, params)
    values = []
    for k in (*range(n + 1), *range(-n, 0)):
        splits = admissible_k2(k, n)
        frames = [frame_throughput(k, big_k2, cfg, rates, params, mode) for big_k2 in splits]
        if k >= 0:
            assert _frame_throughputs(k, splits, cfg, mode, rates) == frames
        values.append(math.fsum(weight * frame
                                for weight, frame in zip(reference_weights(k, n), frames)))
    return tuple(values)


def params_with_users(n):
    config = default_config()
    config["n_users"] = n
    return validate_and_derive(config)


@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_conditional_table_equals_per_split_reference(n):
    params = params_with_users(n)
    for cfg in all_configurations().values():
        for mode in AccountingMode:
            assert conditional_table(cfg, params, mode).values == per_split_table(cfg, params, mode)


def test_conditional_table_equals_per_split_reference_at_200_users():
    params = params_with_users(200)
    for cfg in (Configuration(1, 0, 1), Configuration(1, 1, 0)):
        for mode in AccountingMode:
            assert conditional_table(cfg, params, mode).values == per_split_table(cfg, params, mode)


@pytest.mark.parametrize("n", [1, 2, 3, 30])
def test_mirror_table_is_the_table_at_minus_k(n):
    # C(r, t2, t1)[k] == C(r, t1, t2)[-k], read through the public one-table call
    params = params_with_users(n)
    for cfg in all_configurations().values():
        for mode in AccountingMode:
            values = conditional_table(cfg, params, mode).values
            mirrored = conditional_table(cfg.mirror, params, mode).values
            assert all(mirrored[k] == values[-k] for k in range(-n, n + 1))


@pytest.mark.parametrize("configs,halves", [(all_configurations(), 8),
                                            (candidate_configurations(), 3)],
                         ids=["all", "candidates"])
def test_tables_share_mirror_halves(params, monkeypatch, configs, halves):
    built, half_table = [], throughput._half_table

    def spy(cfg, *args):
        built.append(cfg)
        return half_table(cfg, *args)

    monkeypatch.setattr(throughput, "_half_table", spy)
    tables = conditional_tables(configs, params)
    assert len(built) == len(set(built)) == halves
    assert {label: table.config for label, table in tables.items()} == configs
    for label, cfg in configs.items():
        assert tables[label].values == conditional_table(cfg, params).values


def test_average_matches_brute_force_small_n(candidates):
    config = default_config()
    config["n_users"] = 2
    params = validate_and_derive(config)
    configs = (Configuration(1, 0, 1), Configuration(1, 1, 0), Configuration(0, 0, 0))
    for cfg in configs:
        for lam1, lam2 in ((1.0, 1.0), (2.0, 0.5), (0.7, 1.9)):
            expected = brute_force_average(cfg, lam1, lam2, params)
            actual = average_throughput(conditional_table(cfg, params),
                                        LoadDistribution(lam1, lam2)).total
            assert_allclose(actual, expected, rtol=1e-9)


def test_total_is_per_k_dot_product(params, candidates):
    breakdown = average_throughput(conditional_table(candidates["r1_Hl_Hh"], params),
                                   LoadDistribution(8.0, 3.0))
    recomputed = math.fsum(weight * conditional
                           for weight, conditional in zip(breakdown.pmf, breakdown.conditional))
    assert_allclose(breakdown.total, recomputed, rtol=1e-12)
    assert len(breakdown.pmf) == len(breakdown.conditional) == 2 * 30 + 1


def test_empty_strata_carry_zero_conditional(params, candidates):
    breakdown = average_throughput(conditional_table(candidates["r0_Hl_Hl"], params),
                                   LoadDistribution(5.0, 5.0))
    assert breakdown.pmf[30] > 0 and breakdown.conditional[30] == 0.0


def test_equal_loads_make_mirrors_equal(params, candidates):
    loads = LoadDistribution(9.0, 9.0)
    one = average_throughput(conditional_table(candidates["r1_Hl_Hh"], params), loads).total
    other = average_throughput(conditional_table(candidates["r1_Hh_Hl"], params), loads).total
    assert one == other


def test_mirror_symmetry_exact(params, candidates):
    rng = random.Random(19)
    for _ in range(10):
        lam1 = rng.uniform(0.3, 28.0)
        lam2 = rng.uniform(0.3, 28.0)
        direct = average_throughput(conditional_table(candidates["r1_Hl_Hh"], params),
                                    LoadDistribution(lam1, lam2)).total
        mirrored = average_throughput(conditional_table(candidates["r1_Hh_Hl"], params),
                                      LoadDistribution(lam2, lam1)).total
        assert direct == mirrored


def test_mirror_symmetry_exact_at_heavy_loads(params, candidates):
    # totals near 1e-190 and 1e-82: the pmf is assembled in log space
    for lam1, lam2 in ((100.0, 1000.0), (1000.0, 300.0)):
        for label, mirror in (("r1_Hl_Hh", "r1_Hh_Hl"), ("r0_Hl_Hl", "r0_Hl_Hl")):
            direct = average_throughput(conditional_table(candidates[label], params),
                                        LoadDistribution(lam1, lam2)).total
            mirrored = average_throughput(conditional_table(candidates[mirror], params),
                                          LoadDistribution(lam2, lam1)).total
            assert 0.0 < direct == mirrored


def test_invariant_under_joint_power_noise_scaling(params, candidates):
    scaled_cfg = default_config()
    for key in ("p_u_dbm", "p_g_dbm", "noise_dbm"):
        scaled_cfg[key] = scaled_cfg[key] + 7.0
    scaled = validate_and_derive(scaled_cfg)
    loads = LoadDistribution(12.0, 4.0)
    cfg = Configuration(1, 0, 1)
    assert_allclose(average_throughput(conditional_table(cfg, scaled), loads).total,
                    average_throughput(conditional_table(cfg, params), loads).total, rtol=1e-12)


def test_optimal_configuration_choices(params):
    cfg, _ = optimal_configuration(LoadDistribution(10.0, 10.0), params)
    assert cfg.label == "r0_Hl_Hl"
    cfg, _ = optimal_configuration(LoadDistribution(25.0, 2.0), params)
    assert cfg.label == "r1_Hl_Hh"
    cfg, _ = optimal_configuration(LoadDistribution(2.0, 25.0), params)
    assert cfg.label == "r1_Hh_Hl"


def test_optimal_breakdown_is_argmax(params, candidates):
    loads = LoadDistribution(17.0, 6.0)
    best_cfg, best = optimal_configuration(loads, params)
    totals = {label: average_throughput(conditional_table(cfg, params), loads).total
              for label, cfg in candidates.items()}
    assert best.total == max(totals.values())
    assert totals[best_cfg.label] == best.total


def test_optimal_invariant_under_rate_rescaling(params, candidates):
    # a monotone rescale of every candidate total cannot move the argmax
    loads = LoadDistribution(21.0, 3.0)
    best_cfg, _ = optimal_configuration(loads, params)
    totals = {label: average_throughput(conditional_table(cfg, params), loads).total
              for label, cfg in candidates.items()}
    for scale in (1e-6, 3.7, 1e6):
        scaled_argmax = max(totals, key=lambda label: scale * totals[label])
        assert scaled_argmax == best_cfg.label


def test_tie_break_prefers_same_direction_low_low(params, candidates):
    # equal loads tie the two mirrored candidates; the optimizer must still
    # deterministically prefer low/low when it wins, and never return the
    # mirror of the winner on re-evaluation
    loads = LoadDistribution(6.0, 6.0)
    first = optimal_configuration(loads, params)
    second = optimal_configuration(loads, params)
    assert first[0] == second[0]


def test_exhaustive_covers_all_eight(params):
    loads = LoadDistribution(10.0, 10.0)
    results = {label: average_throughput(conditional_table(cfg, params), loads)
               for label, cfg in all_configurations().items()}
    assert len(results) == 8
    # the three-candidate reduction: no excluded tuple beats the candidates
    best_excluded = max(total.total for label, total in results.items()
                        if label not in ("r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl"))
    best_candidate = max(results[label].total
                         for label in ("r1_Hl_Hh", "r1_Hh_Hl", "r0_Hl_Hl"))
    assert best_candidate >= best_excluded


@pytest.mark.xfail(strict=True, reason=(
    "the three candidates miss the 8-configuration optimum of the bound at a "
    "non-overlapping corner: at lambda = (12, 12) with p_u 45 dBm, p_g 0 dBm, "
    "noise -130 dBm, d_0 20 m, d_sep 100 m, phi_b 1.3 rad, n_nlos 5, mu_nlos "
    "40 dB and h_0 10 m, r1_Hh_Hh gives 47.9088 and the best candidate, "
    "r1_Hl_Hh, 47.6038"))
@settings(max_examples=50, deadline=None)
@given(st.floats(10.0, 45.0), st.floats(0.0, 35.0), st.floats(-130.0, -90.0),
       st.floats(20.0, 500.0), st.floats(2.1, 5.0), st.floats(0.3, 1.3), st.floats(2.0, 3.0),
       st.floats(2.5, 5.0), st.floats(0.0, 40.0), st.floats(0.0, 10.0),
       st.floats(0.5, 30.0), st.floats(0.5, 30.0))
@example(45.0, 0.0, -130.0, 20.0, 5.0, 1.3, 2.0, 5.0, 40.0, 10.0, 12.0, 12.0)
def test_candidates_hold_the_optimum_of_the_bound(p_u_dbm, p_g_dbm, noise_dbm, d_0_m, d_sep_per_d_0,
                                                  phi_b_rad, n_los, n_nlos, mu_nlos_db, h_0_m,
                                                  lambda1, lambda2):
    # ROADMAP item 7's ranges, with the cells apart (d_sep >= d_sep_min),
    # the case the worst-case bounds assume
    params = validate_and_derive({
        **default_config(), "p_u_dbm": p_u_dbm, "p_g_dbm": p_g_dbm, "noise_dbm": noise_dbm,
        "d_0_m": d_0_m, "d_sep_m": d_sep_per_d_0 * d_0_m, "phi_b_rad": phi_b_rad,
        "n_los": n_los, "n_nlos": n_nlos, "mu_nlos_db": mu_nlos_db, "h_0_m": h_0_m})
    assume(params.d_sep >= params.d_sep_min)
    loads = LoadDistribution(lambda1, lambda2)
    _, best = optimal_configuration(loads, params)
    assert best.total >= max(average_throughput(conditional_table(cfg, params), loads).total
                             for cfg in all_configurations().values())
