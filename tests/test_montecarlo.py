import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from uav_twoway.errors import RateExceedsPopulationError
from uav_twoway.montecarlo import (ActivationModel, UserLayout, draw_activation,
                                   frame_rng, run_frame, sample_layout, simulate,
                                   simulate_exhaustive)
from uav_twoway.pairing import pair_counts
from uav_twoway.throughput import (LoadDistribution, average_throughput,
                                   conditional_throughput)


def test_layout_inside_discs(params):
    rng = np.random.default_rng(0)
    layout = sample_layout(200, 200, params, rng)
    assert np.all(np.hypot(layout.cell1[:, 0], layout.cell1[:, 1]) <= params.d_0)
    assert np.all(np.hypot(layout.cell2[:, 0] - params.d_sep,
                           layout.cell2[:, 1]) <= params.d_0)


def test_layout_reproducible(params):
    one = sample_layout(10, 10, params, np.random.default_rng(9))
    other = sample_layout(10, 10, params, np.random.default_rng(9))
    assert np.array_equal(one.cell1, other.cell1)
    assert np.array_equal(one.cell2, other.cell2)


def test_binomial_full_rate_always_everyone(params):
    loads = LoadDistribution(30.0, 30.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert draw_activation(loads, params, ActivationModel.BINOMIAL_PER_USER,
                               rng) == (30, 30)


def test_binomial_rejects_excess_rate(params):
    with pytest.raises(RateExceedsPopulationError):
        draw_activation(LoadDistribution(31.0, 5.0), params,
                        ActivationModel.BINOMIAL_PER_USER, np.random.default_rng(2))


def test_truncated_poisson_mean(params):
    lam, n = 5.0, params.n_users
    # analytic mean of the Poisson conditioned on [1, n]
    weights = [math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
               for k in range(1, n + 1)]
    expected = sum(k * w for k, w in zip(range(1, n + 1), weights)) / sum(weights)
    variance = sum(k * k * w for k, w in zip(range(1, n + 1), weights)) / sum(
        weights) - expected ** 2
    rng = np.random.default_rng(3)
    loads = LoadDistribution(lam, lam)
    draws = [draw_activation(loads, params, ActivationModel.TRUNCATED_POISSON, rng)[0]
             for _ in range(20_000)]
    assert abs(np.mean(draws) - expected) < 3.0 * math.sqrt(variance / len(draws))
    assert min(draws) >= 1 and max(draws) <= n


def test_activation_deterministic(params):
    loads = LoadDistribution(7.0, 3.0)
    for model in (ActivationModel.TRUNCATED_POISSON, ActivationModel.BINOMIAL_PER_USER):
        first = draw_activation(loads, params, model, np.random.default_rng(4))
        second = draw_activation(loads, params, model, np.random.default_rng(4))
        assert first == second


def test_frame_ledger_bit_identical(params, derived, candidates):
    cfg = candidates["r1_Hl_Hh"]
    one = run_frame(cfg, 6, 3, params, derived, frame_rng(42, 0))
    other = run_frame(cfg, 6, 3, params, derived, frame_rng(42, 0))
    assert one == other
    different = run_frame(cfg, 6, 3, params, derived, frame_rng(43, 0))
    assert different != one


def test_slot_accounting_matches_pairing(params, derived, candidates):
    rng_master = np.random.default_rng(5)
    for cfg in candidates.values():
        for _ in range(10):
            k1 = int(rng_master.integers(0, 31))
            k2 = int(rng_master.integers(0, 31))
            frame = run_frame(cfg, k1, k2, params, derived,
                              np.random.default_rng(int(rng_master.integers(1 << 31))))
            expected = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)
            assert frame.slot_count == expected.slot_count


def test_each_user_served_once_each_direction(params, derived, candidates):
    cfg = candidates["r1_Hl_Hh"]
    frame = run_frame(cfg, 9, 4, params, derived, frame_rng(6, 0))
    seen = {}
    for slot in frame.ledger:
        for reception in slot.receptions:
            seen.setdefault(reception.user, []).append(reception.direction)
    assert len(seen) == 13
    assert all(sorted(directions) == ["dl", "ul"] for directions in seen.values())


def test_interference_bookkeeping(params, derived, candidates):
    # a reception sees at most the one co-channel transmitter of its slot,
    # and a UAV receiver never accrues UAV interference
    for label, cfg in candidates.items():
        frame = run_frame(cfg, 8, 5, params, derived, frame_rng(7, 0))
        for slot in frame.ledger:
            for reception in slot.receptions:
                if len(slot.receptions) == 1:
                    assert reception.interferer == "none"
                    assert reception.interference == 0.0
                if reception.direction == "ul" and cfg.r == 1:
                    assert reception.interferer == "none"
        if cfg.r == 0:
            downlinks = [reception for slot in frame.ledger
                         for reception in slot.receptions
                         if reception.direction == "dl" and len(slot.receptions) == 2]
            assert all(reception.interferer in ("none", "uav")
                       for reception in downlinks)


def test_matched_frame_equals_conditional(params, derived, candidates):
    for cfg in candidates.values():
        for k1, k2 in ((5, 2), (2, 5), (4, 4), (1, 0), (0, 3), (30, 1)):
            frame = run_frame(cfg, k1, k2, params, derived,
                              worst_case_distances=True, mean_shadowing=True)
            expected = conditional_throughput(k1 - k2, k2, cfg, params, derived)
            if frame.slot_count:
                assert_allclose(frame.throughput, expected, rtol=1e-12)
            else:
                assert expected == 0.0


def test_exhaustive_matches_analytical(params, derived, candidates):
    loads = LoadDistribution(7.0, 4.0)
    for cfg in candidates.values():
        analytical = average_throughput(cfg, loads, params, derived).total
        assert_allclose(simulate_exhaustive(cfg, loads, params, derived),
                        analytical, rtol=1e-9)


def test_model_matched_sampling_is_unbiased(params, derived, candidates):
    cfg = candidates["r1_Hl_Hh"]
    loads = LoadDistribution(10.0, 5.0)
    analytical = average_throughput(cfg, loads, params, derived).total
    result = simulate(cfg, loads, params, derived, 20_000, seed=8,
                      activation=ActivationModel.MODEL_MATCHED,
                      worst_case_distances=True, mean_shadowing=True)
    assert abs(result.mean - analytical) <= 3.0 * result.ci_half_width


def test_simulate_deterministic_and_seed_sensitive(params, derived, candidates):
    cfg = candidates["r0_Hl_Hl"]
    loads = LoadDistribution(5.0, 5.0)
    kwargs = dict(n_frames=50, activation=ActivationModel.TRUNCATED_POISSON)
    one = simulate(cfg, loads, params, derived, seed=11, **kwargs)
    two = simulate(cfg, loads, params, derived, seed=11, **kwargs)
    other = simulate(cfg, loads, params, derived, seed=12, **kwargs)
    assert one.mean == two.mean and one.ci_half_width == two.ci_half_width
    assert other.mean != one.mean


def test_exact_distances_dominate_bound(params, derived, candidates):
    # the bound comparison needs both sides to weight (K1, K2) identically,
    # hence the model-matched activation sampler
    for lam1, lam2 in ((10.0, 5.0), (20.0, 3.0)):
        loads = LoadDistribution(lam1, lam2)
        for cfg in candidates.values():
            analytical = average_throughput(cfg, loads, params, derived).total
            result = simulate(cfg, loads, params, derived, 200, seed=13,
                              mean_shadowing=True,
                              activation=ActivationModel.MODEL_MATCHED)
            assert result.mean >= analytical


def test_randomized_matching_keeps_matched_value(params, derived, candidates):
    # the matched value depends only on the counts, not on who pairs with whom
    cfg = candidates["r1_Hl_Hh"]
    loads = LoadDistribution(9.0, 2.0)
    plain = simulate(cfg, loads, params, derived, 60, seed=14,
                     worst_case_distances=True, mean_shadowing=True)
    shuffled = simulate(cfg, loads, params, derived, 60, seed=14,
                        worst_case_distances=True, mean_shadowing=True,
                        randomize_matching=True)
    assert plain.mean == shuffled.mean


def test_randomized_matching_mean_stays_close(params, derived, candidates):
    cfg = candidates["r1_Hl_Hh"]
    loads = LoadDistribution(9.0, 2.0)
    plain = simulate(cfg, loads, params, derived, 400, seed=15, mean_shadowing=True)
    shuffled = simulate(cfg, loads, params, derived, 400, seed=15,
                        mean_shadowing=True, randomize_matching=True)
    gap = abs(plain.mean - shuffled.mean)
    assert gap <= 3.0 * (plain.ci_half_width + shuffled.ci_half_width)


def test_fixed_layout_reuses_positions(params, derived, candidates):
    cfg = candidates["r0_Hl_Hl"]
    loads = LoadDistribution(30.0, 30.0)  # binomial at full rate: everyone active
    result_a = simulate(cfg, loads, params, derived, 3, seed=16,
                        activation=ActivationModel.BINOMIAL_PER_USER,
                        fixed_layout=True, mean_shadowing=True)
    # fixed layout + full activation + mean shadowing: every frame is
    # identical, so the confidence interval collapses
    assert result_a.ci_half_width == 0.0


def test_sampled_shadowing_changes_frames(params, derived, candidates):
    cfg = candidates["r0_Hl_Hl"]
    layout = sample_layout(4, 4, params, np.random.default_rng(17))
    one = run_frame(cfg, 4, 4, params, derived, frame_rng(18, 0), layout=layout)
    other = run_frame(cfg, 4, 4, params, derived, frame_rng(18, 1), layout=layout)
    assert one.throughput != other.throughput


def test_user_layout_lookup(params):
    layout = UserLayout(cell1=np.array([[1.0, 2.0]]), cell2=np.array([[3.0, 4.0]]))
    assert layout.position((1, 0)) == (1.0, 2.0)
    assert layout.position((2, 0)) == (3.0, 4.0)


def test_simulate_rejects_zero_frames(params, derived, candidates):
    with pytest.raises(ValueError):
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params, derived,
                 0, seed=1)
