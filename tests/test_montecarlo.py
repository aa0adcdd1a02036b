import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uav_twoway.errors import RateExceedsPopulationError
from uav_twoway.montecarlo import (BLOCK_FRAMES, ActivationModel, _positions,
                                   draw_activation, frame_rng, run_frame, simulate,
                                   simulate_exhaustive)
from uav_twoway.pairing import (CROSS_CELL, INDIVIDUAL, SAME_CELL, pair_counts,
                                schedule_frame)
from uav_twoway.sinr import Configuration, all_configurations
from uav_twoway.throughput import (LoadDistribution, average_throughput,
                                   conditional_throughput)


def test_layout_inside_discs(params):
    # two frames of (200, 200) users: cell 1 around the origin, cell 2 at d_sep
    sizes = np.array((200, 200, 200, 200))
    x, y = _positions(np.random.default_rng(0).random(1600), sizes, params)
    center = np.tile(np.repeat((0.0, params.d_sep), 200), 2)
    assert np.all(np.hypot(x - center, y) <= params.d_0)


def test_layout_reproducible(params):
    sizes = np.array((10, 10))
    one = _positions(np.random.default_rng(9).random(40), sizes, params)
    other = _positions(np.random.default_rng(9).random(40), sizes, params)
    assert np.array_equal(one, other)


def test_binomial_full_rate_always_everyone(params):
    loads = LoadDistribution(30.0, 30.0)
    rng = np.random.default_rng(1)
    assert np.all(draw_activation(loads, params, ActivationModel.BINOMIAL_PER_USER,
                                  rng, 20) == (30, 30))


def test_binomial_rejects_excess_rate(params):
    with pytest.raises(RateExceedsPopulationError):
        draw_activation(LoadDistribution(31.0, 5.0), params,
                        ActivationModel.BINOMIAL_PER_USER, np.random.default_rng(2), 1)


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
    draws = draw_activation(loads, params, ActivationModel.TRUNCATED_POISSON, rng,
                            20_000)[:, 0]
    assert abs(np.mean(draws) - expected) < 3.0 * math.sqrt(variance / len(draws))
    assert min(draws) >= 1 and max(draws) <= n


def test_activation_deterministic(params):
    loads = LoadDistribution(7.0, 3.0)
    for model in (ActivationModel.TRUNCATED_POISSON, ActivationModel.BINOMIAL_PER_USER):
        first = draw_activation(loads, params, model, np.random.default_rng(4), 50)
        second = draw_activation(loads, params, model, np.random.default_rng(4), 50)
        assert np.array_equal(first, second)


def test_truncated_poisson_redraws_only_out_of_range(params):
    # the first draw of every frame's pair stays where it lies in [1, N]
    n = params.n_users
    lambdas = (2.0, 29.0)  # often 0 in cell 1, often above N in cell 2
    first = np.random.default_rng(5).poisson(lambdas, size=(400, 2))
    kept = (first >= 1) & (first <= n)
    drawn = draw_activation(LoadDistribution(*lambdas), params,
                            ActivationModel.TRUNCATED_POISSON, np.random.default_rng(5), 400)
    assert not kept[:, 0].all() and not kept[:, 1].all()
    assert np.array_equal(drawn[kept], first[kept])
    assert drawn.min() >= 1 and drawn.max() <= n


def test_model_activation_splits_the_poisson_difference(params):
    # K1 - K2 is the Poisson difference; a difference with no admissible
    # split (|k| >= N) gives the empty frame (0, 0)
    n = params.n_users
    lambdas = (34.0, 2.0)
    pair = np.random.default_rng(6).poisson(lambdas, size=(500, 2))
    k = pair[:, 0] - pair[:, 1]
    drawn = draw_activation(LoadDistribution(*lambdas), params,
                            ActivationModel.MODEL_MATCHED, np.random.default_rng(6), 500)
    empty = np.all(drawn == 0, axis=1)
    assert np.array_equal(empty, np.abs(k) >= n) and empty.any() and not empty.all()
    assert np.array_equal(drawn[~empty, 0] - drawn[~empty, 1], k[~empty])
    assert drawn[~empty].min() >= 1 and drawn[~empty].max() <= n


def frame_columns(frame):
    return {field.name: getattr(frame, field.name) for field in dataclasses.fields(frame)}


def test_frame_ledger_bit_identical(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    one = frame_columns(run_frame(cfg, 6, 3, params, frame_rng(42, 0)))
    other = frame_columns(run_frame(cfg, 6, 3, params, frame_rng(42, 0)))
    assert all(np.array_equal(one[name], other[name]) for name in one)
    different = frame_columns(run_frame(cfg, 6, 3, params, frame_rng(43, 0)))
    assert not np.array_equal(different["signal"], one["signal"])


# (cfg label, K1, K2, frame index) -> throughput of frame_rng(2024, index),
# frozen per mode from the per-reception engine the columnar one replaced;
# they pin the layout and shadowing draw order
FROZEN_FRAMES = {
    "exact_sampled": {("r1_Hl_Hh", 9, 4, 0): 46.734043655864305,
                      ("r0_Hl_Hl", 7, 7, 1): 54.01902848921328,
                      ("r0_Hh_Hh", 5, 12, 2): 5.528192742571292,
                      ("r1_Hh_Hl", 3, 11, 3): 49.37835988089667},
    "exact_mean": {("r1_Hl_Hh", 9, 4, 0): 46.469579827471144,
                   ("r0_Hl_Hl", 7, 7, 1): 53.85423293641202,
                   ("r0_Hh_Hh", 5, 12, 2): 5.381073998821304,
                   ("r1_Hh_Hl", 3, 11, 3): 49.464802921917816},
    "worst_mean": {("r1_Hl_Hh", 9, 4, 0): 39.09911906721986,
                   ("r0_Hl_Hl", 7, 7, 1): 51.503802616666704,
                   ("r0_Hh_Hh", 5, 12, 2): 2.9946999363675264,
                   ("r1_Hh_Hl", 3, 11, 3): 41.3236553603676},
}
MODES = {"exact_sampled": {}, "exact_mean": {"mean_shadowing": True},
         "worst_mean": {"worst_case_distances": True, "mean_shadowing": True}}


def test_seeded_streams_match_frozen_values(params):
    configs = all_configurations()
    for mode, frozen in FROZEN_FRAMES.items():
        for (label, k1, k2, index), expected in frozen.items():
            frame = run_frame(configs[label], k1, k2, params,
                              frame_rng(2024, index), **MODES[mode])
            assert_allclose(frame.throughput, expected, rtol=1e-13)
    # one cell of the acceptance criterion 8 grid; it pins the per-block streams
    result = simulate(configs["r1_Hl_Hh"], LoadDistribution(10.0, 2.0), params,
                      300, seed=(31, 10, 2), mean_shadowing=True,
                      activation=ActivationModel.MODEL_MATCHED)
    assert_allclose(result.mean, 49.11424087818744, rtol=1e-13)


frames = st.tuples(st.sampled_from(list(all_configurations().values())),
                   st.integers(0, 30), st.integers(0, 30), st.integers(0, 2 ** 32 - 1),
                   st.sampled_from(list(MODES.values()) + [{"worst_case_distances": True}]))


def draw_frame(args, params):
    cfg, k1, k2, seed, mode = args
    return cfg, k1, k2, run_frame(cfg, k1, k2, params, frame_rng(seed, 0), **mode)


def row_kinds(frame, cfg, k1, k2):
    """Each row's service class, read from its frame's schedule."""
    return np.array(schedule_frame(cfg, k1, k2).kinds, dtype=str)[frame.slot // 2]


@given(frames)
def test_slot_accounting_matches_pairing(params, args):
    cfg, k1, k2, frame = draw_frame(args, params)
    expected = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)
    assert frame.slot_count == expected.slot_count
    assert np.array_equal(frame.slot, schedule_frame(cfg, k1, k2).rows[0])
    _, first_rows = np.unique(frame.slot, return_index=True)
    slot_kinds = row_kinds(frame, cfg, k1, k2)[first_rows].tolist()
    assert [slot_kinds.count(kind) for kind in (CROSS_CELL, SAME_CELL, INDIVIDUAL)] == [
        2 * expected.a_d, 2 * expected.a_s, 2 * expected.b]


@given(frames)
def test_each_user_served_once_each_direction(params, args):
    _, k1, k2, frame = draw_frame(args, params)
    served = zip(frame.user.tolist(), frame.downlink.tolist())
    assert sorted(served) == [(user, downlink) for user in range(k1 + k2)
                              for downlink in (False, True)]
    assert frame.cell.tolist() == [1] * k1 + [2] * k2


@given(frames)
def test_interference_bookkeeping(params, args):
    # a reception sees at most the one co-channel transmitter of its slot,
    # and with r = 1 a UAV receiver sees none
    cfg, _, _, frame = draw_frame(args, params)
    alone = np.bincount(frame.slot)[frame.slot] == 1
    assert not np.any(frame.hit[alone])
    assert np.all(frame.interference[alone] == 0.0)
    assert np.array_equal(frame.interference == 0.0, ~frame.hit)
    if cfg.r == 1:
        assert not np.any(frame.hit[~frame.downlink])


def matched_frame(cfg, k1, k2, params):
    return run_frame(cfg, k1, k2, params, worst_case_distances=True, mean_shadowing=True)


@given(frames)
def test_matched_frame_equals_conditional(params, args):
    cfg, k1, k2, _, _ = args
    frame = matched_frame(cfg, k1, k2, params)
    expected = conditional_throughput(k1 - k2, k2, cfg, params)
    if frame.slot_count:
        assert_allclose(frame.throughput, expected, rtol=1e-12)
    else:
        assert expected == 0.0


@given(frames)
def test_matched_frame_mirror(params, args):
    # swapping the cells and the UAVs' altitudes serves the mirrored system;
    # the rows come in another order, so the sums agree to rounding only
    cfg, k1, k2, _, _ = args
    mirrored = Configuration(cfg.r, cfg.t2, cfg.t1)
    assert_allclose(matched_frame(mirrored, k2, k1, params).throughput,
                    matched_frame(cfg, k1, k2, params).throughput, rtol=1e-14)


@given(frames)
def test_exact_receptions_dominate_worst_case(params, args):
    # row by row against the worst-case frame of the same (cfg, K1, K2); a
    # same-cell ground interferer may stand closer than d_min (see README)
    cfg, k1, k2, seed, _ = args
    exact = run_frame(cfg, k1, k2, params, frame_rng(seed, 0), mean_shadowing=True)
    worst = matched_frame(cfg, k1, k2, params)
    assert np.array_equal(exact.slot, worst.slot) and np.array_equal(exact.user, worst.user)
    ground = exact.hit & ((cfg.r == 1) | ~exact.downlink)  # a ground user interferes
    exempt = (row_kinds(exact, cfg, k1, k2) == SAME_CELL) & ground
    assert np.all((exact.rate >= worst.rate) | exempt)


@pytest.mark.parametrize("mode,named", [
    ({}, "exact distances with sampled shadowing"),
    ({"mean_shadowing": True}, "exact distances with mean shadowing"),
    ({"worst_case_distances": True}, "worst-case distances with sampled shadowing"),
])
def test_run_frame_without_stream_names_rng_and_mode(params, candidates, mode, named):
    with pytest.raises(ValueError, match=f"rng is required for {named}"):
        run_frame(candidates["r0_Hl_Hl"], 3, 2, params, **mode)


def test_exhaustive_matches_analytical(params, candidates):
    loads = LoadDistribution(7.0, 4.0)
    for cfg in candidates.values():
        analytical = average_throughput(cfg, loads, params).total
        assert_allclose(simulate_exhaustive(cfg, loads, params),
                        analytical, rtol=1e-9)


def test_model_matched_sampling_is_unbiased(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    loads = LoadDistribution(10.0, 5.0)
    analytical = average_throughput(cfg, loads, params).total
    result = simulate(cfg, loads, params, 20_000, seed=8,
                      activation=ActivationModel.MODEL_MATCHED,
                      worst_case_distances=True, mean_shadowing=True)
    assert abs(result.mean - analytical) <= 3.0 * result.ci_half_width


def test_simulate_deterministic_and_seed_sensitive(params, candidates):
    cfg = candidates["r0_Hl_Hl"]
    loads = LoadDistribution(5.0, 5.0)
    kwargs = dict(n_frames=50, activation=ActivationModel.TRUNCATED_POISSON)
    one = simulate(cfg, loads, params, seed=11, **kwargs)
    two = simulate(cfg, loads, params, seed=11, **kwargs)
    other = simulate(cfg, loads, params, seed=12, **kwargs)
    assert one.mean == two.mean and one.ci_half_width == two.ci_half_width
    assert other.mean != one.mean


def test_exact_distances_dominate_bound(params, candidates):
    # the bound comparison needs both sides to weight (K1, K2) identically,
    # hence the model-matched activation sampler
    for lam1, lam2 in ((10.0, 5.0), (20.0, 3.0)):
        loads = LoadDistribution(lam1, lam2)
        for cfg in candidates.values():
            analytical = average_throughput(cfg, loads, params).total
            result = simulate(cfg, loads, params, 200, seed=13,
                              mean_shadowing=True,
                              activation=ActivationModel.MODEL_MATCHED)
            assert result.mean >= analytical


def test_sampled_shadowing_changes_frames(params, candidates):
    # the same stream places the same users; only the shadowing differs
    cfg = candidates["r0_Hl_Hl"]
    sampled = run_frame(cfg, 4, 4, params, frame_rng(18, 0))
    mean = run_frame(cfg, 4, 4, params, frame_rng(18, 0), mean_shadowing=True)
    assert sampled.throughput != mean.throughput


class Replay:
    """A stand-in stream for run_frame: its ``random`` and
    ``standard_normal`` calls hand out, in turn, the next slices of the
    uniforms and the deviates that a block drew in one call each."""

    def __init__(self, uniforms, deviates):
        self.draws = {"random": uniforms, "standard_normal": deviates}
        self.used = {"random": 0, "standard_normal": 0}

    def take(self, kind, count):
        start = self.used[kind]
        self.used[kind] += count
        assert self.used[kind] <= self.draws[kind].size
        return self.draws[kind][start:start + count]

    def random(self, count):
        return self.take("random", count)

    def standard_normal(self, count):
        return self.take("standard_normal", count)


def frame_by_frame(cfg, loads, params, n_frames, seed, activation, mode):
    """Per-frame throughputs of a plain run_frame loop, the reference the
    block engine must match bit for bit. Block b draws from frame_rng(seed,
    b) its counts, then the uniforms of all its users, then its deviates;
    each frame's run_frame replays its slice of the two."""
    values = []
    for block, start in enumerate(range(0, n_frames, BLOCK_FRAMES)):
        rng = frame_rng(seed, block)
        keys = draw_activation(loads, params, activation, rng,
                               min(BLOCK_FRAMES, n_frames - start))
        users = int(keys.sum())
        uniforms = rng.random(0 if mode.get("worst_case_distances") else 2 * users)
        # a user has two receptions and a reception at most two deviates; a
        # generator's draws in several calls equal its draws in one, so the
        # block's deviates lead this draw
        replay = Replay(uniforms, rng.standard_normal(4 * users))
        values += [run_frame(cfg, k1, k2, params, replay, **mode).throughput
                   for k1, k2 in keys.tolist()]
        assert replay.used["random"] == uniforms.size
    return np.array(values)


@pytest.mark.parametrize("mode", [{}, {"mean_shadowing": True}, {"worst_case_distances": True},
                                  {"worst_case_distances": True, "mean_shadowing": True}],
                         ids=["exact_sampled", "exact_mean", "worst_sampled", "worst_mean"])
@pytest.mark.parametrize("activation,lambdas", [
    (ActivationModel.TRUNCATED_POISSON, (6.0, 4.0)),
    (ActivationModel.BINOMIAL_PER_USER, (0.05, 0.3)),  # mostly empty frames
    (ActivationModel.MODEL_MATCHED, (34.0, 2.0)),      # often |k| > N: no split
], ids=["poisson", "binomial", "model"])
def test_block_engine_matches_frame_loop(params, candidates, mode, activation, lambdas):
    # two full blocks and a partial one
    n_frames = 2 * BLOCK_FRAMES + 3
    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        values = frame_by_frame(cfg, loads, params, n_frames, (3, 7), activation, mode)
        result = simulate(cfg, loads, params, n_frames, seed=(3, 7),
                          activation=activation, **mode)
        assert result.mean == float(values.mean())
        assert result.ci_half_width == 1.96 * float(values.std(ddof=1)) / math.sqrt(n_frames)
        if activation is not ActivationModel.TRUNCATED_POISSON:
            assert 0.0 in values and values.max() > 0.0


def test_simulate_rejects_zero_frames(params, candidates):
    with pytest.raises(ValueError):
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params,
                 0, seed=1)
