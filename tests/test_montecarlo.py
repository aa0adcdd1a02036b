import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uav_twoway import channel, default_config, montecarlo, validate_and_derive
from uav_twoway.errors import RateExceedsPopulationError
from uav_twoway.montecarlo import (BLOCK_FRAMES, FILL_FRAMES, ActivationModel, MatchedGrid,
                                   _Activation, _mean_and_std, _model_pmf,
                                   _positions, _receptions, frame_rng, frame_rngs, run_frame,
                                   simulate, simulate_exhaustive)
from uav_twoway.pairing import CROSS_CELL, INDIVIDUAL, SAME_CELL, pair_counts, schedule_block
from uav_twoway.rates import rate_set
from uav_twoway.sinr import Configuration, all_configurations
from uav_twoway.throughput import LoadDistribution, average_throughput, conditional_table

from test_throughput import frame_throughput


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
    law = _Activation(loads, params, ActivationModel.BINOMIAL_PER_USER)
    assert np.all(law.counts([(rng, 20)]) == (30, 30))


def test_binomial_rejects_excess_rate(params):
    with pytest.raises(RateExceedsPopulationError):
        _Activation(LoadDistribution(31.0, 5.0), params, ActivationModel.BINOMIAL_PER_USER)


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
    draws = _Activation(loads, params, ActivationModel.TRUNCATED_POISSON).counts(
        [(rng, 20_000)])[:, 0]
    assert abs(np.mean(draws) - expected) < 3.0 * math.sqrt(variance / len(draws))
    assert min(draws) >= 1 and max(draws) <= n


def test_activation_deterministic(params):
    loads = LoadDistribution(7.0, 3.0)
    for model in ActivationModel:
        first = _Activation(loads, params, model).counts([(np.random.default_rng(4), 50)])
        second = _Activation(loads, params, model).counts([(np.random.default_rng(4), 50)])
        assert np.array_equal(first, second)


@given(st.sampled_from([(ActivationModel.TRUNCATED_POISSON, (6.0, 4.0)),
                        (ActivationModel.TRUNCATED_POISSON, (2.0, 29.0)),  # many redraws
                        (ActivationModel.BINOMIAL_PER_USER, (0.05, 0.3)),
                        (ActivationModel.MODEL_MATCHED, (6.0, 4.0)),
                        (ActivationModel.MODEL_MATCHED, (34.0, 2.0))]),  # empty frames
       st.lists(st.integers(1, 64), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_activation_over_streams_concatenates_one_stream_calls(params, case, sizes, seed):
    # one call over several streams, as simulate's matched mode makes per
    # chunk, gives each stream's rows and leaves each stream where a call
    # of its own would, bit for bit
    model, lambdas = case
    loads = LoadDistribution(*lambdas)
    joint = [frame_rng(seed, b) for b in range(len(sizes))]
    alone = [frame_rng(seed, b) for b in range(len(sizes))]
    law = _Activation(loads, params, model)
    rows = law.counts(zip(joint, sizes))
    one_by_one = [law.counts([stream]) for stream in zip(alone, sizes)]
    assert np.array_equal(rows, np.concatenate(one_by_one))
    assert [rng.bit_generator.state for rng in joint] == [rng.bit_generator.state for rng in alone]


def test_truncated_poisson_redraws_only_out_of_range(params):
    # the first draw of every frame's pair stays where it lies in [1, N]
    n = params.n_users
    lambdas = (2.0, 29.0)  # often 0 in cell 1, often above N in cell 2
    first = np.random.default_rng(5).poisson(lambdas, size=(400, 2))
    kept = (first >= 1) & (first <= n)
    drawn = _Activation(LoadDistribution(*lambdas), params, ActivationModel.TRUNCATED_POISSON
                        ).counts([(np.random.default_rng(5), 400)])
    assert not kept[:, 0].all() and not kept[:, 1].all()
    assert np.array_equal(drawn[kept], first[kept])
    assert drawn.min() >= 1 and drawn.max() <= n


@pytest.mark.parametrize("lambdas", [(6.0, 4.0), (34.0, 2.0), (1.0, 18.0)],
                         ids=["lambda_6_4", "lambda_34_2", "lambda_1_18"])
def test_model_activation_inverts_the_joint_cdf(params, lambdas):
    # cell i = K1 (N + 1) + K2 takes the uniforms of its step [cdf[i - 1],
    # cdf[i]) of the row-major cumulative pmf; uniforms from the top of the
    # cdf up go to the last cell whose step is not empty
    n = params.n_users
    loads = LoadDistribution(*lambdas)
    pmf = _model_pmf(loads, params).ravel()
    cdf = np.cumsum(pmf)
    lower = np.concatenate(([0.0], cdf[:-1]))
    steps = cdf[np.flatnonzero(pmf)][:-1]
    chosen = steps[::max(1, steps.size // 16)]
    uniforms = np.concatenate(([0.0, 1.0 - 2.0 ** -53], chosen, np.nextafter(chosen, 0.0),
                               np.linspace(0.0, 1.0, 4001)[:-1]))
    stream = Replay(uniforms, np.empty(0))  # hands out the chosen uniforms
    drawn = _Activation(loads, params, ActivationModel.MODEL_MATCHED).counts(
        [(stream, uniforms.size)])
    assert stream.used == {"random": uniforms.size, "standard_normal": 0}
    cell = drawn[:, 0] * (n + 1) + drawn[:, 1]
    inside = uniforms < cdf[-1]
    assert np.all((lower[cell] <= uniforms) & (uniforms < cdf[cell]) | ~inside)
    assert np.all(cell[~inside] == np.flatnonzero(cdf > lower)[-1])
    assert np.all(pmf[cell] > 0.0)
    empty = np.all(drawn == 0, axis=1)
    assert empty[0] and not empty.all()  # u = 0 draws the empty frame
    assert drawn[~empty].min() >= 1 and drawn[~empty].max() <= n
    assert np.all(np.abs(drawn[:, 0] - drawn[:, 1]) < n)  # |k| >= N only as (0, 0)


@pytest.mark.parametrize("n", [1, 30, 200])
def test_sorted_inversion_matches_plain_search(params, n):
    # the inversion gives each uniform the cell of a plain search: random
    # keys, keys equal to the cdf's steps and just below them, and keys
    # from the top up
    system = dataclasses.replace(params, n_users=n)
    law = _Activation(LoadDistribution(6.0, 4.0), system, ActivationModel.MODEL_MATCHED)
    cdf = law.cdf
    uniforms = np.concatenate((np.random.default_rng(n).random(5000), cdf, cdf[::-1],
                               np.nextafter(cdf, 0.0), [cdf[-1], 1.0 - 2.0 ** -53, 0.0]))
    assert (uniforms >= cdf[-1]).sum() > 2  # the last steps repeat the top
    cells = law.cells([(Replay(uniforms, np.empty(0)), uniforms.size)])
    plain = np.minimum(np.searchsorted(cdf, uniforms, side="right"),
                       np.searchsorted(cdf, cdf[-1]))
    assert cells.dtype == plain.dtype and np.array_equal(cells, plain)


loads_axis = st.floats(0.001, 1000.0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 30, 200]),
       st.one_of(st.sampled_from([(1000.0, 4.0), (0.1, 0.1), (29.0, 0.5), (6.0, 4.0)]),
                 st.tuples(loads_axis, loads_axis)),
       st.integers(0, 2 ** 32 - 1))
@example(200, (1000.0, 4.0), 0)
@example(2, (0.1, 0.1), 1)
@example(30, (29.0, 0.5), 2)
def test_guide_inversion_keeps_the_bits_of_a_plain_search(params, n, lambdas, seed):
    # the guide table maps each uniform to the cell of a plain search capped
    # at top, so no cell after top, where the float cdf stops rising, is
    # ever drawn: for drawn uniforms, through cells' one-buffer fill, and
    # for the edges, 0, the largest double below 1, each cdf entry (the last
    # may round above 1) and its neighbours, and every bucket's first uniform;
    # the table, built by counting, is the search of each bucket's first
    law = _Activation(LoadDistribution(*lambdas), dataclasses.replace(params, n_users=n),
                      ActivationModel.MODEL_MATCHED)
    cdf, top, buckets = law.cdf, law.top, law.buckets
    assert buckets >= cdf.size and buckets & (buckets - 1) == 0

    def plain(uniforms):
        return np.minimum(np.searchsorted(cdf, uniforms, side="right"), top)

    searched = plain(np.arange(buckets + 1) / buckets)
    assert law.guide.dtype == searched.dtype and np.array_equal(law.guide, searched)

    sizes = (64, 64, 17)
    cells = law.cells(zip(frame_rngs(seed, range(3)), sizes))
    drawn = np.concatenate([rng.random(size) for rng, size in
                            zip(frame_rngs(seed, range(3)), sizes)])
    assert cells.dtype == np.intp and np.array_equal(cells, plain(drawn))
    edges = np.concatenate(([0.0, 1.0 - 2.0 ** -53], cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 2.0), np.arange(buckets) / buckets))
    inverted = law.invert(edges)
    assert np.array_equal(inverted, plain(edges)) and inverted.max() <= top


@pytest.mark.parametrize("n", [1, 30, 200])
def test_model_pmf_is_skellam_times_split_weights(params, n):
    # cell (K1, K2) is P(lambda)[K1 - K2] times the parameter set's split
    # weight of that cell, bit for bit (the empty frame, (0, 0), holds the
    # rest of the mass: see the next test)
    system = dataclasses.replace(params, n_users=n)
    loads = LoadDistribution(6.0, 4.0)
    skellam, weights = loads.skellam_vector(n), system.split_weights
    pmf = _model_pmf(loads, system).ravel().tolist()
    cells = range(1, (n + 1) ** 2)
    assert [pmf[cell] for cell in cells] == [
        skellam[cell // (n + 1) - cell % (n + 1)] * weights[cell] for cell in cells]


def test_model_pmf_expectation_is_the_closed_form(params):
    # the exact expectation of the sampled law, sum of pmf * c over [0, N]^2,
    # is the closed form: why matched sampling with model activation is
    # unbiased
    n = params.n_users
    big_k1, big_k2 = np.divmod(np.arange((n + 1) ** 2), n + 1)
    laws = {}
    for lambdas in ((6.0, 4.0), (34.0, 2.0), (1.0, 18.0)):
        loads = LoadDistribution(*lambdas)
        pmf = _model_pmf(loads, params)
        assert abs(math.fsum(pmf.flat) - 1.0) <= 1e-15
        # the empty frame holds the Skellam mass of every |k| >= N; a cell
        # with a zero count and the other not holds none
        skellam = loads.skellam_vector(n)
        assert abs(pmf[0, 0] - (1.0 - math.fsum(skellam[k] for k in range(1 - n, n)))) <= 1e-15
        assert not pmf[0, 1:].any() and not pmf[1:, 0].any()
        laws[loads] = pmf.ravel()
    for cfg in all_configurations().values():
        rates = rate_set(cfg, params)
        values = [frame_throughput(a - b, b, cfg, rates)
                  for a, b in zip(big_k1.tolist(), big_k2.tolist())]
        for loads, pmf in laws.items():
            expected = average_throughput(conditional_table(cfg, params), loads).total
            assert_allclose(math.fsum(pmf * values), expected, rtol=1e-12)


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
    assert_allclose(result.mean, 49.05909149132052, rtol=1e-13)


# (cfg label, lambda1, lambda2, seed, mode) -> mean of a 1,000-frame
# Poisson row, frozen from the engine before its per-level rework. The
# first six are the rows of the benchmark's physical compare at --seed 1;
# each row runs in three or four engine passes
FROZEN_ROWS = {
    ("r1_Hl_Hh", 6.0, 4.0, (1, 0, 0), "exact_sampled"): 46.10925991290436,
    ("r1_Hh_Hl", 6.0, 4.0, (1, 0, 1), "exact_sampled"): 40.794473696827396,
    ("r0_Hl_Hl", 6.0, 4.0, (1, 0, 2), "exact_sampled"): 42.031995548817505,
    ("r1_Hl_Hh", 12.0, 4.0, (1, 1, 0), "exact_sampled"): 48.06995953235416,
    ("r1_Hh_Hl", 12.0, 4.0, (1, 1, 1), "exact_sampled"): 33.422315222704555,
    ("r0_Hl_Hl", 12.0, 4.0, (1, 1, 2), "exact_sampled"): 36.23834151811126,
    ("r0_Hh_Hl", 12.0, 4.0, (1, 1, 0), "exact_mean"): 25.312793776088395,
    ("r1_Hh_Hh", 12.0, 4.0, (1, 1, 0), "worst_sampled"): 36.40108193368717,
}


def test_physical_rows_match_frozen_means(params, monkeypatch):
    configs, receptions, passes = all_configurations(), montecarlo._receptions, []

    def spy(*args):
        passes.append(1)
        return receptions(*args)

    monkeypatch.setattr(montecarlo, "_receptions", spy)
    modes = {**MODES, "worst_sampled": {"worst_case_distances": True}}
    for (label, lambda1, lambda2, seed, mode), expected in FROZEN_ROWS.items():
        passes.clear()
        result = simulate(configs[label], LoadDistribution(lambda1, lambda2), params, 1000,
                          seed=seed, **modes[mode])
        assert_allclose(result.mean, expected, rtol=1e-13)
        assert len(passes) >= 3


MATCHED_ROW_FRAMES = (1, 63, 64, 65, 4095, 4096, 4097, 20_000)
# (cfg label, lambda1, lambda2, seed) -> (mean, ci_half_width) of a
# model-activation matched row of each of MATCHED_ROW_FRAMES frames: the
# benchmark's matched compare rows at --seed 1, across block and chunk ends
FROZEN_MATCHED_ROWS = {
    ("r1_Hl_Hh", 6.0, 4.0, (1, 0, 0)): [
        (40.40766982789502, 0.0), (40.36136673364234, 0.31169483749967963),
        (40.37640249343493, 0.3081981596954284), (40.37500458466771, 0.30343197473873557),
        (40.38990343015586, 0.038635538297128055), (40.3901313969357, 0.03862868886304925),
        (40.3903592524308, 0.03862184133909963), (40.35693818220278, 0.017942240112125765)],
    ("r1_Hh_Hl", 6.0, 4.0, (1, 0, 1)): [
        (33.28510030471785, 0.0), (38.67428768290139, 0.620345749029894),
        (38.67501279216358, 0.6105775681095099), (38.67821843718374, 0.6011435115869708),
        (38.3510161555745, 0.07799070822138963), (38.35148845105009, 0.0779771600685882),
        (38.35197635250995, 0.07796399000802733), (38.36305034666098, 0.03570060918310651)],
    ("r0_Hl_Hl", 6.0, 4.0, (1, 0, 2)): [
        (48.928612485833405, 0.0), (47.102200716393185, 0.6633660941840677),
        (47.1039135030945, 0.6529273614360376), (47.17160410484177, 0.6563528470696997),
        (46.97169154920243, 0.09780381336309846), (46.97175017408429, 0.09778000007785481),
        (46.971202269839424, 0.09776202932292082), (46.99716692058599, 0.04426402185590851)],
    ("r1_Hl_Hh", 12.0, 4.0, (1, 1, 0)): [
        (40.21138721379374, 0.0), (40.69752905365953, 0.13192329686246168),
        (40.70731227720185, 0.13125385338299994), (40.71679447848132, 0.13054846344670193),
        (40.80324608061834, 0.016993337653376656), (40.80337313366515, 0.016991013355377543),
        (40.80326257657422, 0.016988247717163316), (40.789687907373285, 0.00792841852666082)],
    ("r1_Hh_Hl", 12.0, 4.0, (1, 1, 1)): [
        (32.95699601673216, 0.0), (33.1243452523619, 0.9582943957299599),
        (33.171116951403036, 0.9476466889159866), (33.179741101330656, 0.9331067177573655),
        (33.24418145298457, 0.1010435110065748), (33.24355425532321, 0.10102631866840842),
        (33.243257407128304, 0.10100333283711586), (33.31286711633923, 0.04595721250545939)],
    ("r0_Hl_Hl", 12.0, 4.0, (1, 1, 2)): [
        (37.76945525222227, 0.0), (41.07608067690095, 0.9689123220212366),
        (41.14959750822253, 0.9644774003901639), (41.282480764959274, 0.984596071364346),
        (40.97952573085981, 0.133022277204697), (40.981256856358996, 0.13303307341256637),
        (40.982568100073586, 0.13302542734855893), (40.96347572722769, 0.06041735097156396)],
}


def test_model_activation_rows_keep_their_frozen_bits(params):
    # every stream, uniform and cell of a model-activation row, matched or
    # physical (they share _Activation.cells), keeps its bits: the row's
    # mean and CI half-width are compared with ==
    configs = all_configurations()
    for (label, lambda1, lambda2, seed), frozen in FROZEN_MATCHED_ROWS.items():
        for n_frames, expected in zip(MATCHED_ROW_FRAMES, frozen):
            result = simulate(configs[label], LoadDistribution(lambda1, lambda2), params,
                              n_frames, seed, activation=ActivationModel.MODEL_MATCHED,
                              **MATCHED)
            assert (result.mean, result.ci_half_width) == expected, (label, n_frames)
    physical = simulate(configs["r0_Hl_Hl"], LoadDistribution(6.0, 4.0), params, 4097,
                        (1, 0, 2), activation=ActivationModel.MODEL_MATCHED)
    assert (physical.mean, physical.ci_half_width) == (48.43685435464679, 0.1009798457030166)


seed_words = st.integers(0, 2 ** 80 - 1)


@given(st.one_of(seed_words, st.lists(seed_words, min_size=1, max_size=5).map(tuple)),
       st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=70))
@example(0, [0])
@example((0, 0, 0, 0, 0), [0, 2 ** 32 - 1])
def test_frame_rngs_match_numpy_seed_sequence_streams(seed, indices):
    # frame_rngs restates numpy's SeedSequence hash over an array of spawn
    # indices; numpy's own SeedSequence is the oracle, bit for bit
    streams = frame_rngs(seed, indices)
    assert len(streams) == len(indices)
    for index, rng in zip(indices, streams):
        oracle = np.random.default_rng(
            np.random.SeedSequence(montecarlo._entropy(seed), spawn_key=(index,)))
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(rng.random(3), oracle.random(3))
    alone, batched = frame_rng(seed, indices[-1]), frame_rngs(seed, [indices[-1]])[0]
    assert alone.bit_generator.state == batched.bit_generator.state


def test_frame_rngs_reject_bad_stream_input(params, candidates):
    with pytest.raises(ValueError):  # a negative seed word, as numpy refuses it
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params,
                 10, seed=(-1, 0, 0))
    with pytest.raises(ValueError, match=str(2 ** 32)):  # numpy would split it in two words
        frame_rngs(1, [2 ** 32])
    with pytest.raises(TypeError):  # not truncated to an integer index
        frame_rngs(1, [2.5])
    assert frame_rngs(1, []) == []


frames = st.tuples(st.sampled_from(list(all_configurations().values())),
                   st.integers(0, 30), st.integers(0, 30), st.integers(0, 2 ** 32 - 1),
                   st.sampled_from(list(MODES.values()) + [{"worst_case_distances": True}]))


def draw_frame(args, params):
    cfg, k1, k2, seed, mode = args
    return cfg, k1, k2, run_frame(cfg, k1, k2, params, frame_rng(seed, 0), **mode)


def row_kinds(frame, cfg, k1, k2):
    """Each row's service class, read from its frame's schedule."""
    return schedule_block(cfg, [k1], [k2]).kinds[frame.slot // 2]


@given(frames)
def test_slot_accounting_matches_pairing(params, args):
    cfg, k1, k2, frame = draw_frame(args, params)
    expected = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)
    assert frame.slot_count == 2 * (expected.a_d + expected.a_s + expected.b)
    assert np.array_equal(frame.slot, schedule_block(cfg, [k1], [k2]).rows[0])
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
    expected = frame_throughput(k1 - k2, k2, cfg, rate_set(cfg, params))
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
        analytical = average_throughput(conditional_table(cfg, params), loads).total
        assert_allclose(simulate_exhaustive(cfg, loads, params),
                        analytical, rtol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 30, 200])
def test_exhaustive_is_the_closed_form_at_any_population(params, n):
    # the model pmf times the grid, every configuration, against the closed
    # form; (6, 4) puts mass beyond N = 1 and 2 on the empty frame
    system = dataclasses.replace(params, n_users=n)
    for cfg in all_configurations().values():
        table = conditional_table(cfg, system)
        for lambdas in ((6.0, 4.0), (1.0, 18.0)):
            loads = LoadDistribution(*lambdas)
            assert_allclose(simulate_exhaustive(cfg, loads, system),
                            average_throughput(table, loads).total, rtol=1e-9)


def test_matched_values_match_conditional_per_key(params):
    # every (K1, K2) in [0, 30]^2 of a grid against the closed form's
    # conditional throughput of that frame
    n = params.n_users
    k1, k2 = np.divmod(np.arange((n + 1) ** 2), n + 1)
    for cfg in all_configurations().values():
        values = MatchedGrid(cfg, params).values
        rates = rate_set(cfg, params)
        expected = [frame_throughput(a - b, b, cfg, rates)
                    for a, b in zip(k1.tolist(), k2.tolist())]
        assert_allclose(values, expected, rtol=1e-12)
        assert values[0] == expected[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.floats(150.0, 1000.0), st.floats(0.1, 1.4), st.floats(1.5, 5.0),
       st.floats(-10.0, 50.0), st.floats(-10.0, 50.0))
@example(30, 300.0, math.pi / 3, 2.0, 35.0, 35.0)  # the default parameter set
def test_grid_equals_one_engine_pass_over_every_cell(n_users, d_sep_m, phi_b_rad, n_los,
                                                     p_u_dbm, p_g_dbm):
    # a grid built from the five unit frames holds, bit for bit, what the
    # engine computes for every (K1, K2) of [0, N]^2, both axes included
    params = validate_and_derive({**default_config(), "n_users": n_users, "d_sep_m": d_sep_m,
                                  "phi_b_rad": phi_b_rad, "n_los": n_los, "p_u_dbm": p_u_dbm,
                                  "p_g_dbm": p_g_dbm})
    n = params.n_users
    counts = np.column_stack(np.divmod(np.arange((n + 1) ** 2), n + 1))
    for cfg in all_configurations().values():
        expected = _receptions(cfg, counts, [(None, len(counts))], params, True, True)
        assert np.array_equal(MatchedGrid(cfg, params).values, expected.throughput)


def spy_on(monkeypatch, name):
    """The arguments of every call of montecarlo's ``name``, which still runs."""
    calls, real = [], getattr(montecarlo, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, name, spy)
    return calls


MATCHED = dict(worst_case_distances=True, mean_shadowing=True)


def test_matched_row_fills_its_grid_once(params, candidates, monkeypatch):
    # a grid makes one engine pass, over its five one-unit frames, and a
    # 20,000-frame row of five chunks reads the grid without any
    assert -(-20_000 // FILL_FRAMES) == 5
    passes = spy_on(monkeypatch, "_receptions")
    for cfg in candidates.values():
        passes.clear()
        grid = MatchedGrid(cfg, params)
        assert len(passes) == 1
        assert passes[0][1].tolist() == [[1, 1], [2, 0], [1, 0], [0, 2], [0, 1]]
        assert passes[0][2:] == ([(None, 5)], params, True, True)
        passes.clear()
        simulate(cfg, LoadDistribution(6.0, 4.0), params, 20_000, seed=3,
                 activation=ActivationModel.MODEL_MATCHED, grid=grid, **MATCHED)
        assert passes == []


@pytest.mark.parametrize("mode", ["worst_mean", "exact_sampled"])
def test_model_pmf_built_once_per_row(params, candidates, monkeypatch, mode):
    builds = spy_on(monkeypatch, "_model_pmf")
    simulate(candidates["r0_Hl_Hl"], LoadDistribution(6.0, 4.0), params, 2 * FILL_FRAMES + 1,
             seed=2, activation=ActivationModel.MODEL_MATCHED, **MODES[mode])
    assert len(builds) == 1


def test_rows_sharing_a_grid_match_fresh_grids(params, candidates):
    # a cell's value does not depend on the pass that computed it, so rows
    # of other loads, seeds and activations that share a grid keep their bits
    rows = [((6.0, 4.0), 1, ActivationModel.MODEL_MATCHED, 9000),
            ((12.0, 4.0), 2, ActivationModel.MODEL_MATCHED, 5000),
            ((3.0, 9.0), 3, ActivationModel.TRUNCATED_POISSON, 3000),
            ((0.5, 0.2), 4, ActivationModel.BINOMIAL_PER_USER, 3000),
            ((6.0, 4.0), 5, ActivationModel.MODEL_MATCHED, 1)]
    for cfg in candidates.values():
        grid = MatchedGrid(cfg, params)
        for lambdas, seed, activation, n_frames in rows:
            loads = LoadDistribution(*lambdas)
            shared = simulate(cfg, loads, params, n_frames, seed, activation=activation,
                              grid=grid, **MATCHED)
            fresh = simulate(cfg, loads, params, n_frames, seed, activation=activation,
                             **MATCHED)
            assert shared == fresh


def test_grid_of_another_configuration_or_params_is_refused(params, candidates, monkeypatch):
    cfg, other = candidates["r1_Hl_Hh"], candidates["r0_Hl_Hl"]
    loads = LoadDistribution(6.0, 4.0)
    grids = (MatchedGrid(other, params),
             MatchedGrid(cfg, dataclasses.replace(params, n_users=29)),
             MatchedGrid(cfg, dataclasses.replace(params, p_u=2.0 * params.p_u)))
    # refused before any stream is derived or any frame computed
    spies = [spy_on(monkeypatch, name) for name in ("frame_rngs", "_receptions")]
    for grid in grids:
        with pytest.raises(ValueError, match="matched grid of"):
            simulate(cfg, loads, params, 10, seed=1, activation=ActivationModel.MODEL_MATCHED,
                     grid=grid, **MATCHED)
    assert spies == [[], []]


def test_model_matched_sampling_is_unbiased(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    loads = LoadDistribution(10.0, 5.0)
    analytical = average_throughput(conditional_table(cfg, params), loads).total
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
            analytical = average_throughput(conditional_table(cfg, params), loads).total
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
    """A stand-in stream for run_frame or an activation law: its ``random``
    and ``standard_normal`` calls hand out, in turn, the next slices of
    the uniforms and the deviates given to it."""

    def __init__(self, uniforms, deviates):
        self.draws = {"random": uniforms, "standard_normal": deviates}
        self.used = {"random": 0, "standard_normal": 0}

    def take(self, kind, count):
        start = self.used[kind]
        self.used[kind] += count
        assert self.used[kind] <= self.draws[kind].size
        return self.draws[kind][start:start + count]

    def random(self, count=None, out=None):
        if out is None:
            return self.take("random", count)
        out[...] = self.take("random", out.size)  # as a Generator fills ``out``
        return out

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
        keys = _Activation(loads, params, activation).counts(
            [(rng, min(BLOCK_FRAMES, n_frames - start))])
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


MODES = {"exact_sampled": {}, "exact_mean": {"mean_shadowing": True},
         "worst_sampled": {"worst_case_distances": True},
         "worst_mean": {"worst_case_distances": True, "mean_shadowing": True}}
ACTIVATIONS = {
    "poisson": (ActivationModel.TRUNCATED_POISSON, (6.0, 4.0)),
    "binomial": (ActivationModel.BINOMIAL_PER_USER, (0.05, 0.3)),  # mostly empty frames
    "model": (ActivationModel.MODEL_MATCHED, (34.0, 2.0)),         # often |k| > N: no split
}


@pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
@pytest.mark.parametrize("activation,lambdas", ACTIVATIONS.values(), ids=ACTIVATIONS)
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


@pytest.mark.parametrize("activation,lambdas,mode", [
    *(pytest.param(*ACTIVATIONS[name], MODES["worst_mean"], id=name) for name in ACTIVATIONS),
    *(pytest.param(*ACTIVATIONS[name], MODES[mode], id=f"{name}-{mode}")
      for name in ACTIVATIONS for mode in MODES if mode != "worst_mean"),
])
def test_matched_fill_chunks_match_frame_loop(params, candidates, monkeypatch, activation,
                                              lambdas, mode):
    # simulate draws FILL_FRAMES frames' counts in one call, then runs their
    # blocks, FILL_USERS users per engine pass (physical modes), or reads
    # their values from the grid (matched mode, the ids without a mode);
    # shrunk here, a run crosses a chunk boundary into a partial chunk
    monkeypatch.setattr(montecarlo, "FILL_FRAMES", 2 * BLOCK_FRAMES)
    monkeypatch.setattr(montecarlo, "FILL_USERS", 40)
    n_frames = 2 * BLOCK_FRAMES + 3
    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        values = frame_by_frame(cfg, loads, params, n_frames, (3, 7), activation, mode)
        result = simulate(cfg, loads, params, n_frames, seed=(3, 7),
                          activation=activation, **mode)
        assert result.mean == float(values.mean())
        assert result.ci_half_width == 1.96 * float(values.std(ddof=1)) / math.sqrt(n_frames)


PHYSICAL = [mode for mode in MODES if mode != "worst_mean"]
# (activation, lambdas, frames, FILL_USERS, blocks per engine pass, blocks
# without users per pass) at seed (3, 7). At lambda = 0.001 only block 8
# draws a user: blocks 0-7 cross no multiple of one user and form a pass
# without receptions, the rest a pass with empty blocks after block 8.
PASS_CASES = {
    "two_blocks_then_one": (ActivationModel.TRUNCATED_POISSON, (6.0, 4.0), 3 * BLOCK_FRAMES,
                            1500, [2, 1], [0, 0]),  # 607, 1260, 1886 users in all
    "empty_blocks_in_a_pass": (ActivationModel.BINOMIAL_PER_USER, (0.001, 0.001),
                               10 * BLOCK_FRAMES + 5, 4096, [11], [10]),
    "pass_without_receptions": (ActivationModel.BINOMIAL_PER_USER, (0.001, 0.001),
                                10 * BLOCK_FRAMES + 5, 1, [8, 3], [8, 2]),
}


@pytest.mark.parametrize("mode", PHYSICAL)
@pytest.mark.parametrize("case", PASS_CASES)
def test_physical_passes_match_frame_loop(params, candidates, monkeypatch, case, mode):
    # a physical engine pass runs whole blocks, about FILL_USERS users, each
    # block drawing from its own stream; the values stay the frame loop's,
    # bit for bit, wherever the passes are cut and however empty they are
    activation, lambdas, n_frames, fill_users, blocks, empty = PASS_CASES[case]
    monkeypatch.setattr(montecarlo, "FILL_USERS", fill_users)
    receptions, passes = montecarlo._receptions, []

    def spy(cfg, counts, streams, *args):  # each pass's users, stream by stream
        bounds = np.cumsum([0, *(frames for _, frames in streams)])
        passes.append([int(counts[a:b].sum()) for a, b in zip(bounds[:-1], bounds[1:])])
        return receptions(cfg, counts, streams, *args)

    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        values = frame_by_frame(cfg, loads, params, n_frames, (3, 7), activation, MODES[mode])
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_receptions", spy)
            result = simulate(cfg, loads, params, n_frames, seed=(3, 7),
                              activation=activation, **MODES[mode])
        assert [len(users) for users in passes] == blocks
        assert [users.count(0) for users in passes] == empty
        assert result.mean == float(values.mean())
        assert result.ci_half_width == 1.96 * float(values.std(ddof=1)) / math.sqrt(n_frames)


def traced_peak(cfg, loads, params, n_frames, **mode):
    """The traced memory peak [B] of one ``simulate`` row."""
    tracemalloc.start()
    try:
        simulate(cfg, loads, params, n_frames, seed=5, **mode)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_physical_row_memory_grows_by_one_float_per_frame(params, candidates):
    # each frame's value goes into one float64 array, and the row's std
    # takes its deviations in place; the engine passes' rows do not grow
    # with the row. Rows long enough that their arrays, not a pass, set both
    # peaks, so an n-float temporary shows; nearly empty frames keep the
    # 64 chunks quick
    row = (candidates["r0_Hl_Hl"], LoadDistribution(0.001, 0.001), params)
    mode = dict(activation=ActivationModel.BINOMIAL_PER_USER)
    short, long = 16 * FILL_FRAMES, 64 * FILL_FRAMES
    traced_peak(*row, FILL_FRAMES, **mode)  # warm: lazy set-up is not the row's
    assert (traced_peak(*row, long, **mode) - traced_peak(*row, short, **mode)
            <= 12 * (long - short))


def test_matched_row_memory_grows_by_one_float_per_frame(params, candidates):
    # a matched row holds only each frame's value: the chunks' cells are
    # read from the grid and dropped, and the std works in place. Equal
    # calls' peaks differ by a few hundred bytes as the interpreter's free
    # lists and caches fill, so 4 KB is allowed on top: a 1-byte cell per
    # frame would add 192 KB
    row = (candidates["r0_Hl_Hl"], LoadDistribution(6.0, 4.0), params)
    mode = dict(activation=ActivationModel.MODEL_MATCHED, **MATCHED)
    short, long = 16 * FILL_FRAMES, 64 * FILL_FRAMES
    traced_peak(*row, short, **mode)  # warm: lazy set-up is not the row's
    assert (traced_peak(*row, long, **mode) - traced_peak(*row, short, **mode)
            <= 8 * (long - short) + 4096)


def pass_streams(params, seed, blocks, lambdas=(12.0, 4.0)):
    """The counts and streams of one engine pass of ``blocks`` whole blocks,
    each block's counts drawn from its own stream first, as ``simulate``
    draws them."""
    streams = [(rng, BLOCK_FRAMES) for rng in frame_rngs(seed, range(blocks))]
    law = _Activation(LoadDistribution(*lambdas), params, ActivationModel.TRUNCATED_POISSON)
    return law.counts(streams), streams


def traced_pass(cfg, params, seed, mode):
    """(users, traced memory peak [B]) of one engine pass of 4 blocks at
    lambda = (12, 4), about 4,100 users."""
    counts, streams = pass_streams(params, seed, 4)
    tracemalloc.start()
    try:
        _receptions(cfg, counts, streams, params, mode.get("worst_case_distances", False),
                    mode.get("mean_shadowing", False))
        return int(counts.sum()), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", PHYSICAL)
def test_pass_memory_per_user(params, candidates, mode):
    # a pass keeps alive only what it still has to read: the layout, the
    # distances and the deviates go once read, and the rate is made in one
    # array. Its record alone holds about 125 B per user
    for cfg in candidates.values():
        traced_pass(cfg, params, (9, 9), MODES[mode])  # warm: lazy set-up is not the pass's
        users, peak = traced_pass(cfg, params, (1, 1, 0), MODES[mode])
        assert 4000 <= users <= 4200
        assert peak <= 240 * users


def slot_by_slot(frame, slot_counts):
    """Each frame's value as a loop computes it, in Python floats: its rows'
    rates added per slot, the slots' sums added in slot order, over its
    slot count."""
    sums = [0.0] * frame.slot_count
    for slot, rate in zip(frame.slot.tolist(), frame.rate.tolist()):
        sums[slot] += rate
    values, start = [], 0
    for count in slot_counts.tolist():
        total = 0.0
        for value in sums[start:start + count]:
            total += value
        values.append(total / count if count else 0.0)
        start += count
    return np.array(values)


@pytest.mark.parametrize("mode", MODES)
def test_pass_keeps_the_bits_of_rate_throughput_and_signal(params, mode):
    # the pass computes the rate in place, every LoS power in one call with
    # one transmit term per row, and the frame sums by adding slot rows in
    # place: each must keep the bits of the plain formula
    for cfg in all_configurations().values():
        counts, streams = pass_streams(params, (21, cfg.r, cfg.t1, cfg.t2), 2, (6.0, 4.0))
        frame = _receptions(cfg, counts, streams, params,
                            MODES[mode].get("worst_case_distances", False),
                            MODES[mode].get("mean_shadowing", False))
        assert np.array_equal(frame.rate, np.log2(
            1.0 + frame.signal / (frame.interference + params.noise_power)))
        slot_counts = schedule_block(cfg, counts[:, 0], counts[:, 1]).slot_counts
        assert np.array_equal(frame.throughput, slot_by_slot(frame, slot_counts))
        if mode == "worst_mean":  # each direction's function on its own rows
            altitude = np.array([params.altitude(cfg.t1), params.altitude(cfg.t2)])
            edge = altitude[frame.link - 1] / math.cos(params.phi_b)
            down = frame.downlink
            assert np.array_equal(frame.signal[down],
                                  channel.rx_power_uav_to_ground(edge[down], params))
            assert np.array_equal(frame.signal[~down],
                                  channel.rx_power_ground_to_uav(edge[~down], params))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 100_000), st.integers(-300, 300), st.sampled_from([0.0, 1.0, -3.5]),
       st.integers(0, 2 ** 32 - 1))
@example(2, 0, 0.0, 0)
@example(100_000, 300, 1.0, 1)
def test_mean_and_std_in_place_match_numpy(n, exponent, offset, seed):
    # a row's mean and std, the deviations taken in place, keep numpy's bits
    values = (np.random.default_rng(seed).random(n) + offset) * 2.0 ** exponent
    mean, std = _mean_and_std(values.copy())
    assert mean == float(values.mean())
    assert std == float(values.std(ddof=1))


def test_simulate_names_an_activation_of_another_type(params, candidates):
    with pytest.raises(ValueError, match="activation must be an ActivationModel, got 'poisson'"):
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params, 10, seed=1,
                 activation="poisson")


def test_simulate_rejects_zero_frames(params, candidates):
    with pytest.raises(ValueError):
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params,
                 0, seed=1)
