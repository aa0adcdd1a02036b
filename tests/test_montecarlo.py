import dataclasses
import gc
import math
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from uav_twoway import channel, default_config, montecarlo, validate_and_derive
from uav_twoway.errors import RateExceedsPopulationError
from uav_twoway.montecarlo import (COUNTS, DEVIATES, FILL_FRAMES, LAYOUTS, ActivationModel,
                                   _Activation, _law, _matched_values, _mean_and_std,
                                   _positions, _receptions, _stream, run_frame, simulate,
                                   simulate_exhaustive)
from uav_twoway.pairing import pair_counts, schedule_block
from uav_twoway.rates import rate_set
from uav_twoway.sinr import all_configurations
from uav_twoway.throughput import LoadDistribution, average_throughput, conditional_table

from test_pairing import CROSS_CELL, INDIVIDUAL, SAME_CELL, unit_classes
from test_throughput import frame_throughput

# the simulator's distance and shadowing modes, as keyword arguments
MODES = {"exact_sampled": {}, "exact_mean": {"mean_shadowing": True},
         "worst_sampled": {"worst_case_distances": True},
         "worst_mean": {"worst_case_distances": True, "mean_shadowing": True}}


def spawn(seed, key):
    """numpy's own stream of entropy ``seed`` and spawn key ``(key,)``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def draw_counts(law, rng, frames):
    """The next ``frames`` frames' (K1, K2) of an activation law: its flat
    cells split as ``simulate`` splits them."""
    return np.column_stack(np.divmod(law.cells(rng, frames), law.n + 1))


def cells_of(sizes):
    """Each user's cell, for cells of ``sizes`` users: cell 1, cell 2, cell
    1, ... of successive frames."""
    return np.repeat(np.tile((1, 2), len(sizes) // 2), sizes)


def test_layout_inside_discs(params):
    # cell 1 around the origin, cell 2 at d_sep: every user within d_0 of
    # its own cell's centre, in two frames of (200, 200) users and in three
    # frames of unequal and empty cells
    for sizes in (200, 200, 200, 200), (0, 3, 5, 0, 1, 2):
        sizes = np.array(sizes)
        cell = cells_of(sizes)
        x, y = _positions(np.random.default_rng(0).random(2 * cell.size), sizes, cell, params)
        center = np.where(cell == 1, 0.0, params.d_sep)
        assert x.size == cell.size
        assert np.all(np.hypot(x - center, y) <= params.d_0)


def test_layout_reproducible(params):
    sizes = np.array((10, 10))
    cell = cells_of(sizes)
    one = _positions(np.random.default_rng(9).random(40), sizes, cell, params)
    other = _positions(np.random.default_rng(9).random(40), sizes, cell, params)
    assert np.array_equal(one, other)


def test_binomial_full_rate_always_everyone(params):
    loads = LoadDistribution(30.0, 30.0)
    rng = np.random.default_rng(1)
    law = _Activation(loads, params, ActivationModel.BINOMIAL_PER_USER)
    assert np.all(draw_counts(law, rng, 20) == (30, 30))


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
    draws = draw_counts(_Activation(loads, params, ActivationModel.TRUNCATED_POISSON),
                        rng, 20_000)[:, 0]
    assert abs(np.mean(draws) - expected) < 3.0 * math.sqrt(variance / len(draws))
    assert min(draws) >= 1 and max(draws) <= n


def test_activation_deterministic(params):
    loads = LoadDistribution(7.0, 3.0)
    for model in ActivationModel:
        first = draw_counts(_Activation(loads, params, model), np.random.default_rng(4), 50)
        second = draw_counts(_Activation(loads, params, model), np.random.default_rng(4), 50)
        assert np.array_equal(first, second)


@given(st.sampled_from([(ActivationModel.TRUNCATED_POISSON, (6.0, 4.0)),
                        (ActivationModel.TRUNCATED_POISSON, (2.0, 29.0)),  # many redraws
                        (ActivationModel.BINOMIAL_PER_USER, (0.05, 0.3)),
                        (ActivationModel.MODEL_MATCHED, (6.0, 4.0)),
                        (ActivationModel.MODEL_MATCHED, (34.0, 2.0))]),  # empty frames
       st.lists(st.integers(1, 64), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_activation_over_streams_concatenates_one_stream_calls(params, case, sizes, seed):
    # a row's frames drawn from its counts stream in calls of any sizes, as
    # simulate's chunks draw them, are the rows of one call over all of
    # them, bit for bit, and leave the stream where that call would
    model, lambdas = case
    law = _Activation(LoadDistribution(*lambdas), params, model)
    joint, pieces = spawn(seed, COUNTS), spawn(seed, COUNTS)
    rows = draw_counts(law, joint, sum(sizes))
    piece_by_piece = [draw_counts(law, pieces, frames) for frames in sizes]
    assert np.array_equal(rows, np.concatenate(piece_by_piece))
    assert joint.bit_generator.state == pieces.bit_generator.state


def test_truncated_poisson_redraws_only_out_of_range(params):
    # a frame keeps the stream's next pair whose counts both lie in [1, N]:
    # only a pair with a count out of range is drawn again
    n = params.n_users
    lambdas = (2.0, 29.0)  # often 0 in cell 1, often above N in cell 2
    pairs = np.random.default_rng(5).poisson(lambdas, size=(4000, 2))
    kept = ((pairs >= 1) & (pairs <= n)).all(axis=1)
    law = _Activation(LoadDistribution(*lambdas), params, ActivationModel.TRUNCATED_POISSON)
    drawn = draw_counts(law, np.random.default_rng(5), 400)
    assert not kept[:400].all() and kept.sum() >= 400
    assert np.array_equal(drawn, pairs[kept][:400])


def test_truncated_poisson_pairs_follow_the_truncated_marginals(params):
    # the cells are independent, so keeping the pairs with both counts in
    # [1, N] gives the product of the two truncated Poisson pmfs; every
    # cell of the 10^5-frame joint frequencies within 4 standard errors
    n, lambdas, frames = 2, (1.5, 0.7), 100_000
    law = _Activation(LoadDistribution(*lambdas), dataclasses.replace(params, n_users=n),
                      ActivationModel.TRUNCATED_POISSON)
    counts = draw_counts(law, np.random.default_rng(6), frames)
    assert counts.min() >= 1 and counts.max() <= n
    marginals = [np.array([lam ** k / math.factorial(k) for k in range(1, n + 1)])
                 for lam in lambdas]
    expected = np.outer(*(weights / weights.sum() for weights in marginals))
    observed = np.bincount((counts[:, 0] - 1) * n + counts[:, 1] - 1,
                           minlength=n * n).reshape(n, n) / frames
    assert np.all(np.abs(observed - expected) <= 4.0 * np.sqrt(expected * (1 - expected) / frames))


@pytest.mark.parametrize("lambdas", [(6.0, 4.0), (34.0, 2.0), (1.0, 18.0)],
                         ids=["lambda_6_4", "lambda_34_2", "lambda_1_18"])
def test_model_activation_inverts_the_joint_cdf(params, lambdas):
    # cell i = K1 (N + 1) + K2 takes the uniforms of its step [cdf[i - 1],
    # cdf[i]) of the row-major cumulative pmf; uniforms from the top of the
    # cdf up go to the last cell whose step is not empty
    n = params.n_users
    loads = LoadDistribution(*lambdas)
    pmf = _Activation(loads, params, ActivationModel.MODEL_MATCHED).pmf.ravel()
    cdf = np.cumsum(pmf)
    lower = np.concatenate(([0.0], cdf[:-1]))
    steps = cdf[np.flatnonzero(pmf)][:-1]
    chosen = steps[::max(1, steps.size // 16)]
    uniforms = np.concatenate(([0.0, 1.0 - 2.0 ** -53], chosen, np.nextafter(chosen, 0.0),
                               np.linspace(0.0, 1.0, 4001)[:-1]))
    stream = Replay(uniforms, np.empty(0))  # hands out the chosen uniforms
    drawn = draw_counts(_Activation(loads, params, ActivationModel.MODEL_MATCHED), stream,
                        uniforms.size)
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
    cells = law.cells(Replay(uniforms, np.empty(0)), uniforms.size)
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
    # ever drawn: for drawn uniforms, through cells, and for the edges, 0,
    # the largest double below 1, each cdf entry (the last may round above
    # 1) and its neighbours, and every bucket's first uniform; the table,
    # built by counting, is the search of each bucket's first
    law = _Activation(LoadDistribution(*lambdas), dataclasses.replace(params, n_users=n),
                      ActivationModel.MODEL_MATCHED)
    cdf, top, buckets = law.cdf, law.top, law.buckets
    assert buckets >= cdf.size and buckets & (buckets - 1) == 0

    def plain(uniforms):
        return np.minimum(np.searchsorted(cdf, uniforms, side="right"), top)

    searched = plain(np.arange(buckets + 1) / buckets)
    assert law.guide.dtype == searched.dtype and np.array_equal(law.guide, searched)

    cells = law.cells(np.random.default_rng(seed), 145)
    drawn = np.random.default_rng(seed).random(145)
    assert cells.dtype == np.intp and np.array_equal(cells, plain(drawn))
    edges = np.concatenate(([0.0, 1.0 - 2.0 ** -53], cdf, np.nextafter(cdf, 0.0),
                            np.nextafter(cdf, 2.0), np.arange(buckets) / buckets))
    inverted = law.invert(edges)
    assert np.array_equal(inverted, plain(edges)) and inverted.max() <= top


@pytest.mark.parametrize("n", [1, 30, 200])
def test_model_law_pmf_is_skellam_times_split_weights(params, n):
    # cell (K1, K2) is P(lambda)[K1 - K2] times the parameter set's split
    # weight of that cell, bit for bit (the empty frame, (0, 0), holds the
    # rest of the mass: see the next test)
    system = dataclasses.replace(params, n_users=n)
    loads = LoadDistribution(6.0, 4.0)
    skellam, weights = loads.skellam_vector(n), system.split_weights
    pmf = _Activation(loads, system, ActivationModel.MODEL_MATCHED).pmf.ravel().tolist()
    cells = range(1, (n + 1) ** 2)
    assert [pmf[cell] for cell in cells] == [
        skellam[cell // (n + 1) - cell % (n + 1)] * weights[cell] for cell in cells]


def test_two_rows_convert_their_split_weights_once(params, candidates, monkeypatch):
    # a point's model law turns the parameter set's split weights into one
    # float64 array, which every row of that point reads; the next point's
    # law converts them again
    monkeypatch.setattr(montecarlo, "_LAWS", weakref.WeakKeyDictionary())
    conversions, fromiter = [], np.fromiter

    def spy(*args, **kwargs):
        conversions.append(args[0])
        return fromiter(*args, **kwargs)

    monkeypatch.setattr(np, "fromiter", spy)
    loads = LoadDistribution(6.0, 4.0)
    for seed in (1, 2):
        simulate(candidates["r0_Hl_Hl"], loads, params, 10, seed,
                 activation=ActivationModel.MODEL_MATCHED, **MATCHED)
    simulate_exhaustive(candidates["r1_Hl_Hh"], loads, params)
    assert len(conversions) == 1 and conversions[0] is params.split_weights
    simulate_exhaustive(candidates["r1_Hl_Hh"], LoadDistribution(12.0, 4.0), params)
    assert len(conversions) == 2


def test_model_law_pmf_expectation_is_the_closed_form(params):
    # the exact expectation of the sampled law, sum of pmf * c over [0, N]^2,
    # is the closed form: why matched sampling with model activation is
    # unbiased
    n = params.n_users
    big_k1, big_k2 = np.divmod(np.arange((n + 1) ** 2), n + 1)
    laws = {}
    for lambdas in ((6.0, 4.0), (34.0, 2.0), (1.0, 18.0)):
        loads = LoadDistribution(*lambdas)
        pmf = _Activation(loads, params, ActivationModel.MODEL_MATCHED).pmf
        assert abs(math.fsum(pmf.flat) - 1.0) <= 1e-15
        # the empty frame holds the Skellam mass of every |k| >= N; a cell
        # with a zero count and the other not holds none
        skellam = loads.skellam_vector(n)
        assert abs(pmf[0, 0] - (1.0 - math.fsum(skellam[k] for k in range(1 - n, n)))) <= 1e-15
        assert not pmf[0, 1:].any() and not pmf[1:, 0].any()
        laws[loads] = pmf.ravel()
    for cfg in all_configurations().values():
        rates = rate_set(cfg, params)
        values = [frame_throughput(a - b, b, cfg, rates, params)
                  for a, b in zip(big_k1.tolist(), big_k2.tolist())]
        for loads, pmf in laws.items():
            expected = average_throughput(conditional_table(cfg, params), loads).total
            assert_allclose(math.fsum(pmf * values), expected, rtol=1e-12)


def frame_columns(frame):
    return {field.name: getattr(frame, field.name) for field in dataclasses.fields(frame)}


def test_frame_ledger_bit_identical(params, candidates):
    cfg = candidates["r1_Hl_Hh"]
    one = frame_columns(run_frame(cfg, 6, 3, params, np.random.default_rng(42)))
    other = frame_columns(run_frame(cfg, 6, 3, params, np.random.default_rng(42)))
    assert all(np.array_equal(one[name], other[name]) for name in one)
    different = frame_columns(run_frame(cfg, 6, 3, params, np.random.default_rng(43)))
    assert not np.array_equal(different["signal"], one["signal"])


# (cfg label, K1, K2, spawn key) -> throughput of a frame drawn from
# spawn(2024, key), frozen per mode from the per-reception engine the
# columnar one replaced; they pin the layout and shadowing draw order
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


def test_seeded_streams_match_frozen_values(params):
    configs = all_configurations()
    for mode, frozen in FROZEN_FRAMES.items():
        for (label, k1, k2, index), expected in frozen.items():
            frame = run_frame(configs[label], k1, k2, params,
                              spawn(2024, index), **MODES[mode])
            assert_allclose(frame.throughput, expected, rtol=1e-13)
    # one cell of the acceptance criterion 8 grid; it pins the row streams
    result = simulate(configs["r1_Hl_Hh"], LoadDistribution(10.0, 2.0), params,
                      300, seed=(31, 10, 2), mean_shadowing=True,
                      activation=ActivationModel.MODEL_MATCHED)
    assert_allclose(result.mean, 49.08885992979756, rtol=1e-13)


# (cfg label, lambda1, lambda2, seed, mode) -> mean of a 1,000-frame
# Poisson row, frozen from its three row streams. The first six are the
# rows of the benchmark's physical compare at --seed 1; each row runs in
# three or four engine passes
FROZEN_ROWS = {
    ("r1_Hl_Hh", 6.0, 4.0, (1, 0, 0), "exact_sampled"): 46.03855881229632,
    ("r1_Hh_Hl", 6.0, 4.0, (1, 0, 1), "exact_sampled"): 40.753024246873565,
    ("r0_Hl_Hl", 6.0, 4.0, (1, 0, 2), "exact_sampled"): 42.18185086547305,
    ("r1_Hl_Hh", 12.0, 4.0, (1, 1, 0), "exact_sampled"): 48.06465866299107,
    ("r1_Hh_Hl", 12.0, 4.0, (1, 1, 1), "exact_sampled"): 33.34196323697198,
    ("r0_Hl_Hl", 12.0, 4.0, (1, 1, 2), "exact_sampled"): 36.16198456478441,
    ("r0_Hh_Hl", 12.0, 4.0, (1, 1, 0), "exact_mean"): 25.287090576597702,
    ("r1_Hh_Hh", 12.0, 4.0, (1, 1, 0), "worst_sampled"): 36.38606989846748,
}


def test_physical_rows_match_frozen_means(params, monkeypatch):
    # passes of about 4,096 users, so each 1,000-frame row spans several
    monkeypatch.setattr(montecarlo, "FILL_USERS", 4096)
    configs, receptions, passes = all_configurations(), montecarlo._receptions, []

    def spy(*args):
        passes.append(1)
        return receptions(*args)

    monkeypatch.setattr(montecarlo, "_receptions", spy)
    for (label, lambda1, lambda2, seed, mode), expected in FROZEN_ROWS.items():
        passes.clear()
        result = simulate(configs[label], LoadDistribution(lambda1, lambda2), params, 1000,
                          seed=seed, **MODES[mode])
        assert_allclose(result.mean, expected, rtol=1e-13)
        assert len(passes) >= 3


MATCHED_ROW_FRAMES = (1, 63, 64, 65, 4095, 4096, 4097, 20_000)
# (cfg label, lambda1, lambda2, seed) -> (mean, ci_half_width) of a
# model-activation matched row of each of MATCHED_ROW_FRAMES frames: the
# benchmark's matched compare rows at --seed 1, across chunk ends
FROZEN_MATCHED_ROWS = {
    ("r1_Hl_Hh", 6.0, 4.0, (1, 0, 0)): [
        (40.40766982789502, 0.0), (40.36136673364234, 0.31169483749967963),
        (40.37640249343493, 0.3081981596954284), (40.39097561446466, 0.3047610856488471),
        (40.38207448273916, 0.038446157412295755), (40.38230436088311, 0.0384394106769161),
        (40.382262643248964, 0.038430114186662236), (40.35871290443536, 0.017774208078001702)],
    ("r1_Hh_Hl", 6.0, 4.0, (1, 0, 1)): [
        (33.28510030471785, 0.0), (38.67428768290139, 0.620345749029894),
        (38.67501279216358, 0.6105775681095099), (38.68715717579873, 0.6015817708769553),
        (38.344172610766286, 0.07933581384214387), (38.34380013969394, 0.07931980203807515),
        (38.34277193951212, 0.07932604227125285), (38.35537051103866, 0.035980494989379934)],
    ("r0_Hl_Hl", 6.0, 4.0, (1, 0, 2)): [
        (48.928612485833405, 0.0), (47.102200716393185, 0.6633660941840677),
        (47.1039135030945, 0.6529273614360376), (47.020677210726994, 0.6631835817006974),
        (46.98550899640758, 0.09571254886851903), (46.986612095435966, 0.09571360135059931),
        (46.987321809053114, 0.09570034677983587), (46.97547238064594, 0.043901464157300174)],
    ("r1_Hl_Hh", 12.0, 4.0, (1, 1, 0)): [
        (40.21138721379374, 0.0), (40.69752905365953, 0.13192329686246168),
        (40.70731227720185, 0.13125385338299994), (40.71679447848132, 0.13054846344670193),
        (40.79802656769551, 0.017047418461907427), (40.79815489503747, 0.017045111842578984),
        (40.79828315973489, 0.01704280524180985), (40.791766268542894, 0.00799437538564134)],
    ("r1_Hh_Hl", 12.0, 4.0, (1, 1, 1)): [
        (32.95699601673216, 0.0), (33.1243452523619, 0.9582943957299599),
        (33.171116951403036, 0.9476466889159866), (33.17367359390715, 0.9329670596237092),
        (33.33510601922245, 0.10236480866127785), (33.33675846344126, 0.10239105105323311),
        (33.335985056339815, 0.10237727953985983), (33.35792365494552, 0.046241596236544204)],
    ("r0_Hl_Hl", 12.0, 4.0, (1, 1, 2)): [
        (37.76945525222227, 0.0), (41.07608067690095, 0.9689123220212366),
        (41.14959750822253, 0.9644774003901639), (41.12400752613876, 0.9508471306430502),
        (40.91186046346728, 0.13514612825091454), (40.91193155273238, 0.13511320140637964),
        (40.91102485495986, 0.1350919083311812), (40.911669268651806, 0.06004744015823751)],
}


def test_model_activation_rows_keep_their_frozen_bits(params):
    # the stream, every uniform and every cell of a model-activation row, matched or
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
    assert (physical.mean, physical.ci_half_width) == (48.4515206713052, 0.09869181161136084)


seed_words = st.integers(0, 2 ** 80 - 1)


@given(st.one_of(seed_words, st.lists(seed_words, min_size=1, max_size=5).map(tuple)))
@example(0)
@example((0, 0, 0, 0, 0))
def test_row_streams_match_numpy_seed_sequence_spawns(seed):
    # a row's counts, layouts and deviates come from numpy's own streams of
    # entropy seed and spawn keys (0,), (1,) and (2,), bit for bit
    assert (COUNTS, LAYOUTS, DEVIATES) == (0, 1, 2)
    for kind in (COUNTS, LAYOUTS, DEVIATES):
        rng, oracle = _stream(seed, kind), spawn(seed, kind)
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(rng.random(3), oracle.random(3))


def test_row_streams_reject_a_negative_seed_word(params, candidates):
    with pytest.raises(ValueError):  # as numpy's SeedSequence refuses it
        simulate(candidates["r0_Hl_Hl"], LoadDistribution(5.0, 5.0), params,
                 10, seed=(-1, 0, 0))


frames = st.tuples(st.sampled_from(list(all_configurations().values())),
                   st.integers(0, 30), st.integers(0, 30), st.integers(0, 2 ** 32 - 1),
                   st.sampled_from(list(MODES.values())))


def draw_frame(args, params):
    cfg, k1, k2, seed, mode = args
    return cfg, k1, k2, run_frame(cfg, k1, k2, params, np.random.default_rng(seed), **mode)


def row_kinds(frame, cfg, k1, k2):
    """Each row's service class, read from its frame's schedule."""
    return unit_classes(schedule_block(cfg, [k1], [k2]), [k1], [k2])[frame.slot // 2]


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
    expected = frame_throughput(k1 - k2, k2, cfg, rate_set(cfg, params), params)
    if frame.slot_count:
        assert_allclose(frame.throughput, expected, rtol=1e-12)
    else:
        assert expected == 0.0


@given(frames)
def test_matched_frame_mirror(params, args):
    # swapping the cells and the UAVs' altitudes serves the mirrored system;
    # the rows come in another order, so the sums agree to rounding only
    cfg, k1, k2, _, _ = args
    assert_allclose(matched_frame(cfg.mirror, k2, k1, params).throughput,
                    matched_frame(cfg, k1, k2, params).throughput, rtol=1e-14)


@given(frames)
def test_exact_receptions_dominate_worst_case(params, args):
    # row by row against the worst-case frame of the same (cfg, K1, K2); a
    # same-cell ground interferer may stand closer than d_min (see README)
    cfg, k1, k2, seed, _ = args
    exact = run_frame(cfg, k1, k2, params, np.random.default_rng(seed), mean_shadowing=True)
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
        values = _matched_values(cfg, params)
        rates = rate_set(cfg, params)
        expected = [frame_throughput(a - b, b, cfg, rates, params)
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
        expected = _receptions(cfg, counts, params, None, None)
        assert np.array_equal(_matched_values(cfg, params), expected.throughput)


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
    monkeypatch.setattr(montecarlo, "_GRIDS", weakref.WeakKeyDictionary())
    passes = spy_on(monkeypatch, "_receptions")
    for cfg in candidates.values():
        passes.clear()
        simulate(cfg, LoadDistribution(6.0, 4.0), params, 20_000, seed=3,
                 activation=ActivationModel.MODEL_MATCHED, **MATCHED)
        assert len(passes) == 1
        assert passes[0][1].tolist() == [[1, 1], [2, 0], [1, 0], [0, 2], [0, 1]]
        assert passes[0][2:] == (params, None, None)


@pytest.mark.parametrize("mode", ["worst_mean", "exact_sampled"])
def test_model_pmf_built_once_per_row(params, candidates, monkeypatch, mode):
    # the pmf is its law's, built with it once for the row's load point
    monkeypatch.setattr(montecarlo, "_LAWS", weakref.WeakKeyDictionary())
    builds = spy_on(monkeypatch, "_Activation")
    simulate(candidates["r0_Hl_Hl"], LoadDistribution(6.0, 4.0), params, 2 * FILL_FRAMES + 1,
             seed=2, activation=ActivationModel.MODEL_MATCHED, **MODES[mode])
    assert len(builds) == 1


def test_law_store_keeps_one_load_point(params, candidates, monkeypatch):
    # one law per model for the last (loads, params) asked for, built once;
    # another pair takes its place, and the store holds neither object, so
    # dropping the loads empties it
    monkeypatch.setattr(montecarlo, "_LAWS", weakref.WeakKeyDictionary())
    builds = spy_on(monkeypatch, "_Activation")
    loads, other = LoadDistribution(6.0, 4.0), dataclasses.replace(params, n_users=29)
    law = _law(loads, params, ActivationModel.MODEL_MATCHED)
    assert _law(loads, params, ActivationModel.MODEL_MATCHED) is law
    poisson = _law(loads, params, ActivationModel.TRUNCATED_POISSON)
    assert poisson.model is ActivationModel.TRUNCATED_POISSON
    assert [model for *_, model in builds] == [ActivationModel.MODEL_MATCHED,
                                               ActivationModel.TRUNCATED_POISSON]
    assert len(montecarlo._LAWS[loads][1]) == 2
    assert _law(loads, other, ActivationModel.MODEL_MATCHED).n == 29
    assert _law(loads, params, ActivationModel.MODEL_MATCHED) is not law
    assert len(builds) == 4 and len(montecarlo._LAWS[loads][1]) == 1
    # a caller that holds its load pairs through its rows keeps one pair's laws
    held = [LoadDistribution(lambda1, 4.0) for lambda1 in (2.0, 6.0, 12.0)]
    for pair in held:
        simulate(candidates["r0_Hl_Hl"], pair, params, 10, seed=1,
                 activation=ActivationModel.MODEL_MATCHED, **MATCHED)
    assert list(montecarlo._LAWS) == [held[-1]]
    builds.clear()  # the spy's records hold the load pairs
    del loads, other, law, poisson, held, pair
    gc.collect()
    assert len(montecarlo._LAWS) == 0


@pytest.mark.parametrize("model", list(ActivationModel))
def test_shared_law_arrays_are_read_only(params, model):
    # a point's rows share its law, so no row may write to it
    law = _law(LoadDistribution(6.0, 4.0), params, model)
    arrays = [value for value in vars(law).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == (5 if model is ActivationModel.MODEL_MATCHED else 1)
    if model is ActivationModel.MODEL_MATCHED:
        assert any(array is law.pmf for array in arrays)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert law.lambdas.tolist() == [6.0, 4.0]


def test_matched_values_schedule_once_per_grid(params, monkeypatch):
    # a grid reads each unit frame's slot count off its one engine pass
    monkeypatch.setattr(montecarlo, "_GRIDS", weakref.WeakKeyDictionary())
    schedules = spy_on(monkeypatch, "schedule_block")
    for built, cfg in enumerate(all_configurations().values(), 1):
        _matched_values(cfg, params)
        _matched_values(cfg, params)
        assert len(schedules) == built


@pytest.mark.parametrize("n", [2, 3, 30])
def test_matched_grid_is_its_mirror_transposed_to_rounding(params, n):
    # a mirror's grid is this grid transposed, but for r = 1 the engine adds
    # the slot rates in another order, so the cells agree to rounding only
    # and a transpose cannot stand in for the mirror's own grid
    system = dataclasses.replace(params, n_users=n)
    for cfg in all_configurations().values():
        mirrored = _matched_values(cfg.mirror, system).reshape(n + 1, n + 1).T.ravel()
        assert_allclose(mirrored, _matched_values(cfg, system), rtol=1e-15, atol=0)


def test_rows_sharing_a_grid_match_fresh_grids(params, candidates, monkeypatch):
    # a cell's value does not depend on the pass that computed it, so rows
    # of other loads, seeds and activations that read a kept grid keep the
    # bits of rows that build their own
    rows = [((6.0, 4.0), 1, ActivationModel.MODEL_MATCHED, 9000),
            ((12.0, 4.0), 2, ActivationModel.MODEL_MATCHED, 5000),
            ((3.0, 9.0), 3, ActivationModel.TRUNCATED_POISSON, 3000),
            ((0.5, 0.2), 4, ActivationModel.BINOMIAL_PER_USER, 3000),
            ((6.0, 4.0), 5, ActivationModel.MODEL_MATCHED, 1)]
    kept = weakref.WeakKeyDictionary()
    for cfg in candidates.values():
        for lambdas, seed, activation, n_frames in rows:
            loads = LoadDistribution(*lambdas)
            monkeypatch.setattr(montecarlo, "_GRIDS", kept)
            shared = simulate(cfg, loads, params, n_frames, seed, activation=activation,
                              **MATCHED)
            monkeypatch.setattr(montecarlo, "_GRIDS", weakref.WeakKeyDictionary())
            fresh = simulate(cfg, loads, params, n_frames, seed, activation=activation,
                             **MATCHED)
            assert shared == fresh
    assert len(kept[params]) == len(candidates)


def test_grid_is_kept_per_configuration_and_parameter_set(params, candidates, monkeypatch):
    # one read-only array per configuration and parameter set: a second
    # call, or an equal parameter set, reads it; another configuration or
    # parameter set gets its own
    monkeypatch.setattr(montecarlo, "_GRIDS", weakref.WeakKeyDictionary())
    cfg, other = candidates["r1_Hl_Hh"], candidates["r0_Hl_Hl"]
    values = _matched_values(cfg, params)
    assert _matched_values(cfg, params) is values
    assert _matched_values(cfg, dataclasses.replace(params)) is values
    assert not np.array_equal(_matched_values(other, params), values)
    louder = dataclasses.replace(params, p_u=2.0 * params.p_u)
    assert not np.array_equal(_matched_values(cfg, louder), values)
    assert _matched_values(cfg, dataclasses.replace(params, n_users=29)).size == 30 ** 2
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1.0
    assert values[0] == 0.0


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
    sampled = run_frame(cfg, 4, 4, params, np.random.default_rng(18))
    mean = run_frame(cfg, 4, 4, params, np.random.default_rng(18), mean_shadowing=True)
    assert sampled.throughput != mean.throughput


class Replay:
    """A stand-in stream for run_frame or an activation law: its ``random``
    and ``standard_normal`` calls hand out, in turn, the next slices of
    the uniforms and the deviates given to it, a new array of ``size`` or,
    as numpy's do, written to ``out``."""

    def __init__(self, uniforms, deviates):
        self.draws = {"random": uniforms, "standard_normal": deviates}
        self.used = {"random": 0, "standard_normal": 0}

    def take(self, kind, size, out):
        count = out.size if out is not None else size
        start = self.used[kind]
        self.used[kind] += count
        assert self.used[kind] <= self.draws[kind].size
        drawn = self.draws[kind][start:start + count]
        if out is None:
            return drawn.copy()
        out[...] = drawn
        return out

    def random(self, size=None, out=None):
        return self.take("random", size, out)

    def standard_normal(self, size=None, out=None):
        return self.take("standard_normal", size, out)


def frame_by_frame(cfg, loads, params, n_frames, seed, activation, mode):
    """Per-frame throughputs of a plain run_frame loop over numpy's three
    streams of ``seed``, the reference the engine must match bit for bit:
    all frames' counts from spawn key 0, then each frame's layout from the
    uniforms of spawn key 1 and its deviates from spawn key 2, frame after
    frame, which one stand-in stream replays."""
    keys = draw_counts(_Activation(loads, params, activation), spawn(seed, COUNTS), n_frames)
    users = int(keys.sum())
    # a user has two receptions and a reception at most two deviates; a
    # generator's draws in several calls equal its draws in one, so these
    # draws lead the row's
    replay = Replay(spawn(seed, LAYOUTS).random(2 * users),
                    spawn(seed, DEVIATES).standard_normal(4 * users))
    values = [run_frame(cfg, k1, k2, params, replay, **mode).throughput
              for k1, k2 in keys.tolist()]
    assert replay.used["random"] == (0 if mode.get("worst_case_distances") else 2 * users)
    return np.concatenate(values)


ACTIVATIONS = {
    "poisson": (ActivationModel.TRUNCATED_POISSON, (6.0, 4.0)),
    "binomial": (ActivationModel.BINOMIAL_PER_USER, (0.05, 0.3)),  # mostly empty frames
    "model": (ActivationModel.MODEL_MATCHED, (34.0, 2.0)),         # often |k| > N: no split
}


def assert_row_is_frame_loop(cfg, loads, params, n_frames, activation, mode, row=simulate):
    """The frame loop's values at seed (3, 7), which ``row``, ``simulate``
    or a stand-in that calls it, reduces to their mean and CI, bit for bit."""
    values = frame_by_frame(cfg, loads, params, n_frames, (3, 7), activation, mode)
    result = row(cfg, loads, params, n_frames, seed=(3, 7), activation=activation, **mode)
    assert result.mean == float(values.mean())
    assert result.ci_half_width == 1.96 * float(values.std(ddof=1)) / math.sqrt(n_frames)
    return values


@pytest.mark.parametrize("mode", MODES.values(), ids=MODES)
@pytest.mark.parametrize("activation,lambdas", ACTIVATIONS.values(), ids=ACTIVATIONS)
def test_block_engine_matches_frame_loop(params, candidates, mode, activation, lambdas):
    # one chunk, run as one block of frames: one engine pass (physical
    # modes) or one read of the grid (matched mode)
    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        values = assert_row_is_frame_loop(cfg, loads, params, 131, activation, mode)
        if activation is not ActivationModel.TRUNCATED_POISSON:
            assert 0.0 in values and values.max() > 0.0


@pytest.mark.parametrize("activation,lambdas,mode", [
    *(pytest.param(*ACTIVATIONS[name], MODES["worst_mean"], id=name) for name in ACTIVATIONS),
    *(pytest.param(*ACTIVATIONS[name], MODES[mode], id=f"{name}-{mode}")
      for name in ACTIVATIONS for mode in MODES if mode != "worst_mean"),
])
def test_matched_fill_chunks_match_frame_loop(params, candidates, monkeypatch, activation,
                                              lambdas, mode):
    # simulate draws FILL_FRAMES frames' counts in one call, then runs them
    # in engine passes of about FILL_USERS users (physical modes), or reads
    # their values from the grid (matched mode, the ids without a mode);
    # shrunk here, a run crosses a chunk boundary into a partial chunk
    monkeypatch.setattr(montecarlo, "FILL_FRAMES", 100)
    monkeypatch.setattr(montecarlo, "FILL_USERS", 40)
    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        assert_row_is_frame_loop(cfg, loads, params, 131, activation, mode)


PHYSICAL = [mode for mode in MODES if mode != "worst_mean"]
# (activation, lambdas, frames, FILL_FRAMES, FILL_USERS, frames of each
# engine pass, frames without users of each pass) at seed (3, 7); a block is
# the frames one pass computes, which ``schedule_block`` plans. Full
# binomial activation puts 60 users in every frame: the first chunk's 240
# users cross 121 once, the second's 120 never. At lambda = 0.003 only
# frames 29 and 387 hold a user; with FILL_USERS = 1 each of them starts a
# pass, and the frames before the first form a pass without receptions.
PASS_CASES = {
    "two_blocks_then_one": (ActivationModel.BINOMIAL_PER_USER, (30.0, 30.0), 6, 4, 121,
                            [2, 2, 2], [0, 0, 0]),
    "empty_frames_in_a_pass": (ActivationModel.BINOMIAL_PER_USER, (0.003, 0.003), 645,
                               4096, 4096, [645], [643]),
    "pass_without_receptions": (ActivationModel.BINOMIAL_PER_USER, (0.003, 0.003), 645,
                                4096, 1, [29, 358, 258], [29, 357, 257]),
}


@pytest.mark.parametrize("mode", PHYSICAL)
@pytest.mark.parametrize("case", PASS_CASES)
def test_physical_passes_match_frame_loop(params, candidates, monkeypatch, case, mode):
    # a physical engine pass runs about FILL_USERS users' frames of a chunk,
    # cut after any frame; the values stay the frame loop's, bit for bit,
    # wherever the passes are cut and however empty they are
    activation, lambdas, n_frames, fill_frames, fill_users, frames, empty = PASS_CASES[case]
    monkeypatch.setattr(montecarlo, "FILL_FRAMES", fill_frames)
    monkeypatch.setattr(montecarlo, "FILL_USERS", fill_users)
    receptions, passes = montecarlo._receptions, []

    def spy(cfg, counts, *args):  # each pass's users, frame by frame
        passes.append(counts.sum(axis=1).tolist())
        return receptions(cfg, counts, *args)

    def spied(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_receptions", spy)
            return simulate(*args, **kwargs)

    loads = LoadDistribution(*lambdas)
    for cfg in candidates.values():
        passes.clear()
        assert_row_is_frame_loop(cfg, loads, params, n_frames, activation, MODES[mode], spied)
        assert [len(users) for users in passes] == frames
        assert [users.count(0) for users in passes] == empty


def test_kept_records_keep_their_bits_across_later_rows(params, candidates, monkeypatch):
    # every pass takes its largest arrays from the thread's workspace,
    # which every later pass overwrites; a frame record, a schedule and a
    # matched grid that a caller keeps own their arrays, share no memory
    # with a workspace buffer, and so a physical row run after them, over a
    # workspace an earlier row grew, leaves them be
    monkeypatch.setattr(montecarlo, "_GRIDS", weakref.WeakKeyDictionary())
    cfg, loads = candidates["r0_Hl_Hl"], LoadDistribution(12.0, 4.0)
    simulate(cfg, loads, params, 1000, seed=1)
    frame = run_frame(cfg, 12, 4, params, np.random.default_rng(2))
    schedule = schedule_block(cfg, [12, 3], [4, 9])
    grid = _matched_values(cfg, params)
    arrays = [*vars(frame).values(), schedule.rows, schedule.slot_counts, grid]
    buffers = montecarlo._WORKSPACE.buffers.values()
    assert not any(np.shares_memory(array, buffer) for array in arrays for buffer in buffers)
    kept = [array.copy() for array in arrays]
    simulate(cfg, loads, params, 1000, seed=2)
    for array, copy in zip(arrays, kept):
        assert np.array_equal(array, copy)


def test_rows_in_threads_keep_the_bits_of_rows_in_turn(params, candidates, monkeypatch):
    # each thread's rows use that thread's workspace: four threads, more
    # than the cores, each running physical rows of many short passes at
    # once, with the interpreter switching threads often, give the results
    # of the same rows run one after another in one thread
    monkeypatch.setattr(montecarlo, "FILL_USERS", 64)
    jobs = [(cfg, LoadDistribution(*lambdas), seed, mode)
            for seed, (cfg, lambdas, mode) in enumerate(zip(
                candidates.values(), [(6.0, 4.0), (12.0, 4.0), (2.0, 1.0)],
                ["exact_sampled", "exact_mean", "worst_sampled"]))]

    def rows(first):
        return [simulate(cfg, loads, params, 400, seed=(first, seed), **MODES[mode])
                for cfg, loads, seed, mode in jobs]

    in_turn = [rows(first) for first in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(rows, first) for first in range(4)]
            at_once = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert at_once == in_turn


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


def pass_streams(params, seed, frames, lambdas=(12.0, 4.0)):
    """The counts of one engine pass of ``frames`` frames and its layout
    and deviate streams, drawn as ``simulate`` draws them."""
    law = _Activation(LoadDistribution(*lambdas), params, ActivationModel.TRUNCATED_POISSON)
    counts = draw_counts(law, _stream(seed, COUNTS), frames)
    return counts, _stream(seed, LAYOUTS), _stream(seed, DEVIATES)


def traced_pass(cfg, params, seed, mode):
    """(users, traced memory peak [B]) of one engine pass of 256 frames at
    lambda = (12, 4), about 4,100 users, on the running thread's
    workspace."""
    counts, layouts, deviates = pass_streams(params, seed, 256)
    tracemalloc.start()
    try:
        _receptions(cfg, counts, params, None if mode.get("worst_case_distances") else layouts,
                    None if mode.get("mean_shadowing") else deviates)
        return int(counts.sum()), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", PHYSICAL)
def test_pass_memory_per_user(params, candidates, mode):
    # a pass keeps alive only what it still has to read: the layout, the
    # distances and the deviates go once read, and the rate is made in one
    # array. Its record alone holds about 125 B per user. A pass takes its
    # four largest arrays from its thread's workspace: on one that an
    # earlier pass grew it peaked at 101-148 B per user (numpy 2.4), and as
    # a new thread's first pass, which grows the workspace, at 189-269 B;
    # each bounded here with 10% over the largest
    for cfg in candidates.values():
        traced_pass(cfg, params, (9, 9), MODES[mode])  # warm: set-up, a grown workspace
        users, peak = traced_pass(cfg, params, (1, 1, 0), MODES[mode])
        assert 4000 <= users <= 4200
        assert peak <= 165 * users
        with ThreadPoolExecutor(max_workers=1) as pool:  # a new thread's workspace is empty
            users, peak = pool.submit(traced_pass, cfg, params, (1, 1, 0), MODES[mode]).result()
        assert peak <= 296 * users


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
    # one transmit term per row, and the frame sums with one bincount in
    # slot order: each must keep the bits of the plain formula, on drawn
    # frames and on empty frames, the last among them, beside one-unit ones
    edges = np.array([[0, 0], [1, 0], [0, 0], [1, 1], [0, 1], [0, 0]])
    for cfg in all_configurations().values():
        drawn, layouts, deviates = pass_streams(params, (21, cfg.r, cfg.t1, cfg.t2), 128,
                                                (6.0, 4.0))
        for counts in (drawn, edges):
            frame = _receptions(cfg, counts, params,
                                None if MODES[mode].get("worst_case_distances") else layouts,
                                None if MODES[mode].get("mean_shadowing") else deviates)
            assert np.array_equal(frame.rate, np.log2(
                1.0 + frame.signal / (frame.interference + params.noise_power)))
            slot_counts = schedule_block(cfg, counts[:, 0], counts[:, 1]).slot_counts
            assert np.array_equal(frame.throughput, slot_by_slot(frame, slot_counts))
            if mode == "worst_mean":  # each direction's transmit term on its own rows
                altitude = np.array([params.altitude(cfg.t1), params.altitude(cfg.t2)])
                edge = altitude[frame.link - 1] / math.cos(params.phi_b)
                down = frame.downlink
                tx_dl, tx_ul = channel.los_tx(params)
                assert np.array_equal(frame.signal[down],
                                      channel.rx_power_los(edge[down], tx_dl, params))
                assert np.array_equal(frame.signal[~down],
                                      channel.rx_power_los(edge[~down], tx_ul, params))


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
