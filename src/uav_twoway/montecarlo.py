"""Frame-level stochastic simulator with explicit user positions.

Each frame draws the active-user counts, places users uniformly in their
cells, schedules service units with the three-step scheme, and computes
all its receptions at once as columns (one row per receiver and slot)
from exact distances and per-reception shadowing draws. A
matched-assumption mode substitutes the worst-case distances and mean
shadowing, in which case the frame reproduces the analytical conditional
throughput and validates the closed form.

One engine computes a block of frames at once, in one numpy pass. A block
draws from one stream: every frame's counts, then the layouts of all its
users, then all its shadowing deviates, one call each. ``run_frame`` is a
block of one; ``simulate`` runs blocks of BLOCK_FRAMES, block b from
``frame_rng(seed, b)``, and plans each (K1, K2) once.

UAV-to-UAV interference never occurs: the guard offset keeps the low UAV
outside the high UAV's main lobe.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import RateExceedsPopulationError
from .pairing import Schedule, schedule_frame
from .params import SystemParams
from .sinr import Configuration
from .throughput import LoadDistribution, _split_weights

# Frames per stream and numpy pass of ``simulate``. Larger blocks run
# faster but hold more rows in memory at once.
BLOCK_FRAMES = 64


class ActivationModel(enum.Enum):
    """How the per-cell active-user counts are drawn.

    TRUNCATED_POISSON resamples a Poisson count until it lands in [1, N].
    BINOMIAL_PER_USER activates each of the N users independently with
    probability lambda/N. MODEL_MATCHED draws the load difference from the
    untruncated Poisson pair and the split from the case-count weights, so
    the sampled mean is an unbiased estimate of the closed-form average.
    """

    TRUNCATED_POISSON = "poisson"
    BINOMIAL_PER_USER = "binomial"
    MODEL_MATCHED = "model"


def _positions(uniforms: np.ndarray, sizes: np.ndarray, params: SystemParams):
    """User coordinates [m], users numbered cell after cell, from one draw
    of uniforms: a cell of k users takes 2k of them, its k radii and then
    its k angles. ``sizes`` gives the cells' user counts in turn, cell 1,
    cell 2, cell 1, ... of successive frames."""
    count = np.repeat(sizes, sizes)  # per user: the user count of its cell
    radius_at = np.repeat(np.cumsum(sizes) - sizes, sizes) + np.arange(count.size)
    radius = params.d_0 * np.sqrt(uniforms[radius_at])
    angle = 2.0 * np.pi * uniforms[radius_at + count]
    center_x = np.repeat(np.tile((0.0, params.d_sep), sizes.size // 2), sizes)
    return center_x + radius * np.cos(angle), radius * np.sin(angle)


@functools.lru_cache(maxsize=None)
def _split_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model-matched splits by load difference, row k + N for k in [-N, N]:
    the first admissible K2, the number of splits (0 for none) and their
    cumulative case-count weights, padded with inf."""
    first = np.zeros(2 * n + 1, dtype=np.int64)
    count = np.zeros(2 * n + 1, dtype=np.int64)
    cumulative = np.full((2 * n + 1, n), np.inf)
    for k in range(-n, n + 1):
        splits, weights = _split_weights(k, n)
        if splits:
            first[k + n], count[k + n] = splits[0], len(splits)
            cumulative[k + n, :len(splits)] = np.cumsum(weights)
    for table in (first, count, cumulative):
        table.flags.writeable = False
    return first, count, cumulative


def draw_activation(loads: LoadDistribution, params: SystemParams,
                    model: ActivationModel, rng, frames: int) -> np.ndarray:
    """Draw (K1, K2) for ``frames`` frames, one row each, in one call per
    draw: the Poisson or binomial counts of every frame, both cells at once.

    TRUNCATED_POISSON then redraws only the counts outside [1, N], until
    none is left. MODEL_MATCHED then draws one uniform per frame for its
    split, and gives (0, 0), an empty frame, where the load difference
    has no admissible split.
    """
    n = params.n_users
    lambdas = np.array((loads.lambda1, loads.lambda2))
    if model is ActivationModel.BINOMIAL_PER_USER:
        if loads.lambda1 > n or loads.lambda2 > n:
            raise RateExceedsPopulationError(
                f"lambda exceeds the {n}-user population: "
                f"({loads.lambda1!r}, {loads.lambda2!r})")
        return rng.binomial(n, lambdas / n, size=(frames, 2))
    if model not in (ActivationModel.TRUNCATED_POISSON, ActivationModel.MODEL_MATCHED):
        raise ValueError(f"draw_activation does not handle {model!r}")
    counts = rng.poisson(lambdas, size=(frames, 2))
    if model is ActivationModel.TRUNCATED_POISSON:
        redraw = (counts < 1) | (counts > n)
        while redraw.any():
            counts[redraw] = rng.poisson(np.broadcast_to(lambdas, counts.shape)[redraw])
            redraw = (counts < 1) | (counts > n)
        return counts
    first, count, cumulative = _split_table(n)
    k = counts[:, 0] - counts[:, 1]
    inside = np.abs(k) <= n
    row = np.where(inside, k + n, n)
    split = inside & (count[row] > 0)
    position = (cumulative[row] <= rng.random(frames)[:, None]).sum(axis=1)
    big_k2 = np.where(split, first[row] + np.minimum(position, count[row] - 1), 0)
    return np.column_stack((np.where(split, big_k2 + k, 0), big_k2))


@dataclass(frozen=True, eq=False)
class FrameRealization:
    """The receptions of a block of frames as columns, one row per receiver
    and slot, frame after frame in slot order; a slot holds one row, or two
    for a co-channel pair.

    Slots and users are numbered across the block, each frame's cell-1
    users first, so a row of a block of one belongs to the service class
    ``schedule.kinds[slot // 2]`` of its frame's Schedule. ``link`` is the
    serving UAV, ``user`` the ground endpoint, ``downlink`` whether the UAV
    transmits and ``hit`` whether the slot's co-channel transmitter reaches
    the receiver. ``cell`` is indexed by user. Powers are in W; ``rate``
    and ``throughput``, one mean slot sum-rate per frame, in bits/s/Hz.
    """

    slot: np.ndarray
    link: np.ndarray
    user: np.ndarray
    downlink: np.ndarray
    hit: np.ndarray
    signal: np.ndarray
    interference: np.ndarray
    rate: np.ndarray
    cell: np.ndarray
    throughput: list

    @property
    def slot_count(self) -> int:
        return int(self.slot[-1]) + 1 if self.slot.size else 0


def _receptions(cfg: Configuration, plans: list[Schedule], rng, params: SystemParams,
                worst_case_distances: bool, mean_shadowing: bool) -> FrameRealization:
    """Every reception of a block of frames, in one pass.

    Frame j follows ``plans[j]``. The block draws from ``rng`` in two
    calls: the layout of all its users, frame after frame (unless
    worst-case), then one shadowing deviate per reception, frame after
    frame in slot order, for its signal and then for its interferer if one
    reaches it (unless mean). In worst-case mode the serving distance is
    the lobe edge, every reachable interferer sits at its closest
    admissible position, and whether it is reachable follows from the
    altitude levels and cell membership instead of actual positions.
    """
    frames = len(plans)
    sizes = np.array([(plan.k1, plan.k2) for plan in plans], dtype=np.int64).reshape(-1)
    frame_users = sizes[::2] + sizes[1::2]
    receptions = [plan.rows.shape[1] for plan in plans]
    slot_counts = [plan.slot_count for plan in plans]
    slot, link, user, partner = np.concatenate([plan.rows for plan in plans], axis=1)
    frame = np.repeat(np.arange(frames), receptions)
    first_user = (np.cumsum(frame_users) - frame_users)[frame]
    user, partner = user + first_user, partner + first_user
    # a frame's slots start at an even number, so each keeps its parity
    slot = slot + (np.cumsum(slot_counts) - slot_counts)[frame]
    downlink = ((link == 2) * cfg.r + slot) % 2 == 0  # link 1 is downlink-first
    cell = np.repeat(np.tile((1, 2), frames), sizes)

    # With r = 0 a pair shares one direction and its interference is LoS:
    # the other UAV at a downlink receiver, the partner at an uplink one.
    # With r = 1 only a downlink receiver is interfered, by the partner
    # over NLoS.
    uav = np.where(downlink, 3 - link, link)
    ground = np.where(downlink, user, partner)
    altitude = np.array([params.altitude(cfg.t1), params.altitude(cfg.t2)])
    edge = altitude / math.cos(params.phi_b)
    if worst_case_distances:
        serve = edge[link - 1]
        los = altitude[uav - 1]
        high = np.array([cfg.t1, cfg.t2])[uav - 1] == 1
        reaches = high | (cell[ground] == uav)
        nlos = np.full(slot.shape, params.d_min)
    else:
        x, y = _positions(rng.random(2 * int(frame_users.sum())), sizes, params)
        center = np.array([0.0, params.d_sep])

        def slant(links, users):
            return np.sqrt((x[users] - center[links - 1]) ** 2 + y[users] ** 2
                           + altitude[links - 1] * altitude[links - 1])

        serve = slant(link, user)
        los = slant(uav, ground)
        reaches = los <= edge[uav - 1]
        nlos = np.hypot(x[partner] - x[user], y[partner] - y[user])
    hit = (partner != user) & (reaches if cfg.r == 0 else downlink)

    if mean_shadowing:
        z_signal = z_interference = 0.0
    else:
        deviates = 1 + hit  # per row: its signal's, then its interferer's
        first = np.cumsum(deviates) - deviates
        z = rng.standard_normal(int(deviates.sum()))
        z_signal, z_interference = z[first], z[first[hit] + 1]

    signal = np.where(downlink,
                      channel.rx_power_uav_to_ground(serve, params, z_signal),
                      channel.rx_power_ground_to_uav(serve, params, z_signal))
    interference = np.zeros(slot.shape)
    if cfg.r == 0:
        interference[hit] = np.where(
            downlink[hit],
            channel.rx_power_uav_to_ground(los[hit], params, z_interference),
            channel.rx_power_ground_to_uav(los[hit], params, z_interference))
    else:
        interference[hit] = channel.rx_power_ground_to_ground(nlos[hit], params, z_interference)
    rate = np.log2(1.0 + signal / (interference + params.noise_power))

    # summed slot by slot in order; numpy's pairwise sum would round differently
    slot_rates = np.bincount(slot, weights=rate).tolist()
    throughput, start = [], 0
    for count in slot_counts:
        throughput.append(sum(slot_rates[start:start + count]) / count if count else 0.0)
        start += count
    return FrameRealization(slot=slot, link=link, user=user, downlink=downlink, hit=hit,
                            signal=signal, interference=interference, rate=rate, cell=cell,
                            throughput=throughput)


def run_frame(cfg: Configuration, k1: int, k2: int, params: SystemParams, rng=None, *,
              worst_case_distances: bool = False,
              mean_shadowing: bool = False) -> FrameRealization:
    """Simulate one frame: the record of a block of one, whose
    ``throughput[0]`` is the frame's value.

    It draws its layout (unless worst-case), then its shadowing deviates
    (unless mean), as a block of ``simulate`` does after its counts. Only
    worst-case distances with mean shadowing draw nothing and may leave
    ``rng`` out.
    """
    if rng is None and not (worst_case_distances and mean_shadowing):
        distances = "worst-case" if worst_case_distances else "exact"
        shadowing = "mean" if mean_shadowing else "sampled"
        raise ValueError(f"rng is required for {distances} distances with {shadowing} shadowing")
    return _receptions(cfg, [schedule_frame(cfg, k1, k2)], rng, params,
                       worst_case_distances, mean_shadowing)


@dataclass(frozen=True)
class SimResult:
    """Empirical throughput with a normal-approximation 95% interval."""

    mean: float
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width


def _entropy(seed) -> tuple:
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return (int(seed),)


def frame_rng(seed, index: int):
    """Independent stream number ``index``, a pure function of (seed,
    index): block ``index`` of a ``simulate`` run draws from it."""
    sequence = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(index,))
    return np.random.default_rng(sequence)


def _fill_memo(cfg: Configuration, memo: dict, keys, params: SystemParams) -> None:
    """Add the matched-assumption value of every (K1, K2) in ``keys`` that
    ``memo`` lacks, one engine pass per BLOCK_FRAMES new keys. Such a frame
    draws nothing, so its value is a function of (K1, K2)."""
    new = list(dict.fromkeys(key for key in keys if key not in memo))
    for start in range(0, len(new), BLOCK_FRAMES):
        chunk = new[start:start + BLOCK_FRAMES]
        plans = [schedule_frame(cfg, *key) for key in chunk]
        memo.update(zip(chunk, _receptions(cfg, plans, None, params, True, True).throughput))


def simulate(cfg: Configuration, loads: LoadDistribution, params: SystemParams,
             n_frames: int, seed, *,
             activation: ActivationModel = ActivationModel.TRUNCATED_POISSON,
             worst_case_distances: bool = False,
             mean_shadowing: bool = False) -> SimResult:
    """Empirical mean throughput over ``n_frames`` independent frames.

    Deterministic given ``seed``: frames run in blocks of BLOCK_FRAMES, and
    block b (frames b * BLOCK_FRAMES onward) draws from its own stream
    ``frame_rng(seed, b)``, so results do not depend on scheduling order or
    worker count. A block draws the counts of all its frames with
    ``draw_activation``, then what ``run_frame`` draws, for all its frames
    at once; each (K1, K2) is planned once. With worst-case distances and
    mean shadowing a frame's value depends only on (K1, K2) and is
    memoized.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames!r}")
    matched = worst_case_distances and mean_shadowing
    plans: dict = {}
    memo: dict = {}
    values = np.zeros(n_frames)
    for block, start in enumerate(range(0, n_frames, BLOCK_FRAMES)):
        stop = min(start + BLOCK_FRAMES, n_frames)
        rng = frame_rng(seed, block)
        keys = list(map(tuple, draw_activation(loads, params, activation, rng,
                                               stop - start).tolist()))
        if matched:
            _fill_memo(cfg, memo, keys, params)
            values[start:stop] = [memo[key] for key in keys]
            continue
        for key in keys:
            if key not in plans:
                plans[key] = schedule_frame(cfg, *key)
        values[start:stop] = _receptions(cfg, [plans[key] for key in keys], rng, params,
                                         worst_case_distances, mean_shadowing).throughput

    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n_frames > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(n_frames)
    return SimResult(mean=mean, ci_half_width=half_width)


def simulate_exhaustive(cfg: Configuration, loads: LoadDistribution, params: SystemParams) -> float:
    """Exact expectation of the matched-assumption simulator.

    Enumerates every admissible (K1, K2), computes its deterministic
    worst-case mean-shadowing frame with the engine ``simulate`` memoizes
    in that mode, and applies the same probability weights as the closed
    form. Agreement with the analytical average validates the scheduler
    and slot engine end to end.
    """
    n = params.n_users
    pmf = loads.skellam_vector(n)
    strata = [(k, *_split_weights(k, n)) for k in range(-n, n + 1)]
    memo: dict = {}
    _fill_memo(cfg, memo, [(big_k2 + k, big_k2) for k, splits, _ in strata for big_k2 in splits],
               params)
    total = 0.0
    for k, splits, weights in strata:
        if not splits:
            continue
        inner = 0.0
        for weight, big_k2 in zip(weights, splits):
            inner += weight * memo[big_k2 + k, big_k2]
        total += pmf[k] * inner
    return total
