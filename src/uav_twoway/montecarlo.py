"""Frame-level stochastic simulator with explicit user positions.

Each frame draws the active-user counts, places users uniformly in their
cells, schedules service units with the three-step scheme, and computes
all its receptions at once as columns (one row per receiver and slot)
from exact distances and per-reception shadowing draws. A
matched-assumption mode substitutes the worst-case distances and mean
shadowing, in which case the frame reproduces the analytical conditional
throughput and validates the closed form.

One engine computes a block of frames at once: each frame draws from its
own stream, in the order a lone frame would, and the block's geometry,
powers and rates are filled in one numpy pass. ``run_frame`` is a block
of one; ``simulate`` runs blocks of BLOCK_FRAMES and plans each (K1, K2)
once, so a frame has the same value either way, bit for bit.

UAV-to-UAV interference never occurs: the guard offset keeps the low UAV
outside the high UAV's main lobe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import RateExceedsPopulationError
from .pairing import schedule_frame
from .params import SystemParams
from .sinr import Configuration
from .throughput import LoadDistribution, _split_weights

DOWNLINK = "dl"
UPLINK = "ul"
# Frames per numpy pass of ``simulate``. Larger blocks gain little, since
# each frame's own stream remains, and cost memory.
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


@dataclass(frozen=True)
class UserLayout:
    """Active-user coordinates [m], one row per user, per cell.

    Cell 1 is centered at the origin, cell 2 at (d_sep, 0).
    """

    cell1: np.ndarray
    cell2: np.ndarray


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


def sample_layout(k1: int, k2: int, params: SystemParams, rng) -> UserLayout:
    """Uniform positions in each disc of radius d_0, drawn as a frame draws
    them: cell 1's radii and angles, then cell 2's."""
    x, y = _positions(rng.random(2 * (k1 + k2)), np.array((k1, k2)), params)
    xy = np.column_stack((x, y))
    return UserLayout(cell1=xy[:k1], cell2=xy[k1:])


def draw_activation(loads: LoadDistribution, params: SystemParams,
                    model: ActivationModel, rng) -> tuple[int, int]:
    """Draw (K1, K2) for one frame under a physical activation model."""
    n = params.n_users
    if model is ActivationModel.TRUNCATED_POISSON:
        def truncated(lam):
            while True:
                count = int(rng.poisson(lam))
                if 1 <= count <= n:
                    return count
        return truncated(loads.lambda1), truncated(loads.lambda2)
    if model is ActivationModel.BINOMIAL_PER_USER:
        if loads.lambda1 > n or loads.lambda2 > n:
            raise RateExceedsPopulationError(
                f"lambda exceeds the {n}-user population: "
                f"({loads.lambda1!r}, {loads.lambda2!r})")
        return (int(rng.binomial(n, loads.lambda1 / n)),
                int(rng.binomial(n, loads.lambda2 / n)))
    raise ValueError(f"draw_activation does not handle {model!r}")


@dataclass(frozen=True, eq=False)
class FrameRealization:
    """One frame's receptions as columns, one row per receiver and slot, in
    slot order; a slot holds one row, or two for a co-channel pair.

    ``link`` is the serving UAV, ``cell`` and ``user`` the ground endpoint
    (its cell, its index there), ``direction`` "dl" or "ul", ``interferer``
    "none", "uav" or "ground". Powers are in W; ``rate`` and
    ``throughput``, the mean slot sum-rate, in bits/s/Hz.
    """

    k1: int
    k2: int
    slot: np.ndarray
    kind: np.ndarray
    link: np.ndarray
    direction: np.ndarray
    cell: np.ndarray
    user: np.ndarray
    signal: np.ndarray
    interference: np.ndarray
    interferer: np.ndarray
    rate: np.ndarray
    throughput: float

    @property
    def slot_count(self) -> int:
        return int(self.slot[-1]) + 1 if self.slot.size else 0


@dataclass(frozen=True, eq=False)
class _Plan:
    """The schedule of a (K1, K2) frame before any draw: each unit's class,
    and the frame's receptions in slot order, one column per row of
    ``rows`` (slot, link, user, partner). Users are numbered across both
    cells, cell 1 first; a lone user is its own partner."""

    k1: int
    k2: int
    kinds: list  # a list: freed tuples of up to 19 items stay on CPython's free lists
    rows: np.ndarray

    @property
    def slot_count(self) -> int:
        return 2 * len(self.kinds)


def _plan(cfg: Configuration, k1: int, k2: int) -> _Plan:
    units = schedule_frame(range(k1), range(k1, k1 + k2), cfg)
    # each unit's receivers in its first slot, then again in its second
    rows = [(slot, link, user, partner)
            for index, unit in enumerate(units) for slot in (2 * index, 2 * index + 1)
            for (link, user), (_, partner) in zip(unit.served, unit.served[::-1])]
    return _Plan(k1, k2, [unit.kind for unit in units],
                 np.array(rows, dtype=np.int64).reshape(-1, 4).T)


@dataclass(frozen=True, eq=False)
class _Receptions:
    """The receptions of a block of frames as columns, frame after frame.
    Slots and users are numbered across the block; ``cell`` is indexed by
    user and ``throughput`` holds one value per frame."""

    slot: np.ndarray
    link: np.ndarray
    user: np.ndarray
    downlink: np.ndarray
    cell: np.ndarray
    hit: np.ndarray
    signal: np.ndarray
    interference: np.ndarray
    rate: np.ndarray
    throughput: list


def _receptions(cfg: Configuration, plans: list, rngs: list, params: SystemParams,
                worst_case_distances: bool, mean_shadowing: bool) -> _Receptions:
    """Every reception of a block of frames, in one pass.

    Frame j follows ``plans[j]`` and draws from ``rngs[j]``: its layout
    (unless worst-case), then one shadowing deviate per reception in slot
    order, for its signal and then for its interferer if one reaches it
    (unless mean). In worst-case mode the serving distance is the lobe
    edge, every reachable interferer sits at its closest admissible
    position, and whether it is reachable follows from the altitude levels
    and cell membership instead of actual positions.
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
        x, y = _positions(np.concatenate([rng.random(2 * count)
                                          for rng, count in zip(rngs, frame_users.tolist())]),
                          sizes, params)
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
        # each frame from its own stream: one deviate per row, one more per hit
        draws = np.bincount(frame[hit], minlength=frames) + receptions
        z = np.concatenate([rng.standard_normal(count)
                            for rng, count in zip(rngs, draws.tolist())])
        deviates = 1 + hit  # per row: its signal's, then its interferer's
        first = np.cumsum(deviates) - deviates
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
    return _Receptions(slot=slot, link=link, user=user, downlink=downlink, cell=cell, hit=hit,
                       signal=signal, interference=interference, rate=rate,
                       throughput=throughput)


def run_frame(cfg: Configuration, k1: int, k2: int, params: SystemParams, rng=None, *,
              worst_case_distances: bool = False,
              mean_shadowing: bool = False) -> FrameRealization:
    """Simulate one frame and return its receptions as columns.

    The frame is a block of one: it draws its layout (unless worst-case),
    then its shadowing deviates (unless mean), as frame i of a ``simulate``
    run with seed s does from ``frame_rng(s, i)``. Only worst-case
    distances with mean shadowing draw nothing and may leave ``rng`` out.
    """
    if rng is None and not (worst_case_distances and mean_shadowing):
        distances = "worst-case" if worst_case_distances else "exact"
        shadowing = "mean" if mean_shadowing else "sampled"
        raise ValueError(f"rng is required for {distances} distances with {shadowing} shadowing")
    plan = _plan(cfg, k1, k2)
    frame = _receptions(cfg, [plan], [rng], params, worst_case_distances, mean_shadowing)
    cell = frame.cell[frame.user]
    interferer = np.where(frame.downlink, "uav", "ground") if cfg.r == 0 else "ground"
    return FrameRealization(
        k1=k1, k2=k2, slot=frame.slot, kind=np.array(plan.kinds, dtype=str)[frame.slot // 2],
        link=frame.link, direction=np.where(frame.downlink, DOWNLINK, UPLINK), cell=cell,
        user=frame.user - k1 * (cell == 2), signal=frame.signal,
        interference=frame.interference, interferer=np.where(frame.hit, interferer, "none"),
        rate=frame.rate, throughput=frame.throughput[0])


@dataclass(frozen=True)
class SimResult:
    """Empirical throughput with a normal-approximation 95% interval."""

    mean: float
    ci_half_width: float
    n_frames: int
    seed: object

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


def frame_rng(seed, frame_index: int):
    """Independent stream for one frame, a pure function of (seed, index)."""
    sequence = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(frame_index,))
    return np.random.default_rng(sequence)


def _stratum_tables(n: int) -> dict:
    """Per-k admissible splits with their cumulative case-count weights."""
    tables = {}
    for k in range(-n, n + 1):
        splits, weights = _split_weights(k, n)
        if splits:
            tables[k] = (splits, np.cumsum(weights))
    return tables


def simulate(cfg: Configuration, loads: LoadDistribution, params: SystemParams,
             n_frames: int, seed, *,
             activation: ActivationModel = ActivationModel.TRUNCATED_POISSON,
             worst_case_distances: bool = False,
             mean_shadowing: bool = False) -> SimResult:
    """Empirical mean throughput over ``n_frames`` independent frames.

    Deterministic given ``seed``: frame i uses its own stream derived from
    (seed, i), so results do not depend on scheduling order or worker
    count. Frames run in blocks of BLOCK_FRAMES through the engine of
    ``run_frame``, each (K1, K2) planned once, and give the values
    ``run_frame`` gives them one by one. With worst-case distances and mean
    shadowing the per-frame value depends only on (K1, K2) and is memoized.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames!r}")
    matched = worst_case_distances and mean_shadowing
    tables = (_stratum_tables(params.n_users)
              if activation is ActivationModel.MODEL_MATCHED else None)

    def counts(rng):
        """(K1, K2) of one frame; None for a load difference with no split."""
        if tables is None:
            return draw_activation(loads, params, activation, rng)
        k = int(rng.poisson(loads.lambda1)) - int(rng.poisson(loads.lambda2))
        entry = tables.get(k)
        if entry is None:
            return None
        splits, cumulative = entry
        position = int(np.searchsorted(cumulative, rng.random(), side="right"))
        big_k2 = splits[min(position, len(splits) - 1)]
        return big_k2 + k, big_k2

    plans: dict = {}
    memo: dict = {}
    values = np.zeros(n_frames)
    for start in range(0, n_frames, BLOCK_FRAMES):
        block, block_plans, rngs = [], [], []
        for i in range(start, min(start + BLOCK_FRAMES, n_frames)):
            rng = frame_rng(seed, i)
            key = counts(rng)
            if key is None:
                continue  # an empty frame: its value stays 0
            if matched:
                if key not in memo:
                    memo[key] = run_frame(cfg, *key, params, worst_case_distances=True,
                                          mean_shadowing=True).throughput
                values[i] = memo[key]
                continue
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan(cfg, *key)
            block.append(i)
            block_plans.append(plan)
            rngs.append(rng)
        if block:
            values[block] = _receptions(cfg, block_plans, rngs, params, worst_case_distances,
                                        mean_shadowing).throughput

    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n_frames > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(n_frames)
    return SimResult(mean=mean, ci_half_width=half_width, n_frames=n_frames, seed=seed)


def simulate_exhaustive(cfg: Configuration, loads: LoadDistribution, params: SystemParams) -> float:
    """Exact expectation of the matched-assumption simulator.

    Enumerates every admissible (K1, K2), runs one deterministic worst-case
    mean-shadowing frame each, and applies the same probability weights as
    the closed form. Agreement with the analytical average validates the
    scheduler and slot engine end to end.
    """
    n = params.n_users
    pmf = loads.skellam_vector(n)
    total = 0.0
    for k in range(-n, n + 1):
        splits, weights = _split_weights(k, n)
        if not splits:
            continue
        inner = 0.0
        for weight, big_k2 in zip(weights, splits):
            frame = run_frame(cfg, big_k2 + k, big_k2, params,
                              worst_case_distances=True, mean_shadowing=True)
            inner += weight * frame.throughput
        total += pmf[k] * inner
    return total
