"""Frame-level stochastic simulator with explicit user positions.

Each frame draws the active-user counts, places users uniformly in their
cells, schedules service units with the three-step scheme, and computes
all its receptions at once as columns (one row per receiver and slot)
from exact distances and per-reception shadowing draws. A
matched-assumption mode substitutes the worst-case distances and mean
shadowing, in which case the frame reproduces the analytical conditional
throughput and validates the closed form.

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


def sample_layout(k1: int, k2: int, params: SystemParams, rng) -> UserLayout:
    """Uniform positions in each disc of radius d_0."""

    def disc(count, center_x):
        radius = params.d_0 * np.sqrt(rng.random(count))
        angle = 2.0 * np.pi * rng.random(count)
        return np.column_stack((center_x + radius * np.cos(angle),
                                radius * np.sin(angle)))

    return UserLayout(cell1=disc(k1, 0.0), cell2=disc(k2, params.d_sep))


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


def run_frame(cfg: Configuration, k1: int, k2: int, params: SystemParams, rng=None, *,
              worst_case_distances: bool = False,
              mean_shadowing: bool = False) -> FrameRealization:
    """Simulate one frame and return its receptions as columns.

    Draw order per frame: the layout (unless worst-case), then one
    shadowing deviate per reception in slot order, for its signal and then
    for its interferer if one reaches it. In worst-case mode the serving
    distance is the lobe edge, every reachable interferer sits at its
    closest admissible position, and whether it is reachable follows from
    the altitude levels and cell membership instead of actual positions.
    Only worst-case distances with mean shadowing draw nothing and may
    leave ``rng`` out.
    """
    if rng is None and not (worst_case_distances and mean_shadowing):
        distances = "worst-case" if worst_case_distances else "exact"
        shadowing = "mean" if mean_shadowing else "sampled"
        raise ValueError(f"rng is required for {distances} distances with {shadowing} shadowing")
    # users are numbered across both cells: cell 1 is 0..k1-1, cell 2 follows
    units = schedule_frame(range(k1), range(k1, k1 + k2), cfg)
    # (unit, link, user, co-channel partner); a lone user is its own partner
    served = np.array([(index, link, user, partner)
                       for index, unit in enumerate(units)
                       for (link, user), (_, partner) in zip(unit.served, unit.served[::-1])],
                      dtype=np.int64).reshape(-1, 4)
    # each unit's receivers in its first slot, then again in its second
    slot = np.concatenate((2 * served[:, 0], 2 * served[:, 0] + 1))
    order = np.argsort(slot, kind="stable")
    slot = slot[order]
    link, user, partner = np.concatenate((served, served))[order, 1:].T
    downlink = ((link == 2) * cfg.r + slot) % 2 == 0  # link 1 is downlink-first
    cell_of = np.repeat([1, 2], (k1, k2))  # by user number

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
        reaches = high | (cell_of[ground] == uav)
        nlos = np.full(slot.shape, params.d_min)
    else:
        layout = sample_layout(k1, k2, params, rng)
        x, y = np.concatenate((layout.cell1, layout.cell2)).T
        center = np.array([0.0, params.d_sep])

        def slant(links, users):
            return np.sqrt((x[users] - center[links - 1]) ** 2 + y[users] ** 2
                           + altitude[links - 1] * altitude[links - 1])

        serve = slant(link, user)
        los = slant(uav, ground)
        reaches = los <= edge[uav - 1]
        nlos = np.hypot(x[partner] - x[user], y[partner] - y[user])
    hit = (partner != user) & (reaches if cfg.r == 0 else downlink)

    deviates = 1 + hit  # per row: its signal's, then its interferer's
    if mean_shadowing:
        z_signal = z_interference = 0.0
    else:
        z = rng.standard_normal(int(deviates.sum()))
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
        interferer = np.where(downlink, "uav", "ground")
    else:
        interference[hit] = channel.rx_power_ground_to_ground(nlos[hit], params, z_interference)
        interferer = "ground"
    rate = np.log2(1.0 + signal / (interference + params.noise_power))

    # summed slot by slot in order; numpy's pairwise sum would round differently
    slot_rates = np.bincount(slot, weights=rate).tolist()
    cell = cell_of[user]
    return FrameRealization(
        k1=k1, k2=k2, slot=slot,
        kind=np.array([unit.kind for unit in units], dtype=str)[slot // 2],
        link=link, direction=np.where(downlink, DOWNLINK, UPLINK),
        cell=cell, user=user - k1 * (cell == 2), signal=signal,
        interference=interference, interferer=np.where(hit, interferer, "none"),
        rate=rate, throughput=sum(slot_rates) / len(slot_rates) if slot_rates else 0.0)


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
    count. With worst-case distances and mean shadowing the per-frame value
    depends only on (K1, K2) and is memoized.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames!r}")
    n = params.n_users
    matched = worst_case_distances and mean_shadowing
    memo: dict | None = {} if matched else None
    tables = _stratum_tables(n) if activation is ActivationModel.MODEL_MATCHED else None

    values = np.empty(n_frames)
    for i in range(n_frames):
        rng = frame_rng(seed, i)
        if activation is ActivationModel.MODEL_MATCHED:
            k = int(rng.poisson(loads.lambda1)) - int(rng.poisson(loads.lambda2))
            entry = tables.get(k)
            if entry is None:
                values[i] = 0.0
                continue
            splits, cumulative = entry
            position = int(np.searchsorted(cumulative, rng.random(), side="right"))
            big_k2 = splits[min(position, len(splits) - 1)]
            k1, k2 = big_k2 + k, big_k2
        else:
            k1, k2 = draw_activation(loads, params, activation, rng)

        if matched:
            key = (k1, k2)
            if key not in memo:
                memo[key] = run_frame(cfg, k1, k2, params, rng, worst_case_distances=True,
                                      mean_shadowing=True).throughput
            values[i] = memo[key]
        else:
            values[i] = run_frame(cfg, k1, k2, params, rng,
                                  worst_case_distances=worst_case_distances,
                                  mean_shadowing=mean_shadowing).throughput

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
