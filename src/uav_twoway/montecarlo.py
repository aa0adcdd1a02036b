"""Frame-level stochastic simulator with explicit user positions.

Each frame draws the active-user counts, places users uniformly in their
cells, schedules service units with the three-step scheme, and walks the
slots computing per-reception rates from exact distances and per-slot
shadowing draws. A matched-assumption mode substitutes the worst-case
distances and mean shadowing, in which case the frame reproduces the
analytical conditional throughput and validates the closed form.

UAV-to-UAV interference never occurs: the guard offset keeps the low UAV
outside the high UAV's main lobe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import channel
from .channel import MEAN_DB, ShadowingMode
from .errors import RateExceedsPopulationError
from .pairing import schedule_frame
from .params import DerivedConstants, SystemParams
from .sinr import Configuration
from .throughput import LoadDistribution, _split_weights

DOWNLINK = "dl"
UPLINK = "ul"

# spawn key reserved for the fixed-layout stream; frame streams use (0..n-1)
_LAYOUT_STREAM = 0xFFFFFFFF


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

    def position(self, user: tuple[int, int]) -> tuple[float, float]:
        cell, index = user
        row = (self.cell1 if cell == 1 else self.cell2)[index]
        return float(row[0]), float(row[1])


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


@dataclass(frozen=True)
class Reception:
    """One receiver's view of one slot."""

    link: int                 # serving link (UAV index)
    direction: str            # "dl" | "ul"
    user: tuple[int, int]     # (cell, index) of the ground endpoint
    signal: float             # W
    interference: float       # W
    interferer: str           # "none" | "uav" | "ground"
    rate: float               # bits/s/Hz


@dataclass(frozen=True)
class SlotRecord:
    index: int
    kind: str
    receptions: tuple[Reception, ...]

    @property
    def rate(self) -> float:
        return sum(reception.rate for reception in self.receptions)


@dataclass(frozen=True)
class FrameRealization:
    k1: int
    k2: int
    ledger: tuple[SlotRecord, ...]
    seed: object = None  # provenance tag; None for directly supplied streams

    @property
    def slot_count(self) -> int:
        return len(self.ledger)

    @cached_property
    def throughput(self) -> float:
        if not self.ledger:
            return 0.0
        return sum(slot.rate for slot in self.ledger) / self.slot_count


class _Geometry:
    """Distances and reachability for one frame, exact or worst-case.

    In worst-case mode the serving distance is the lobe edge and every
    reachable interferer sits at its closest admissible position; whether
    an interferer is reachable then follows from the altitude indicator
    and cell membership instead of actual positions.
    """

    def __init__(self, cfg: Configuration, params: SystemParams,
                 derived: DerivedConstants, layout: UserLayout | None,
                 worst_case: bool):
        self.params = params
        self.derived = derived
        self.layout = layout
        self.worst_case = worst_case
        self.level = {1: cfg.t1, 2: cfg.t2}
        self.altitude = {1: derived.altitude(cfg.t1), 2: derived.altitude(cfg.t2)}
        self.center = {1: (0.0, 0.0), 2: (params.d_sep, 0.0)}
        self.cos_phi = math.cos(params.phi_b)

    def _slant(self, link: int, user) -> float:
        x, y = self.layout.position(user)
        cx, cy = self.center[link]
        h = self.altitude[link]
        return math.sqrt((x - cx) ** 2 + (y - cy) ** 2 + h * h)

    def serve_distance(self, link: int, user) -> float:
        if self.worst_case:
            return self.altitude[link] / self.cos_phi
        return self._slant(link, user)

    def uav_interference(self, tx_link: int, user) -> tuple[bool, float]:
        """Reachability and distance of an interfering UAV at a ground user."""
        h = self.altitude[tx_link]
        if self.worst_case:
            reachable = bool(self.level[tx_link]) or user[0] == tx_link
            return reachable, h
        distance = self._slant(tx_link, user)
        return distance <= h / self.cos_phi, distance

    def ground_interference_at_uav(self, rx_link: int, user) -> tuple[bool, float]:
        """Reachability and distance of an interfering ground user at a UAV.

        The receive cone mirrors the transmit lobe: a low UAV cannot hear
        the other cell.
        """
        h = self.altitude[rx_link]
        if self.worst_case:
            reachable = bool(self.level[rx_link]) or user[0] == rx_link
            return reachable, h
        distance = self._slant(rx_link, user)
        return distance <= h / self.cos_phi, distance

    def ground_to_ground(self, tx_user, rx_user) -> float:
        if self.worst_case:
            return self.derived.d_min
        tx, rx = self.layout.position(tx_user), self.layout.position(rx_user)
        return math.hypot(tx[0] - rx[0], tx[1] - rx[1])


def run_frame(cfg: Configuration, k1: int, k2: int, params: SystemParams,
              derived: DerivedConstants, rng=None, *,
              worst_case_distances: bool = False, mean_shadowing: bool = False,
              randomize_matching: bool = False,
              layout: UserLayout | None = None, seed=None) -> FrameRealization:
    """Simulate one frame and return its full slot ledger.

    Draw order per frame: optional matching permutations, layout (unless
    worst-case or given), then shadowing per reception in slot order.
    """
    active1 = [(1, i) for i in range(k1)]
    active2 = [(2, i) for i in range(k2)]
    if randomize_matching and not worst_case_distances:
        active1 = [active1[i] for i in rng.permutation(k1)]
        active2 = [active2[i] for i in rng.permutation(k2)]
    if layout is None and not worst_case_distances:
        layout = sample_layout(k1, k2, params, rng)

    units = schedule_frame(active1, active2, cfg)
    geometry = _Geometry(cfg, params, derived, layout, worst_case_distances)
    shadowing = MEAN_DB if mean_shadowing else ShadowingMode(rng)
    spin = {1: 0, 2: cfg.r}  # link 1 is downlink-first

    ledger = []
    for unit in units:
        for half in (0, 1):
            receptions = []
            active = [(link, user, DOWNLINK if (spin[link] + half) % 2 == 0 else UPLINK)
                      for link, user in unit.served]
            for link, user, direction in active:
                others = [entry for entry in active if entry[0] != link]
                distance = geometry.serve_distance(link, user)
                if direction == DOWNLINK:
                    signal = channel.rx_power_uav_to_ground(distance, params, derived, shadowing)
                else:
                    signal = channel.rx_power_ground_to_uav(distance, params, derived, shadowing)

                interference, interferer = 0.0, "none"
                if others:
                    other_link, other_user, other_direction = others[0]
                    if direction == DOWNLINK:
                        # receiver is the ground user
                        if other_direction == DOWNLINK:
                            reachable, dist = geometry.uav_interference(other_link, user)
                            if reachable:
                                interference = channel.rx_power_uav_to_ground(
                                    dist, params, derived, shadowing)
                                interferer = "uav"
                        else:
                            dist = geometry.ground_to_ground(other_user, user)
                            interference = channel.rx_power_ground_to_ground(
                                dist, params, derived, shadowing)
                            interferer = "ground"
                    else:
                        # receiver is the serving UAV; a simultaneous downlink
                        # would be UAV-to-UAV interference, which the guard
                        # altitude suppresses entirely
                        if other_direction == UPLINK:
                            reachable, dist = geometry.ground_interference_at_uav(
                                link, other_user)
                            if reachable:
                                interference = channel.rx_power_ground_to_uav(
                                    dist, params, derived, shadowing)
                                interferer = "ground"

                rate = math.log2(1.0 + signal / (interference + params.noise_power))
                receptions.append(Reception(link=link, direction=direction, user=user,
                                            signal=signal, interference=interference,
                                            interferer=interferer, rate=rate))
            ledger.append(SlotRecord(index=len(ledger), kind=unit.kind,
                                     receptions=tuple(receptions)))
    return FrameRealization(k1=k1, k2=k2, ledger=tuple(ledger), seed=seed)


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
             derived: DerivedConstants, n_frames: int, seed, *,
             activation: ActivationModel = ActivationModel.TRUNCATED_POISSON,
             worst_case_distances: bool = False, mean_shadowing: bool = False,
             randomize_matching: bool = False,
             fixed_layout: bool = False) -> SimResult:
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

    layout = None
    if fixed_layout and not worst_case_distances:
        layout_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(_LAYOUT_STREAM,)))
        layout = sample_layout(n, n, params, layout_rng)

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
                memo[key] = run_frame(cfg, k1, k2, params, derived, rng,
                                      worst_case_distances=True,
                                      mean_shadowing=True).throughput
            values[i] = memo[key]
        else:
            frame_layout = None
            if layout is not None:
                frame_layout = UserLayout(cell1=layout.cell1[:k1], cell2=layout.cell2[:k2])
            values[i] = run_frame(
                cfg, k1, k2, params, derived, rng,
                worst_case_distances=worst_case_distances,
                mean_shadowing=mean_shadowing,
                randomize_matching=randomize_matching,
                layout=frame_layout, seed=_entropy(seed) + (i,)).throughput

    mean = float(values.mean())
    std = float(values.std(ddof=1)) if n_frames > 1 else 0.0
    half_width = 1.96 * std / math.sqrt(n_frames)
    return SimResult(mean=mean, ci_half_width=half_width, n_frames=n_frames, seed=seed)


def simulate_exhaustive(cfg: Configuration, loads: LoadDistribution,
                        params: SystemParams, derived: DerivedConstants) -> float:
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
            frame = run_frame(cfg, big_k2 + k, big_k2, params, derived,
                              worst_case_distances=True, mean_shadowing=True)
            inner += weight * frame.throughput
        total += pmf[k] * inner
    return total
