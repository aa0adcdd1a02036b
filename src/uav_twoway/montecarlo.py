"""Frame-level stochastic simulator with explicit user positions.

Each frame draws the active-user counts, places users uniformly in their
cells, schedules service units with the three-step scheme, and computes
all its receptions at once as columns (one row per receiver and slot)
from exact distances and per-reception shadowing draws. Each quantity is
computed where it varies: a user's slant distance to each UAV once per
user, a reception's received power once, every LoS one of the pass in one
``channel.rx_power_los`` call with its row's transmit term, and only what
its configuration reads. A pass keeps each temporary only while it still
reads it, so its memory per user stays small. A matched-assumption mode
substitutes the worst-case distances and mean shadowing, in which case the
frame reproduces the analytical conditional throughput and validates the
closed form.

One engine pass computes many frames at once, from the rows
``pairing.schedule_block`` makes of their (K1, K2). A ``simulate`` row
draws from three streams of its seed, one per kind of draw (``_stream``):
its frames' counts, their layouts and their shadowing deviates. Each
stream is read in frame order, so no value depends on how the row's
frames are cut into chunks and passes. A chunk of FILL_FRAMES frames draws
its flat cells K1 (N + 1) + K2 in one ``cells`` call of the row's
activation law, built once per load point and parameter set and shared by
the point's rows (``_law``); model activation's law maps one uniform per
frame to a cell through a cdf and a guide table. In the physical modes the
cells are split into (K1, K2), and an engine pass runs about FILL_USERS
users' frames of the chunk, draws their layout and their deviates in one
call each, and adds each frame's slot sum-rates in slot order with one
``np.bincount``. Every pass takes its four largest arrays, the schedule
rows, the layout uniforms, the 2 x users slant distances and the
shadowing deviates, from the running thread's ``_Workspace``: buffers kept
for the process and grown to the largest pass served, about 0.98 MB at
FILL_USERS = 8,192. So passes after the first allocate none of them, and
the allocator no longer hands their heap back to the system for the next
pass to fault in again: an in-process ``mc_exact`` call of the benchmark
takes about 2 minor page faults instead of 2,700. A pass's record views
its thread's workspace until that thread's next pass, and ``run_frame``'s
record owns its arrays. ``run_frame`` is a pass of one frame that draws
its layout, then its deviates, from one stream. In matched mode a frame
draws nothing, so its value is a function of (K1, K2): a row reads each
chunk's values from its configuration's ``_matched_values``, built whole
from one engine pass over five one-unit frames and kept while the
parameter set lives, and ``simulate_exhaustive``, the exact mean of such
rows under model activation, is that law's pmf times those values, summed
over the cells.

UAV-to-UAV interference never occurs: the guard offset keeps the low UAV
outside the high UAV's main lobe.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import channel
from .errors import RateExceedsPopulationError
from .pairing import schedule_block
from .params import SystemParams
from .sinr import Configuration
from .throughput import ActivationModel, LoadDistribution

# Frames whose cells one draw of the activation law takes, and about the
# users of one physical engine pass. Larger passes pay numpy's per-call
# overhead less often but hold more rows in memory at once: on the
# benchmark's mc_exact workload (perfbench/run.py, 2-core Xeon, 3 runs
# each) passes of 4,096 / 8,192 / 16,384 users took 33.5-33.6 /
# 31.8-32.5 / 25.0-30.3 ms per call and peaked at 40.0 / 41.1 / 43.1 MB,
# 16,384 too close to the benchmark's 10% memory bound. Neither changes a
# value: each stream is read in frame order.
FILL_FRAMES, FILL_USERS = 4096, 8192
# The kinds of draw of a row, each the spawn key of its own stream
COUNTS, LAYOUTS, DEVIATES = 0, 1, 2
# The fewest buckets of a model activation's guide table, a power of two.
GUIDE_BUCKETS = 4096


def _positions(uniforms: np.ndarray, sizes: np.ndarray, cell: np.ndarray,
               params: SystemParams):
    """User coordinates [m], users numbered cell after cell, from one draw
    of uniforms: a cell of k users takes 2k of them, its k radii and then
    its k angles. ``sizes`` gives the cells' user counts in turn, cell 1,
    cell 2, cell 1, ... of successive frames, and ``cell`` each user's cell."""
    count = np.repeat(sizes, sizes)  # per user: the user count of its cell
    radius_at = np.repeat(np.cumsum(sizes) - sizes, sizes) + np.arange(count.size)
    radius = params.d_0 * np.sqrt(uniforms[radius_at])
    angle = 2.0 * np.pi * uniforms[radius_at + count]
    return params.d_sep * (cell - 1) + radius * np.cos(angle), radius * np.sin(angle)


# Each parameter set's matched values, one read-only array per configuration
# (``_matched_values``), each made on first use and kept while the set
# lives; and the activation laws of the last load pair and parameter set,
# by model (``_law``)
_GRIDS = weakref.WeakKeyDictionary()
_LAWS = weakref.WeakKeyDictionary()


def _law(loads: LoadDistribution, params: SystemParams, model: ActivationModel):
    """``_Activation(loads, params, model)``, built once and shared by the
    rows of one load point. The store keeps the laws of one (loads, params),
    the last asked for, as a point's rows run one after another, so it
    holds one point's laws whoever calls it. It holds neither object, only
    weak references: the laws go with their loads, or with the next pair."""
    if not isinstance(model, ActivationModel):
        raise ValueError(f"activation must be an ActivationModel, got {model!r}")
    entry = _LAWS.get(loads)
    if entry is None or entry[0]() is not params:
        _LAWS.clear()
        entry = _LAWS[loads] = (weakref.ref(params), {})
    law = entry[1].get(model)
    if law is None:
        law = entry[1][model] = _Activation(loads, params, model)
    return law


class _Activation:
    """The (K1, K2) law of one (loads, params, model), drawn from a stream
    a run of frames at a time by ``cells``, one flat cell K1 (N + 1) + K2
    per frame. It holds no state of a draw, and its arrays are read-only,
    so one law serves every row of its load point: ``simulate`` and
    ``simulate_exhaustive`` take it from ``_law``. MODEL_MATCHED keeps its
    joint ``pmf`` on [0, N]^2, the closed form's law: P(lambda)[K1 - K2]
    times ``params.split_weights`` as an (N + 1)^2 array, and the rest, the
    Skellam mass of |k| >= N, on (0, 0), the empty frame; its cdf and guide
    table are built from it.

    Each law reads its stream in frame order, so drawing a row's frames in
    one call or in several, of any sizes, gives the same cells and leaves
    the stream in the same state. MODEL_MATCHED draws one uniform per
    frame, which ``invert`` maps to cells through the guide table, never to
    a cell after ``top``, the last one whose cdf step is not empty. The
    other two laws draw (K1, K2) pairs and flatten them: BINOMIAL_PER_USER
    draws its frames' counts, both cells at once, in one call.
    TRUNCATED_POISSON filters pairs: it draws the Poisson pairs of the
    frames still missing, keeps in order those with both counts in [1, N],
    and repeats until none is missing, so a call stops reading right after
    its last kept pair.
    """

    def __init__(self, loads: LoadDistribution, params: SystemParams, model: ActivationModel):
        n = params.n_users
        if model is ActivationModel.BINOMIAL_PER_USER and (loads.lambda1 > n or loads.lambda2 > n):
            raise RateExceedsPopulationError(
                f"lambda exceeds the {n}-user population: ({loads.lambda1!r}, {loads.lambda2!r})")
        self.model, self.n = model, n
        self.lambdas = np.array((loads.lambda1, loads.lambda2))
        if model is ActivationModel.MODEL_MATCHED:
            big_k1, big_k2 = np.indices((n + 1, n + 1))
            weights = np.fromiter(params.split_weights, float, (n + 1) ** 2)
            self.pmf = (np.asarray(loads.skellam_vector(n))[big_k1 - big_k2]
                        * weights.reshape(big_k1.shape))
            self.pmf[0, 0] = max(0.0, 1.0 - self.pmf.sum())
            self.cdf = np.cumsum(self.pmf)
            self.top = np.searchsorted(self.cdf, self.cdf[-1])  # the last cell where cdf rises
            # the guide table (Chen and Asau): bucket j, the uniforms in [j/m, (j + 1)/m),
            # starts at cell guide[j], the count of cdf entries <= j/m, capped at top.
            # m is a power of two, at least one bucket per cell, so u * m, j/m and
            # cdf * m are exact, and an entry is <= j/m where ceil(cdf * m) <= j: the
            # counts of each ceiling, those above m pooled at m + 1, summed up
            m = self.buckets = max(GUIDE_BUCKETS, 1 << (self.cdf.size - 1).bit_length())
            ceilings = np.minimum(np.ceil(self.cdf * m).astype(np.intp), m + 1)
            self.guide = np.minimum(
                np.cumsum(np.bincount(ceilings, minlength=m + 2)[:m + 1]), self.top)
            # whether a cdf step cuts each bucket; bucket m, 1 <= u < 1 + 1/m, is
            # never drawn but holds a cdf entry rounded above 1, so it is searched
            self.steps = np.append(self.guide[1:] != self.guide[:-1], True)
            for array in (self.pmf, self.cdf, self.guide, self.steps):
                array.flags.writeable = False
        self.lambdas.flags.writeable = False

    def invert(self, uniforms: np.ndarray) -> np.ndarray:
        """Each uniform's flat cell K1 (N + 1) + K2: the cell i of its step
        [cdf[i - 1], cdf[i]) of the row-major cdf of ``pmf``, and
        from the top of the cdf up ``top``, bit for bit
        ``np.minimum(np.searchsorted(cdf, uniforms, side="right"), top)``.
        A uniform takes its bucket's first cell; only those in a bucket
        that a cdf step cuts are searched for."""
        bucket = (uniforms * self.buckets).astype(np.intp)
        cells = self.guide[bucket]
        cut = np.flatnonzero(self.steps[bucket])
        cells[cut] = np.minimum(np.searchsorted(self.cdf, uniforms[cut], side="right"), self.top)
        return cells

    def cells(self, rng, frames: int) -> np.ndarray:
        """The next ``frames`` frames' flat cells K1 (N + 1) + K2."""
        n, lambdas = self.n, self.lambdas
        if self.model is ActivationModel.MODEL_MATCHED:
            return self.invert(rng.random(frames))
        if self.model is ActivationModel.BINOMIAL_PER_USER:
            counts = rng.binomial(n, lambdas / n, size=(frames, 2))
        else:
            counts, kept = np.empty((frames, 2), dtype=np.int64), 0
            while kept < frames:
                pairs = rng.poisson(lambdas, size=(frames - kept, 2))
                pairs = pairs[((pairs >= 1) & (pairs <= n)).all(axis=1)]
                counts[kept:kept + len(pairs)] = pairs
                kept += len(pairs)
        return counts[:, 0] * (n + 1) + counts[:, 1]


@dataclass(frozen=True, eq=False)
class FrameRealization:
    """The receptions of a pass of frames as columns, one row per receiver
    and slot, frame after frame in slot order; a slot holds one row, or two
    for a co-channel pair.

    Slots and users are numbered as in the pass's ``schedule_block``: a
    slot of one row serves a lone user, one of two rows a pair, same-cell
    if its users' ``cell`` (indexed by user) agree, else cross-cell.
    ``link`` is the serving UAV, ``user`` the ground endpoint, ``downlink``
    whether the UAV transmits and ``hit`` whether the slot's co-channel
    transmitter reaches the receiver. Powers are in W: ``signal`` of every
    row, ``interference`` 0 where not ``hit``. ``rate`` and ``throughput``,
    one mean slot sum-rate per frame, are in bits/s/Hz. ``slot_counts`` is
    the schedule's slot count of each frame, and ``slot_count`` their sum.

    A pass's record views its thread's workspace until that thread's next
    pass (its ``slot``, ``link`` and ``user``; every other column is a new
    array), and ``run_frame``'s record owns its arrays.
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
    throughput: np.ndarray
    slot_counts: np.ndarray

    @property
    def slot_count(self) -> int:
        return int(self.slot_counts.sum())


class _Workspace(threading.local):
    """The four largest arrays of a physical engine pass, kept for the
    thread's later passes so that a row's passes, and the rows after it,
    allocate none of them: the schedule rows, the layout uniforms, the
    2 x users slant distances and the shadowing deviates, each a buffer
    that ``take`` grows to the largest pass it has served. Per thread, so
    threads running rows at once share none of it, and kept for the
    process, so it serves every pass. A pass's record views its thread's
    workspace until that thread's next pass, and ``run_frame``'s record
    owns its arrays."""

    def __init__(self):
        self.buffers = {}

    def take(self, name: str, size: int, dtype) -> np.ndarray:
        """The first ``size`` elements of buffer ``name``, a view."""
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size, dtype)
        return buffer[:size]


_WORKSPACE = _Workspace()


def _distances(cfg: Configuration, rows: np.ndarray, downlink: np.ndarray, cell: np.ndarray,
               sizes: np.ndarray, params: SystemParams, layouts):
    """The geometry of a pass: each row's serving distance [m], whether its
    slot's co-channel transmitter reaches its receiver (``hit``), and that
    transmitter's distance [m] at each hit row, in row order.

    The stream ``layouts`` draws the layout of the pass's users
    (``_positions``, cells of ``sizes``) in one call. Exact distances come
    from every user's slant distance to each UAV, one 2 x users array the
    rows gather from. The uniforms and that array are the thread's
    ``_Workspace``'s. With ``layouts`` None the distances are the worst
    case: the serving distance is the lobe edge, every reachable interferer
    sits at its closest admissible position, and whether it is reachable
    follows from the altitude levels and cell membership instead of actual
    positions. With r = 0 a pair shares one direction and its interference
    is LoS: the other UAV at a downlink receiver, the partner at an uplink
    one, if it reaches the receiver. With r = 1 only a downlink receiver is
    interfered, by the partner over NLoS, at a ground-to-ground distance
    taken on those rows alone.
    """
    _, link, user, partner = rows
    hit = partner != user  # a lone user is its own partner
    altitude = np.array([params.altitude(cfg.t1), params.altitude(cfg.t2)])
    edge = altitude / math.cos(params.phi_b)
    if cfg.r == 1:
        hit &= downlink
    else:
        uav = np.where(downlink, 3 - link, link)
        ground = np.where(downlink, user, partner)
    if layouts is None:
        if cfg.r == 1:
            return edge[link - 1], hit, np.full(np.count_nonzero(hit), params.d_min)
        hit &= (np.array([cfg.t1, cfg.t2])[uav - 1] == 1) | (cell[ground] == uav)
        return edge[link - 1], hit, altitude[uav[hit] - 1]

    users = cell.size
    uniforms = _WORKSPACE.take("uniforms", 2 * users, float)
    x, y = _positions(layouts.random(out=uniforms), sizes, cell, params)
    if cfg.r == 1:
        source, sink = partner[hit], user[hit]
        nlos = np.hypot(x[source] - x[sink], y[source] - y[sink])
    # every user's slant distance to each UAV, one row per UAV, read flat:
    # sqrt((x - center) ** 2 + y ** 2 + altitude ** 2), step by step in place
    slant = _WORKSPACE.take("slant", 2 * users, float).reshape(2, users)
    np.subtract(x, np.array([[0.0], [params.d_sep]]), out=slant)
    np.square(slant, out=slant)
    slant += y ** 2
    slant += (altitude * altitude)[:, None]
    np.sqrt(slant, out=slant)
    slant = slant.ravel()
    del x, y
    serve = slant[(link - 1) * users + user]
    if cfg.r == 1:
        return serve, hit, nlos
    los = slant[(uav - 1) * users + ground]
    del slant, ground
    hit &= los <= edge[uav - 1]
    return serve, hit, los[hit]


def _deviates(rng, hit: np.ndarray):
    """The shadowing deviates of a pass: each row's signal's, and each hit
    row's interferer's, drawn from ``rng`` in one call, frame after frame in
    slot order, one deviate per row for its signal, then one for its
    interferer if one reaches it."""
    through = np.concatenate(([0], np.cumsum(1 + hit)))  # the deviates before each row
    z = rng.standard_normal(out=_WORKSPACE.take("deviates", int(through[-1]), float))
    first = through[:-1]
    return z[first], z[first[hit] + 1]


def _receptions(cfg: Configuration, counts: np.ndarray, params: SystemParams,
                layouts, deviates) -> FrameRealization:
    """Every reception of a pass of frames, computed at once.

    Frame j has counts[j] = (K1, K2) and follows ``schedule_block``. The
    pass draws in two calls: from ``layouts`` the layout of all its users,
    frame after frame (``_distances``; None: worst-case distances), then
    from ``deviates`` one shadowing deviate per reception, frame after frame
    in slot order, for its signal and then for its interferer if one
    reaches it (``_deviates``; None: mean shadowing). Frames thus read the
    same numbers in one pass as in several passes in turn, and ``layouts``
    and ``deviates`` may be one stream.

    Each quantity is computed once, at the level where it varies, and each
    temporary is dropped once read: the geometry and the deviates live in
    their own functions, and the distances and deviates go once the powers
    exist. Every LoS power, signal or r = 0 interference, comes from one
    ``channel.rx_power_los`` call over its rows, with each row's transmit
    term. The rate is computed in one fresh array, in place.

    The pass takes its four largest arrays, the schedule rows, the
    uniforms, the slant distances and the deviates, from the thread's
    ``_Workspace``: its record views that workspace until the thread's
    next pass.
    """
    users = int(counts.sum())
    rows = _WORKSPACE.take("rows", 8 * users, np.int64).reshape(4, 2 * users)
    schedule = schedule_block(cfg, counts[:, 0], counts[:, 1], out=rows)
    slot, link, user, _ = schedule.rows
    sizes = counts.reshape(-1)
    downlink = ((link == 2) * cfg.r + slot) & 1 == 0  # link 1 is downlink-first
    cell = np.repeat(np.tile((1, 2), len(counts)), sizes)

    serve, hit, far = _distances(cfg, schedule.rows, downlink, cell, sizes, params, layouts)
    hits = np.flatnonzero(hit)
    z_signal, z_interference = ((0.0, 0.0) if deviates is None else
                                _deviates(deviates, hit))
    tx = np.where(downlink, *channel.los_tx(params))
    signal = channel.rx_power_los(serve, tx, params, z_signal)
    del serve, z_signal
    interference = np.zeros(slot.shape)
    interference[hits] = (channel.rx_power_los(far, tx[hits], params, z_interference)
                          if cfg.r == 0 else
                          channel.rx_power_ground_to_ground(far, params, z_interference))
    del tx, far, z_interference
    rate = interference + params.noise_power
    np.divide(signal, rate, out=rate)
    rate += 1.0
    np.log2(rate, out=rate)

    # Each frame's slot rates added in slot order, as a loop adds them:
    # bincount adds its weights one at a time in index order, where numpy's
    # sum would add some shapes pairwise and round differently
    slot_counts = schedule.slot_counts
    frames = slot_counts.size
    sums = np.bincount(np.repeat(np.arange(frames), slot_counts),
                       weights=np.bincount(slot, weights=rate), minlength=frames)
    throughput = np.divide(sums, slot_counts, out=np.zeros(frames), where=slot_counts > 0)
    return FrameRealization(slot=slot, link=link, user=user, downlink=downlink, hit=hit,
                            signal=signal, interference=interference, rate=rate, cell=cell,
                            throughput=throughput, slot_counts=slot_counts)


def run_frame(cfg: Configuration, k1: int, k2: int, params: SystemParams, rng=None, *,
              worst_case_distances: bool = False,
              mean_shadowing: bool = False) -> FrameRealization:
    """Simulate one frame: the record of a pass of one, whose
    ``throughput[0]`` is the frame's value.

    It draws its layout (unless worst-case), then its shadowing deviates
    (unless mean), both from ``rng``. Only worst-case distances with mean
    shadowing draw nothing and may leave ``rng`` out. The record owns its
    arrays: the three that view the thread's workspace are copied.
    """
    if rng is None and not (worst_case_distances and mean_shadowing):
        distances = "worst-case" if worst_case_distances else "exact"
        shadowing = "mean" if mean_shadowing else "sampled"
        raise ValueError(f"rng is required for {distances} distances with {shadowing} shadowing")
    frame = _receptions(cfg, np.array([[k1, k2]]), params,
                        None if worst_case_distances else rng, None if mean_shadowing else rng)
    return replace(frame, slot=frame.slot.copy(), link=frame.link.copy(), user=frame.user.copy())


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


def _stream(seed, kind: int):
    """The stream of one kind of draw (COUNTS, LAYOUTS or DEVIATES) of a
    row with ``seed``: numpy's ``SeedSequence(seed, spawn_key=(kind,))``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(kind,)))


def _matched_values(cfg: Configuration, params: SystemParams) -> np.ndarray:
    """The matched-assumption value of every (K1, K2) of one configuration
    and parameter set: a flat, read-only (N + 1)^2 float array, cell
    (K1, K2) at K1 (N + 1) + K2. A frame with worst-case distances and mean
    shadowing draws nothing, so its value depends on (K1, K2) alone and the
    rows of any load point, seed or activation read the same array, built
    once per configuration while the parameter set lives.

    In this mode a unit's two slot rates depend only on its kind and, for a
    same-cell pair or a lone user, on its cell, and a frame serves its
    cross-cell pairs, then same-cell pairs, then lone users. One engine pass
    over the one-unit frames (1, 1), (2, 0), (1, 0), (0, 2), (0, 1) gives
    every slot rate, summed per slot as the engine sums them; a cell's value
    is its slot rates added in slot order, as the engine adds them, over
    its slot count.
    """
    grids = _GRIDS.setdefault(params, {})
    if cfg in grids:
        return grids[cfg]
    n = params.n_users
    frames = np.array([[1, 1], [2, 0], [1, 0], [0, 2], [0, 1]])
    units = _receptions(cfg, frames, params, None, None)  # its slot is read before the next pass
    slot_counts = units.slot_counts
    # each frame's first unit: a cross-cell pair, then per cell a same-cell
    # pair (two lone users if the other UAV is low) and a lone user
    rates = np.bincount(units.slot, weights=units.rate)[
        (np.cumsum(slot_counts) - slot_counts)[:, None] + [0, 1]]
    cross, pairs, lone = rates[0], rates[[1, 3]], rates[[2, 4]]
    # per surplus cell and per m: m cross-cell pairs' running sum, then
    # that cell's pairs if the other UAV is high, else its lone users
    helped = np.array([cfg.t2, cfg.t1]) == 1
    running = np.zeros((2, n + 1, 2 * n + 1))
    running[:, 1:, 0] = np.cumsum(np.tile(cross, n))[1::2]
    running[:, :, 1:] = np.tile(np.where(helped[:, None], pairs, lone), n)[:, None, :]
    np.cumsum(running, axis=2, out=running)

    big_k1, big_k2 = np.indices((n + 1, n + 1)).reshape(2, -1)
    shared, surplus, cell = (np.minimum(big_k1, big_k2), np.abs(big_k1 - big_k2),
                             (big_k1 < big_k2).astype(np.intp))
    tail_units = np.where(helped[cell], surplus // 2, surplus)
    sums = running[cell, shared, 2 * tail_units]
    odd = helped[cell] & (surplus % 2 == 1)  # a lone user after the pairs
    for rate in lone[cell[odd]].T:
        sums[odd] += rate
    slots = 2 * (shared + tail_units + odd)
    values = grids[cfg] = np.divide(sums, slots, out=np.zeros(sums.size), where=slots > 0)
    values.flags.writeable = False
    return values


def _mean_and_std(values: np.ndarray) -> tuple:
    """``values.mean()`` and ``values.std(ddof=1)`` (0 for one value), bit
    for bit: numpy's own steps, the mean, the squared deviations from it,
    their sum over n - 1 and its root, with the deviations taken in place.
    ``values`` is overwritten."""
    mean = values.mean()
    if values.size < 2:
        return float(mean), 0.0
    np.subtract(values, mean, out=values)
    np.square(values, out=values)
    return float(mean), math.sqrt(values.sum() / (values.size - 1))


def simulate(cfg: Configuration, loads: LoadDistribution, params: SystemParams,
             n_frames: int, seed, *,
             activation: ActivationModel = ActivationModel.TRUNCATED_POISSON,
             worst_case_distances: bool = False,
             mean_shadowing: bool = False) -> SimResult:
    """Empirical mean throughput over ``n_frames`` independent frames.

    Deterministic given ``seed``: the row draws its frames' counts, layouts
    and shadowing deviates from three streams of its own (``_stream``),
    each read in frame order, so results depend on none of scheduling
    order, worker count, FILL_FRAMES and FILL_USERS. The row takes its
    ``_Activation`` from ``_law``, built once per load point and parameter
    set and shared by the point's rows, and draws the cells of each chunk
    of FILL_FRAMES frames in one call. In the physical modes it splits them
    into (K1, K2) and runs a chunk in engine passes of about FILL_USERS
    users, cut after any frame, and each pass draws its layout and its
    deviates in one call each. With worst-case distances and mean
    shadowing a frame's value is a function of (K1, K2), and each chunk's
    values are read straight from the configuration's ``_matched_values``.
    Either way the frame values go into one float64 array of ``n_frames``.
    """
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames!r}")

    law = _law(loads, params, activation)
    matched = worst_case_distances and mean_shadowing
    grid = _matched_values(cfg, params) if matched else None
    draws = _stream(seed, COUNTS)
    layouts = None if worst_case_distances else _stream(seed, LAYOUTS)
    deviates = None if mean_shadowing else _stream(seed, DEVIATES)
    values = np.empty(n_frames)
    for start in range(0, n_frames, FILL_FRAMES):
        chunk = values[start:start + FILL_FRAMES]  # a view: writes land in values
        if matched:
            np.take(grid, law.cells(draws, chunk.size), out=chunk)
            continue
        counts = np.column_stack(np.divmod(law.cells(draws, chunk.size), law.n + 1))
        # passes cut before each frame whose end carries the running user
        # count across a multiple of FILL_USERS
        passes = np.cumsum(counts.sum(axis=1)) // FILL_USERS
        cuts = (np.flatnonzero(np.diff(passes)) + 1).tolist()
        for first, stop in zip([0, *cuts], [*cuts, chunk.size]):
            chunk[first:stop] = _receptions(cfg, counts[first:stop], params, layouts,
                                            deviates).throughput

    mean, std = _mean_and_std(values)
    return SimResult(mean=mean, ci_half_width=1.96 * std / math.sqrt(n_frames))


def simulate_exhaustive(cfg: Configuration, loads: LoadDistribution,
                        params: SystemParams) -> float:
    """Exact expectation of the matched-assumption simulator under
    MODEL_MATCHED activation: the ``pmf`` of the point's law (``_law``)
    times the engine's value of every (K1, K2), ``_matched_values``, the
    cells' products added by numpy's pairwise sum. Not a BLAS dot: a
    threaded dot's bits depend on its thread count, and it oversubscribes
    the cores under ``--workers``. Agreement with the analytical average
    validates the scheduler and slot engine end to end."""
    pmf = _law(loads, params, ActivationModel.MODEL_MATCHED).pmf
    return float((pmf.reshape(-1) * _matched_values(cfg, params)).sum())
