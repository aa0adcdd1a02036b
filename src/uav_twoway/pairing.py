"""Pair-count combinatorics and the three-step frame scheduler.

Given K1 and K2 active users (k = K1 - K2), a frame serves: cross-cell
co-channel pairs until the smaller cell is exhausted; then, if the surplus
cell's partner UAV is high, same-cell pairs in the surplus cell; finally
the leftovers individually. Every service unit occupies two slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .sinr import Configuration


class AccountingMode(enum.Enum):
    """How same-cell service of a surplus of k users is counted.

    PAPER_LITERAL counts a_s = k same-cell pairs next to b = k mod 2
    leftovers, which overshoots the served-user conservation law
    2*a_d + 2*a_s + b = K1 + K2. CONSISTENT counts a_s = floor(k/2),
    which balances and matches what a real schedule can deliver.
    """

    PAPER_LITERAL = "paper"
    CONSISTENT = "consistent"


@dataclass(frozen=True)
class PairCounts:
    """Service-unit counts for one frame: cross-cell pairs, same-cell pairs,
    individually served users."""

    a_d: int
    a_s: int
    b: int


def pair_counts(k: int, big_k2: int, t1: int, t2: int,
                mode: AccountingMode = AccountingMode.CONSISTENT) -> PairCounts:
    """Unit counts for load difference k = K1 - K2 and K2 active users in cell 2,
    with UAV altitude levels t1, t2 (0 low, 1 high).

    The surplus cell's users can be served pairwise only when the *other*
    cell's UAV is high (its lobe then covers both cells).
    """
    if big_k2 < 0 or big_k2 + k < 0:
        raise ValueError(f"active-user counts must be non-negative: k={k}, K2={big_k2}")

    a_d = min(big_k2 + k, big_k2)
    surplus = abs(k)
    helping = t2 if k > 0 else t1
    if surplus and helping:
        a_s = surplus if mode is AccountingMode.PAPER_LITERAL else surplus // 2
        b = surplus - 2 * (surplus // 2)
    else:
        a_s = 0
        b = surplus
    return PairCounts(a_d=a_d, a_s=a_s, b=b)


@dataclass(frozen=True, eq=False)
class Schedule:
    """The plan of a block of frames, fixed before any draw: one column of
    ``rows`` (slot, link, user, partner) per reception, in slot order, with
    slots and users numbered across the block, each frame's cell-1 users
    first. Unit u holds slots 2u and 2u + 1: a lone user, its own partner,
    or a pair, same-cell or cross-cell as its users' cells agree or not."""

    rows: object  # 4 x R int64 numpy array
    slot_counts: object  # per frame


def schedule_block(cfg: Configuration, k1, k2, out=None) -> Schedule:
    """The plan of the frames with k1[j] and k2[j] active users. Pairing is by
    index order, admissible because the rate bounds ignore the matching.

    A user receives once in each direction, so the rows are 4 x R with R
    twice the block's users. ``out``, a 4 x R int64 array, takes them in
    place of a new array, and the ``Schedule`` then reads it."""
    import numpy as np  # here, so that the closed form loads no numpy

    k1, k2 = np.asarray(k1, dtype=np.int64), np.asarray(k2, dtype=np.int64)
    shared, surplus, surplus_in_2 = np.minimum(k1, k2), np.abs(k1 - k2), k1 < k2
    pairs = surplus // 2 * np.where(surplus_in_2, cfg.t1, cfg.t2)  # the helper must be high
    units = shared + surplus - pairs
    # per unit: its frame, and its place among the frame's leftovers (< 0: cross-cell)
    frame = np.repeat(np.arange(k1.size), units)
    leftover = np.arange(frame.size) - (np.cumsum(units) - units + shared)[frame]
    cross, solo = leftover < 0, leftover >= pairs[frame]
    # the first receiver: cross-cell pair i serves cell 1's user i; leftover j
    # the surplus cell's user shared + j + min(j, pairs), pairs taking two each
    user = ((np.cumsum(k1 + k2) - k2 - k1 + shared)[frame] + leftover
            + np.clip(leftover, 0, pairs[frame]) + ~cross * (surplus_in_2 * k1)[frame])
    partner = user + np.where(cross, k1[frame], ~solo)
    link = 1 + (~cross & surplus_in_2[frame])  # the surplus cell's own UAV serves first
    slot = 2 * np.arange(frame.size)
    # a unit's rows, slot 2u then 2u + 1: its first receiver's and, unless
    # the user is alone, its partner's, each written straight to its place
    size = 4 - 2 * solo
    start = np.cumsum(size) - size
    shape = (4, int(size.sum()))
    if out is None:
        rows = np.empty(shape, dtype=np.int64)
    elif out.shape == shape and out.dtype == np.int64:
        rows = out
    else:
        raise ValueError(f"out must be a {shape} int64 array, got {out.shape} {out.dtype}")
    paired = np.flatnonzero(~solo)
    for at, step in ((start, 0), (start + size // 2, 1)):
        for row, value in zip(rows, (slot + step, link, user, partner)):
            row[at] = value
        at = at[paired] + 1
        for row, value in zip(rows, (slot + step, 3 - link, partner, user)):
            row[at] = value[paired]
    return Schedule(rows, 2 * units)
