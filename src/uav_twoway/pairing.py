"""Pair-count combinatorics and the three-step frame scheduler.

Given K1 and K2 active users (k = K1 - K2), a frame serves cross-cell
pairs until the smaller cell is exhausted, then same-cell pairs in the
surplus cell if its partner UAV is high, then the leftovers alone, each
unit in two slots. ``pair_counts``, the public entry, validates its counts
and its mode, then takes a_s and b from ``surplus_counts``, the rule stated
once without checks, which the closed form calls with counts it makes
itself. ``unit_counts`` is the engine's own vectorized copy: it counts the
units of many frames at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Integral

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


def check_counts(**counts) -> None:
    """Reject the first of ``counts`` that is not an integer; numpy integers pass, bools not."""
    for name, value in counts.items():
        if type(value) is bool or type(value) is not int and not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def pair_counts(k: int, big_k2: int, t1: int, t2: int,
                mode: AccountingMode = AccountingMode.CONSISTENT) -> PairCounts:
    """Unit counts for load difference k = K1 - K2 and K2 active users in cell 2,
    with UAV altitude levels t1, t2 (0 low, 1 high).

    The surplus cell's users can be served pairwise only when the *other*
    cell's UAV is high (its lobe then covers both cells).
    """
    if not isinstance(mode, AccountingMode):
        raise ValueError(f"mode must be an AccountingMode, got {mode!r}")
    check_counts(k=k, big_k2=big_k2)
    if big_k2 < 0 or big_k2 + k < 0:
        raise ValueError(f"active-user counts must be non-negative: k={k}, K2={big_k2}")
    return PairCounts(min(big_k2 + k, big_k2), *surplus_counts(k, t1, t2, mode))


def surplus_counts(k: int, t1: int, t2: int, mode: AccountingMode) -> tuple[int, int]:
    """``pair_counts``' a_s and b, which depend on k alone, without its
    checks: the caller vouches that k is an integer and ``mode`` an
    AccountingMode."""
    surplus = abs(k)
    helping = t2 if k > 0 else t1  # the other cell's UAV, which must be high
    if surplus and helping:
        return (surplus if mode is AccountingMode.PAPER_LITERAL else surplus // 2,
                surplus & 1)
    return 0, surplus


def unit_counts(cfg: Configuration, k1, k2):
    """``pair_counts`` under CONSISTENT accounting over k1 and k2: int64 a_d, a_s and b."""
    import numpy as np  # here, so that the closed form loads no numpy

    k1, k2 = np.asarray(k1, dtype=np.int64), np.asarray(k2, dtype=np.int64)
    surplus = np.abs(k1 - k2)
    pairs = surplus // 2 * np.where(k1 < k2, cfg.t1, cfg.t2)  # the helper must be high
    return np.minimum(k1, k2), pairs, surplus - 2 * pairs


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
    shared, pairs, lone = unit_counts(cfg, k1, k2)
    surplus_in_2, units = k1 < k2, shared + pairs + lone
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
