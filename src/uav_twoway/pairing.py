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

CROSS_CELL = "cross_cell"
SAME_CELL = "same_cell"
INDIVIDUAL = "individual"


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

    @property
    def units(self) -> int:
        return self.a_d + self.a_s + self.b

    @property
    def slot_count(self) -> int:
        return 2 * self.units


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
    """The plan of a (K1, K2) frame, fixed before any draw: each unit's
    class, in order, and the frame's receptions in slot order, one column
    of ``rows`` (slot, link, user, partner) each. Users are numbered across
    both cells, cell 1 first; a lone user is its own partner. A unit's
    receivers fill its first slot, then again its second."""

    k1: int
    k2: int
    kinds: list  # a list: freed tuples of up to 19 items stay on CPython's free lists
    rows: object  # 4 x R int64 numpy array

    @property
    def slot_count(self) -> int:
        return 2 * len(self.kinds)

    @property
    def counts(self) -> PairCounts:
        """The schedule tallied into pair counts (always consistent)."""
        return PairCounts(a_d=self.kinds.count(CROSS_CELL), a_s=self.kinds.count(SAME_CELL),
                          b=self.kinds.count(INDIVIDUAL))


def schedule_frame(cfg: Configuration, k1: int, k2: int) -> Schedule:
    """The plan of a frame with k1 and k2 active users. Pairing is by index
    order, which is admissible because the rate bounds do not depend on the
    matching."""
    import numpy as np  # here, so that the closed form loads no numpy

    shared = min(k1, k2)
    if k1 >= k2:
        own_link, helper_link, leftover, helper_high = 1, 2, range(shared, k1), cfg.t2
    else:
        own_link, helper_link, leftover, helper_high = 2, 1, range(k1 + shared, k1 + k2), cfg.t1
    pairs = len(leftover) // 2 if helper_high else 0
    # each unit as (kind, its (link, user) receivers); the helper serves second
    units = [(CROSS_CELL, ((1, user), (2, k1 + user))) for user in range(shared)]
    units += [(SAME_CELL, ((own_link, leftover[2 * i]), (helper_link, leftover[2 * i + 1])))
              for i in range(pairs)]
    units += [(INDIVIDUAL, ((own_link, user),)) for user in leftover[2 * pairs:]]
    rows = [(slot, link, user, partner)
            for index, (_, served) in enumerate(units) for slot in (2 * index, 2 * index + 1)
            for (link, user), (_, partner) in zip(served, served[::-1])]
    return Schedule(k1, k2, [kind for kind, _ in units],
                    np.array(rows, dtype=np.int64).reshape(-1, 4).T)
