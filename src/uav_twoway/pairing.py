"""Pair-count combinatorics and the three-step frame scheduler.

Given K1 and K2 active users (k = K1 - K2), a frame serves: cross-cell
co-channel pairs until the smaller cell is exhausted; then, if the surplus
cell's partner UAV is high, same-cell pairs in the surplus cell; finally
the leftovers individually. Every service unit occupies two slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class ServiceUnit:
    """One 2-slot unit: which UAV serves which user(s), and under which
    rate class (cross-cell pair, same-cell pair, or individual)."""

    kind: str
    served: tuple  # ((link, user), ...) with link in {1, 2}


def schedule_frame(active_users_cell1: Sequence, active_users_cell2: Sequence,
                   cfg: Configuration) -> list[ServiceUnit]:
    """Ordered unit plan for one frame. Pairing is by index order, which is
    admissible because the rate bounds do not depend on the matching."""
    users1 = list(active_users_cell1)
    users2 = list(active_users_cell2)
    units = [ServiceUnit(CROSS_CELL, ((1, u1), (2, u2)))
             for u1, u2 in zip(users1, users2)]

    shared = min(len(users1), len(users2))
    if len(users1) >= len(users2):
        surplus_cell, own_link, helper_link = 1, 1, 2
        leftover = users1[shared:]
        helper_high = cfg.t2
    else:
        surplus_cell, own_link, helper_link = 2, 2, 1
        leftover = users2[shared:]
        helper_high = cfg.t1

    if helper_high:
        while len(leftover) >= 2:
            pair, leftover = leftover[:2], leftover[2:]
            units.append(ServiceUnit(SAME_CELL, ((own_link, pair[0]), (helper_link, pair[1]))))
    units.extend(ServiceUnit(INDIVIDUAL, ((own_link, user),)) for user in leftover)
    return units


def unit_counts(units: Sequence[ServiceUnit]) -> PairCounts:
    """Tally a schedule back into pair counts (always consistent)."""
    kinds = [unit.kind for unit in units]
    return PairCounts(a_d=kinds.count(CROSS_CELL), a_s=kinds.count(SAME_CELL),
                      b=kinds.count(INDIVIDUAL))
