import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uav_twoway.pairing import (CROSS_CELL, INDIVIDUAL, SAME_CELL, AccountingMode,
                                PairCounts, pair_counts, schedule_frame, unit_counts)
from uav_twoway.sinr import Configuration, all_configurations


def test_worked_example_paper_literal():
    counts = pair_counts(3, 2, 0, 1, AccountingMode.PAPER_LITERAL)
    assert (counts.a_d, counts.a_s, counts.b) == (2, 3, 1)


def test_worked_example_consistent():
    counts = pair_counts(3, 2, 0, 1, AccountingMode.CONSISTENT)
    assert (counts.a_d, counts.a_s, counts.b) == (2, 1, 1)
    assert 2 * counts.a_d + 2 * counts.a_s + counts.b == 5 + 2


def test_balanced_load():
    for big_k2 in (0, 1, 7, 30):
        for t1, t2 in ((0, 0), (0, 1), (1, 0)):
            counts = pair_counts(0, big_k2, t1, t2)
            assert (counts.a_d, counts.a_s, counts.b) == (big_k2, 0, 0)


def test_low_low_surplus_served_individually():
    counts = pair_counts(4, 1, 0, 0, AccountingMode.PAPER_LITERAL)
    assert (counts.a_d, counts.a_s, counts.b) == (1, 0, 4)
    # identical in both accounting modes outside the helping branch
    assert counts == pair_counts(4, 1, 0, 0)


def test_high_high_rejected():
    # both high is not a candidate, but it still counts like any helped surplus
    counts = pair_counts(3, 2, 1, 1)
    assert (counts.a_d, counts.a_s, counts.b) == (2, 1, 1)


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        pair_counts(-3, 2, 0, 0)


def test_conservation_consistent():
    for k1 in range(0, 31):
        for k2 in range(0, 31):
            for t1, t2 in ((0, 1), (1, 0), (0, 0)):
                counts = pair_counts(k1 - k2, k2, t1, t2)
                assert 2 * counts.a_d + 2 * counts.a_s + counts.b == k1 + k2
                assert counts.slot_count == 2 * counts.units


@given(st.sampled_from(list(all_configurations().values())),
       st.integers(0, 200), st.integers(0, 200))
def test_conservation_property(cfg, k1, k2):
    # consistent accounting serves every active user once: 2a_d + 2a_s + b = K1 + K2
    consistent = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2, AccountingMode.CONSISTENT)
    assert 2 * consistent.a_d + 2 * consistent.a_s + consistent.b == k1 + k2
    # paper accounting counts a_s = |k| where a surplus is helped: the known
    # overshoot of 2 * ceil(|k| / 2) users, and none otherwise
    paper = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2, AccountingMode.PAPER_LITERAL)
    surplus = abs(k1 - k2)
    helped = surplus > 0 and (cfg.t2 if k1 > k2 else cfg.t1) == 1
    overshoot = 2 * ((surplus + 1) // 2) if helped else 0
    assert 2 * paper.a_d + 2 * paper.a_s + paper.b == k1 + k2 + overshoot
    assert (paper.a_d, paper.b) == (consistent.a_d, consistent.b)


def test_mirror_symmetry():
    rng = random.Random(3)
    for _ in range(200):
        k1, k2 = rng.randint(0, 30), rng.randint(0, 30)
        direct = pair_counts(k1 - k2, k2, 0, 1)
        mirrored = pair_counts(k2 - k1, k1, 1, 0)
        assert direct == mirrored


def test_schedule_three_steps():
    cfg = Configuration(1, 0, 1)
    units = schedule_frame(list("abcde"), list("xy"), cfg)
    kinds = [unit.kind for unit in units]
    assert kinds == [CROSS_CELL, CROSS_CELL, SAME_CELL, INDIVIDUAL]
    assert 2 * len(units) == 8
    # the high partner serves the second member of the same-cell pair
    assert units[2].served == ((1, "c"), (2, "d"))
    assert units[3].served == ((1, "e"),)


def test_schedule_balanced_only_cross():
    cfg = Configuration(0, 0, 0)
    units = schedule_frame([1, 2, 3], [4, 5, 6], cfg)
    assert all(unit.kind == CROSS_CELL for unit in units)
    assert 2 * len(units) == 2 * 3  # one 2-slot unit per cross pair


def test_schedule_single_user():
    cfg = Configuration(0, 0, 0)
    units = schedule_frame(["solo"], [], cfg)
    assert [unit.kind for unit in units] == [INDIVIDUAL]
    assert units[0].served == ((1, "solo"),)


def test_schedule_surplus_cell2():
    cfg = Configuration(1, 1, 0)
    units = schedule_frame([1], [2, 3, 4, 5, 6], cfg)
    counts = unit_counts(units)
    assert (counts.a_d, counts.a_s, counts.b) == (1, 2, 0)
    same = [unit for unit in units if unit.kind == SAME_CELL]
    # cell 2's own UAV serves first, the high helper (UAV1) second
    assert same[0].served[0][0] == 2 and same[0].served[1][0] == 1


def test_schedule_matches_pair_counts_everywhere():
    configs = (Configuration(1, 0, 1), Configuration(1, 1, 0), Configuration(0, 0, 0))
    for cfg in configs:
        for k1 in range(0, 31, 3):
            for k2 in range(0, 31, 3):
                units = schedule_frame(list(range(k1)), list(range(100, 100 + k2)), cfg)
                expected = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)
                assert unit_counts(units) == expected


def test_pair_counts_is_a_value_type():
    assert PairCounts(1, 2, 3).units == 6
    assert PairCounts(1, 2, 3) == PairCounts(1, 2, 3)
