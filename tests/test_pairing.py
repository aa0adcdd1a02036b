import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uav_twoway.pairing import (AccountingMode, PairCounts, pair_counts, schedule_block,
                                unit_counts)
from uav_twoway.sinr import Configuration, all_configurations

CROSS_CELL, SAME_CELL, INDIVIDUAL = range(3)  # service unit classes


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


@pytest.mark.parametrize("k,big_k2", [(-3, 2), (1, -1), (-1, 0)])
def test_negative_count_message_names_both(k, big_k2):
    message = f"active-user counts must be non-negative: k={k}, K2={big_k2}"
    with pytest.raises(ValueError, match=re.escape(message)):
        pair_counts(k, big_k2, 0, 0)


def test_mode_of_another_type_is_named():
    # "paper" is the value of PAPER_LITERAL, but counting it as CONSISTENT
    # would give a_s = 1 where PAPER_LITERAL gives 3
    with pytest.raises(ValueError, match="mode must be an AccountingMode, got 'paper'"):
        pair_counts(3, 2, 1, 1, "paper")


@pytest.mark.parametrize("k,big_k2,named", [(2.5, 1, "k"), (True, 1, "k"), (1, 1.0, "big_k2"),
                                             (1, np.float64(2.0), "big_k2"), (np.True_, 1, "k")],
                         ids=["float", "bool", "float_k2", "numpy_float", "numpy_bool"])
def test_non_integer_count_is_named(k, big_k2, named):
    # 2.5 counted a_s = 1.0 and b = 0.5, and True counted as k = 1
    value = k if named == "k" else big_k2
    with pytest.raises(ValueError, match=re.escape(f"{named} must be an integer, got {value!r}")):
        pair_counts(k, big_k2, 0, 1)


def test_numpy_integer_counts_are_counts():
    assert pair_counts(np.int64(3), np.int32(2), 0, 1) == pair_counts(3, 2, 0, 1)


def test_conservation_consistent():
    for k1 in range(0, 31):
        for k2 in range(0, 31):
            for t1, t2 in ((0, 1), (1, 0), (0, 0)):
                counts = pair_counts(k1 - k2, k2, t1, t2)
                assert 2 * counts.a_d + 2 * counts.a_s + counts.b == k1 + k2


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


def unit_classes(schedule, k1s, k2s) -> np.ndarray:
    """Each unit's class, read off the rows of its first slot, 2u, of a
    schedule of frames with k1s[j] and k2s[j] active users: one receiver is
    a lone user, two in one cell a same-cell pair, two in different cells a
    cross-cell pair. Users are numbered across the block, each frame's
    cell-1 users first."""
    cell = np.repeat(np.tile((1, 2), len(k1s)), np.array([k1s, k2s], dtype=np.int64).T.ravel())
    slot, _, user, _ = schedule.rows
    receivers = np.bincount(slot)[::2]
    first = np.searchsorted(slot, 2 * np.arange(receivers.size))
    same = cell[user[first]] == cell[user[first + receivers - 1]]
    return np.where(receivers == 1, INDIVIDUAL, np.where(same, SAME_CELL, CROSS_CELL))


def tally(classes) -> PairCounts:
    """Service units of each class (CROSS_CELL, SAME_CELL, INDIVIDUAL) as pair counts."""
    return PairCounts(*map(classes.tolist().count, (CROSS_CELL, SAME_CELL, INDIVIDUAL)))


def units_of(schedule, k1, k2):
    """(class, ((link, user), ...)) per unit of the schedule of one frame
    with k1 and k2 active users, read from the rows of its first slot."""
    slot, link, user, _ = schedule.rows.tolist()
    return [(kind, tuple((l, u) for s, l, u in zip(slot, link, user) if s == 2 * index))
            for index, kind in enumerate(unit_classes(schedule, [k1], [k2]).tolist())]


def test_schedule_three_steps():
    # users 0-4 in cell 1, 5-6 in cell 2
    schedule = schedule_block(Configuration(1, 0, 1), [5], [2])
    units = units_of(schedule, 5, 2)
    assert [kind for kind, _ in units] == [CROSS_CELL, CROSS_CELL, SAME_CELL, INDIVIDUAL]
    assert schedule.slot_counts.tolist() == [8]
    assert units[:2] == [(CROSS_CELL, ((1, 0), (2, 5))), (CROSS_CELL, ((1, 1), (2, 6)))]
    # the high partner serves the second member of the same-cell pair
    assert units[2] == (SAME_CELL, ((1, 2), (2, 3)))
    assert units[3] == (INDIVIDUAL, ((1, 4),))
    # each unit's receivers again in its second slot; a pair's members are
    # each other's partner, a lone user is its own
    assert schedule.rows.tolist() == [[0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7],
                                      [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 1],
                                      [0, 5, 0, 5, 1, 6, 1, 6, 2, 3, 2, 3, 4, 4],
                                      [5, 0, 5, 0, 6, 1, 6, 1, 3, 2, 3, 2, 4, 4]]


def test_schedule_balanced_only_cross():
    schedule = schedule_block(Configuration(0, 0, 0), [3], [3])
    assert unit_classes(schedule, [3], [3]).tolist() == [CROSS_CELL] * 3
    assert schedule.slot_counts.tolist() == [2 * 3]  # one 2-slot unit per cross pair


def test_schedule_single_user():
    schedule = schedule_block(Configuration(0, 0, 0), [1], [0])
    assert units_of(schedule, 1, 0) == [(INDIVIDUAL, ((1, 0),))]


def test_schedule_surplus_cell2():
    # user 0 in cell 1, users 1-5 in cell 2
    schedule = schedule_block(Configuration(1, 1, 0), [1], [5])
    assert tally(unit_classes(schedule, [1], [5])) == PairCounts(1, 2, 0)
    same = [served for kind, served in units_of(schedule, 1, 5) if kind == SAME_CELL]
    # cell 2's own UAV serves first, the high helper (UAV1) second
    assert same == [((2, 2), (1, 3)), ((2, 4), (1, 5))]


def test_schedule_matches_pair_counts_everywhere():
    for cfg in all_configurations().values():
        for k1 in range(0, 31, 3):
            for k2 in range(0, 31, 3):
                expected = pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)
                schedule = schedule_block(cfg, [k1], [k2])
                assert tally(unit_classes(schedule, [k1], [k2])) == expected


@pytest.mark.parametrize("n", [1, 2, 30])
def test_unit_count_grids_are_pair_counts_and_the_schedule_tallies(n):
    # the vectorized count rule over every cell of [0, N]^2: the scalar
    # closed form's counts, and the units schedule_block plans, by class
    # and in slots
    k1s, k2s = np.indices((n + 1, n + 1)).reshape(2, -1)
    for cfg in all_configurations().values():
        a_d, a_s, b = unit_counts(cfg, k1s, k2s)
        counts = [PairCounts(*cell) for cell in zip(a_d.tolist(), a_s.tolist(), b.tolist())]
        assert counts == [pair_counts(k1 - k2, k2, cfg.t1, cfg.t2, AccountingMode.CONSISTENT)
                          for k1, k2 in zip(k1s.tolist(), k2s.tolist())]
        block = schedule_block(cfg, k1s, k2s)
        assert np.array_equal(block.slot_counts, 2 * (a_d + a_s + b))
        ends = np.cumsum(block.slot_counts)[:-1] // 2
        assert [tally(classes) for classes in
                np.split(unit_classes(block, k1s, k2s), ends)] == counts


blocks = st.tuples(st.sampled_from(list(all_configurations().values())),
                   st.lists(st.one_of(st.just((0, 0)),
                                      st.tuples(st.integers(0, 40), st.integers(0, 40))),
                            max_size=40))


@given(blocks)
def test_block_schedule_joins_frame_schedules(args):
    # frame j's rows are its own schedule's, its slots and users shifted
    # past those of frames 0..j-1
    cfg, keys = args
    block = schedule_block(cfg, [k1 for k1, _ in keys], [k2 for _, k2 in keys])
    rows, slot_counts, slots, users = [np.zeros((4, 0), dtype=np.int64)], [], 0, 0
    for k1, k2 in keys:
        frame = schedule_block(cfg, [k1], [k2])
        rows.append(frame.rows + np.array([[slots], [0], [users], [users]]))
        slot_counts.append(2 * np.unique(frame.rows[0] // 2).size)  # two per unit
        slots, users = slots + slot_counts[-1], users + k1 + k2
    assert np.array_equal(block.rows, np.concatenate(rows, axis=1))
    assert block.slot_counts.tolist() == slot_counts
    # written over a used buffer, the rows are the same, two per user
    out = np.full((4, 2 * users), -1, dtype=np.int64)
    assert schedule_block(cfg, [k1 for k1, _ in keys], [k2 for _, k2 in keys],
                          out=out).rows is out
    assert np.array_equal(out, block.rows)


@pytest.mark.parametrize("out", [np.empty((4, 11), np.int64), np.empty((4, 12), float)],
                         ids=["shape", "dtype"])
def test_block_schedule_rejects_an_out_that_cannot_hold_its_rows(out):
    with pytest.raises(ValueError, match=r"out must be a \(4, 12\) int64 array"):
        schedule_block(Configuration(0, 0, 0), [4], [2], out=out)


@given(blocks)
def test_block_schedule_tallies_to_pair_counts(args):
    # each frame's units, read off the block by its slot count, tally to the
    # closed form's pair counts
    cfg, keys = args
    k1s, k2s = [k1 for k1, _ in keys], [k2 for _, k2 in keys]
    block = schedule_block(cfg, k1s, k2s)
    ends = np.cumsum(block.slot_counts) // 2
    for (k1, k2), classes in zip(keys, np.split(unit_classes(block, k1s, k2s), ends[:-1])):
        assert tally(classes) == pair_counts(k1 - k2, k2, cfg.t1, cfg.t2)


def test_pair_counts_is_a_value_type():
    assert PairCounts(1, 2, 3) == PairCounts(1, 2, 3)
    assert PairCounts(1, 2, 3) != PairCounts(3, 2, 1)
