"""Index arithmetic and design-search tests, including exhaustive coverage
oracles at desk scale."""

import math
import time
from itertools import combinations

import pytest
from reference_schedule import cyclic_shift, number_from_coords

from irs_cache_dof.combinatorics import (
    DESIGN_CLASS_GUARD,
    OrderedPartitionSystem,
    SubsetPartitionSystem,
    enumerate_ordered_partitions,
    enumerate_subsets,
    find_subset_partition,
    verify_subset_partition,
)


@pytest.mark.parametrize(
    "i,j,m,expected",
    [(1, 2, 3, 3), (3, 1, 3, 1), (3, 2, 4, 1)],
)
def test_cyclic_shift_values(i, j, m, expected):
    assert cyclic_shift(i, j, m) == expected


def test_cyclic_shift_identity_and_full_cycle():
    for m in range(1, 9):
        for i in range(1, m + 1):
            assert cyclic_shift(i, 0, m) == i
            assert cyclic_shift(i, m, m) == i


def test_cyclic_shift_is_bijection_per_offset():
    for m in range(1, 7):
        for j in range(0, 2 * m):
            image = {cyclic_shift(i, j, m) for i in range(1, m + 1)}
            assert image == set(range(1, m + 1))


@pytest.mark.parametrize("i,j,m", [(0, 1, 3), (4, 1, 3), (1, -1, 3), (1, 0, 0)])
def test_cyclic_shift_rejects_bad_arguments(i, j, m):
    with pytest.raises(ValueError):
        cyclic_shift(i, j, m)


def test_enumerate_subsets_examples():
    assert enumerate_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert enumerate_subsets(4, 0) == [()]
    four_choose_two = enumerate_subsets(4, 2)
    assert len(four_choose_two) == 6
    assert four_choose_two[0] == (1, 2)
    assert four_choose_two[-1] == (3, 4)
    with pytest.raises(ValueError):
        enumerate_subsets(3, 4)


def test_subset_partition_2_2_matches_known_system():
    system = find_subset_partition(2, 2)
    assert system is not None
    assert system.classes == (
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    )
    assert verify_subset_partition(system).ok


def test_subset_partition_3_2_has_five_classes():
    system = find_subset_partition(3, 2)
    assert system is not None
    assert len(system.classes) == 5
    # all 15 pairs of {1..6}, each exactly once
    seen = [s for cls in system.classes for s in cls]
    assert sorted(seen) == enumerate_subsets(6, 2)
    assert verify_subset_partition(system).ok


def test_round_robin_succeeds_for_all_small_group_counts():
    for m in range(1, 9):
        system = find_subset_partition(m, 2)
        assert system is not None
        assert len(system.classes) == 2 * m - 1  # C(2m - 1, 1) parallel classes
        assert verify_subset_partition(system).ok


def test_search_is_deterministic_given_budget():
    for m, mu_t in ((2, 3), (3, 2), (2, 4)):
        a = find_subset_partition(m, mu_t)
        b = find_subset_partition(m, mu_t)
        assert a == b


def test_backtracking_finds_2_3_system():
    system = find_subset_partition(2, 3)
    assert system is not None
    assert len(system.classes) == math.comb(5, 2)
    assert all(len(cls) == 2 for cls in system.classes)
    # exhaustive oracle: every 3-subset of {1..6} appears exactly once
    count = {s: 0 for s in combinations(range(1, 7), 3)}
    for cls in system.classes:
        for s in cls:
            count[s] += 1
    assert all(c == 1 for c in count.values())
    assert verify_subset_partition(system).ok


@pytest.mark.parametrize("m,mu_t", [(1, 3), (1, 4), (2, 4), (1, 8)])
def test_search_covers_remaining_desk_scale_systems(m, mu_t):
    system = find_subset_partition(m, mu_t)
    assert system is not None
    assert verify_subset_partition(system).ok


def test_construction_covers_every_ground_set_up_to_16():
    # Baranyai: a design exists for every (m, mu_t); all 34 with m*mu_t <= 16
    # take about 1 s together, (2, 8) with 6,435 classes the longest
    start = time.monotonic()
    for m in range(1, 9):
        for mu_t in range(2, 16 // m + 1):
            assert verify_subset_partition(find_subset_partition(m, mu_t)).ok, (m, mu_t)
    assert time.monotonic() - start < 30.0


def test_design_guard_admits_every_ground_set_up_to_16_and_refuses_larger_counts_at_once():
    counts = [math.comb(m * mu_t - 1, mu_t - 1) for m in range(1, 9) for mu_t in range(2, 16 // m + 1)]
    assert max(counts) == DESIGN_CLASS_GUARD
    for m, mu_t in ((2, 9), (3, 7), (5, 5), (2, 32)):
        start = time.monotonic()
        with pytest.raises(ValueError, match="guard"):
            find_subset_partition(m, mu_t)
        assert time.monotonic() - start < 1.0


def test_verify_rejects_duplicate_subset():
    bad = SubsetPartitionSystem(
        m=2,
        mu_t=2,
        classes=(
            ((1, 2), (3, 4)),
            ((1, 2), (3, 4)),
            ((1, 4), (2, 3)),
        ),
    )
    check = verify_subset_partition(bad)
    assert not check.ok
    assert "duplicate" in check.violation


def test_verify_rejects_overlapping_class():
    bad = SubsetPartitionSystem(
        m=2,
        mu_t=2,
        classes=(
            ((1, 2), (2, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        ),
    )
    check = verify_subset_partition(bad)
    assert not check.ok
    assert "not a partition" in check.violation


def test_verify_rejects_wrong_class_count():
    bad = SubsetPartitionSystem(
        m=2,
        mu_t=2,
        classes=(((1, 2), (3, 4)),),
    )
    check = verify_subset_partition(bad)
    assert not check.ok
    assert "classes" in check.violation


def test_ordered_partitions_2_2():
    system = enumerate_ordered_partitions(2, 2)
    assert system.count == 6  # 4!/(2!)^2
    assert system.window_size == 2
    # windows hold the two orderings of one unordered pairing
    for w in range(3):
        window = system.partitions[2 * w : 2 * w + 2]
        assert {frozenset(map(frozenset, p)) for p in window} == {
            frozenset(map(frozenset, window[0]))
        }


def test_ordered_partitions_single_group():
    system = enumerate_ordered_partitions(1, 2)
    assert system.count == 1
    assert system.partitions == (((1, 2),),)
    assert system.partition_by_number(1) == ((1, 2),)


def test_ordered_partitions_3_2_count_by_factorials():
    system = enumerate_ordered_partitions(3, 2)
    expected = math.factorial(6) // math.factorial(2) ** 3
    assert system.count == expected == 90
    assert system.num_windows == 15
    assert system.window_size == 6


@pytest.mark.parametrize("m,mu_t", [(2, 2), (3, 2), (2, 3), (1, 4), (3, 3)])
def test_ordered_partition_invariants(m, mu_t):
    system = enumerate_ordered_partitions(m, mu_t)
    assert system.count == math.factorial(m * mu_t) // math.factorial(mu_t) ** m
    # contiguous-window property: all m! members of a window share the same
    # unordered composing subsets
    for w in range(system.num_windows):
        window = system.partitions[w * system.window_size : (w + 1) * system.window_size]
        multisets = {frozenset(map(frozenset, p)) for p in window}
        assert len(multisets) == 1
        assert len(set(window)) == system.window_size
    # numbering is a bijection
    assert len(set(system.partitions)) == system.count
    assert [system.partition_by_number(kappa) for kappa in range(1, system.count + 1)] == list(system.partitions)


def test_ordered_partition_coordinates_roundtrip():
    system = enumerate_ordered_partitions(3, 2)
    sub = math.factorial(2)
    for kappa in range(1, system.count + 1):
        window, offset = divmod(kappa - 1, system.window_size)
        lead, rem = divmod(offset, sub)
        assert number_from_coords(system, window + 1, lead + 1, rem + 1) == kappa
    # lead coordinate selects the first block among the window's sorted blocks
    for w in range(system.num_windows):
        first = system.partition_by_number(w * 6 + 1)
        blocks = sorted(first)
        for lead in range(1, 4):
            p = system.partition_by_number(number_from_coords(system, w + 1, lead, 1))
            assert p[0] == blocks[lead - 1]


def test_ordered_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_ordered_partitions(4, 3)
