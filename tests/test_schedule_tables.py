"""The tabulated schedule construction against the block-by-block oracle
(``reference_schedule``): equal schedules and null links over every design
in full and partial activity, and the split tuples each active set shares
across its rotations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_schedule import ROTATORS, reference_make_schedule, reference_null_links

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import DemandVector, Design, make_schedule, worst_case_demand


def _params(k_t, k_r, mu_t, mu_r):
    return SystemParams(k_t=k_t, k_r=k_r, n_files=k_r, f_packets=1, mu_t=mu_t, mu_r=mu_r)


def _system(design, params):
    if design is Design.THM2_PARTITION:
        return find_subset_partition(params.m_groups, params.mu_t)
    if design is Design.THM2_ORDERED:
        return enumerate_ordered_partitions(params.m_groups, params.mu_t)
    return None


def _repeated(params):
    """Receivers 1 and 2 ask for file 1, receiver j > 2 for file j - 1."""
    return DemandVector(d=(1, *range(1, params.k_r)))


#: (design, params, l_size, label) over every design in full and partial
#: activity, the three plan_verify networks (12x12 Theorem 1 with L = 8,
#: 8x8 parallel classes with mu_r = 3, and the 6x6 ordered T2-II network of
#: coop_small), and the 6x6 ordered network at full activity with L = 2
GRID = [
    (Design.THM1, _params(3, 4, 1, 1), 2, "T1-I"),
    (Design.THM1, _params(3, 4, 1, 1), 1, "T1-II"),
    (Design.THM1, _params(4, 6, 1, 2), 1, "T1-II"),
    (Design.THM2_PARTITION, _params(4, 4, 2, 1), 1, "T2-IA"),
    (Design.THM2_PARTITION, _params(4, 5, 2, 1), 1, "T2-II"),
    (Design.THM2_PARTITION, _params(6, 6, 3, 1), 1, "T2-II"),
    (Design.THM2_ORDERED, _params(4, 4, 2, 1), 1, "T2-IB"),
    (Design.THM2_ORDERED, _params(4, 5, 2, 1), 1, "T2-II"),
    (Design.THM1, _params(12, 12, 1, 1), 8, "T1-II"),
    (Design.THM2_PARTITION, _params(8, 8, 2, 3), 3, "T2-IA"),
    (Design.THM2_ORDERED, _params(6, 6, 2, 1), 2, "T2-II"),
    (Design.THM2_ORDERED, _params(6, 6, 2, 2), 2, "T2-IB"),
]
GRID_IDS = [f"{d.value}-{p.k_t}x{p.k_r}-mu{p.mu_t}{p.mu_r}-L{l_size}" for d, p, l_size, _ in GRID]
#: the desk-scale head of the grid
DESK, DESK_IDS = GRID[:8], GRID_IDS[:8]


def _assert_equals_reference(design, params, demand, l_size):
    system = _system(design, params)
    schedule = make_schedule(params, demand, l_size, system)
    reference = reference_make_schedule(params, demand, l_size, system)
    assert schedule == reference
    for block in schedule.blocks:
        assert block.null_links == reference_null_links(block)
    return schedule


@pytest.mark.parametrize("demand_of", [worst_case_demand, _repeated], ids=["worst-case", "repeated-file"])
@pytest.mark.parametrize("design, params, l_size, regime", GRID, ids=GRID_IDS)
def test_schedule_equals_the_block_by_block_reference(design, params, l_size, regime, demand_of):
    schedule = _assert_equals_reference(design, params, demand_of(params), l_size)
    assert schedule.regime == regime


@st.composite
def small_cases(draw):
    """A design, parameters with at most 6 nodes per side, a null count the
    design's slots support, and a demand that may repeat files."""
    design = draw(st.sampled_from(Design))
    if design is Design.THM1:
        mu_t, k_t = 1, draw(st.integers(1, 6))
        slots = k_t
    else:
        mu_t = draw(st.integers(2, 3))
        slots = draw(st.integers(1, 6 // mu_t))
        k_t = slots * mu_t
    k_r = draw(st.integers(mu_t + 1, 6))
    mu_r = draw(st.integers(1, k_r - mu_t))
    l_size = draw(st.integers(0, min(slots - 1, k_r - mu_r - mu_t)))
    params = _params(k_t, k_r, mu_t, mu_r)
    demand = DemandVector(d=tuple(draw(st.lists(st.integers(1, k_r), min_size=k_r, max_size=k_r))))
    return design, params, demand, l_size


@settings(max_examples=40, deadline=None)
@given(small_cases())
def test_schedule_equals_the_reference_on_small_random_networks(case):
    _assert_equals_reference(*case)


@pytest.mark.parametrize("design, params, l_size, regime", DESK, ids=DESK_IDS)
def test_active_set_blocks_share_their_split_tuples(design, params, l_size, regime):
    """The blocks of one active set and one (cached, zero-forcing) pair, one
    per rotation (the oracle's rotator coordinate), hold the very same rx_set, zf_set and irs_set
    tuples, delivery by delivery."""
    system = _system(design, params)
    schedule = make_schedule(params, worst_case_demand(params), l_size, system)
    n_coords = sum(1 for _ in ROTATORS[design](params, system).coords())
    groups = {}
    for block in schedule.blocks:
        groups.setdefault((block.active_rxs, block.cached_rxs, block.zf_rxs), []).append(block)
    assert {len(blocks) for blocks in groups.values()} == {n_coords}
    assert n_coords > 1
    for first, *rest in groups.values():
        for block in rest:
            for a, b in zip(first.deliveries, block.deliveries, strict=True):
                assert a.subfile.rx_set is b.subfile.rx_set
                assert a.subfile.zf_set is b.subfile.zf_set
                assert a.subfile.irs_set is b.subfile.irs_set
