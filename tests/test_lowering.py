"""Round trip of block-plan lowering: the integer buffer must give back
every delivery's receiver and serving group, the common receiver groups,
the cache relation and the null links of the plan it came from."""

import dataclasses

import numpy as np
import pytest

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.irs import NullSet, required_nulls
from irs_cache_dof.lowering import joint_zf_layout, joint_zf_rows, lower_plan
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import make_schedule, worst_case_demand

T1 = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)
T2 = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
T2_II = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
T2_MU3 = SystemParams(k_t=6, k_r=6, n_files=6, f_packets=1, mu_t=3, mu_r=1, q_elements=6)

#: name -> (parameters, l_size, design, regime the schedule must report)
SCHEDULES = {
    "T1-I": (T1, 2, lambda: None, "T1-I"),
    "T1-II": (T1, 1, lambda: None, "T1-II"),
    "T1-l0": (T1, 0, lambda: None, "T1-II"),
    "T2-IA": (T2, 1, lambda: find_subset_partition(2, 2), "T2-IA"),
    "T2-IB": (T2, 1, lambda: enumerate_ordered_partitions(2, 2), "T2-IB"),
    "T2-II-partition": (T2_II, 1, lambda: find_subset_partition(2, 2), "T2-II"),
    "T2-II-ordered": (T2_II, 1, lambda: enumerate_ordered_partitions(2, 2), "T2-II"),
    "T2-l0": (T2_II, 0, lambda: find_subset_partition(2, 2), "T2-II"),
    "T2-mu3": (T2_MU3, 1, lambda: enumerate_ordered_partitions(2, 3), "T2-II"),
}


def _schedule(name):
    params, l_size, system, regime = SCHEDULES[name]
    schedule = make_schedule(params, worst_case_demand(params), l_size, system())
    assert schedule.regime == regime
    return params, schedule


@pytest.mark.parametrize("name", SCHEDULES)
def test_lowering_round_trip(name):
    _, schedule = _schedule(name)
    for plan in schedule.blocks:
        fresh_nulls = required_nulls(plan)
        assert plan.lowering is None  # computing null links does not lower
        low = lower_plan(plan)
        deliveries = plan.deliveries
        receivers_and_groups = zip(low.delivery_rx.tolist(), low.serving_tx.tolist())
        assert [(rx + 1, tuple(tx + 1 for tx in txs)) for rx, txs in receivers_and_groups] == [
            (dl.intended_rx, dl.serving_txs) for dl in deliveries
        ]
        assert tuple(j + 1 for j in low.cached_rxs.tolist()) == tuple(sorted(plan.cached_rxs))
        assert tuple(j + 1 for j in low.zf_rxs.tolist()) == tuple(sorted(plan.zf_rxs))
        assert low.n_joint == 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
        for a, own in enumerate(deliveries):
            assert low.cache_mask[a].tolist() == [int(own.intended_rx in dl.subfile.rx_set) for dl in deliveries]
        lowered_nulls = required_nulls(plan)
        assert lowered_nulls == fresh_nulls
        assert lowered_nulls.links == plan.null_links
        pairs = lowered_nulls.pairs
        assert [tuple(p) for p in (pairs.T + 1).tolist()] == sorted(plan.null_links)
        assert len(lowered_nulls) == len(plan.null_links)


@pytest.mark.parametrize("name", ["T2-IA", "T2-II-ordered", "T2-mu3"])
def test_lowered_zero_forcing_layout(name):
    """The joint system's scatter indices place each slot receiver's
    channel from the lead group on the unknowns the row pattern names;
    each idle system reads its own receiver, then the zero-forcing ones,
    from its own serving group."""
    params, schedule = _schedule(name)
    for plan in schedule.blocks[:20]:
        low = lower_plan(plan)
        mu_t, n_joint = params.mu_t, low.n_joint
        rows = joint_zf_rows(n_joint, mu_t)
        dim = len(rows)
        lead = [tx - 1 for tx in plan.deliveries[0].serving_txs]
        expected = [
            (plan.deliveries[s].intended_rx - 1, lead[p], row * dim + u * mu_t + p)
            for row, (s, u) in enumerate(rows)
            for p in range(mu_t)
        ]
        layout = joint_zf_layout(n_joint, mu_t)
        assert list(zip(low.joint_rx.tolist(), low.joint_tx.tolist(), layout.pos.tolist())) == expected
        assert layout.rhs.tolist() == [float(s == u) for s, u in rows]
        idle = plan.deliveries[n_joint:]
        zf = sorted(j - 1 for j in plan.zf_rxs)
        assert low.idle_rx.tolist() == [
            r for dl in idle for r in (dl.intended_rx - 1, *zf) for _ in range(mu_t)
        ]
        assert low.idle_tx.tolist() == [tx - 1 for dl in idle for _ in range(mu_t) for tx in dl.serving_txs]


def test_lowering_is_one_small_buffer_per_plan():
    plan = _schedule("T2-II-ordered")[1].blocks[0]
    low = lower_plan(plan)
    assert isinstance(plan.lowering, np.ndarray) and plan.lowering.dtype == np.int8
    assert not plan.lowering.flags.writeable
    assert lower_plan(plan) is low  # the stages of one block share one read
    # the cache is not part of the plan's identity, and a changed plan is lowered afresh
    copy = dataclasses.replace(plan)
    assert copy == plan and copy.lowering is None


def test_null_set_forms_agree():
    links = {(1, 3), (2, 1), (1, 2)}
    from_links = NullSet(links)
    from_pairs = NullSet(pairs=np.array([[0, 0, 1], [1, 2, 0]]))
    assert from_links == from_pairs and hash(from_links) == hash(from_pairs)
    assert from_pairs.links == frozenset(links)
    assert from_links.pairs.tolist() == [[0, 0, 1], [1, 2, 0]]
    assert len(from_links) == len(from_pairs) == 3
    with pytest.raises(TypeError):
        NullSet()
