"""Round trip of block-plan lowering: each row of a schedule's integer
stack must give back every delivery's receiver and serving group, the
zero-forcing group and the size of the cached one, the cache relation and
the null links of the plan it came from, and the zero-forcing systems
gathered from it must read the plan's channel entries; and every schedule
lowers to the one header its parameters fix."""

import dataclasses

import numpy as np
import pytest

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.irs import required_nulls
from irs_cache_dof.lowering import lower
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import make_schedule, worst_case_demand
from irs_cache_dof.simulator import run_episode
from irs_cache_dof.zf import joint_zf_layout, joint_zf_rows, zf_systems

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
    "T2-l0-ordered": (T2_II, 0, lambda: enumerate_ordered_partitions(2, 2), "T2-II"),
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
        assert required_nulls(plan) == plan.null_links
    assert "lowered" not in vars(schedule)  # computing null links does not lower
    stack = schedule.lowered
    assert len(stack) == schedule.h_blocks
    for at, plan in enumerate(schedule.blocks):
        deliveries = plan.deliveries
        receivers_and_groups = zip(stack.delivery_rx[at].tolist(), stack.serving_tx[at].tolist())
        assert [(rx + 1, tuple(tx + 1 for tx in txs)) for rx, txs in receivers_and_groups] == [
            (dl.intended_rx, dl.serving_txs) for dl in deliveries
        ]
        assert stack.header[3] == len(plan.cached_rxs)
        assert tuple(j + 1 for j in stack.zf_rxs[at].tolist()) == tuple(sorted(plan.zf_rxs))
        assert stack.n_joint == 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
        for a, own in enumerate(deliveries):
            assert stack.cache_mask[at, a].tolist() == [int(own.intended_rx in dl.subfile.rx_set) for dl in deliveries]
        pairs = stack.null_pairs[at]
        assert [tuple(p) for p in (pairs.T + 1).tolist()] == sorted(plan.null_links)


@pytest.mark.parametrize("name", ["T2-IA", "T2-II-ordered", "T2-mu3"])
def test_lowered_zero_forcing_layout(name):
    """The joint system gathered from a row places each slot receiver's
    channel from the lead group on the unknowns the row pattern names;
    each idle system reads its own receiver, then the zero-forcing ones,
    from its own serving group. The channel entry of (receiver r,
    transmitter t) is coded as (r + 1) + (t + 1)i, so every gathered entry
    names the pair it was read from."""
    params, schedule = _schedule(name)
    receiver, transmitter = np.ogrid[: params.k_r, : params.k_t]
    h_eq = ((receiver + 1) + 1j * (transmitter + 1))[None]
    for at, plan in enumerate(schedule.blocks[:20]):
        stack = schedule.lowered[at : at + 1]
        joint, idle = zf_systems(stack, h_eq)
        mu_t, n_joint = params.mu_t, stack.n_joint
        rows = joint_zf_rows(n_joint, mu_t)
        dim = len(rows)
        lead = [tx - 1 for tx in plan.deliveries[0].serving_txs]
        expected = [
            (plan.deliveries[s].intended_rx - 1, lead[p], row * dim + u * mu_t + p)
            for row, (s, u) in enumerate(rows)
            for p in range(mu_t)
        ]
        layout = joint_zf_layout(n_joint, mu_t)
        entries = joint[0].reshape(-1)[layout.pos]
        joint_rx, joint_tx = (entries.real - 1).astype(int), (entries.imag - 1).astype(int)
        assert list(zip(joint_rx.tolist(), joint_tx.tolist(), layout.pos.tolist())) == expected
        assert np.flatnonzero(joint[0]).tolist() == sorted(layout.pos.tolist())
        assert layout.rhs.tolist() == [float(s == u) for s, u in rows]
        idle_deliveries = plan.deliveries[n_joint:]
        idle_rx, idle_tx = (idle[0].real.reshape(-1) - 1).astype(int), (idle[0].imag.reshape(-1) - 1).astype(int)
        zf = sorted(j - 1 for j in plan.zf_rxs)
        assert idle_rx.tolist() == [r for dl in idle_deliveries for r in (dl.intended_rx - 1, *zf) for _ in range(mu_t)]
        assert idle_tx.tolist() == [tx - 1 for dl in idle_deliveries for _ in range(mu_t) for tx in dl.serving_txs]


@pytest.mark.parametrize("name", SCHEDULES)
def test_schedule_lowers_to_the_closed_form_header(name):
    """Every block serves mu_r + mu_t + L receivers through L + 1 disjoint
    groups of mu_t transmitters, each cutting mu_t L links, so a schedule
    lowers to the one header (mu_r + mu_t + L, mu_t, (L + 1) mu_t L, mu_r,
    mu_t - 1)."""
    params, schedule = _schedule(name)
    mu_r, mu_t, l_size = params.mu_r, params.mu_t, schedule.l_size
    header = (mu_r + mu_t + l_size, mu_t, (l_size + 1) * mu_t * l_size, mu_r, mu_t - 1)
    assert schedule.lowered.header == header
    assert schedule.lowered is schedule.lowered


def test_lowering_is_one_small_stack_per_schedule():
    schedule = _schedule("T2-II-ordered")[1]
    stack = schedule.lowered
    names = [f.name for f in dataclasses.fields(stack)[1:]]
    # five header fields size the five sections a stage reads; nothing derivable is stored
    assert len(stack.header) == 5
    assert names == ["delivery_rx", "serving_tx", "cache_mask", "null_pairs", "zf_rxs"]
    # one read-only int8 buffer of one row per plan, which every array views
    buffer = stack.delivery_rx.base
    assert buffer.dtype == np.int8 and len(buffer) == schedule.h_blocks and not buffer.flags.writeable
    assert all(getattr(stack, name).base is buffer for name in names)
    assert schedule.lowered is stack  # every stage of every episode reads the one stack
    # a slice of the stack views its rows
    part = stack[3:7]
    assert len(part) == 4 and part.header == stack.header
    for name in names:
        assert getattr(part, name).base is buffer
        assert np.array_equal(getattr(part, name), getattr(stack, name)[3:7])
    # one plan lowered alone is its row of the stack
    alone = lower([schedule.blocks[5]])
    assert alone.header == stack.header
    for name in names:
        assert np.array_equal(getattr(alone, name), getattr(stack, name)[5:6])
    # the stack is not part of the schedule's identity, and a changed schedule is lowered afresh
    copy = dataclasses.replace(schedule)
    assert copy == schedule and "lowered" not in vars(copy)


def test_malformed_plan_refused_when_lowered():
    """A plan whose serving groups differ in size, or whose zero-forcing
    group does not fit its serving groups, has no lowered form."""
    plan = _schedule("T2-II-ordered")[1].blocks[0]
    uneven = dataclasses.replace(plan.deliveries[-1], serving_txs=plan.deliveries[-1].serving_txs[:1])
    for bad, message in [
        (dataclasses.replace(plan, deliveries=(*plan.deliveries[:-1], uneven)), "serving groups differ in size"),
        (dataclasses.replace(plan, zf_rxs=()), "need 1 zero-forcing receivers"),
    ]:
        with pytest.raises(ValueError, match=rf"^block {plan.block_index}: {message}$"):
            lower([bad])


def test_no_plans_refused_when_lowered():
    with pytest.raises(ValueError, match="no plans"):
        lower([])


@pytest.mark.parametrize("field", ["serving_txs", "intended_rx"])
def test_node_below_one_refused_when_lowered(field):
    """Nodes count from 1: a plan naming transmitter or receiver 0 would
    lower to index -1, which numpy reads as the last node."""
    schedule = _schedule("T1-I")[1]
    plan = schedule.blocks[0]
    lead = dataclasses.replace(plan.deliveries[0], **{field: (0,) if field == "serving_txs" else 0})
    bad = dataclasses.replace(plan, deliveries=(lead, *plan.deliveries[1:]))
    message = rf"^block {plan.block_index}: names node 0; nodes count from 1$"
    with pytest.raises(ValueError, match=message):
        lower([bad])
    # the malformed plan, not the channel, is named when an episode runs it
    spliced = dataclasses.replace(schedule, blocks=(bad, *schedule.blocks[1:]))
    with pytest.raises(ValueError, match="^block 1: names node 0;"):
        run_episode(T1, "thm1", 3, schedule=spliced)
