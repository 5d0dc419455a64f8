"""Round trip of block-plan lowering: each row of a schedule's integer
stack must give back every delivery's receiver and serving group, the
zero-forcing group and the size of the cached one, the cache relation and
the null links of the plan it came from, and the zero-forcing systems
gathered from it must read the plan's channel entries; and every schedule
lowers to the one header its parameters fix."""

import dataclasses
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from traced_memory import traced

from irs_cache_dof import lowering
from irs_cache_dof.channel import sample_block_channels
from irs_cache_dof.combinatorics import enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.irs import required_nulls, solve_irs
from irs_cache_dof.lowering import lower
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import make_schedule, worst_case_demand
from irs_cache_dof.simulator import SimOptions, build_schedule, receiver_decode, run_episode, simulate_block, transmit_block
from irs_cache_dof.zf import BeamformerSet, beamformers_for_block, joint_zf_layout, joint_zf_rows, zf_systems

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


STACK_FIELDS = ("delivery_rx", "serving_tx", "cache_mask", "null_pairs", "zf_rxs")


def _same_stack(a, b):
    pairs = [(getattr(a, f), getattr(b, f)) for f in STACK_FIELDS]
    return a.header == b.header and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def _with_lead(plan, **fields):
    """``plan`` with its first (lead) delivery's ``fields`` replaced."""
    lead = dataclasses.replace(plan.deliveries[0], **fields)
    return dataclasses.replace(plan, deliveries=(lead, *plan.deliveries[1:]))


def _refused(plan, run):
    """Lowering ``plan`` and running ``run()`` both raise a plain ValueError
    (not a shape mismatch, a TypeError or a channel error) that names the
    plan's block; the message is returned."""
    with pytest.raises(ValueError, match=rf"^block {plan.block_index}: ") as lowered:
        lower([plan])
    with pytest.raises(ValueError, match=rf"^block {plan.block_index}: ") as ran:
        run()
    assert type(lowered.value) is ValueError and type(ran.value) is ValueError
    assert str(ran.value) == str(lowered.value)
    return str(lowered.value)


@pytest.mark.parametrize("value", [1.5, 2.7, np.float64(2.5), 1 + 1j, None], ids=repr)
def test_node_no_int_equals_refused_naming_block_and_value(value):
    """Block 1 of the worked example served by a transmitter that no int
    equals would lower to a truncated transmitter (2.7 runs as transmitter
    2, and a complex one cannot sort): it is refused, by ``lower`` and by
    an episode, naming the block and the value."""
    schedule = _schedule("T1-I")[1]
    bad = _with_lead(schedule.blocks[0], serving_txs=(value,))
    spliced = dataclasses.replace(schedule, blocks=(bad, *schedule.blocks[1:]))
    message = _refused(bad, lambda: run_episode(T1, "thm1", 3, schedule=spliced))
    assert message.startswith(f"block 1: names node {value!r};")


@pytest.mark.parametrize("value", [32769, 2**70])
def test_node_out_of_range_refused_naming_block_and_value(value):
    plan = _schedule("T1-I")[1].blocks[0]
    with pytest.raises(ValueError, match=rf"^block 1: names node {value};") as refused:
        lower([_with_lead(plan, intended_rx=value)])
    assert type(refused.value) is ValueError


@pytest.mark.parametrize(
    "name, order",
    [("T1-I", [3, 2, 1, 0]), ("T2-IB", [1, 0, 2, 3]), ("T2-IB", [3, 1, 2, 0])],
    ids=["reversed", "lead-cached-swapped", "lead-idle-swapped"],
)
def test_deliveries_out_of_order_refused_naming_block(name, order):
    """The stages read the lead group from the first delivery and the joint
    system from the first 1 + C + Z: block 1 with its deliveries reversed,
    or its lead delivery swapped with the cached or the idle one, is
    refused rather than run as another plan (unchecked, the reversed block
    would be reported as a shape mismatch of block 2, and the swapped ones
    would decode 3 and 0 of 4 deliveries, as if the channel had failed)."""
    params, schedule = _schedule(name)
    plan = schedule.blocks[0]
    bad = dataclasses.replace(plan, deliveries=tuple(plan.deliveries[i] for i in order))
    spliced = dataclasses.replace(schedule, blocks=(bad, *schedule.blocks[1:]))
    thm1 = name == "T1-I"
    regime, options = ("thm1", SimOptions()) if thm1 else ("thm2-ordered", SimOptions(strictness="sufficient"))
    message = _refused(bad, lambda: run_episode(params, regime, 3, options, schedule=spliced))
    receivers = tuple(plan.deliveries[i].intended_rx for i in order)
    assert message.startswith(f"block 1: delivers to {receivers}, not to (lead, *cached, *zf, *idle) (1, 2, 3, 4)")


@pytest.mark.parametrize("at, receiver", [(1, 2), (2, 3)], ids=["cached", "zero-forcing"])
def test_joint_delivery_served_by_another_group_refused(at, receiver):
    """The zero-forcing weights of the lead, cached and zero-forcing
    deliveries are solved for the lead's group, which sends them: block 1
    of coop_small's network with its cached (or zero-forcing) delivery
    moved from the lead's group (1, 2) to (5, 6) is refused, by ``lower``,
    by ``simulate_block`` and by an episode (unchecked, the block delivered
    3 of 5, with residuals at two other receivers, as if the channel had
    failed)."""
    params, options = SystemParams(6, 6, 6, 1, 2, 1, 12), SimOptions(strictness="sufficient")
    schedule = build_schedule(params, "thm2-ordered", options)
    plan = schedule.blocks[0]
    assert (plan.lead_rx, plan.cached_rxs, plan.zf_rxs, plan.deliveries[0].serving_txs) == (1, (2,), (3,), (1, 2))
    moved = dataclasses.replace(plan.deliveries[at], serving_txs=(5, 6))
    bad = dataclasses.replace(plan, deliveries=(*plan.deliveries[:at], moved, *plan.deliveries[at + 1 :]))
    spliced = dataclasses.replace(schedule, blocks=(bad, *schedule.blocks[1:]))
    message = _refused(bad, lambda: simulate_block(bad, params, 3, options))
    assert message == (
        f"block 1: serves receiver {receiver} by (5, 6); the lead, cached and zero-forcing receivers share the "
        "lead's group (1, 2)"
    )
    with pytest.raises(ValueError) as ran:
        run_episode(params, "thm2-ordered", 3, options, schedule=spliced)
    assert type(ran.value) is ValueError and str(ran.value) == message


@pytest.mark.parametrize("field", ["serving_txs", "intended_rx"])
def test_nodes_equal_to_an_int_lower_like_it(field):
    """Node 1 given as any value equal to 1 lowers to the stack of 1."""
    plan = _schedule("T1-I")[1].blocks[0]
    assert plan.deliveries[0].serving_txs == (1,) and plan.deliveries[0].intended_rx == 1
    expected = lower([plan])
    for value in [1.0, True, Fraction(1), Decimal(1), np.int64(1), np.uint64(1), np.float64(1.0), 1 + 0j]:
        edited = _with_lead(plan, **{field: (value,) if field == "serving_txs" else value})
        assert _same_stack(lower([edited]), expected), value


def test_surface_solve_takes_nodes_by_the_lowering_rule():
    """``solve_irs`` converts its links through the lowering rule: a node
    that no int equals is refused naming the block, and nodes equal to
    ints solve exactly as those ints."""
    ch = sample_block_channels(T1, block=4, seed=5)
    for link, node in [((1.5, 3), 1.5), ((2, 1 + 1j), 1 + 1j), ((0, 3), 0)]:
        with pytest.raises(ValueError, match=rf"^block 4: names node {re.escape(repr(node))};"):
            solve_irs(ch, frozenset([link, (2, 4)]))
    exact_cfg, exact_info = solve_irs(ch, frozenset([(1, 3), (2, 4), (3, 1)]))
    unsigned = [(np.uint64(i), np.uint64(j)) for i, j in ((1, 3), (2, 4), (3, 1))]
    for links in [[(1.0, 3), (Fraction(2), 4.0), (np.int64(3), 1 + 0j)], unsigned]:
        cfg, info = solve_irs(ch, frozenset(links))
        assert np.array_equal(cfg.q, exact_cfg.q) and info == exact_info


#: (field, whether it is one of a delivery's): the plan's node fields
NODE_FIELDS = [
    ("intended_rx", True),
    ("serving_txs", True),
    ("lead_rx", False),
    ("cached_rxs", False),
    ("zf_rxs", False),
    ("idle_rxs", False),
    ("active_rxs", False),
]
EQUAL_TYPES = (float, Fraction, Decimal, complex, np.int64, np.float64)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["T1-II", "T2-II-partition", "T2-II-ordered"]), st.data())
def test_one_random_edit_lowers_alike_or_is_refused_naming_its_block(name, data):
    """One random edit to one block: a node field set to an equal value of
    another type lowers to the same stack; set to a value that no node in
    1..32768 equals, or the deliveries put in any other order, it raises a
    plain ValueError naming its block, also after well-formed blocks."""
    schedule, draw = _schedule(name)[1], data.draw
    b = draw(st.integers(0, schedule.h_blocks - 1))
    plan = schedule.blocks[b]
    edit = draw(st.sampled_from(["equal value", "malformed value", "permutation"]))
    if edit == "permutation":
        n = len(plan.deliveries)
        order = draw(st.permutations(range(n)).filter(lambda p: p != list(range(n))))
        bad = dataclasses.replace(plan, deliveries=tuple(plan.deliveries[i] for i in order))
    else:
        field, per_delivery = draw(st.sampled_from([f for f in NODE_FIELDS if f[1] or getattr(plan, f[0])]))
        d = draw(st.integers(0, len(plan.deliveries) - 1))
        owner = plan.deliveries[d] if per_delivery else plan
        value = getattr(owner, field)
        at = draw(st.integers(0, len(value) - 1)) if isinstance(value, tuple) else None
        node = value if at is None else value[at]
        if edit == "equal value":
            new = draw(st.sampled_from(EQUAL_TYPES + ((bool,) if node == 1 else ())))(node)
        else:
            new = draw(st.sampled_from([0, -1, 32769, 2**70, node + 0.5, complex(node, 1), None]))
        value = new if at is None else value[:at] + (new,) + value[at + 1 :]
        owner = dataclasses.replace(owner, **{field: value})
        if per_delivery:
            owner = dataclasses.replace(plan, deliveries=plan.deliveries[:d] + (owner,) + plan.deliveries[d + 1 :])
        if edit == "equal value":
            assert _same_stack(lower([owner]), lower([plan]))
            return
        bad = owner
    with pytest.raises(ValueError, match=rf"^block {plan.block_index}: ") as refused:
        lower([*schedule.blocks[max(0, b - 2) : b], bad])
    assert type(refused.value) is ValueError


def test_lowering_holds_the_stack_and_one_part():
    """Three parts of the 12x12 Theorem 1 schedule of the benchmark's plan
    pass (mu_r = 1, Q = 80, L = 8) lower at a peak of at most their int8
    stack plus one part of ``_SORT_ROWS`` rows as int16: each row is
    written straight into the stack, and each part's links sort on one
    int32 key. A full int16 stack with an int8 copy held three times the
    stack."""
    params = SystemParams(k_t=12, k_r=12, n_files=12, f_packets=1, mu_t=1, mu_r=1, q_elements=80)
    plans = make_schedule(params, worst_case_demand(params), 8).blocks[: 3 * lowering._SORT_ROWS]
    lower(plans[:3], (12, 12))  # first-call caches are not the lowering's
    stack, _, peak = traced(lambda: lower(plans, (12, 12)))
    rows = stack.delivery_rx.base
    assert rows.dtype == np.int8 and rows.shape == (3 * lowering._SORT_ROWS, 264)
    assert peak <= rows.nbytes + lowering._SORT_ROWS * rows.shape[1] * 2, peak - rows.nbytes


def test_a_later_part_past_int8_widens_the_stack_once(monkeypatch):
    """With parts of two rows, plans on 130 transmitters whose first parts
    name nodes up to 5 and whose last names transmitter 130 lower to an
    int16 stack whose rows are the plans lowered one by one."""
    params = SystemParams(k_t=130, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1)
    blocks = make_schedule(params, worst_case_demand(params), 2).blocks
    plans = [*blocks[:4], *blocks[-2:]]
    assert max(tx for plan in plans[:4] for dl in plan.deliveries for tx in dl.serving_txs) <= 5
    assert 130 in {tx for dl in plans[-1].deliveries for tx in dl.serving_txs}
    whole = lower(plans, (130, 4))
    monkeypatch.setattr(lowering, "_SORT_ROWS", 2)
    stack = lower(plans, (130, 4))
    assert stack.delivery_rx.base.dtype == np.int16 and not stack.delivery_rx.base.flags.writeable
    assert _same_stack(stack, whole)
    for name in STACK_FIELDS:
        alone = np.concatenate([getattr(lower([plan]), name) for plan in plans]).astype(np.int16)
        assert np.array_equal(getattr(stack, name), alone), name


def test_node_past_the_network_refused_where_it_appears():
    """Given the network's (k_t, k_r), lowering refuses a plan whose serving
    group, or whose cut links (through an active receiver that no delivery
    names), reach past it, naming the block and the node's kind; without
    them the same plans lower."""
    plan = _schedule("T1-I")[1].blocks[0]
    joint = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
    moved = tuple(dataclasses.replace(dl, serving_txs=(4,)) for dl in plan.deliveries[:joint])
    lead_group = dataclasses.replace(plan, deliveries=(*moved, *plan.deliveries[joint:]))
    for bad, message in [
        (lead_group, "names transmitter 4; the network has 3 transmitters"),
        (dataclasses.replace(plan, active_rxs=(*plan.active_rxs, 5)), "names receiver 5; the network has 4 receivers"),
    ]:
        with pytest.raises(ValueError, match=rf"^block 1: {message}$"):
            lower([plan, bad], (3, 4))
        assert len(lower([bad])) == 1


def _refused_past_the_network(call, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is ValueError


def test_one_block_beamformers_refuse_a_node_past_the_channel():
    """``beamformers_for_block`` takes the network from ``h_eq``: a 4x4
    serving group (1, 5) is refused as lowering refuses it, not read past
    the channel (an IndexError), and on the 3x4 worked example, whose
    single-transmitter weights read no channel, transmitter 4 is refused
    too."""
    plan = make_schedule(T2, worst_case_demand(T2), 1, find_subset_partition(2, 2)).blocks[0]
    bad = _with_lead(plan, serving_txs=(1, 5))
    _refused_past_the_network(
        lambda: beamformers_for_block(bad, np.ones((4, 4), dtype=complex), 2),
        f"block {plan.block_index}: names transmitter 5; the network has 4 transmitters",
    )
    bad = _with_lead(_schedule("T1-I")[1].blocks[0], serving_txs=(4,))
    _refused_past_the_network(
        lambda: beamformers_for_block(bad, np.ones((4, 3), dtype=complex), 1),
        "block 1: names transmitter 4; the network has 3 transmitters",
    )


def test_one_block_transmit_and_decode_refuse_a_node_past_the_network():
    """``transmit_block`` refuses a transmitter past its ``k_t`` and
    ``receiver_decode`` a node past its ``h_eq``, with beamformers that fit
    the plan."""
    bad = _with_lead(_schedule("T1-I")[1].blocks[0], serving_txs=(4,))
    beams = BeamformerSet(bad.deliveries, np.ones((len(bad.deliveries), 1), dtype=complex))
    symbols = np.ones(len(bad.deliveries), dtype=complex)
    message = "block 1: names transmitter 4; the network has 3 transmitters"
    _refused_past_the_network(lambda: transmit_block(bad, beams, symbols, 3), message)
    _refused_past_the_network(
        lambda: receiver_decode(0j, 1, bad, np.ones((4, 3), dtype=complex), beams, symbols), message
    )


@pytest.mark.parametrize(
    "link, message",
    [((5, 1), "names transmitter 5; the network has 4 transmitters"), ((1, 9), "names receiver 9; the network has 4 receivers")],
    ids=["transmitter", "receiver"],
)
def test_surface_solve_refuses_a_node_past_the_channel(link, message):
    ch = sample_block_channels(T2, block=3, seed=5)
    _refused_past_the_network(lambda: solve_irs(ch, frozenset({link})), f"block 3: {message}")
    _refused_past_the_network(lambda: solve_irs(ch, frozenset({(1, 2), link})), f"block 3: {message}")
