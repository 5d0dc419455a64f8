"""Schedules built by ``make_schedule`` keep their factors: the rows
lowered from them equal ``lower`` of the plans row for row, ``len`` and
``h_blocks`` make no plan and ``lowered`` only the plans of one table, and
the plans are built once, on the first read, into a sequence that
compares, hashes and splices as the tuple of a schedule built by keyword."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from test_schedule_tables import GRID, GRID_IDS, _repeated, _system, small_cases

from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q
from irs_cache_dof.lowering import lower
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import BlockPlan, BlockPlans, DemandVector, Schedule, make_schedule, worst_case_demand
from irs_cache_dof.simulator import SimOptions, build_schedule

STACK_FIELDS = ("delivery_rx", "serving_tx", "cache_mask", "null_pairs", "zf_rxs")


def _assert_rows_equal_the_plans(schedule):
    """The factor rows equal ``lower`` of the plans: header, values, dtype,
    and one read-only row buffer that every section views."""
    assert isinstance(schedule.blocks, BlockPlans)
    stack = schedule.lowered
    reference = lower(tuple(schedule.blocks), (schedule.params.k_t, schedule.params.k_r))
    assert stack.header == reference.header and len(schedule.blocks) == len(reference)
    buffer, expected = stack.delivery_rx.base, reference.delivery_rx.base
    assert buffer.dtype == expected.dtype and buffer.shape == expected.shape and not buffer.flags.writeable
    for name in STACK_FIELDS:
        rows, oracle = getattr(stack, name), getattr(reference, name)
        assert rows.base is buffer, name
        assert rows.dtype == oracle.dtype and rows.shape == oracle.shape and np.array_equal(rows, oracle), name
    return stack


@pytest.mark.parametrize("demand_of", [worst_case_demand, _repeated], ids=["worst-case", "repeated-file"])
@pytest.mark.parametrize("design, params, l_size, regime", GRID, ids=GRID_IDS)
def test_factor_rows_equal_the_lowered_plans(design, params, l_size, regime, demand_of):
    _assert_rows_equal_the_plans(make_schedule(params, demand_of(params), l_size, _system(design, params)))


@settings(max_examples=40, deadline=None)
@given(small_cases())
def test_factor_rows_equal_the_lowered_plans_on_small_random_networks(case):
    design, params, demand, l_size = case
    _assert_rows_equal_the_plans(make_schedule(params, demand, l_size, _system(design, params)))


#: the benchmark's three simulation networks, and Theorem 1 on 130 receivers,
#: whose receivers past 128 need int16 rows
NETWORKS = {
    "irs_square": (SystemParams(14, 14, 14, 1, 1, 2, 132), "thm1", STRICT_Q),
    "irs_minnorm": (SystemParams(10, 10, 10, 1, 1, 1, 60), "thm1", STRICT_Q),
    "coop_small": (SystemParams(6, 6, 6, 1, 2, 1, 12), "thm2-ordered", SUFFICIENT_Q),
    "thm1-130rx": (SystemParams(1, 130, 130, 1, 1, 1, 0), "thm1", STRICT_Q),
}


@pytest.mark.parametrize("name", NETWORKS)
def test_factor_rows_equal_the_lowered_plans_on_the_benchmark_networks(name):
    params, regime, strictness = NETWORKS[name]
    options = SimOptions(strictness=strictness, demand=DemandVector(tuple(range(params.k_r, 0, -1))))
    stack = _assert_rows_equal_the_plans(build_schedule(params, regime, options))
    assert stack.delivery_rx.dtype == (np.int16 if name == "thm1-130rx" else np.int8)


@pytest.fixture
def made(monkeypatch):
    """Every ``BlockPlan`` constructed while the test runs."""
    plans = []
    init = BlockPlan.__init__

    def counted(self, *args, **kwargs):
        plans.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BlockPlan, "__init__", counted)
    return plans


def test_plans_are_made_once_on_the_first_full_read(made):
    params, regime, strictness = NETWORKS["coop_small"]
    schedule = build_schedule(params, regime, SimOptions(strictness=strictness))
    blocks = schedule.blocks
    assert len(blocks) == schedule.h_blocks == 6480 and blocks
    schedule.lowered
    # lowering makes the plans of one table, the active set 1..5 at the first coordinate
    table = made[:]
    assert [plan.block_index for plan in table] == list(range(1, 13))
    assert all(plan.active_rxs == (1, 2, 3, 4, 5) for plan in table)
    made.clear()
    plans = tuple(blocks)
    assert len(made) == 6480 and all(a is b for a, b in zip(plans, made))
    assert set(map(id, table)).isdisjoint(map(id, plans))
    assert [plan.block_index for plan in plans] == list(range(1, 6481))
    # later reads return the same objects, and build nothing
    assert blocks[7] is plans[7] and blocks[-1] is plans[-1] and next(iter(blocks)) is plans[0]
    assert type(blocks[2:5]) is tuple and all(a is b for a, b in zip(blocks[2:5], plans[2:5]))
    assert blocks + blocks[:1] == plans + plans[:1] and blocks[:1] + blocks == plans[:1] + plans
    assert type(blocks + blocks[:1]) is tuple and type(blocks[:1] + blocks) is tuple
    assert len(made) == 6480


def test_a_factor_schedule_compares_hashes_and_copies_as_by_keyword(made):
    params, regime, strictness = NETWORKS["irs_minnorm"]
    schedule = build_schedule(params, regime, SimOptions(strictness=strictness))
    fields = {f.name: getattr(schedule, f.name) for f in dataclasses.fields(schedule)}
    keyword = Schedule(**{**fields, "blocks": tuple(schedule.blocks)})
    assert schedule == keyword and keyword == schedule and hash(schedule) == hash(keyword)
    assert schedule.blocks == keyword.blocks and keyword.blocks == schedule.blocks
    assert hash(schedule.blocks) == hash(keyword.blocks)
    assert schedule != dataclasses.replace(keyword, blocks=keyword.blocks[:-1])
    assert schedule.blocks != list(keyword.blocks)
    assert len(made) == len(keyword.blocks)
    copy = dataclasses.replace(schedule)
    assert copy == schedule and copy.blocks is schedule.blocks and "lowered" not in vars(copy)
    assert dataclasses.replace(schedule, blocks=schedule.blocks[:-1]).h_blocks == schedule.h_blocks - 1
    assert pickle.loads(pickle.dumps(schedule)) == schedule
    assert _assert_rows_equal_the_plans(copy).header == keyword.lowered.header


def test_factors_on_another_network_lower_from_the_plans():
    """A factor schedule moved onto a network its nodes do not fit is
    lowered from its plans, which names the first block past the network."""
    params = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)
    schedule = build_schedule(params, "thm1", SimOptions())
    smaller = dataclasses.replace(params, k_t=2, q_elements=4)
    with pytest.raises(ValueError, match="^block 1: names transmitter 3; the network has 2 transmitters$"):
        dataclasses.replace(schedule, params=smaller).lowered
