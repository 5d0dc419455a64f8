"""The exact cover keyed from a built schedule's factors against the cover
keyed from its plans: the keys row for row, the reports on every built
schedule and on mutated factors, the fall-back to the plans for a codec of
another mode or ``l_size``, and no ``BlockPlan`` made by the cover or by
``achieved_dof``."""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from test_cover import NETWORKS
from test_schedule_tables import DESK_IDS, GRID, GRID_IDS, _repeated, _system, small_cases

from irs_cache_dof import scheduler
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import ORDERED_MODE, SUBSET_MODE, SubfileId, split_library
from irs_cache_dof.scheduler import (
    BlockPlan,
    BlockPlans,
    DemandVector,
    _key_deliveries,
    achieved_dof,
    demanded_for_schedule,
    make_schedule,
    verify_schedule_partition,
    worst_case_demand,
)


@contextlib.contextmanager
def counting_plans():
    """A list that gains one entry per ``BlockPlan`` constructed in the block."""
    made, init = [], BlockPlan.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    BlockPlan.__init__ = counted
    try:
        yield made
    finally:
        BlockPlan.__init__ = init


def _built(params, demand, l_size, system):
    schedule = make_schedule(params, demand, l_size, system)
    return schedule, demanded_for_schedule(split_library(params, mode=schedule.tx_mode), schedule)


#: every factor-built schedule of test_cover.py and of the schedule-table grid, with both demands
CASES = {f"cover-{name}": lambda name=name: NETWORKS[name]() for name in NETWORKS}
for (design, params, l_size, _), grid_id in zip(GRID, GRID_IDS):
    for demand_of in (worst_case_demand, _repeated):
        CASES[f"{grid_id}-{demand_of.__name__}"] = lambda d=design, p=params, l=l_size, f=demand_of: (
            p, make_schedule(p, f(p), l, _system(d, p))
        )


#: the cases at desk scale, whose mutants the plan cover reports in well under a second
DESK_CASES = sorted(name for name in CASES if name.startswith("cover-") or name.rsplit("-", 1)[0] in DESK_IDS)


def _case(name):
    first, schedule = CASES[name]()
    universe = first if name.startswith("cover-") else split_library(schedule.params, mode=schedule.tx_mode)
    return schedule, demanded_for_schedule(universe, schedule)


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request):
    return _case(request.param)


def _object_report(schedule, demanded):
    return verify_schedule_partition(replace(schedule, blocks=tuple(schedule.blocks)), demanded)


def _assert_reports_alike(schedule, demanded, keyed_from_factors=True):
    """The cover of ``schedule`` equals the cover of its plans; when
    ``keyed_from_factors``, it makes no plan."""
    assert isinstance(schedule.blocks, BlockPlans)
    with counting_plans() as made:
        report = verify_schedule_partition(schedule, demanded)
    assert (not made) == keyed_from_factors, len(made)
    want = _object_report(schedule, demanded)
    assert report == want and report.summary() == want.summary()
    return report


def test_factor_keys_equal_the_plan_keys_row_for_row(case):
    schedule, demanded = case
    codec, blocks = demanded.codec, schedule.blocks
    n = blocks.n_deliveries
    factor = np.zeros((n, codec.width), dtype=np.int64)
    with counting_plans() as made:
        assert blocks.keys(codec, factor)
    assert not made
    plans = np.zeros((n, codec.width), dtype=np.int64)
    unkeyed, pairs = _key_deliveries(codec, tuple(blocks), plans)
    assert not len(unkeyed) and not pairs
    assert len(plans) == sum(len(block.deliveries) for block in blocks)
    assert np.array_equal(factor, plans)


def test_factor_cover_reports_like_the_plan_cover(case):
    schedule, demanded = case
    assert _assert_reports_alike(schedule, demanded).ok


@settings(max_examples=40, deadline=None)
@given(small_cases())
def test_factor_cover_reports_like_the_plan_cover_on_small_random_networks(case):
    design, params, demand, l_size = case
    schedule, demanded = _built(params, demand, l_size, _system(design, params))
    assert _assert_reports_alike(schedule, demanded).ok


def _mutants(blocks):
    """Factors broken three ways: a coordinate dropped, an active set
    repeated, and the demands of two receivers of different files swapped."""
    p, d = blocks.params, list(blocks.demand.d)
    yield "dropped coordinate", replace_factors(blocks, served=blocks.served[:-1])
    yield "repeated active set", replace_factors(blocks, actives=(*blocks.actives, blocks.actives[-1]))
    j = next(j for j in range(1, p.k_r) if d[j] != d[0])
    d[0], d[j] = d[j], d[0]
    yield "swapped demand", replace_factors(blocks, demand=DemandVector(tuple(d)))


def replace_factors(blocks, **changes):
    fields = {name: getattr(blocks, name) for name in ("params", "demand", "partial", "served", "actives")}
    return BlockPlans(**{**fields, **changes})


@pytest.mark.parametrize("case_name", DESK_CASES)
def test_mutated_factors_report_like_their_plans(case_name):
    schedule, demanded = _case(case_name)
    assert len(schedule.blocks.served) > 1 and len(set(schedule.demand.d)) > 1
    for name, blocks in _mutants(schedule.blocks):
        report = _assert_reports_alike(replace(schedule, blocks=blocks), demanded)
        assert not report.ok, name


#: Theorem 1 on 3x4 with L = 1: the subset mode, and partial activity (surface groups of one receiver)
T1_II = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1)


@pytest.mark.parametrize("mismatch", ["l_size", "mode"])
def test_codec_of_another_l_size_or_mode_keys_the_plans(mismatch):
    """Demanded pairs keyed for full activity (no surface group), or for
    ordered arrangements, do not fit the factors of a partial-activity
    subset schedule: the cover keys the plans and reports like them."""
    schedule = make_schedule(T1_II, worst_case_demand(T1_II), 1)
    if mismatch == "l_size":
        other = replace(schedule, l_size=2)
        demanded = demanded_for_schedule(split_library(T1_II), other)
        assert demanded.codec.sizes == (1, 0, 0)
    else:
        other = replace(schedule, tx_mode=ORDERED_MODE)
        demanded = demanded_for_schedule(split_library(T1_II, mode=ORDERED_MODE), other)
        assert demanded.codec.mode == ORDERED_MODE != SUBSET_MODE == schedule.tx_mode
    assert not schedule.blocks.keys(demanded.codec, np.zeros((schedule.blocks.n_deliveries, 1), dtype=np.int64))
    report = _assert_reports_alike(schedule, demanded, keyed_from_factors=False)
    assert len(report.extra) == schedule.blocks.n_deliveries and len(report.missing) == len(demanded)


def test_a_codec_of_other_parameters_keys_the_plans():
    schedule = make_schedule(T1_II, worst_case_demand(T1_II), 1)
    more_files = replace(T1_II, n_files=6)
    demanded = demanded_for_schedule(split_library(more_files), make_schedule(more_files, worst_case_demand(more_files), 1))
    report = _assert_reports_alike(schedule, demanded, keyed_from_factors=False)
    assert report.ok


@pytest.mark.parametrize("keyed_from", ["factors", "plans"])
def test_a_failing_one_word_cover_keys_each_delivery_once(monkeypatch, keyed_from):
    """A schedule missing its last coordinate (factors) or its last block
    (plans) fails the sorted-column check, and the report that follows
    reuses those keys: one ``BlockPlans.keys`` or one ``_key_deliveries``
    call in all."""
    schedule = make_schedule(T1_II, worst_case_demand(T1_II), 1)
    demanded = demanded_for_schedule(split_library(T1_II), schedule)
    assert demanded.codec.width == 1
    if keyed_from == "factors":
        broken = replace(schedule, blocks=replace_factors(schedule.blocks, served=schedule.blocks.served[:-1]))
        owner, name = BlockPlans, "keys"
    else:
        broken = replace(schedule, blocks=tuple(schedule.blocks)[:-1])
        owner, name = scheduler, "_key_deliveries"
    calls, key = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return key(*args)

    monkeypatch.setattr(owner, name, counted)
    report = verify_schedule_partition(broken, demanded)
    assert len(calls) == 1
    assert not report.ok and report.missing and not (report.extra or report.duplicates)
    monkeypatch.undo()
    assert report == _object_report(broken, demanded)


def test_overlapping_table_groups_raise_what_subfile_id_raises():
    """An active set that names receiver 1 twice gives a table entry whose
    surface group repeats the cached one: ``plans`` raises the ValueError
    that ``SubfileId`` raises for the first such subfile, at the first
    coordinate."""
    schedule = make_schedule(T1_II, worst_case_demand(T1_II), 1)
    bad = replace_factors(schedule.blocks, actives=((1, 1, 2),))
    with pytest.raises(ValueError) as expected:
        SubfileId(2, (2,), (1,), (), (1,))
    with pytest.raises(ValueError) as raised:
        bad.plans()
    assert type(raised.value) is ValueError and str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("receiver index groups must be disjoint: ")


def test_plans_share_the_checked_subfiles_fields():
    """Past the first coordinate the plans' subfiles are made unchecked:
    they equal, hash and order as subfiles made by ``SubfileId``."""
    schedule = make_schedule(T1_II, worst_case_demand(T1_II), 1)
    subfiles = [dl.subfile for block in schedule.blocks for dl in block.deliveries]
    checked = [SubfileId(s.file, s.tx_index, s.rx_set, s.zf_set, s.irs_set) for s in subfiles]
    assert subfiles == checked and list(map(hash, subfiles)) == list(map(hash, checked))
    assert sorted(subfiles) == sorted(checked)


def test_rate_and_cover_make_no_plan():
    """The 12x12 Theorem 1 schedule of the benchmark's plan pass: its rate
    and its delivery count come from the factors, h_blocks x D."""
    params = SystemParams(k_t=12, k_r=12, n_files=12, f_packets=1, mu_t=1, mu_r=1, q_elements=80)
    schedule = make_schedule(params, worst_case_demand(params), 8)
    demanded = demanded_for_schedule(split_library(params), schedule)
    with counting_plans() as made:
        rate = achieved_dof(schedule)
        report = verify_schedule_partition(schedule, demanded)
        n_deliveries = schedule.blocks.n_deliveries
    assert not made
    assert report.ok and n_deliveries == schedule.h_blocks * 10 == 71_280
    assert rate == achieved_dof(replace(schedule, blocks=tuple(schedule.blocks))) == 10
