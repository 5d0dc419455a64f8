"""Delivery-schedule construction and exact-cover verification."""

import json
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from reference_cover import demanded_subfiles

from irs_cache_dof.combinatorics import SubsetPartitionSystem, enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.params import ParameterError, SystemParams
from irs_cache_dof.placement import split_library
from irs_cache_dof.scheduler import (
    DemandVector,
    SchedulingError,
    demanded_for_schedule,
    make_schedule,
    schedule_to_jsonable,
    verify_schedule_partition,
    worst_case_demand,
)

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def test_demanded_subfiles_of_example_network():
    uni = split_library(EX)
    demanded = demanded_subfiles(uni, worst_case_demand(EX))
    # 9 per receiver, 36 total: K_R * K_T * C(K_R-1, mu_r)
    per_rx = Counter(rx for _, rx in demanded)
    assert all(per_rx[j] == 9 for j in range(1, 5))
    assert len(demanded) == 36


def test_demanded_subfiles_with_full_receiver_cache():
    p = SystemParams(k_t=2, k_r=3, n_files=3, f_packets=1, mu_t=1, mu_r=2)
    uni = split_library(p)
    demanded = demanded_subfiles(uni, worst_case_demand(p))
    # mu_r = K_R - 1 leaves one cache set per (file, transmitter) pair
    per_rx = Counter(rx for _, rx in demanded)
    assert all(per_rx[j] == p.k_t for j in p.receivers)


def test_theorem1_worked_example_layout():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    assert sched.regime == "T1-I"
    assert sched.h_blocks == 9
    assert all(len(b.deliveries) == 4 for b in sched.blocks)
    assert sum(len(b.deliveries) for b in sched.blocks) == 36
    # distinct intended receivers per block
    for b in sched.blocks:
        assert len({d.intended_rx for d in b.deliveries}) == 4
    # per-block topology cut count: L + L*L with L = 2
    assert all(len(b.null_links) == 6 for b in sched.blocks)


def test_theorem1_cover_is_exact():
    uni = split_library(EX)
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    report = verify_schedule_partition(sched, demanded_for_schedule(uni, sched))
    assert report.ok


def test_theorem1_pascal_split_per_super_block():
    # within one super-block, each receiver j != 1 takes C(K_R-2, mu_r-1)
    # cache-covered deliveries and C(K_R-2, mu_r) surface-covered ones
    p = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=1, mu_r=2)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)
    per_super = math.comb(p.k_r - 1, p.mu_r)
    for s in range(p.k_t):
        blocks = sched.blocks[s * per_super : (s + 1) * per_super]
        for j in range(2, p.k_r + 1):
            from_lead = sum(
                1
                for b in blocks
                for d in b.deliveries
                if d.intended_rx == j and 1 in d.subfile.rx_set
            )
            from_own = sum(
                1
                for b in blocks
                for d in b.deliveries
                if d.intended_rx == j and 1 not in d.subfile.rx_set
            )
            assert from_lead == math.comb(p.k_r - 2, p.mu_r - 1)
            assert from_own == math.comb(p.k_r - 2, p.mu_r)
            assert from_lead + from_own == per_super


def test_theorem1_requires_enough_transmitters():
    p = SystemParams(k_t=2, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1)
    with pytest.raises(SchedulingError):
        make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)


def test_dropped_block_reported_missing():
    uni = split_library(EX)
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    truncated = sched.__class__(
        regime=sched.regime,
        tx_mode=sched.tx_mode,
        params=sched.params,
        demand=sched.demand,
        l_size=sched.l_size,
        blocks=sched.blocks[1:],
    )
    report = verify_schedule_partition(truncated, demanded_for_schedule(uni, sched))
    assert not report.ok
    assert len(report.missing) == 4
    assert "never delivered" in report.summary()


def test_corrupted_delivery_reported_as_extra_and_missing():
    # swapping one delivery's cache set produces one undemanded delivery and
    # one missing demanded subfile
    from dataclasses import replace

    uni = split_library(EX)
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    block = sched.blocks[0]
    bad_delivery = replace(
        block.deliveries[0],
        subfile=replace(block.deliveries[0].subfile, rx_set=(block.deliveries[0].intended_rx,)),
    )
    bad_block = replace(block, deliveries=(bad_delivery,) + block.deliveries[1:])
    corrupted = replace(sched, blocks=(bad_block,) + sched.blocks[1:])
    report = verify_schedule_partition(corrupted, demanded_for_schedule(uni, sched))
    assert not report.ok
    assert len(report.missing) == 1 and len(report.extra) == 1


def test_duplicated_block_reported():
    uni = split_library(EX)
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    doubled = sched.__class__(
        regime=sched.regime,
        tx_mode=sched.tx_mode,
        params=sched.params,
        demand=sched.demand,
        l_size=sched.l_size,
        blocks=sched.blocks + sched.blocks[:1],
    )
    report = verify_schedule_partition(doubled, demanded_for_schedule(uni, sched))
    assert not report.ok
    assert len(report.duplicates) == 4
    assert "duplicate" in report.summary()


T2 = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)


def test_theorem2_partition_block_structure():
    system = find_subset_partition(2, 2)
    sched = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    assert sched.regime == "T2-IA"
    assert sched.h_blocks == 6 * 3 * 2  # C(4,2) * C(3,1) * C(2,1)
    assert all(len(b.deliveries) == 4 for b in sched.blocks)
    # serving groups inside one block are disjoint
    for b in sched.blocks:
        groups = {d.serving_txs for d in b.deliveries}
        members = [t for g in groups for t in g]
        assert len(members) == len(set(members))
    # per-block cut count: mu_t * L * (L+1) with L = 1
    assert all(len(b.null_links) == 4 for b in sched.blocks)


def test_theorem2_partition_cover_is_exact():
    uni = split_library(T2)
    system = find_subset_partition(2, 2)
    sched = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_theorem2_super_block_rotation_covers_windows():
    # across one hyper-block, each slot's serving subsets are exactly the
    # M subsets of one class, each hit once per (R, T) pair
    system = find_subset_partition(2, 2)
    sched = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    per_super = 3 * 2  # C(K_R-1, mu_r) * C(K_R-mu_r-1, mu_t-1)
    m = 2
    for hyper in range(3):  # C(M*mu_t - 1, mu_t - 1) hyper-blocks
        blocks = sched.blocks[hyper * per_super * m : (hyper + 1) * per_super * m]
        lead_counts = Counter(b.deliveries[0].serving_txs for b in blocks)
        window = set(system.classes[hyper])
        assert set(lead_counts) == window
        assert all(c == per_super for c in lead_counts.values())


def test_theorem2_serving_set_fresh_per_r_t_pair():
    # no serving group repeats under the same (R, T) pair across blocks
    system = find_subset_partition(2, 2)
    sched = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    seen = set()
    for b in sched.blocks:
        key = (b.cached_rxs, b.zf_rxs, b.deliveries[0].serving_txs)
        assert key not in seen
        seen.add(key)


def test_theorem2_zero_l_no_nulls():
    p = SystemParams(k_t=4, k_r=3, n_files=3, f_packets=1, mu_t=2, mu_r=1)
    system = find_subset_partition(2, 2)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, system)
    assert sched.l_size == 0
    assert all(len(b.null_links) == 0 for b in sched.blocks)
    assert all(len({d.serving_txs for d in b.deliveries}) == 1 for b in sched.blocks)
    uni = split_library(p)
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_theorem2_ordered_block_counts():
    system = enumerate_ordered_partitions(2, 2)
    sched = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    assert sched.regime == "T2-IB"
    assert sched.h_blocks == 6 * 3 * 2
    assert system.num_windows == 3  # (1/M!) * (M mu_t)!/(mu_t!)^M
    uni = split_library(T2, mode="ordered")
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_caseII_theorem1_fraction():
    # K_T=3, K_R=4, mu_r=1, L=1: per-user share (L + mu_r + 1)/K_R = 3/4
    p = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=2)
    sched = make_schedule(p, worst_case_demand(p), l_size=1)
    assert sched.regime == "T1-II"
    assert sched.h_blocks == 3 * math.comb(4, 3) * math.comb(2, 1)
    active_per_rx = Counter()
    for b in sched.blocks:
        assert len(b.deliveries) == 3
        for j in b.active_rxs:
            active_per_rx[j] += 1
    # every receiver is served in exactly (L + mu_r + 1)/K_R of the blocks
    for j in p.receivers:
        assert Fraction(active_per_rx[j], sched.h_blocks) == Fraction(3, 4)
    uni = split_library(p)
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_caseII_theorem2_fraction():
    p = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    system = find_subset_partition(2, 2)
    sched = make_schedule(p, worst_case_demand(p), l_size=1, system=system)
    assert sched.regime == "T2-II"
    for b in sched.blocks:
        assert len(b.deliveries) == 4  # mu_r + mu_t + L
    share = Counter()
    for b in sched.blocks:
        for j in b.active_rxs:
            share[j] += 1
    for j in p.receivers:
        assert Fraction(share[j], sched.h_blocks) == Fraction(4, 5)
    uni = split_library(p)
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_caseII_zero_l_active_subsets():
    # L=0: active sets are all K_R subsets of size mu_r + 1; each receiver
    # active in K_R - 1 of them
    p = SystemParams(k_t=3, k_r=3, n_files=3, f_packets=1, mu_t=1, mu_r=1)
    sched = make_schedule(p, worst_case_demand(p), l_size=0)
    actives = {b.active_rxs for b in sched.blocks}
    assert len(actives) == math.comb(3, 2)
    for j in p.receivers:
        assert sum(1 for a in actives if j in a) == 2
    uni = split_library(p)
    assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


def test_l_size_past_full_activity_gives_full_activity():
    # the example's full-activity budget is L = K_R - mu_r - mu_t = 2; a
    # larger budget has nothing left to rotate over
    sched = make_schedule(EX, worst_case_demand(EX), l_size=5)
    assert sched == make_schedule(EX, worst_case_demand(EX), l_size=2)
    assert sched.regime == "T1-I" and sched.l_size == 2
    assert all(b.active_rxs == (1, 2, 3, 4) for b in sched.blocks)


NO_ZF_ROOM = SystemParams(k_t=4, k_r=3, n_files=3, f_packets=1, mu_t=2, mu_r=2)
FEW_TX = SystemParams(k_t=2, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1)
# class 3 repeats class 1, so (1, 4) and (2, 3) are never covered
BROKEN_DESIGN = SubsetPartitionSystem(m=2, mu_t=2, classes=(((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 2), (3, 4))))


@pytest.mark.parametrize(
    "params, l_size, system, message",
    [
        (T2, 0, find_subset_partition(3, 2), "design is for"),
        (T2, 0, None, "needs a transmitter design"),
        (EX, 0, find_subset_partition(2, 2), "needs mu_t >= 2"),
        (T2, 0, BROKEN_DESIGN, "invalid subset-partition system"),
        (NO_ZF_ROOM, 0, enumerate_ordered_partitions(2, 2), "exceeds k_r"),
        (FEW_TX, 2, None, "3 disjoint serving groups needed"),
    ],
    ids=["design-shape", "no-design", "design-for-mu_t-1", "invalid-design", "mu-sum", "few-slots"],
)
def test_make_schedule_preconditions(params, l_size, system, message):
    with pytest.raises(SchedulingError, match=message):
        make_schedule(params, worst_case_demand(params), l_size, system)


def test_repeated_demands_are_distinct_deliveries():
    p = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1)
    uni = split_library(p)
    for d in ((5, 5, 7, 7), (1, 1, 1, 1)):
        sched = make_schedule(p, DemandVector(d=d), p.k_r - p.mu_r - 1)
        assert verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok


@pytest.mark.parametrize(
    "demand",
    [(1, 2, 3), (0, 1, 2, 3), (1, 2, 3, 13), (1, 2, 3, 4, 5)],
    ids=["too-few-receivers", "file-0", "file-past-n", "too-many-receivers"],
)
def test_malformed_demand_refused(demand):
    """The demand names one file in 1..N for each receiver: 4 receivers and
    N = 12 files here."""
    message = rf"^the demand {re.escape(str(demand))} must name one file in 1\.\.12 for each of the 4 receivers$"
    with pytest.raises(SchedulingError, match=message):
        make_schedule(EX, DemandVector(d=demand), 2)


def test_keyword_built_demand_past_the_receivers_refused_by_the_demanded_set():
    """A schedule built by keyword (here through ``replace``) skips
    make_schedule's demand check; the demanded set still refuses a receiver
    the network does not have."""
    schedule = make_schedule(EX, worst_case_demand(EX), 2)
    wide = replace(schedule, demand=DemandVector(d=(1, 2, 3, 4, 5)))
    with pytest.raises(SchedulingError, match=r"^the demand names 5 receivers but the network has 4$"):
        demanded_for_schedule(split_library(EX), wide)


def test_design_of_an_unknown_regime_and_mode_pair_refused():
    schedule = replace(make_schedule(EX, worst_case_demand(EX), 2), regime="T2-IB")
    with pytest.raises(SchedulingError, match=r"^no design has regime 'T2-IB' in 'subset' mode$"):
        schedule.design


def test_serving_groups_cache_their_subfiles():
    # every delivery's serving group is exactly the set of transmitters
    # caching the subfile, in both transmitter-index modes
    cases = []
    sched1 = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    cases.append((split_library(EX), sched1))
    system = find_subset_partition(2, 2)
    sched2 = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, system)
    cases.append((split_library(T2), sched2))
    osys = enumerate_ordered_partitions(2, 2)
    sched3 = make_schedule(T2, worst_case_demand(T2), T2.k_r - T2.mu_r - T2.mu_t, osys)
    cases.append((split_library(T2, mode="ordered"), sched3))
    for uni, sched in cases:
        for b in sched.blocks:
            for d in b.deliveries:
                assert tuple(sorted(d.serving_txs)) == tuple(
                    sorted(uni.tx_members(d.subfile))
                )


def test_exhaustive_cover_theorem1_desk_scale():
    for k_t in range(1, 7):
        for k_r in range(2, 7):
            for mu_r in range(1, k_r):
                if k_r - mu_r > k_t:  # needs L+1 <= K_T serving slots
                    continue
                p = SystemParams(k_t=k_t, k_r=k_r, n_files=k_r, f_packets=1, mu_t=1, mu_r=mu_r)
                uni = split_library(p)
                sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)
                report = verify_schedule_partition(sched, demanded_for_schedule(uni, sched))
                assert report.ok, (k_t, k_r, mu_r, report.summary())


def test_exhaustive_cover_theorem2_desk_scale():
    for mu_t in (2, 3):
        for m in (1, 2, 3):
            k_t = m * mu_t
            if k_t > 6:
                continue
            for k_r in range(2, 7):
                for mu_r in range(1, k_r):
                    l_size = k_r - mu_r - mu_t
                    if l_size < 0 or l_size > m - 1:
                        continue
                    p = SystemParams(k_t=k_t, k_r=k_r, n_files=k_r, f_packets=1, mu_t=mu_t, mu_r=mu_r)
                    system = find_subset_partition(m, mu_t)
                    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, system)
                    uni = split_library(p)
                    ok = verify_schedule_partition(sched, demanded_for_schedule(uni, sched)).ok
                    assert ok, (mu_t, m, k_r, mu_r)
                    osys = enumerate_ordered_partitions(m, mu_t)
                    osched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, osys)
                    ouni = split_library(p, mode="ordered")
                    ok = verify_schedule_partition(osched, demanded_for_schedule(ouni, osched)).ok
                    assert ok, ("ordered", mu_t, m, k_r, mu_r)


@pytest.mark.parametrize("l_size", [True, 1.5, 2.0, "1", None], ids=repr)
def test_l_size_of_non_integers_refused(l_size):
    """A bool would build a schedule whose ``l_size`` is ``True``, and a
    float, string or None would fail inside the build: each is refused
    naming the argument."""
    with pytest.raises(ParameterError, match=rf"^l_size must be an integer, got {re.escape(repr(l_size))}$"):
        make_schedule(EX, worst_case_demand(EX), l_size)


def test_negative_l_size_refused_as_a_parameter_error():
    """A negative ``l_size`` is a bad parameter, as a negative seed or budget is."""
    with pytest.raises(ParameterError, match="l_size must be nonnegative"):
        make_schedule(EX, worst_case_demand(EX), -1)


def test_numpy_l_size_builds_the_schedule_of_its_int():
    schedule = make_schedule(EX, worst_case_demand(EX), np.int64(1))
    assert type(schedule.l_size) is int and schedule.regime == "T1-II"
    assert schedule == make_schedule(EX, worst_case_demand(EX), 1)


@pytest.mark.parametrize("files", [(True, 2, 3, 4), (1, 2, 3.0, 4), ("1", 2, 3, 4)], ids=["bool", "float", "str"])
def test_demand_of_non_integers_refused(files):
    with pytest.raises(ParameterError, match=r"^demand must be an integer, got "):
        DemandVector(files)


@pytest.mark.parametrize("files", [tuple(np.arange(1, 5)), [1, 2, 3, 4]], ids=["numpy-ints", "list"])
def test_demand_is_kept_as_a_tuple_of_python_ints(files):
    """Any integers in any sequence make the demand, and the schedule, of
    the tuple of Python ints: hashable, and JSON-serializable as it."""
    demand = DemandVector(files)
    assert type(demand.d) is tuple and all(type(f) is int for f in demand.d)
    schedule, plain = make_schedule(EX, demand, 2), make_schedule(EX, DemandVector((1, 2, 3, 4)), 2)
    assert schedule == plain and hash(schedule) == hash(plain)
    assert json.dumps(schedule_to_jsonable(schedule)) == json.dumps(schedule_to_jsonable(plain))
