"""The integer-key exact cover against the set-of-objects oracle in
``reference_cover.py``: the demanded set of both transmitter-index modes in
full and partial activity, and the report on schedules broken one delivery
or one block at a time."""

from dataclasses import replace

import pytest
from reference_cover import reference_demanded_for_schedule, reference_verify_schedule_partition

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, enumerate_subsets, find_subset_partition
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import split_library
from irs_cache_dof.scheduler import (
    DemandVector,
    SchedulingError,
    demanded_for_schedule,
    make_schedule,
    verify_schedule_partition,
    worst_case_demand,
)


#: a library this large gives the file digit a key word of its own
MANY_FILES = 2**62


def _network(k_t, k_r, mu_t, mu_r, l_size, system=None, demand=None, n_files=None):
    params = SystemParams(k_t=k_t, k_r=k_r, n_files=n_files or max(k_r, 8), f_packets=1, mu_t=mu_t, mu_r=mu_r)
    schedule = make_schedule(params, demand or worst_case_demand(params), l_size, system)
    # the reference needs the subfiles of the demanded files only: split the first few
    universe = split_library(replace(params, n_files=max(k_r, 8)), mode=schedule.tx_mode)
    return replace(universe, params=params), schedule


NETWORKS = {
    "T1-I": lambda: _network(3, 4, 1, 1, 2),
    "T1-II": lambda: _network(3, 4, 1, 1, 1),
    "T1-II-mu_r2": lambda: _network(4, 6, 1, 2, 1),
    "T1-I-repeated-demand": lambda: _network(3, 4, 1, 1, 2, demand=DemandVector((5, 5, 7, 7))),
    "T2-IA": lambda: _network(4, 4, 2, 1, 1, find_subset_partition(2, 2)),
    "T2-II-partition": lambda: _network(4, 5, 2, 1, 1, find_subset_partition(2, 2)),
    "T2-IB": lambda: _network(4, 4, 2, 1, 1, enumerate_ordered_partitions(2, 2)),
    "T2-II-ordered": lambda: _network(4, 5, 2, 1, 1, enumerate_ordered_partitions(2, 2)),
    "T2-II-mu_t3": lambda: _network(6, 7, 3, 1, 1, find_subset_partition(2, 3)),
    "T1-II-two-words": lambda: _network(3, 4, 1, 1, 1, n_files=MANY_FILES),
    "T2-II-ordered-two-words": lambda: _network(4, 5, 2, 1, 1, enumerate_ordered_partitions(2, 2), n_files=MANY_FILES),
}


@pytest.fixture(params=sorted(NETWORKS), scope="module")
def network(request):
    universe, schedule = NETWORKS[request.param]()
    return universe, schedule, reference_demanded_for_schedule(universe, schedule)


def test_demanded_keys_decode_to_the_reference_set(network):
    universe, schedule, reference = network
    demanded = demanded_for_schedule(universe, schedule)
    pairs = demanded.pairs()
    assert len(demanded) == len(pairs) == len(set(pairs)) == len(reference)
    assert frozenset(pairs) == reference
    assert all(pair in demanded for pair in list(reference)[:50])


def test_exact_schedule_reports_like_the_reference(network):
    universe, schedule, reference = network
    report = verify_schedule_partition(schedule, demanded_for_schedule(universe, schedule))
    assert report.ok
    assert report == reference_verify_schedule_partition(schedule, reference)


def _with_delivery(schedule, b, d, **changes):
    """``schedule`` with delivery ``d`` of block ``b`` changed: ``intended_rx``
    directly, every other keyword on its subfile."""
    block = schedule.blocks[b]
    dl = block.deliveries[d]
    rx = changes.pop("intended_rx", dl.intended_rx)
    dl = replace(dl, subfile=replace(dl.subfile, **changes), intended_rx=rx)
    block = replace(block, deliveries=block.deliveries[:d] + (dl,) + block.deliveries[d + 1 :])
    return replace(schedule, blocks=schedule.blocks[:b] + (block,) + schedule.blocks[b + 1 :])


def _other_subset(n, size, current, taken):
    """A ``size``-subset of ``1..n`` other than ``current`` and disjoint
    from ``taken``, or None."""
    return next((s for s in enumerate_subsets(n, size) if s != current and not set(s) & set(taken)), None)


def _mutations(universe, schedule):
    p = schedule.params
    blocks = schedule.blocks
    yield "drop first block", replace(schedule, blocks=blocks[1:])
    yield "drop last block", replace(schedule, blocks=blocks[:-1])
    yield "duplicate a block", replace(schedule, blocks=blocks + blocks[len(blocks) // 2 :][:1])
    b, d = len(blocks) // 3, len(blocks[0].deliveries) - 1
    dl = blocks[b].deliveries[d]
    sub = dl.subfile
    yield "file", _with_delivery(schedule, b, d, file=sub.file % p.n_files + 1)
    if isinstance(sub.tx_index, tuple):
        tx = _other_subset(p.k_t, p.mu_t, sub.tx_index, ())
    else:
        tx = sub.tx_index % universe.ordered_system.count + 1
    yield "tx index", _with_delivery(schedule, b, d, tx_index=tx)
    groups = {"rx_set": sub.rx_set, "zf_set": sub.zf_set, "irs_set": sub.irs_set}
    for name, current in groups.items():
        taken = [j for other, group in groups.items() if other != name for j in group]
        other = _other_subset(p.k_r, len(current), current, taken)
        if other is not None:
            yield name, _with_delivery(schedule, b, d, **{name: other})
        free = [j for j in p.receivers if j not in taken and j not in current]
        yield f"{name} one longer", _with_delivery(schedule, b, d, **{name: tuple(sorted((*current, free[0])))})
    yield "receiver", _with_delivery(schedule, b, d, intended_rx=dl.intended_rx % p.k_r + 1)
    yield "file past n_files", _with_delivery(schedule, b, d, file=p.n_files + 1)
    yield "receiver 0", _with_delivery(schedule, b, d, intended_rx=0)
    # the same out-of-range pair delivered twice is undemanded and duplicated
    twice = _with_delivery(schedule, b, d, file=p.n_files + 1)
    twice = replace(twice, blocks=twice.blocks + twice.blocks[b : b + 1])
    yield "unkeyed pair twice", twice
    yield "no blocks", replace(schedule, blocks=())


def test_mutated_schedules_report_like_the_reference(network):
    universe, schedule, reference = network
    demanded = demanded_for_schedule(universe, schedule)
    seen = []
    for name, mutant in _mutations(universe, schedule):
        report = verify_schedule_partition(mutant, demanded)
        want = reference_verify_schedule_partition(mutant, reference)
        assert not report.ok, name
        assert report == want, name
        assert report.summary() == want.summary(), name
        seen.append(name)
    assert {"file", "tx index", "receiver", "file past n_files", "receiver 0", "duplicate a block"} <= set(seen)


@pytest.mark.parametrize("name", ["T1-II-two-words", "T2-II-ordered-two-words"])
def test_two_word_networks_key_across_a_word_boundary(name):
    universe, schedule = NETWORKS[name]()
    demanded = demanded_for_schedule(universe, schedule)
    assert demanded.codec.width == 2 and {word for word, _ in demanded.codec.places} == {0, 1}
    assert (demanded.rows[:, 0] == [sub.file - 1 for sub, _ in demanded.pairs()]).all()


def test_mismatched_universe_is_an_error():
    params = SystemParams(k_t=6, k_r=6, n_files=6, f_packets=1, mu_t=2, mu_r=1)
    schedule = make_schedule(params, worst_case_demand(params), 2, enumerate_ordered_partitions(3, 2))
    with pytest.raises(SchedulingError, match="'subset' mode.*'ordered' mode"):
        demanded_for_schedule(split_library(params), schedule)
    other = replace(params, q_elements=12)
    with pytest.raises(SchedulingError, match="q_elements=12.*q_elements=0"):
        demanded_for_schedule(split_library(other, mode="ordered"), schedule)
