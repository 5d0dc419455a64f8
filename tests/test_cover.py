"""The integer-key exact cover against the set-of-objects oracle in
``reference_cover.py``: the demanded set of both transmitter-index modes in
full and partial activity, and the report on schedules broken one delivery
or one block at a time."""

from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_cover import reference_demanded_for_schedule, reference_verify_schedule_partition
from traced_memory import traced

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, enumerate_subsets, find_subset_partition
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import SubfileId, split_library
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
    return split_library(params, mode=schedule.tx_mode), schedule


def _few(universe):
    """``universe`` cut to its first few files: the reference lists subfiles
    one by one and needs those of the demanded files only."""
    params = universe.params
    return split_library(replace(params, n_files=max(params.k_r, 8)), mode=universe.mode)


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
    return universe, schedule, reference_demanded_for_schedule(_few(universe), schedule)


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
    # a transmitter index of the other mode's type (a subset among numbers, or a
    # number among subsets), next to a pair moved to the same file: undemanded
    # pairs whose fields do not compare with each other
    tx = (1, 2) if not isinstance(blocks[0].deliveries[0].subfile.tx_index, tuple) else 1
    mixed = _with_delivery(schedule, 0, 0, tx_index=tx)
    yield "mixed tx index types", _with_delivery(mixed, 0, 1, file=blocks[0].deliveries[0].subfile.file)
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


#: the worked example: 3x4, N = 4, mu_t = mu_r = 1, Q = 6, L = 2 (Theorem 1, nine blocks)
WORKED = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1, q_elements=6)

#: other numeric types of an int's value: each is ``==`` to the int and hashes like it
EQUAL_TYPES = (float, Fraction, Decimal, complex, np.int64, np.float64)


@pytest.mark.parametrize("b", [0, 8], ids=["block-1", "block-9"])
@pytest.mark.parametrize("edit", ["file float", "file Fraction", "intended_rx float", "rx_set float"])
def test_equal_values_of_other_types_key_like_their_ints(b, edit):
    """A field equal to an index is that index wherever it first appears:
    the lead delivery of the first and of the last block, edited to an
    equal value of another type, still covers exactly."""
    schedule = make_schedule(WORKED, worst_case_demand(WORKED), 2)
    universe = split_library(WORKED)
    assert len(schedule.blocks) == 9
    dl = schedule.blocks[b].deliveries[0]
    sub = dl.subfile
    changes = {
        "file float": {"file": float(sub.file)},
        "file Fraction": {"file": Fraction(sub.file)},
        "intended_rx float": {"intended_rx": float(dl.intended_rx)},
        "rx_set float": {"rx_set": tuple(map(float, sub.rx_set))},
    }[edit]
    edited = _with_delivery(schedule, b, 0, **changes)
    demanded = demanded_for_schedule(universe, schedule)
    report = verify_schedule_partition(edited, demanded)
    assert report.ok
    assert report == reference_verify_schedule_partition(edited, reference_demanded_for_schedule(universe, schedule))
    assert (replace(sub, file=float(sub.file)), dl.intended_rx) in demanded
    assert (SubfileId(1.0, (1,), (2,)), 1) in demanded


def test_undemanded_and_duplicated_pairs_that_key_are_reported_decoded():
    """A delivery moved to file ``2.0`` (undemanded by its receiver) and
    one delivered twice with ``file`` a float: both key, so both come back
    decoded from their keys, with int fields, as missing pairs do."""
    schedule = make_schedule(WORKED, worst_case_demand(WORKED), 2)
    universe = split_library(WORKED)
    moved = schedule.blocks[0].deliveries[0]
    assert moved.intended_rx != 2
    edited = _with_delivery(schedule, 0, 0, file=2.0)
    twice = edited.blocks[4].deliveries[1]
    edited = _with_delivery(edited, 4, 1, file=float(twice.subfile.file))
    *blocks, last = edited.blocks
    last = replace(last, deliveries=(*last.deliveries, edited.blocks[4].deliveries[1]))
    edited = replace(edited, blocks=(*blocks, last))
    report = verify_schedule_partition(edited, demanded_for_schedule(universe, schedule))
    assert report == reference_verify_schedule_partition(edited, reference_demanded_for_schedule(universe, schedule))
    assert report.missing == ((moved.subfile, moved.intended_rx),)
    assert report.extra == ((replace(moved.subfile, file=2), moved.intended_rx),)
    assert report.duplicates == ((twice.subfile, twice.intended_rx),)
    for sub, rx in report.extra + report.duplicates:
        assert type(sub.file) is int and type(rx) is int
        assert all(type(value) is int for group in (sub.tx_index, sub.rx_set, sub.zf_set, sub.irs_set) for value in group)


@cache
def _cover_case(name):
    universe, schedule = NETWORKS[name]()
    return schedule, demanded_for_schedule(universe, schedule), reference_demanded_for_schedule(_few(universe), schedule)


def _set_delivery(blocks, b, d, dl):
    """Put ``dl`` at delivery ``d`` of block ``b`` in the list ``blocks``."""
    deliveries = blocks[b].deliveries
    blocks[b] = replace(blocks[b], deliveries=deliveries[:d] + (dl,) + deliveries[d + 1 :])


def _edited(draw, value, top, equal):
    """``value`` with one index in it (itself, or one element of a tuple)
    turned into an equal value of another numeric type (``equal``), or into
    0, ``top + 1`` or 1.5, which no index in ``1..top`` equals (an empty
    tuple gains one such element)."""
    if isinstance(value, tuple):
        if not value:
            return () if equal else (_edited(draw, 1, top, equal),)
        at = draw(st.integers(0, len(value) - 1))
        return value[:at] + (_edited(draw, value[at], top, equal),) + value[at + 1 :]
    if equal:
        return draw(st.sampled_from(EQUAL_TYPES))(value)
    return draw(st.sampled_from([0, top + 1, 1.5]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["T1-II", "T2-II-partition", "T2-II-ordered"]), st.data())
def test_one_random_edit_reports_like_the_reference_in_either_block_order(name, data):
    """One random edit to an exact schedule: a delivery dropped or
    duplicated, two intended receivers swapped, or one field set to an
    equal value of another numeric type or to an out-of-range one. The
    report is the oracle's, with the blocks in their order or reversed."""
    schedule, demanded, reference = _cover_case(name)
    p, draw = schedule.params, data.draw
    blocks = list(schedule.blocks)

    def pick():
        b = draw(st.integers(0, len(blocks) - 1))
        d = draw(st.integers(0, len(blocks[b].deliveries) - 1))
        return b, d, blocks[b].deliveries[d]

    b, d, dl = pick()
    edit = draw(st.sampled_from(["drop", "duplicate", "swap receivers", "equal value", "out of range"]))
    if edit == "drop":
        blocks[b] = replace(blocks[b], deliveries=blocks[b].deliveries[:d] + blocks[b].deliveries[d + 1 :])
    elif edit == "duplicate":
        c = draw(st.integers(0, len(blocks) - 1))
        blocks[c] = replace(blocks[c], deliveries=(*blocks[c].deliveries, dl))
    elif edit == "swap receivers":
        c, e, other = pick()
        _set_delivery(blocks, b, d, replace(dl, intended_rx=other.intended_rx))
        _set_delivery(blocks, c, e, replace(other, intended_rx=dl.intended_rx))
    else:
        field = draw(st.sampled_from(["file", "tx_index", "rx_set", "zf_set", "irs_set", "intended_rx"]))
        value = dl.intended_rx if field == "intended_rx" else getattr(dl.subfile, field)
        tx_top = p.k_t if isinstance(value, tuple) else demanded.codec.radices[1]
        value = _edited(draw, value, {"file": p.n_files, "tx_index": tx_top}.get(field, p.k_r), edit == "equal value")
        blocks = list(_with_delivery(schedule, b, d, **{field: value}).blocks)
    report = verify_schedule_partition(replace(schedule, blocks=tuple(blocks)), demanded)
    for order in (blocks, blocks[::-1]):
        edited = replace(schedule, blocks=tuple(order))
        assert verify_schedule_partition(edited, demanded) == report
        assert reference_verify_schedule_partition(edited, reference) == report


def test_exact_cover_holds_little_more_than_its_keys():
    """The 12x12 Theorem 1 schedule of the benchmark's plan pass (mu_r = 1,
    Q = 80, so L = 8: 7,128 blocks of 10 deliveries) covers exactly in at
    most 40 bytes per delivery: one int64 key per delivery, sorted in
    place, and a sorted copy of the demanded column. Lexsorting joined
    rows, as a failing cover still does, held 85."""
    params = SystemParams(k_t=12, k_r=12, n_files=12, f_packets=1, mu_t=1, mu_r=1, q_elements=80)
    schedule = make_schedule(params, worst_case_demand(params), 8)
    demanded = demanded_for_schedule(split_library(params), schedule)
    n_deliveries = sum(len(block.deliveries) for block in schedule.blocks)
    assert n_deliveries == len(demanded) == 71_280 and demanded.codec.width == 1
    report, _, peak = traced(lambda: verify_schedule_partition(schedule, demanded))
    assert report.ok
    assert peak <= 40 * n_deliveries, peak / n_deliveries
