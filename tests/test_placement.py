"""Subfile universe, cache placement, refinement, and budget identities."""

import math
from fractions import Fraction

import pytest
from reference_cover import demanded_subfiles, refine_subfiles
from test_schedule_tables import GRID, GRID_IDS, _system
from traced_memory import traced

from irs_cache_dof.combinatorics import enumerate_ordered_partitions, enumerate_subsets
from irs_cache_dof.params import ParameterError, SystemParams
from irs_cache_dof.placement import (
    SubfileId,
    place_caches,
    split_library,
    verify_cache_budgets,
)
from irs_cache_dof.scheduler import demanded_for_schedule, make_schedule, worst_case_demand

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def test_split_example_network_twelve_subfiles_per_file():
    uni = split_library(EX)
    assert len(uni.subfiles) // EX.n_files == 12
    assert len(uni.subfiles) == 12 * 12
    assert uni.packets_per_subfile == 1


def test_split_full_cooperation_single_tx_subset():
    p = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=8, mu_t=3, mu_r=2)
    uni = split_library(p)
    assert len(uni.subfiles) // p.n_files == math.comb(4, 2)  # C(3,3) = 1 transmitter index
    assert all(s.tx_index == (1, 2, 3) for s in uni.subfiles)


def test_split_ordered_mode_counts():
    p = SystemParams(k_t=4, k_r=3, n_files=3, f_packets=1, mu_t=2, mu_r=1)
    uni = split_library(p, mode="ordered")
    assert len(uni.subfiles) // p.n_files == 6 * 3  # 4!/(2!)^2 arrangements x C(3,1)
    assert uni.ordered_system is not None


def test_split_refuses_an_unknown_mode_and_a_huge_ordered_table_at_split_time():
    with pytest.raises(ValueError, match=r"^unknown split mode 'bogus'$"):
        split_library(EX, mode="bogus")
    guard = r"^ground set of 12 elements exceeds the enumeration guard \(10\); the full ordered-partition table would be huge$"
    with pytest.raises(ValueError, match=guard):
        split_library(SystemParams(k_t=12, k_r=12, n_files=12, f_packets=1, mu_t=2, mu_r=1), mode="ordered")


def _listed(params, mode):
    """Every subfile, file by file, then transmitter index by index (subsets
    or arrangement numbers), then receiver set by receiver set."""
    if mode == "subset":
        tx_indices = enumerate_subsets(params.k_t, params.mu_t)
    else:
        tx_indices = range(1, enumerate_ordered_partitions(params.m_groups, params.mu_t).count + 1)
    rx_sets = enumerate_subsets(params.k_r, params.mu_r)
    return tuple(SubfileId(k, t, r) for k in range(1, params.n_files + 1) for t in tx_indices for r in rx_sets)


@pytest.mark.parametrize("design, params, l_size, regime", GRID, ids=GRID_IDS)
def test_subfiles_are_listed_only_when_read(monkeypatch, design, params, l_size, regime):
    """Splitting the library and keying the schedule's demanded set make no
    subfile; the first read of ``subfiles`` lists them all in order, and
    the second returns the same tuple."""
    schedule = make_schedule(params, worst_case_demand(params), l_size, _system(design, params))
    made, init = [], SubfileId.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubfileId, "__init__", counted)
    universe = split_library(params, mode=schedule.tx_mode)
    demanded_for_schedule(universe, schedule)
    assert not made
    subfiles = universe.subfiles
    assert len(made) == len(subfiles) and universe.subfiles is subfiles
    monkeypatch.undo()
    assert subfiles == _listed(params, schedule.tx_mode)
    pps = universe.packets_per_subfile
    assert type(pps) is Fraction and pps == Fraction(params.f_packets, len(subfiles) // params.n_files)


def test_placement_budgets_of_example_network():
    uni = split_library(EX)
    assignment = place_caches(uni)
    # 48 subfiles = 4F packets per transmitter, 36 = 3F per receiver
    assert all(len(c) == 48 for c in assignment.tx_caches)
    assert all(len(c) == 36 for c in assignment.rx_caches)
    assert EX.m_t_files == 4 and EX.m_r_files == 3
    report = verify_cache_budgets(assignment, EX)
    assert report.ok


def test_receiver_cache_respects_membership_rule():
    uni = split_library(EX)
    assignment = place_caches(uni)
    for j, cache in enumerate(assignment.rx_caches, start=1):
        assert all(j in s.rx_set for s in cache)
    for i, cache in enumerate(assignment.tx_caches, start=1):
        assert all(i in s.tx_index for s in cache)


def test_mu_r_zero_is_rejected():
    with pytest.raises(ParameterError):
        SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=0)


def test_budget_identity_with_binomials():
    # per-transmitter packet count equals M_T*F via the binomial identity
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=36, mu_t=2, mu_r=2)
    uni = split_library(p)
    assignment = place_caches(uni)
    per_tx = 4 * math.comb(3, 1) * math.comb(4, 2)
    assert all(len(c) == per_tx for c in assignment.tx_caches)
    assert per_tx * uni.packets_per_subfile == p.m_t_files * p.f_packets == 72
    assert verify_cache_budgets(assignment, p).ok


def test_budgets_hold_as_exact_rationals_when_f_not_divisible():
    p = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=7, mu_t=1, mu_r=2)
    uni = split_library(p)
    assert uni.packets_per_subfile == Fraction(7, 3 * 6)
    report = verify_cache_budgets(place_caches(uni), p)
    assert report.ok


def test_budgets_hold_in_ordered_mode():
    # each transmitter caches the arrangements leading with its group:
    # count per transmitter = N * (arrangements / M) * C(K_R, mu_r)
    p = SystemParams(k_t=6, k_r=4, n_files=4, f_packets=5, mu_t=3, mu_r=2)
    uni = split_library(p, mode="ordered")
    assignment = place_caches(uni)
    arrangements = uni.ordered_system.count
    per_tx = p.n_files * (arrangements // p.m_groups) * math.comb(p.k_r, p.mu_r)
    assert all(len(c) == per_tx for c in assignment.tx_caches)
    assert verify_cache_budgets(assignment, p).ok


def test_uncovered_subfile_detected():
    uni = split_library(EX)
    assignment = place_caches(uni)
    victim = uni.subfiles[0]
    stripped = assignment.__class__(
        universe=uni,
        tx_caches=tuple(frozenset(c - {victim}) for c in assignment.tx_caches),
        rx_caches=assignment.rx_caches,
    )
    report = verify_cache_budgets(stripped, EX)
    assert not report.ok
    assert not report.coverage_ok
    assert any("uncovered" in m for m in report.messages)


def test_subfile_count_identity_per_file():
    for p in (EX, SystemParams(k_t=4, k_r=5, n_files=5, f_packets=10, mu_t=2, mu_r=2)):
        uni = split_library(p)
        assert len(uni.subfiles) // p.n_files * uni.packets_per_subfile == p.f_packets


def test_per_transmitter_subfile_count_identity():
    p = SystemParams(k_t=5, k_r=4, n_files=8, f_packets=3, mu_t=1, mu_r=2)
    uni = split_library(p)
    assignment = place_caches(uni)
    expected = p.n_files * math.comb(p.k_t - 1, p.mu_t - 1) * math.comb(p.k_r, p.mu_r)
    assert all(len(c) == expected for c in assignment.tx_caches)


def test_refine_is_identity_for_single_tx_groups():
    uni = split_library(EX)
    demanded = demanded_subfiles(uni, worst_case_demand(EX))
    refined, factor = refine_subfiles(sorted(demanded), EX, t_split=True, l_size=0)
    assert factor == 1  # C(k_r - mu_r - 1, 0) with mu_t = 1
    assert frozenset(refined) == demanded


def test_refine_zf_split_factor():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1)
    uni = split_library(p)
    demanded = demanded_subfiles(uni, worst_case_demand(p))
    refined, factor = refine_subfiles(sorted(demanded), p, t_split=True)
    assert factor == math.comb(4 - 1 - 1, 1) == 2
    assert len(refined) == len(demanded) * 2
    # each part keeps the receiver-disjointness invariant
    for sub, rx in refined:
        assert rx not in sub.rx_set and rx not in sub.zf_set


def test_refine_surface_split_factor():
    p = SystemParams(k_t=4, k_r=6, n_files=6, f_packets=1, mu_t=2, mu_r=1)
    uni = split_library(p)
    demanded = demanded_subfiles(uni, worst_case_demand(p))
    refined, factor = refine_subfiles(sorted(demanded), p, t_split=True, l_size=1)
    assert factor == math.comb(4, 1) * math.comb(3, 1) == 12
    assert len(refined) == len(demanded) * 12


def test_refine_conserves_packet_mass():
    p = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=30, mu_t=2, mu_r=1)
    uni = split_library(p)
    demanded = sorted(demanded_subfiles(uni, worst_case_demand(p)))
    refined, factor = refine_subfiles(demanded, p, t_split=True, l_size=1)
    mass_per_part = uni.packets_per_subfile / factor
    assert len(refined) * mass_per_part == len(demanded) * uni.packets_per_subfile


def test_refine_precondition():
    p = SystemParams(k_t=4, k_r=3, n_files=3, f_packets=1, mu_t=4, mu_r=1)
    uni = split_library(p)
    demanded = sorted(demanded_subfiles(uni, worst_case_demand(p)))
    with pytest.raises(ValueError):
        refine_subfiles(demanded, p, t_split=True, l_size=0)


def test_subfile_id_rejects_overlapping_groups():
    with pytest.raises(ValueError):
        SubfileId(file=1, tx_index=(1,), rx_set=(2, 3), zf_set=(3,))


def test_subfile_id_groups_may_repeat_inside_but_not_across():
    # every triple of groups of up to two receivers from {1, 2, 3}, repeats
    # included, against the per-group set test
    from itertools import product

    groups = [()] + [(a,) for a in (1, 2, 3)] + list(product((1, 2, 3), repeat=2))
    for rx, zf, irs in product(groups, repeat=3):
        sets = (set(rx), set(zf), set(irs))
        disjoint = len(sets[0] | sets[1] | sets[2]) == sum(len(g) for g in sets)
        if disjoint:
            SubfileId(file=1, tx_index=(1,), rx_set=rx, zf_set=zf, irs_set=irs)
        else:
            with pytest.raises(ValueError):
                SubfileId(file=1, tx_index=(1,), rx_set=rx, zf_set=zf, irs_set=irs)


def test_random_parameter_budgets_hold():
    # model-constraint-respecting random tuples, exact budget identities
    import random

    rng = random.Random(20240811)
    checked = 0
    while checked < 50:
        k_t = rng.randint(1, 6)
        k_r = rng.randint(2, 6)
        mu_t = rng.choice([m for m in range(1, k_t + 1) if m == 1 or k_t % m == 0])
        mu_r = rng.randint(1, k_r - 1)
        n = rng.randint(k_r, 12)
        f = rng.randint(1, 24)
        p = SystemParams(k_t=k_t, k_r=k_r, n_files=n, f_packets=f, mu_t=mu_t, mu_r=mu_r)
        report = verify_cache_budgets(place_caches(split_library(p)), p)
        assert report.ok, (p, report.messages)
        checked += 1


def test_placement_holds_little_more_than_the_caches_it_returns():
    """The 8x8 partition universe of the benchmark's plan pass (mu_t = 2,
    mu_r = 3: 12,544 subfiles) is placed at a peak of at most 1.5 times the
    caches it returns: each node's subfiles are listed, then frozen once.
    Frozen copies of sets peaked at 1.7 times."""
    p = SystemParams(k_t=8, k_r=8, n_files=8, f_packets=1, mu_t=2, mu_r=3)
    uni = split_library(p)
    assert len(uni.subfiles) == 12_544
    assignment, kept, peak = traced(lambda: place_caches(uni))
    assert verify_cache_budgets(assignment, p).ok
    assert peak <= 1.5 * kept, peak / kept
