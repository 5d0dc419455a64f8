"""Null-link derivation and surface coefficient solves."""

import dataclasses

import numpy as np
import pytest

from irs_cache_dof.channel import (
    ChannelRealization,
    SingularChannelError,
    equivalent_channel,
    sample_block_channels,
    zero_irs,
)
from irs_cache_dof.combinatorics import find_subset_partition
from irs_cache_dof.irs import required_nulls, solve_irs
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import split_library
from irs_cache_dof.scheduler import make_schedule, worst_case_demand

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def residuals(irs, ch, links):
    """Largest surviving equivalent-channel magnitude over the 1-based
    links: the oracle of the residual ``solve_irs`` reports."""
    if not links:
        return 0.0
    h_eq = equivalent_channel(ch, irs)
    return max(abs(h_eq[j - 1, i - 1]) for i, j in links)


def test_required_nulls_theorem1_count():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    for plan in sched.blocks:
        nulls = required_nulls(plan)
        assert len(nulls) == 6  # L + L*L with L = 2
        # no pair involves an inactive transmitter
        serving = {t for d in plan.deliveries for t in d.serving_txs}
        assert all(i in serving for i, _ in nulls)


def test_required_nulls_theorem2_count():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, find_subset_partition(2, 2))
    for plan in sched.blocks:
        assert len(required_nulls(plan)) == 2 * 1 * 2  # mu_t * L * (L+1), L = 1


def test_required_nulls_empty_when_all_receivers_covered():
    p = SystemParams(k_t=4, k_r=2, n_files=2, f_packets=1, mu_t=1, mu_r=1)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)
    assert all(len(required_nulls(b)) == 0 for b in sched.blocks)


def test_solve_square_system_is_exact():
    ch = sample_block_channels(EX, block=1, seed=5)
    links = [(1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 3)]
    cfg, info = solve_irs(ch, frozenset(links))
    assert info.status == "exact"
    assert info.n_links == 6
    h_eq = equivalent_channel(ch, cfg)
    assert max(abs(h_eq[j - 1, i - 1]) for i, j in links) < 1e-9 * ch.scale
    assert residuals(cfg, ch, frozenset(links)) < 1e-9 * ch.scale


def test_empty_null_set_gives_zero_coefficients():
    ch = sample_block_channels(EX, block=2, seed=5)
    cfg, info = solve_irs(ch, frozenset())
    assert info.status == "exact"
    assert np.all(cfg.q == 0)


def test_overdetermined_system_reports_infeasible():
    # Q+1 constraints on Q elements: generic complex least squares leaves
    # a nonzero residual
    ch = sample_block_channels(EX, block=3, seed=5)
    links = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3)]
    cfg, info = solve_irs(ch, frozenset(links))
    assert info.status == "infeasible"
    assert info.residual > 1e-6
    assert residuals(cfg, ch, frozenset(links)) == pytest.approx(info.residual, rel=1e-6)


def test_underdetermined_system_solves_min_norm():
    ch = sample_block_channels(EX, block=4, seed=5)
    links = [(1, 2), (3, 1)]
    cfg, info = solve_irs(ch, frozenset(links))
    assert info.status == "exact"
    assert residuals(cfg, ch, frozenset(links)) < 1e-10 * ch.scale


def test_coefficient_matrix_is_product_of_legs():
    # hand-built 1-element, 1-link system: q = -direct / (tx_leg * rx_leg)
    direct = np.array([[2.0 + 1.0j]])
    tx_leg = np.array([[0.5 - 0.5j]])
    rx_leg = np.array([[1.0 + 2.0j]])
    ch = ChannelRealization(
        direct=direct, tx_to_irs=tx_leg, irs_to_rx=rx_leg, block_index=1, seed=0
    )
    cfg, info = solve_irs(ch, frozenset([(1, 1)]))
    assert info.status == "exact"
    expected = -direct[0, 0] / (tx_leg[0, 0] * rx_leg[0, 0])
    assert cfg.q[0] == pytest.approx(expected)


def test_monotone_feasibility_on_subsets():
    ch = sample_block_channels(EX, block=6, seed=9)
    links = [(1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 3)]
    cfg, info = solve_irs(ch, frozenset(links))
    assert info.status == "exact"
    for drop in range(len(links)):
        subset = links[:drop] + links[drop + 1 :]
        cfg2, info2 = solve_irs(ch, frozenset(subset))
        assert info2.status == "exact"
        assert residuals(cfg2, ch, frozenset(subset)) < 1e-9 * ch.scale


def test_zero_coefficients_leave_direct_magnitudes():
    ch = sample_block_channels(EX, block=7, seed=9)
    links = [(1, 2), (2, 3)]
    r = residuals(zero_irs(6), ch, frozenset(links))
    assert r == max(abs(ch.direct[j - 1, i - 1]) for i, j in links)


def test_residual_grows_linearly_with_perturbation():
    ch = sample_block_channels(EX, block=8, seed=9)
    links = [(1, 3), (1, 4), (2, 1), (2, 4), (3, 1), (3, 3)]
    cfg, _ = solve_irs(ch, frozenset(links))
    rows = np.array([ch.tx_to_irs[:, i - 1] * ch.irs_to_rx[j - 1, :] for i, j in links])
    direction = np.ones(6, dtype=complex) / np.linalg.norm(np.ones(6))
    for eps in (1e-3, 1e-4):
        from irs_cache_dof.channel import IrsConfig

        perturbed = IrsConfig(q=cfg.q + eps * direction)
        r = residuals(perturbed, ch, frozenset(links))
        expected = eps * np.abs(rows @ direction).max()
        assert r == pytest.approx(expected, rel=1e-6)


def test_exactness_over_many_random_blocks():
    # square systems stay exact and non-null links keep their gains
    p = SystemParams(k_t=3, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1, q_elements=6)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)
    plan = sched.blocks[0]
    nulls = required_nulls(plan)
    survivors = [
        (i, j)
        for i in p.transmitters
        for j in p.receivers
        if (i, j) not in nulls
    ]
    for seed in range(1000):
        ch = sample_block_channels(p, block=1, seed=seed)
        cfg, info = solve_irs(ch, nulls)
        assert info.status == "exact"
        h_eq = equivalent_channel(ch, cfg)
        assert residuals(cfg, ch, nulls) < 1e-8 * ch.scale
        assert all(abs(h_eq[j - 1, i - 1]) > 1e-3 for i, j in survivors)


def test_solved_surface_realizes_target_topology():
    # end to end: the binary indicator of the equivalent channel equals the
    # block's intended topology matrix
    from irs_cache_dof.channel import network_indicator

    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    for plan in sched.blocks[:3]:
        ch = sample_block_channels(EX, plan.block_index, seed=21)
        nulls = required_nulls(plan)
        cfg, _ = solve_irs(ch, nulls)
        nm = network_indicator(equivalent_channel(ch, cfg), tol=1e-6 * ch.scale)
        for i in EX.transmitters:
            for j in EX.receivers:
                expected = 0 if (i, j) in nulls else 1
                assert nm[i - 1, j - 1] == expected, (i, j)


def test_singular_surface_solve_names_seed_and_block():
    # a transmitter whose surface leg is zero cannot have its links cut
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    plan = sched.blocks[4]
    nulls = required_nulls(plan)
    ch = sample_block_channels(EX, plan.block_index, seed=13)
    dead = ch.tx_to_irs.copy()
    dead[:, min(i for i, _ in nulls) - 1] = 0.0
    with pytest.raises(SingularChannelError, match=rf"^seed 13, block {plan.block_index}: .*; the episode aborts$"):
        solve_irs(dataclasses.replace(ch, tx_to_irs=dead), nulls)
