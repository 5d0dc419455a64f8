"""Beamformer solves: binary selection, the joint lead-group system and
the single-subfile systems of idle groups, through the one-block entry
point."""

import numpy as np
import pytest

from irs_cache_dof.channel import SingularChannelError
from irs_cache_dof.combinatorics import enumerate_ordered_partitions, find_subset_partition
from irs_cache_dof.params import SystemParams
from irs_cache_dof.scheduler import make_schedule, worst_case_demand
from irs_cache_dof.zf import beamformers_for_block, joint_zf_layout

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)
T2 = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
T2_II = SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=2, mu_r=1, q_elements=4)


def _random_h(k_r, k_t, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))


def _blocks(params, system, l_size=1):
    return make_schedule(params, worst_case_demand(params), l_size, system).blocks


def _gain(h, beams, rx, dl):
    """Aggregate gain of delivery ``dl`` at receiver ``rx``."""
    return sum(h[rx - 1, tx - 1] * beams.weight(dl.subfile, tx) for tx in dl.serving_txs)


def _assert_gains_and_nulls(plan, h, beams, tol=1e-9):
    """Every delivery reaches its receiver with unit gain. A lead-group
    delivery vanishes at the lead and at every zero-forcing target whose
    cache misses it; an idle group's delivery vanishes at every
    zero-forcing target. Returns how many nulls were checked."""
    lead = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
    nulls = 0
    for k, dl in enumerate(plan.deliveries):
        assert abs(_gain(h, beams, dl.intended_rx, dl) - 1.0) < tol
        deaf = plan.zf_rxs if k >= lead else (plan.lead_rx, *plan.zf_rxs)
        for rx in deaf:
            if rx != dl.intended_rx and rx not in dl.subfile.rx_set:
                assert abs(_gain(h, beams, rx, dl)) < tol, (plan.block_index, k, rx)
                nulls += 1
    return nulls


def test_binary_selection_on_worked_example_block():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    beams = beamformers_for_block(sched.blocks[0], _random_h(4, 3, 0), EX.mu_t)
    assert beams.weights.size == 4
    assert all(v == 1.0 for v in beams.weights.ravel())
    # the lead transmitter carries a linear combination of two subfiles
    per_tx = {}
    for d in beams.deliveries:
        for tx in d.serving_txs:
            per_tx.setdefault(tx, []).append(d.subfile)
    assert sorted(len(v) for v in per_tx.values()) == [1, 1, 2]


def test_binary_selection_rejects_grouped_serving():
    plan = _blocks(T2, find_subset_partition(2, 2))[0]
    with pytest.raises(ValueError):
        beamformers_for_block(plan, _random_h(4, 4, 0), 1)


def test_single_subfile_substitution_residuals():
    # each idle group reaches its own receiver and nulls the zero-forcing target
    for n, plan in enumerate(_blocks(T2_II, enumerate_ordered_partitions(2, 2))[:10]):
        h = _random_h(5, 4, n)
        beams = beamformers_for_block(plan, h, T2_II.mu_t)
        (idle,), (target,) = plan.idle_rxs, plan.zf_rxs
        dl = plan.deliveries[-1]
        assert dl.intended_rx == idle
        assert abs(_gain(h, beams, idle, dl) - 1.0) < 1e-10
        assert abs(_gain(h, beams, target, dl)) < 1e-10


def test_single_subfile_singular_when_rows_collide():
    # the idle receiver hears exactly what its zero-forcing target hears, so
    # its group cannot reach one and null the other; the lead group's joint
    # system never reads the idle receiver's row and stays solvable
    plan = _blocks(T2_II, enumerate_ordered_partitions(2, 2))[0]
    (idle,), (target,) = plan.idle_rxs, plan.zf_rxs
    h = _random_h(5, 4, 3)
    h[idle - 1] = h[target - 1]
    message = rf"^block {plan.block_index}: idle-group zero-forcing system is singular; the episode aborts$"
    with pytest.raises(SingularChannelError, match=message):
        beamformers_for_block(plan, h, T2_II.mu_t)


def test_joint_solve_mu2_mur1_residuals():
    for n, plan in enumerate(_blocks(T2, find_subset_partition(2, 2))):
        h = _random_h(4, 4, n)
        beams = beamformers_for_block(plan, h, T2.mu_t)
        assert beams.weights[:3].size == 6  # mu_t * (mu_r + mu_t) unknowns
        assert _assert_gains_and_nulls(plan, h, beams) > 0


def test_joint_solve_gain_vector_is_all_ones():
    params = SystemParams(k_t=6, k_r=5, n_files=5, f_packets=1, mu_t=3, mu_r=1)
    for n, plan in enumerate(_blocks(params, enumerate_ordered_partitions(2, 3))[:10]):
        h = _random_h(5, 6, n)
        beams = beamformers_for_block(plan, h, params.mu_t)
        gains = [_gain(h, beams, dl.intended_rx, dl) for dl in plan.deliveries]
        assert np.allclose(gains, 1.0, atol=1e-10)


def test_system_sizes_match_group_dimensions():
    for mu_t, mu_r in ((2, 1), (2, 2), (3, 1), (3, 2)):
        k_r = mu_t + mu_r + 1
        params = SystemParams(k_t=2 * mu_t, k_r=k_r, n_files=k_r, f_packets=1, mu_t=mu_t, mu_r=mu_r)
        plan = _blocks(params, enumerate_ordered_partitions(2, mu_t))[0]
        beams = beamformers_for_block(plan, _random_h(k_r, 2 * mu_t, k_r), mu_t)
        assert beams.weights.shape == (k_r, mu_t)
        assert joint_zf_layout(mu_t + mu_r, mu_t).dim == mu_t * (mu_t + mu_r)


def test_solvability_rate_over_random_channels():
    plan = _blocks(T2, find_subset_partition(2, 2))[0]
    failures = 0
    for seed in range(1000):
        try:
            beamformers_for_block(plan, _random_h(4, 4, seed), T2.mu_t)
        except SingularChannelError:
            failures += 1
    assert failures == 0


def test_column_scaling_leaves_gains_and_nulls_invariant():
    plan = _blocks(T2, find_subset_partition(2, 2))[0]
    h = _random_h(4, 4, 11)
    scaled = h.copy()
    scaled[:, plan.deliveries[0].serving_txs[0] - 1] *= 5.0 - 2.0j
    for channel in (h, scaled):
        beams = beamformers_for_block(plan, channel, T2.mu_t)
        assert _assert_gains_and_nulls(plan, channel, beams) > 0


def test_block_level_dispatch():
    plan = _blocks(T2, find_subset_partition(2, 2))[0]
    h = _random_h(4, 4, 12)
    beams = beamformers_for_block(plan, h, T2.mu_t)
    # every delivery has coefficients on its serving group only
    assert beams.deliveries == plan.deliveries
    assert beams.weights.shape == (len(plan.deliveries), T2.mu_t)
    for d in plan.deliveries:
        for tx in d.serving_txs:
            assert beams.weight(d.subfile, tx) != 0
    for d in plan.deliveries:
        for tx in T2.transmitters:
            if tx not in d.serving_txs:
                assert beams.weight(d.subfile, tx) == 0


def test_singular_zero_forcing_names_block():
    plan = _blocks(T2, find_subset_partition(2, 2))[1]
    message = rf"^block {plan.block_index}: joint zero-forcing system is singular; the episode aborts$"
    with pytest.raises(SingularChannelError, match=message):
        beamformers_for_block(plan, np.zeros((4, 4), dtype=complex), T2.mu_t)
