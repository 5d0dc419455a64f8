"""Beamformer solves: binary selection, single-subfile nulling, and the
joint per-block system."""

import numpy as np
import pytest

from irs_cache_dof.channel import SingularChannelError, sample_block_channels
from irs_cache_dof.combinatorics import find_subset_partition
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import make_schedule, worst_case_demand
from irs_cache_dof.zf import (
    beamformers_for_block,
    select_binary_beamformers,
    solve_joint_block_zf,
    solve_single_subfile_zf,
)

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def _random_h(k_r, k_t, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((k_r, k_t)) + 1j * rng.standard_normal((k_r, k_t))


def test_binary_selection_on_worked_example_block():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    beams = select_binary_beamformers(sched.blocks[0])
    assert beams.weights.size == 4
    assert all(v == 1.0 for v in beams.weights.ravel())
    # the lead transmitter carries a linear combination of two subfiles
    per_tx = {}
    for d in beams.deliveries:
        for tx in d.serving_txs:
            per_tx.setdefault(tx, []).append(d.subfile)
    assert sorted(len(v) for v in per_tx.values()) == [1, 1, 2]


def test_binary_selection_rejects_grouped_serving():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, find_subset_partition(2, 2))
    with pytest.raises(ValueError):
        select_binary_beamformers(sched.blocks[0])


def test_single_subfile_scalar_case():
    h = _random_h(4, 3, 1)
    v = solve_single_subfile_zf(h, serving=(2,), intended=3, zf_targets=())
    assert v.shape == (1,)
    assert v[0] == pytest.approx(1.0 / h[2, 1])


def test_single_subfile_substitution_residuals():
    h = _random_h(5, 4, 2)
    serving = (1, 3)
    v = solve_single_subfile_zf(h, serving, intended=2, zf_targets=(4,))
    gain = sum(h[1, t - 1] * v[n] for n, t in enumerate(serving))
    leak = sum(h[3, t - 1] * v[n] for n, t in enumerate(serving))
    assert abs(gain - 1.0) < 1e-10
    assert abs(leak) < 1e-10


def test_single_subfile_singular_when_rows_collide():
    h = _random_h(4, 2, 3)
    h[2, :] = h[1, :]  # target receiver sees the intended receiver's channel
    with pytest.raises(SingularChannelError):
        solve_single_subfile_zf(h, serving=(1, 2), intended=2, zf_targets=(3,))


def test_single_subfile_argument_checks():
    h = _random_h(4, 3, 4)
    with pytest.raises(ValueError):
        solve_single_subfile_zf(h, serving=(1, 2), intended=1, zf_targets=())
    with pytest.raises(ValueError):
        solve_single_subfile_zf(h, serving=(1, 2), intended=1, zf_targets=(1,))


def _slot_subfiles(n, serving):
    return [
        SubfileId(file=k, tx_index=tuple(serving), rx_set=(), zf_set=(), irs_set=())
        for k in range(1, n + 1)
    ]


def test_joint_solve_mu2_mur1_residuals():
    h = _random_h(3, 2, 5)
    serving = (1, 2)
    receivers = [1, 2, 3]
    subfiles = _slot_subfiles(3, serving)
    beams = solve_joint_block_zf(h, serving, receivers, subfiles)
    assert beams.weights.size == 6  # mu_t * (mu_r + mu_t) unknowns

    def agg(rx, slot):
        return sum(h[rx - 1, t - 1] * beams.weight(subfiles[slot], t) for t in serving)

    # unit gains on the diagonal
    for slot, rx in enumerate(receivers):
        assert abs(agg(rx, slot) - 1.0) < 1e-10
    # lead must not hear the zero-forcing-family slot
    assert abs(agg(1, 2)) < 1e-10
    # the target receiver must not hear the cache-family slots
    assert abs(agg(3, 0)) < 1e-10
    assert abs(agg(3, 1)) < 1e-10


def test_joint_solve_degenerates_to_scalar_decodes():
    # single-transmitter groups: system reduces to mu_r + 1 scalar decodes
    h = _random_h(3, 3, 6)
    serving = (2,)
    receivers = [1, 2, 3]
    subfiles = _slot_subfiles(3, serving)
    beams = solve_joint_block_zf(h, serving, receivers, subfiles)
    for slot, rx in enumerate(receivers):
        v = beams.weight(subfiles[slot], 2)
        assert v == pytest.approx(1.0 / h[rx - 1, 1])


def test_joint_solve_gain_vector_is_all_ones():
    h = _random_h(5, 3, 7)
    serving = (1, 2, 3)
    receivers = [2, 4, 1, 5]  # mu_r = 1, mu_t = 3
    subfiles = _slot_subfiles(4, serving)
    beams = solve_joint_block_zf(h, serving, receivers, subfiles)
    gains = [
        sum(h[rx - 1, t - 1] * beams.weight(subfiles[slot], t) for t in serving)
        for slot, rx in enumerate(receivers)
    ]
    assert np.allclose(gains, 1.0, atol=1e-10)


def test_system_sizes_match_group_dimensions():
    for mu_t, mu_r in ((2, 1), (2, 2), (3, 1), (3, 2)):
        n = mu_t + mu_r
        h = _random_h(n + 1, mu_t, seed=n)
        serving = tuple(range(1, mu_t + 1))
        receivers = list(range(1, n + 1))
        beams = solve_joint_block_zf(h, serving, receivers, _slot_subfiles(n, serving))
        assert beams.weights.size == mu_t * n


def test_solvability_rate_over_random_channels():
    failures = 0
    for seed in range(1000):
        h = _random_h(3, 2, seed)
        try:
            solve_joint_block_zf(h, (1, 2), [1, 2, 3], _slot_subfiles(3, (1, 2)))
        except SingularChannelError:
            failures += 1
    assert failures == 0


def test_column_scaling_leaves_gains_and_nulls_invariant():
    h = _random_h(3, 2, 11)
    serving = (1, 2)
    receivers = [1, 2, 3]
    subfiles = _slot_subfiles(3, serving)
    scaled = h.copy()
    scaled[:, 0] *= 5.0 - 2.0j
    for channel in (h, scaled):
        beams = solve_joint_block_zf(channel, serving, receivers, subfiles)

        def agg(rx, slot, hh, bb):
            return sum(hh[rx - 1, t - 1] * bb.weight(subfiles[slot], t) for t in serving)

        for slot, rx in enumerate(receivers):
            assert abs(agg(rx, slot, channel, beams) - 1.0) < 1e-9
        assert abs(agg(1, 2, channel, beams)) < 1e-9


def test_block_level_dispatch():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, find_subset_partition(2, 2))
    plan = sched.blocks[0]
    h = _random_h(4, 4, 12)
    beams = beamformers_for_block(plan, h, p.mu_t)
    # every delivery has coefficients on its serving group only
    assert beams.deliveries == plan.deliveries
    assert beams.weights.shape == (len(plan.deliveries), p.mu_t)
    for d in plan.deliveries:
        for tx in d.serving_txs:
            assert beams.weight(d.subfile, tx) != 0
    for d in plan.deliveries:
        for tx in p.transmitters:
            if tx not in d.serving_txs:
                assert beams.weight(d.subfile, tx) == 0


def test_singular_zero_forcing_names_block():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - p.mu_t, find_subset_partition(2, 2))
    plan = sched.blocks[1]
    message = rf"^block {plan.block_index}: joint zero-forcing system is singular; the episode aborts$"
    with pytest.raises(SingularChannelError, match=message):
        beamformers_for_block(plan, np.zeros((4, 4), dtype=complex), p.mu_t)
