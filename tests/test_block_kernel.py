"""The dense block kernel against the dictionary-based reference in
``reference_block.py``, and the exactness properties the kernel keeps:
single-draw channels, batched idle-group solves and per-receiver decodes
equal to their unbatched forms bit for bit."""

import numpy as np
import pytest
from reference_block import reference_channels, reference_simulate_block

from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q
from irs_cache_dof.channel import block_rng, equivalent_channel, sample_block_channels
from irs_cache_dof.irs import required_nulls, solve_irs
from irs_cache_dof.params import SystemParams
from irs_cache_dof.simulator import SimOptions, _symbols_for, build_schedule, receiver_decode, simulate_block, transmit_block
from irs_cache_dof.zf import beamformers_for_block, solve_single_subfile_zf

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)

#: name -> (parameters, regime, options)
NETWORKS = {
    "thm1-worked-example": (EX, "thm1", SimOptions()),
    "thm1-partial": (SystemParams(3, 4, 12, 12, 1, 1, 2), "thm1", SimOptions()),
    "thm1-mu_r2": (SystemParams(4, 5, 5, 1, 1, 2, 2), "thm1", SimOptions()),
    "thm1-disable-irs": (EX, "thm1", SimOptions(disable_irs=True)),
    "thm1-noise": (EX, "thm1", SimOptions(noise_variance=1e-3, success_threshold=1e-1)),
    "thm1-l0": (EX, "thm1", SimOptions(l_size=0)),
    "thm2-partition": (SystemParams(4, 4, 4, 1, 2, 1, 4), "thm2-partition", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-strict-infeasible": (
        SystemParams(4, 4, 4, 1, 2, 1, 2),
        "thm2-partition",
        SimOptions(strictness=STRICT_Q, l_size=1),
    ),
    "thm2-ordered-partial": (SystemParams(4, 5, 5, 1, 2, 1, 4), "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-ordered-mu3": (SystemParams(6, 5, 5, 1, 3, 1, 12), "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q)),
    "thm2-disable-irs-noise": (
        SystemParams(4, 5, 5, 1, 2, 1, 4),
        "thm2-partition",
        SimOptions(strictness=SUFFICIENT_Q, disable_irs=True, noise_variance=1e-6),
    ),
}

#: agreement the kernel must keep with the reference on every O(1) number
TOLERANCE = 1e-12


@pytest.mark.parametrize("name", NETWORKS)
def test_simulate_block_matches_reference(name):
    params, regime, options = NETWORKS[name]
    schedule = build_schedule(params, regime, options)
    for seed in (0, 7):
        for plan in schedule.blocks[:120]:
            got = simulate_block(plan, params, seed, options)
            want = reference_simulate_block(plan, params, seed, options)
            assert (got.delivered, got.irs_status, got.n_nulls) == (want.delivered, want.irs_status, want.n_nulls)
            assert abs(got.irs_residual - want.irs_residual) <= TOLERANCE
            assert got.channel_scale == want.channel_scale
            assert [rx for rx, _ in got.decode_errors] == [rx for rx, _ in want.decode_errors]
            for (_, e_got), (_, e_want) in zip(got.decode_errors, want.decode_errors):
                assert e_got == e_want or abs(e_got - e_want) <= TOLERANCE


def test_strict_budget_case_is_infeasible():
    params, regime, options = NETWORKS["thm2-strict-infeasible"]
    plan = build_schedule(params, regime, options).blocks[0]
    assert simulate_block(plan, params, 0, options).irs_status == "infeasible"


@pytest.mark.parametrize("block", [1, 2, 77])
def test_single_draw_channels_equal_three_draws(block):
    for params in (EX, SystemParams(6, 6, 6, 1, 2, 1, 12), SystemParams(2, 3, 3, 1, 1, 1, 0)):
        got, want = sample_block_channels(params, block, 5), reference_channels(params, block, 5)
        for leg in ("direct", "tx_to_irs", "irs_to_rx"):
            assert np.array_equal(getattr(got, leg), getattr(want, leg))


def test_block_rng_keeps_the_tuple_entropy_streams():
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 - 1):
        for block, stream in ((0, 0), (1, 2), (2**33 + 1, 1)):
            want = np.random.default_rng(np.random.SeedSequence(entropy=(seed, block, stream)))
            assert np.array_equal(block_rng(seed, block, stream).standard_normal(6), want.standard_normal(6))
    with pytest.raises(ValueError):
        block_rng(-1, 0)


def _block(params, regime, options, index, seed):
    plan = build_schedule(params, regime, options).blocks[index]
    ch = sample_block_channels(params, plan.block_index, seed)
    cfg, _ = solve_irs(ch, required_nulls(plan))
    h_eq = equivalent_channel(ch, cfg)
    beams = beamformers_for_block(plan, h_eq, params.mu_t)
    symbols = _symbols_for(plan, seed)
    return plan, h_eq, beams, symbols


@pytest.mark.parametrize("name", ["thm2-ordered-partial", "thm2-ordered-mu3"])
def test_batched_idle_solves_equal_single_solves(name):
    params, regime, options = NETWORKS[name]
    for index in range(10):
        plan, h_eq, beams, _ = _block(params, regime, options, index, seed=3)
        lead = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
        assert len(plan.deliveries) > lead
        for dl, row in zip(plan.deliveries[lead:], beams.weights[lead:]):
            single = solve_single_subfile_zf(h_eq, dl.serving_txs, dl.intended_rx, plan.zf_rxs)
            assert np.array_equal(row, single)


@pytest.mark.parametrize("name", ["thm1-worked-example", "thm2-ordered-mu3"])
def test_block_decode_equals_per_receiver_decodes(name):
    """``simulate_block`` decodes every receiver in one call; calling
    ``receiver_decode`` once per receiver gives the same residuals exactly."""
    params, regime, options = NETWORKS[name]
    for index in range(5):
        plan, h_eq, beams, symbols = _block(params, regime, options, index, seed=11)
        y = h_eq @ transmit_block(plan, beams, symbols, params.k_t)
        record = simulate_block(plan, params, 11, options)
        singles = [
            (dl.intended_rx, receiver_decode(y[dl.intended_rx - 1], dl.intended_rx, plan, h_eq, beams, symbols)[1])
            for dl in plan.deliveries
        ]
        assert tuple(singles) == record.decode_errors
