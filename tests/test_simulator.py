"""End-to-end block simulation, episode aggregation, and the rate-slope
estimator."""

import json
import re
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from irs_cache_dof.channel import equivalent_channel, sample_block_channels, zero_irs
from irs_cache_dof.params import ParameterError, SystemParams
from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import DemandVector, SchedulingError, make_schedule, worst_case_demand
from irs_cache_dof.simulator import (
    ScheduleConsistencyError,
    SimOptions,
    build_schedule,
    episode_to_jsonable,
    estimate_dof_slope,
    receiver_decode,
    run_episode,
    simulate_block,
    transmit_block,
)
from irs_cache_dof.zf import BeamformerSet

EX = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=6)


def _binary(plan):
    """Unit coefficient for every delivery: the beamformers of single-transmitter serving groups."""
    return BeamformerSet(plan.deliveries, np.ones((len(plan.deliveries), 1), dtype=complex))


def test_single_delivery_transmit():
    p = SystemParams(k_t=4, k_r=2, n_files=2, f_packets=1, mu_t=1, mu_r=1)
    sched = make_schedule(p, worst_case_demand(p), p.k_r - p.mu_r - 1)
    plan = sched.blocks[0]
    beams = _binary(plan)
    symbols = np.ones(len(plan.deliveries), dtype=complex)
    x = transmit_block(plan, beams, symbols, p.k_t)
    serving = {d.serving_txs[0] for d in plan.deliveries}
    for tx in p.transmitters:
        if tx in serving:
            assert x[tx - 1] != 0
        else:
            assert x[tx - 1] == 0


def test_all_zero_beamformers_give_silence():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    plan = sched.blocks[0]
    beams = BeamformerSet(plan.deliveries, np.zeros((len(plan.deliveries), 1), dtype=complex))
    symbols = np.ones(len(plan.deliveries), dtype=complex)
    x = transmit_block(plan, beams, symbols, EX.k_t)
    assert np.all(x == 0)


def test_transmit_rejects_uncached_subfile():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    plan = sched.blocks[0]
    symbols = np.ones(len(plan.deliveries), dtype=complex)
    rogue_deliveries = (replace(plan.deliveries[0], serving_txs=(99,)), *plan.deliveries[1:])
    rogue = BeamformerSet(rogue_deliveries, np.ones((len(plan.deliveries), 1), dtype=complex))
    with pytest.raises(ScheduleConsistencyError):
        transmit_block(plan, rogue, symbols, EX.k_t)


def test_transmit_lead_carries_linear_combination():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    plan = sched.blocks[0]
    beams = _binary(plan)
    symbols = np.arange(1, len(plan.deliveries) + 1, dtype=complex)
    x = transmit_block(plan, beams, symbols, EX.k_t)
    lead_tx = plan.deliveries[0].serving_txs[0]
    expected = sum(
        symbols[n] for n, d in enumerate(plan.deliveries) if d.serving_txs[0] == lead_tx
    )
    assert x[lead_tx - 1] == pytest.approx(expected)


def test_decode_exact_when_solvers_exact():
    ep = run_episode(EX, "thm1", seed=17)
    assert ep.all_passed
    assert ep.max_decode_error < 1e-8
    assert ep.sum_dof == 4
    assert ep.per_user_dof == 1


def test_decode_fails_without_surface():
    opt = SimOptions(disable_irs=True)
    ep = run_episode(EX, "thm1", seed=17, options=opt)
    assert not ep.all_passed
    failing_blocks = sum(1 for b in ep.blocks if b.delivered < len(b.decode_errors))
    assert failing_blocks == ep.h_blocks  # lead receiver always suffers leftovers


def test_pure_cache_cancellation_needs_no_surface():
    # mu_r = K_R - 1: every unintended subfile is cached, L = 0
    p = SystemParams(k_t=3, k_r=3, n_files=3, f_packets=1, mu_t=1, mu_r=2, q_elements=0)
    ep = run_episode(p, "thm1", seed=5, options=SimOptions(disable_irs=True))
    assert ep.all_passed
    assert ep.max_decode_error < 1e-10
    assert ep.sum_dof == 3


def test_decode_residual_measures_interference():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    plan = sched.blocks[0]
    ch = sample_block_channels(EX, plan.block_index, seed=3)
    h_eq = equivalent_channel(ch, zero_irs(6))  # surface off
    beams = _binary(plan)
    symbols = np.ones(len(plan.deliveries), dtype=complex)
    x = transmit_block(plan, beams, symbols, EX.k_t)
    y = h_eq @ x
    # receiver 1 keeps interference from the two idle-receiver transmitters
    _, residual = receiver_decode(y[0], 1, plan, h_eq, beams, symbols)
    assert residual > 1e-3


def test_decode_at_a_receiver_without_a_delivery_names_block_and_receiver():
    p = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=2)
    plan = build_schedule(p, "thm1", SimOptions()).blocks[0]
    assert 4 not in {dl.intended_rx for dl in plan.deliveries}
    h_eq = equivalent_channel(sample_block_channels(p, plan.block_index, seed=0), zero_irs(2))
    beams = _binary(plan)
    symbols = np.ones(len(plan.deliveries), dtype=complex)
    message = rf"^block {plan.block_index}: receiver 4 has no delivery in this block$"
    with pytest.raises(ScheduleConsistencyError, match=message):
        receiver_decode(0j, 4, plan, h_eq, beams, symbols)


def test_episode_report_counts_and_identity():
    ep = run_episode(EX, "thm1", seed=23)
    assert ep.h_blocks == 9
    assert ep.total_deliveries == 36
    assert ep.total_delivered == 36
    assert ep.sum_dof == Fraction(36, 9)
    for b in ep.blocks:
        assert b.delivered == len(b.decode_errors)


def test_dof_identity_caseII():
    p = SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=2)
    ep = run_episode(p, "thm1", seed=2)
    assert ep.schedule_regime == "T1-II"
    assert ep.sum_dof == 3  # min(mu_r + 1 + L, K_R) with L = 1
    assert ep.per_user_dof == Fraction(3, 4)


def test_demand_invariance_of_achieved_rate():
    base = run_episode(EX, "thm1", seed=9).sum_dof
    for d in ((2, 3, 4, 5), (12, 1, 7, 3), (4, 3, 2, 1)):
        opt = SimOptions(demand=DemandVector(d=d))
        assert run_episode(EX, "thm1", seed=9, options=opt).sum_dof == base


def test_noise_option_perturbs_decode():
    opt = SimOptions(noise_variance=1e-6, success_threshold=1e-1)
    ep = run_episode(EX, "thm1", seed=31, options=opt)
    assert ep.all_passed
    assert 1e-8 < ep.max_decode_error < 1e-1


def test_conservation_passing_receivers_equal_deliveries():
    for k_r, mu_r, q in ((4, 1, 6), (5, 2, 6), (6, 1, 12)):
        p = SystemParams(k_t=6, k_r=k_r, n_files=k_r, f_packets=1, mu_t=1, mu_r=mu_r, q_elements=q)
        ep = run_episode(p, "thm1", seed=1)
        for b in ep.blocks:
            assert b.delivered == len(b.decode_errors)


def test_strict_q_flags_infeasible_blocks():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=2)
    opt = SimOptions(strictness="strict", l_size=1)
    ep = run_episode(p, "thm2-partition", seed=0, options=opt)
    assert ep.infeasible_blocks == ep.h_blocks
    assert not ep.all_passed


def test_sufficient_q_restores_exactness():
    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    opt = SimOptions(strictness="sufficient")
    ep = run_episode(p, "thm2-partition", seed=0, options=opt)
    assert ep.infeasible_blocks == 0
    assert ep.all_passed and ep.sum_dof == 4


def test_slope_estimator_interference_free():
    est = estimate_dof_slope(EX, "thm1", seed=42, powers=(1e6, 1e8))
    assert all(abs(s - 1.0) < 0.05 for s in est.per_receiver)


def test_slope_estimator_interference_limited():
    est = estimate_dof_slope(
        EX, "thm1", seed=42, powers=(1e6, 1e8), options=SimOptions(disable_irs=True)
    )
    # the lead receiver faces uncancelled interference in every block
    assert abs(est.per_receiver[0]) < 0.05


def test_slope_estimator_single_receiver_network():
    # one cached receiver, one idle-free layout: no interference possible
    p = SystemParams(k_t=2, k_r=2, n_files=2, f_packets=1, mu_t=1, mu_r=1, q_elements=0)
    est = estimate_dof_slope(p, "thm1", seed=4, powers=(1e6, 1e8))
    assert all(abs(s - 1.0) < 0.05 for s in est.per_receiver)


def test_slope_estimator_validates_powers():
    with pytest.raises(ValueError):
        estimate_dof_slope(EX, "thm1", seed=1, powers=(1e6,))
    with pytest.raises(ValueError):
        estimate_dof_slope(EX, "thm1", seed=1, powers=(10.0, 1e6))
    with pytest.raises(ValueError):
        estimate_dof_slope(EX, "thm1", seed=1, powers=(1e8, 1e6))


@pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")])
def test_slope_estimator_rejects_non_finite_powers(capfd, power):
    """Refused before any fit: the fit would make LAPACK print an error and
    raise ``LinAlgError``."""
    for powers in ((1e3, power), (power, 1e4), (1e3, 1e4, power)):
        with pytest.raises(ValueError, match=r"^powers must be finite, >= 1e3"):
            estimate_dof_slope(EX, "thm1", seed=1, powers=powers)
    assert capfd.readouterr().err == ""


def test_build_schedule_validates_regime():
    with pytest.raises(Exception):
        build_schedule(EX, "thm2-partition", SimOptions())
    p2 = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    with pytest.raises(Exception):
        build_schedule(p2, "thm1", SimOptions())


@pytest.mark.parametrize(
    "params, regime",
    [
        (SystemParams(8, 8, 8, 1, 1, 1, 12), "thm1"),
        (SystemParams(6, 6, 6, 1, 2, 1, 12), "thm2-partition"),
        (SystemParams(6, 6, 6, 1, 2, 1, 16), "thm2-ordered"),
    ],
    ids=["other-params-and-design", "other-design", "other-params"],
)
def test_schedule_for_other_params_or_design_rejected(params, regime):
    from irs_cache_dof.analytics import SUFFICIENT_Q

    built = SystemParams(6, 6, 6, 1, 2, 1, 12)
    options = SimOptions(strictness=SUFFICIENT_Q)
    schedule = build_schedule(built, "thm2-ordered", options)
    message = rf"the schedule is for .* with regime 'thm2-ordered', not for .* with regime '{regime}'"
    with pytest.raises(SchedulingError, match=message):
        run_episode(params, regime, 0, options, schedule=schedule)
    with pytest.raises(SchedulingError, match=message):
        estimate_dof_slope(params, regime, 0, (1e6, 1e8), options, schedule=schedule)


def test_schedule_for_other_l_size_rejected():
    """A schedule built under the sufficient accounting (L = 0 on two
    elements) is refused by strict options, which derive L = 1; an explicit
    l_size past full activity is cut as the build cuts it."""
    from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q

    params = SystemParams(4, 4, 4, 1, 2, 1, 2)
    schedule = build_schedule(params, "thm2-partition", SimOptions(strictness=SUFFICIENT_Q))
    assert schedule.l_size == 0
    strict = SimOptions(strictness=STRICT_Q)
    message = r"^the schedule has l_size = 0, but the options \(l_size = None, strictness 'strict'\) give l_size = 1$"
    with pytest.raises(SchedulingError, match=message):
        run_episode(params, "thm2-partition", 0, strict, schedule=schedule)
    with pytest.raises(SchedulingError, match=message):
        estimate_dof_slope(params, "thm2-partition", 0, (1e6, 1e8), strict, schedule=schedule)
    fresh = run_episode(params, "thm2-partition", 0, strict)
    assert (fresh.l_size, fresh.infeasible_blocks, fresh.sum_dof) == (1, 36, 2)
    past_full = SimOptions(l_size=5)
    schedule = build_schedule(EX, "thm1", past_full)
    assert schedule.l_size == 2
    assert run_episode(EX, "thm1", 0, past_full, schedule=schedule).all_passed


@pytest.mark.parametrize(
    "built, run, served, given",
    [
        # options without a demand run the worst case, receiver j asking for file j
        (DemandVector((5, 5, 5, 5)), None, "5, 5, 5, 5", "1, 2, 3, 4"),
        (None, DemandVector((5, 5, 5, 5)), "1, 2, 3, 4", "5, 5, 5, 5"),
        (DemandVector((2, 3, 4, 5)), DemandVector((5, 4, 3, 2)), "2, 3, 4, 5", "5, 4, 3, 2"),
    ],
    ids=["built-for-a-demand", "run-with-a-demand", "two-demands"],
)
def test_schedule_for_other_demand_rejected(built, run, served, given):
    """A prebuilt schedule serves the demand it was built for; options that
    give another one are refused, not run on the schedule's demand."""
    message = rf"^the schedule serves demand \({served}\), but the options give demand \({given}\)$"
    schedule = build_schedule(EX, "thm1", SimOptions(demand=built))
    options = SimOptions(demand=run)
    with pytest.raises(SchedulingError, match=message):
        run_episode(EX, "thm1", 3, options, schedule=schedule)
    with pytest.raises(SchedulingError, match=message):
        estimate_dof_slope(EX, "thm1", 3, (1e6, 1e8), options, schedule=schedule)
    same = SimOptions(demand=built)
    assert run_episode(EX, "thm1", 3, same, schedule=schedule) == run_episode(EX, "thm1", 3, same)


@pytest.mark.parametrize("variance", [float("nan"), float("inf"), -1.0, -1e-300])
def test_noise_variance_not_finite_and_nonnegative_rejected_by_options(variance):
    """A variance the receivers cannot add is refused when the options are
    made, instead of running the episode noise-free."""
    with pytest.raises(ParameterError, match=r"^noise variance must be finite and nonnegative"):
        SimOptions(noise_variance=variance)
    with pytest.raises(ParameterError, match=r"^noise variance"):
        replace(SimOptions(), noise_variance=variance)
    assert SimOptions(noise_variance=0.0).noise_variance == 0.0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_success_threshold_not_finite_and_positive_rejected_by_options(threshold):
    """A threshold no decode residual can pass (or every one passes) is
    refused when the options are made, instead of running every block and
    reporting the scheme failed at sum rate 0."""
    with pytest.raises(ParameterError, match=r"^success threshold must be finite and positive"):
        SimOptions(success_threshold=threshold)
    with pytest.raises(ParameterError, match=r"^success threshold"):
        replace(SimOptions(), success_threshold=threshold)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"strictness": "bogus", "l_size": 1}, r"^unknown strictness 'bogus'$"),
        ({"l_size": True}, r"^l_size must be an integer, got True$"),
        ({"l_size": 1.0}, r"^l_size must be an integer, got 1.0$"),
    ],
)
def test_unknown_strictness_and_non_integer_l_size_rejected_by_options(kwargs, message):
    """Options that would run an episode and write a strictness or null count
    the schedule never used are refused when the options are made."""
    with pytest.raises(ParameterError, match=message):
        SimOptions(**kwargs)
    with pytest.raises(ParameterError, match=message):
        replace(SimOptions(), **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"noise_variance": True}, r"^noise variance must be finite and nonnegative, got True$"),
        ({"noise_variance": False}, r"^noise variance must be finite and nonnegative, got False$"),
        ({"success_threshold": True}, r"^success threshold must be finite and positive, got True$"),
        ({"disable_irs": "no"}, r"^disable_irs must be a bool, got 'no'$"),
        ({"disable_irs": 1}, r"^disable_irs must be a bool, got 1$"),
    ],
)
def test_bool_for_a_number_or_a_non_bool_switch_rejected_by_options(kwargs, message):
    """A bool variance or threshold would run as 1 or 0 and be written as
    ``true``, and a truthy string would switch the surface off; all are
    refused when the options are made."""
    with pytest.raises(ParameterError, match=message):
        SimOptions(**kwargs)
    with pytest.raises(ParameterError, match=message):
        replace(SimOptions(), **kwargs)


def test_numpy_integer_l_size_is_taken_as_an_int():
    options = SimOptions(l_size=np.int64(1))
    assert type(options.l_size) is int and options == SimOptions(l_size=1)


@pytest.mark.parametrize(
    "name, value", [("k_t", 3.5), ("q_elements", 6.0), ("mu_r", True), ("n_files", "12"), ("k_r", np.float64(4.0))]
)
def test_non_integer_or_bool_rejected_by_params(name, value):
    values = {"k_t": 3, "k_r": 4, "n_files": 12, "f_packets": 12, "mu_t": 1, "mu_r": 1, "q_elements": 6}
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        SystemParams(**{**values, name: value})


def test_numpy_integer_params_are_taken_as_ints():
    params = SystemParams(*(np.int64(v) for v in (3, 4, 12, 12, 1, 1)), q_elements=np.uint8(6))
    assert params == EX and {type(getattr(params, f.name)) for f in fields(params)} == {int}
    assert run_episode(params, "thm1", 3) == run_episode(EX, "thm1", 3)



def test_numpy_integer_seed_is_reported_as_an_int():
    report = run_episode(EX, "thm1", np.int64(7))
    assert type(report.seed) is int and report == run_episode(EX, "thm1", 7)
    assert json.loads(json.dumps(episode_to_jsonable(report)))["seed"] == 7

def test_default_success_threshold_still_runs():
    report = run_episode(EX, "thm1", 3, SimOptions())
    assert report.success_threshold == 1e-8
    assert report.all_passed and report.sum_dof == 4


def test_block_determinism():
    sched = make_schedule(EX, worst_case_demand(EX), EX.k_r - EX.mu_r - 1)
    a = simulate_block(sched.blocks[0], EX, seed=77, options=SimOptions())
    b = simulate_block(sched.blocks[0], EX, seed=77, options=SimOptions())
    assert a == b


def test_noiseless_exactness_over_100_seeds():
    from irs_cache_dof.analytics import SUFFICIENT_Q, required_elements

    cases = [
        (EX, "thm1", SimOptions()),
        (SystemParams(k_t=3, k_r=4, n_files=12, f_packets=12, mu_t=1, mu_r=1, q_elements=2),
         "thm1", SimOptions()),
        (SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1,
                      q_elements=required_elements(1, 2, SUFFICIENT_Q)),
         "thm2-partition", SimOptions(strictness=SUFFICIENT_Q)),
        (SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1,
                      q_elements=required_elements(1, 2, SUFFICIENT_Q)),
         "thm2-ordered", SimOptions(strictness=SUFFICIENT_Q)),
    ]
    for params, regime, options in cases:
        schedule = build_schedule(params, regime, options)
        for seed in range(100):
            ep = run_episode(params, regime, seed, options, schedule=schedule)
            assert ep.all_passed and ep.max_decode_error < 1e-8, (regime, seed)


def test_demand_invariance_grouped_caches():
    from irs_cache_dof.analytics import SUFFICIENT_Q, required_elements

    p = SystemParams(k_t=4, k_r=4, n_files=6, f_packets=1, mu_t=2, mu_r=1,
                     q_elements=required_elements(1, 2, SUFFICIENT_Q))
    base = run_episode(p, "thm2-partition", seed=8, options=SimOptions(strictness=SUFFICIENT_Q))
    for d in ((6, 5, 4, 3), (2, 4, 1, 6)):
        opt = SimOptions(strictness=SUFFICIENT_Q, demand=DemandVector(d=d))
        assert run_episode(p, "thm2-partition", seed=8, options=opt).sum_dof == base.sum_dof


def test_slope_estimator_multi_power_fit():
    est = estimate_dof_slope(EX, "thm1", seed=6, powers=(1e4, 1e5, 1e6, 1e7, 1e8))
    assert all(abs(s - 1.0) < 0.05 for s in est.per_receiver)


def test_simulation_agrees_with_closed_form():
    from irs_cache_dof.analytics import SUFFICIENT_Q, dof_theorem1, dof_theorem2, required_elements

    cases = [
        (SystemParams(k_t=3, k_r=4, n_files=4, f_packets=1, mu_t=1, mu_r=1, q_elements=6), "thm1", 2),
        (SystemParams(k_t=4, k_r=5, n_files=5, f_packets=1, mu_t=1, mu_r=2, q_elements=2), "thm1", 1),
        (SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1,
                      q_elements=required_elements(1, 2, SUFFICIENT_Q)), "thm2-partition", 1),
        (SystemParams(k_t=6, k_r=5, n_files=5, f_packets=1, mu_t=3, mu_r=1,
                      q_elements=required_elements(1, 3, SUFFICIENT_Q)), "thm2-ordered", 1),
    ]
    for params, regime, l_size in cases:
        ep = run_episode(params, regime, seed=13, options=SimOptions(strictness=SUFFICIENT_Q))
        closed = dof_theorem1(params, l_size) if params.mu_t == 1 else dof_theorem2(params, l_size)
        assert ep.sum_dof == closed.sum_dof, (regime, params)


def test_singular_block_names_seed_and_block(monkeypatch):
    from irs_cache_dof import simulator
    from irs_cache_dof.channel import SingularChannelError

    p = SystemParams(k_t=4, k_r=4, n_files=4, f_packets=1, mu_t=2, mu_r=1, q_elements=4)
    options = SimOptions(strictness="sufficient")
    plan = build_schedule(p, "thm2-partition", options).blocks[2]
    monkeypatch.setattr(simulator, "equivalent_channels", lambda ch, q: np.zeros((len(ch.blocks), p.k_r, p.k_t), dtype=complex))
    message = rf"^seed 5, block {plan.block_index}: joint zero-forcing system is singular; the episode aborts$"
    with pytest.raises(SingularChannelError, match=message):
        simulate_block(plan, p, 5, options)
