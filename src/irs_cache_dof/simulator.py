"""End-to-end block verification: synthesize transmit signals, propagate
through the equivalent channel, cancel with receiver caches, and check that
every intended symbol comes out clean. Episodes aggregate block outcomes
into an exact delivered-per-block rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .analytics import STRICT_Q, max_feasible_L
from .channel import SingularChannelError, block_rng, equivalent_channels, sample_channels
from .combinatorics import enumerate_ordered_partitions, find_subset_partition
from .irs import STATUS_INFEASIBLE, IrsSolveInfo, solve_irs_stack
from .lowering import LoweredPlan, lower_plan, stack_plans
from .params import SystemParams
from .scheduler import (
    BlockPlan,
    DemandVector,
    Schedule,
    SchedulingError,
    achieved_dof,
    make_schedule,
    worst_case_demand,
)
from .zf import BeamformerSet, zero_forcing_weights

REGIME_THM1 = "thm1"
REGIME_THM2_PARTITION = "thm2-partition"
REGIME_THM2_ORDERED = "thm2-ordered"
REGIMES = (REGIME_THM1, REGIME_THM2_PARTITION, REGIME_THM2_ORDERED)

IRS_DISABLED = "disabled"


class ScheduleConsistencyError(RuntimeError):
    """Transmit inputs do not fit the block: beamformers solved for other
    deliveries or serving groups, or a symbol count that differs."""


@dataclass(frozen=True)
class SimOptions:
    """Episode knobs. ``strictness`` selects how many surface elements a
    given null count is assumed to need when deriving the per-episode null
    count ``L`` from ``q_elements``; ``l_size`` overrides that derivation."""

    noise_variance: float = 0.0
    strictness: str = STRICT_Q
    success_threshold: float = 1e-8
    disable_irs: bool = False
    l_size: int | None = None
    demand: DemandVector | None = None


def _symbols_for(plan: BlockPlan, seed: int) -> np.ndarray:
    """One unit-power symbol per delivery, in delivery order, deterministic
    per block."""
    rng = block_rng(seed, plan.block_index, stream=1)
    return np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(plan.deliveries)))


def transmit_block(plan: BlockPlan, beams: BeamformerSet, symbols: np.ndarray, k_t: int) -> np.ndarray:
    """Per-transmitter signals: each transmitter sends the weighted sum of
    the scheduled symbols it carries; everyone else stays silent."""
    low = lower_plan(plan)
    if beams.deliveries is not plan.deliveries and beams.deliveries != plan.deliveries:
        raise ScheduleConsistencyError(
            f"block {plan.block_index}: beamformers are for deliveries {beams.deliveries}, "
            "not this block's serving groups"
        )
    shape = (len(low.rx), low.group)
    if beams.weights.shape != shape or len(symbols) != len(low.rx):
        raise ScheduleConsistencyError(
            f"block {plan.block_index}: need {shape} weights and {shape[0]} symbols, "
            f"got {beams.weights.shape} and {len(symbols)}"
        )
    x = [0j] * k_t
    for serving, weights, symbol in zip(low.serving, beams.weights.tolist(), symbols.tolist()):
        for tx, w in zip(serving, weights):
            x[tx] += w * symbol
    return np.array(x)


def _own_and_cached(
    own: int, low: LoweredPlan, h_row: list[complex], weights: list[list[complex]], symbols: list[complex]
) -> tuple[complex, complex]:
    """The gain of delivery ``own`` at its receiver (whose row of the
    equivalent channel is ``h_row``), and the summed contributions of the
    scheduled subfiles that receiver caches (which it subtracts)."""
    serving = low.serving
    cached_sum = 0.0 + 0.0j
    for d in low.cached[own]:
        cached_sum += _gain(h_row, serving[d], weights[d]) * symbols[d]
    return _gain(h_row, serving[own], weights[own]), cached_sum


def _gain(h_row: list[complex], serving: list[int], weights: list[complex]) -> complex:
    return sum([h_row[tx] * w for tx, w in zip(serving, weights)])


def receiver_decode(
    y: complex,
    rx: int,
    plan: BlockPlan,
    h_eq: np.ndarray,
    beams: BeamformerSet,
    symbols: np.ndarray,
) -> tuple[complex, float] | list[tuple[complex, float]]:
    """Cache-subtract and normalize to estimate the intended symbol.

    The receiver knows channels, coefficients, and every cached scheduled
    subfile (those whose caching receivers include it), so it subtracts
    their exact contributions, divides by its own aggregate gain, and is
    left with its symbol plus whatever interference survived. Returns the
    estimate and its distance from the sent symbol.

    ``y`` and ``rx`` may also be equal-length sequences, one entry per
    decoding receiver; the result is then a list of (estimate, residual)
    pairs, each equal to its scalar call's.
    """
    low = lower_plan(plan)
    weights, syms = beams.weights.tolist(), symbols.tolist()
    if isinstance(rx, (int, np.integer)):
        return _decode(y, rx, low, h_eq[rx - 1].tolist(), weights, syms)
    h_rows = h_eq.tolist()
    return [_decode(y_n, rx_n, low, h_rows[rx_n - 1], weights, syms) for y_n, rx_n in zip(y, rx)]


def _decode(
    y: complex, rx: int, low: LoweredPlan, h_row: list[complex], weights: list[list[complex]], symbols: list[complex]
) -> tuple[complex, float]:
    own = low.rx.index(rx - 1)
    own_gain, cached_sum = _own_and_cached(own, low, h_row, weights, symbols)
    if abs(own_gain) < 1e-300:
        return complex("nan"), float("inf")
    estimate = (y - cached_sum) / own_gain
    return estimate, float(abs(estimate - symbols[own]))


@dataclass(frozen=True)
class BlockRecord:
    block_index: int
    n_nulls: int
    q_elements: int
    irs_status: str
    irs_residual: float
    channel_scale: float
    decode_errors: tuple[tuple[int, float], ...]
    delivered: int


@dataclass(frozen=True)
class EpisodeReport:
    params: SystemParams
    regime: str
    schedule_regime: str
    seed: int
    strictness: str
    l_size: int
    noise_variance: float
    success_threshold: float
    blocks: tuple[BlockRecord, ...]
    total_deliveries: int
    total_delivered: int
    sum_dof: Fraction
    per_user_dof: Fraction
    all_passed: bool
    infeasible_blocks: int
    max_decode_error: float
    max_irs_residual: float

    @property
    def h_blocks(self) -> int:
        return len(self.blocks)


def build_schedule(params: SystemParams, regime: str, options: SimOptions) -> Schedule:
    """Construct the schedule an episode will run: full activity when the
    null count covers all receivers at once, partial activity otherwise."""
    if regime not in REGIMES:
        raise SchedulingError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if regime == REGIME_THM1 and params.mu_t != 1:
        raise SchedulingError("regime 'thm1' requires mu_t = 1")
    if regime != REGIME_THM1 and params.mu_t < 2:
        raise SchedulingError(f"regime {regime!r} requires mu_t >= 2")
    demand = options.demand if options.demand is not None else worst_case_demand(params)
    l_size = options.l_size
    if l_size is None:
        l_size = max_feasible_L(params.q_elements, params, options.strictness)
    system = None
    try:
        if regime == REGIME_THM2_PARTITION:
            system = find_subset_partition(params.m_groups, params.mu_t)
        elif regime == REGIME_THM2_ORDERED:
            system = enumerate_ordered_partitions(params.m_groups, params.mu_t)
    except ValueError as exc:  # the design is past its size guard
        raise SchedulingError(str(exc)) from exc
    return make_schedule(params, demand, l_size, system)


#: bytes of stacked channel draws and systems one chunk of blocks may hold;
#: a block's share is estimated by :func:`_block_bytes`
FRONT_CHUNK_BYTES = 512 * 1024


class BlockFront(NamedTuple):
    """Everything a block produces before its transmitters and receivers
    act: the channel scale, the null count, the surface solve, the
    equivalent channel and the beamformers."""

    channel_scale: float
    n_nulls: int
    irs: IrsSolveInfo
    h_eq: np.ndarray
    beams: BeamformerSet


def _block_bytes(params: SystemParams) -> int:
    """Bytes one block adds to a chunk: its channel draw and equivalent
    channel, a square null-steering system, and its joint and idle
    zero-forcing systems."""
    k_t, k_r, q, mu_t = params.k_t, params.k_r, params.q_elements, params.mu_t
    entries = k_r * k_t + q * k_t + k_r * q + q * q + k_r * k_t
    entries += ((params.mu_r + mu_t) * mu_t) ** 2 + k_r * mu_t**2
    return 16 * entries


def block_fronts(
    plans: Sequence[BlockPlan], params: SystemParams, seed: int, options: SimOptions
) -> Iterator[BlockFront]:
    """The front of every plan, in order, computed chunk by chunk: each
    chunk draws its channels into one buffer and runs the surface solve,
    the equivalent channel and the zero-forcing solves as stacked calls.
    With numpy on OpenBLAS every number equals the one-block computation's
    bit for bit; a singular solve raises the error the block-by-block order
    meets first."""
    step = max(1, FRONT_CHUNK_BYTES // _block_bytes(params))
    for start in range(0, len(plans), step):
        chunk = plans[start : start + step]
        try:
            fronts = _stacked_fronts(chunk, params, seed, options)
        except SingularChannelError:
            # the stages ran across blocks: rerun them block by block, so the
            # error raised is that of the first block (and stage) to fail
            for plan in chunk:
                _stacked_fronts([plan], params, seed, options)
            raise
        yield from fronts


def _stacked_fronts(
    plans: Sequence[BlockPlan], params: SystemParams, seed: int, options: SimOptions
) -> list[BlockFront]:
    """Sample the channels, steer the surface onto each block's null links
    (or leave it off), and form the equivalent channels and the
    beamformers, one stacked call per stage."""
    ch = sample_channels(params, [plan.block_index for plan in plans], seed)
    stacks = stack_plans(plans)
    pairs = [None] * len(plans)
    for positions, stack in stacks:
        for at, links in zip(positions, stack.null_pairs):
            pairs[at] = links
    q_count = params.q_elements
    if options.disable_irs:
        q = np.zeros((len(plans), q_count), dtype=complex)
        infos = [IrsSolveInfo(IRS_DISABLED, 0.0, links.shape[1], q_count) for links in pairs]
    else:
        q, infos = solve_irs_stack(ch, pairs)
    h_eq = equivalent_channels(ch, q)
    weights = [None] * len(plans)
    try:
        for positions, stack in stacks:
            blocks = [ch.blocks[at] for at in positions]
            for at, w in zip(positions, zero_forcing_weights(stack, h_eq[positions], blocks, params.mu_t)):
                weights[at] = w
    except SingularChannelError as exc:
        raise SingularChannelError(f"seed {seed}, {exc}") from exc
    return [
        BlockFront(scale, links.shape[1], info, h, BeamformerSet(plan.deliveries, w))
        for plan, scale, links, info, h, w in zip(plans, ch.scale.tolist(), pairs, infos, h_eq, weights)
    ]


def simulate_block(
    plan: BlockPlan, params: SystemParams, seed: int, options: SimOptions, front: BlockFront | None = None
) -> BlockRecord:
    """Run one block end to end and measure every intended residual.

    ``front`` is the block's front when a caller has already computed it
    with others (see :func:`block_fronts`); without one the block runs
    alone.
    """
    if front is None:
        [front] = _stacked_fronts([plan], params, seed, options)
    symbols = _symbols_for(plan, seed)
    y = front.h_eq @ transmit_block(plan, front.beams, symbols, params.k_t)
    if options.noise_variance > 0.0:
        rng = block_rng(seed, plan.block_index, stream=2)
        noise = rng.standard_normal(params.k_r) + 1j * rng.standard_normal(params.k_r)
        y = y + noise * math.sqrt(options.noise_variance / 2.0)
    rx_index = lower_plan(plan).rx
    rxs = [rx + 1 for rx in rx_index]
    decoded = receiver_decode(y[rx_index], rxs, plan, front.h_eq, front.beams, symbols)
    errors = [(rx, residual) for rx, (_, residual) in zip(rxs, decoded)]
    delivered = sum(residual < options.success_threshold for _, residual in errors)
    return BlockRecord(
        block_index=plan.block_index,
        n_nulls=front.n_nulls,
        q_elements=params.q_elements,
        irs_status=front.irs.status,
        irs_residual=front.irs.residual,
        channel_scale=front.channel_scale,
        decode_errors=tuple(errors),
        delivered=delivered,
    )


def run_episode(
    params: SystemParams,
    regime: str,
    seed: int,
    options: SimOptions = SimOptions(),
    schedule: Schedule | None = None,
) -> EpisodeReport:
    """Place, schedule, and simulate a whole delivery horizon.

    A prebuilt ``schedule`` (from :func:`build_schedule` with the same
    parameters) skips reconstruction so many seeds can share one schedule.
    The achieved rate counts only deliveries whose residual beat the
    threshold, as an exact rational over the block count.
    """
    if schedule is None:
        schedule = build_schedule(params, regime, options)
    # one simulate_block call per block, looked up by name (perfbench's traced run wraps it)
    fronts = block_fronts(schedule.blocks, params, seed, options)
    records = [simulate_block(plan, params, seed, options, front) for plan, front in zip(schedule.blocks, fronts)]
    total_deliveries = sum(len(b.deliveries) for b in schedule.blocks)
    total_delivered = sum(r.delivered for r in records)
    infeasible = sum(1 for r in records if r.irs_status == STATUS_INFEASIBLE)
    sum_dof = achieved_dof(schedule, total_delivered)
    return EpisodeReport(
        params=params,
        regime=regime,
        schedule_regime=schedule.regime,
        seed=seed,
        strictness=options.strictness,
        l_size=schedule.l_size,
        noise_variance=options.noise_variance,
        success_threshold=options.success_threshold,
        blocks=tuple(records),
        total_deliveries=total_deliveries,
        total_delivered=total_delivered,
        sum_dof=sum_dof,
        per_user_dof=sum_dof / params.k_r,
        all_passed=total_delivered == total_deliveries,
        infeasible_blocks=infeasible,
        max_decode_error=max(
            (e for r in records for _, e in r.decode_errors), default=0.0
        ),
        max_irs_residual=max((r.irs_residual for r in records), default=0.0),
    )


@dataclass(frozen=True)
class SlopeEstimate:
    """Finite-power rate-growth estimate of the per-user rate exponent."""

    per_receiver: tuple[float, ...]
    mean: float
    powers: tuple[float, ...]


def estimate_dof_slope(
    params: SystemParams,
    regime: str,
    seed: int,
    powers: tuple[float, ...],
    options: SimOptions = SimOptions(),
    schedule: Schedule | None = None,
) -> SlopeEstimate:
    """Fit the growth of per-receiver achievable rate against log2(power).

    Transmit signals are rescaled per block so the strongest transmitter
    spends the full transmit power; rates use the exact surviving
    interference at each receiver under unit noise. Interference-free receivers slope to 1,
    interference-limited ones saturate and slope to 0.
    """
    if len(powers) < 2 or any(p < 1e3 for p in powers) or list(powers) != sorted(set(powers)):
        raise ValueError("powers must be >= 1e3, strictly increasing, and at least two")
    if schedule is None:
        schedule = build_schedule(params, regime, options)
    h = schedule.h_blocks
    rates = np.zeros((len(powers), params.k_r))
    for plan, front in zip(schedule.blocks, block_fronts(schedule.blocks, params, seed, options)):
        symbols = _symbols_for(plan, seed)
        x = transmit_block(plan, front.beams, symbols, params.k_t)
        peak = float(np.abs(x).max())
        if peak == 0.0:
            continue
        low = lower_plan(plan)
        h_eq, weights, symbols = front.h_eq.tolist(), front.beams.weights.tolist(), symbols.tolist()
        y_clean = (front.h_eq @ x).tolist()
        for own, rx in enumerate(low.rx):
            own_gain, cached = _own_and_cached(own, low, h_eq[rx], weights, symbols)
            leak = y_clean[rx] - cached - own_gain * symbols[own]
            for n, p in enumerate(powers):
                alpha2 = p / peak**2
                sinr = alpha2 * abs(own_gain) ** 2 / (1.0 + alpha2 * abs(leak) ** 2)
                rates[n, rx] += math.log2(1.0 + sinr) / h
    logp = np.log2(np.asarray(powers, dtype=float))
    slopes = tuple(float(np.polyfit(logp, rates[:, j], 1)[0]) for j in range(params.k_r))
    return SlopeEstimate(per_receiver=slopes, mean=float(np.mean(slopes)), powers=tuple(powers))


def episode_to_jsonable(report: EpisodeReport) -> dict:
    """Summary plus one record per block, for the structured-text report."""
    return {
        "regime": report.regime,
        "schedule_regime": report.schedule_regime,
        "seed": report.seed,
        "strictness": report.strictness,
        "l_size": report.l_size,
        "noise_variance": report.noise_variance,
        "success_threshold": report.success_threshold,
        "h_blocks": report.h_blocks,
        "total_deliveries": report.total_deliveries,
        "total_delivered": report.total_delivered,
        "sum_dof": [report.sum_dof.numerator, report.sum_dof.denominator],
        "per_user_dof": [report.per_user_dof.numerator, report.per_user_dof.denominator],
        "all_passed": report.all_passed,
        "infeasible_blocks": report.infeasible_blocks,
        "max_decode_error": report.max_decode_error,
        "max_irs_residual": report.max_irs_residual,
        "params": {
            "k_t": report.params.k_t,
            "k_r": report.params.k_r,
            "n_files": report.params.n_files,
            "f_packets": report.params.f_packets,
            "mu_t": report.params.mu_t,
            "mu_r": report.params.mu_r,
            "q_elements": report.params.q_elements,
        },
        "blocks": [
            {
                "block": r.block_index,
                "n_nulls": r.n_nulls,
                "q_elements": r.q_elements,
                "irs_status": r.irs_status,
                "irs_residual": r.irs_residual,
                "max_decode_error": max((e for _, e in r.decode_errors), default=0.0),
                "delivered": r.delivered,
            }
            for r in report.blocks
        ],
    }
