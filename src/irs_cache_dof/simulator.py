"""End-to-end block verification: synthesize transmit signals, propagate
through the equivalent channel, cancel with receiver caches, and check that
every intended symbol comes out clean. Episodes aggregate block outcomes
into an exact delivered-per-block rate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .analytics import STRICT_Q, as_strictness, max_feasible_L
from .channel import SingularChannelError, as_seed, equivalent_channels, fill_block_streams, sample_channels
from .combinatorics import enumerate_ordered_partitions, find_subset_partition
from .irs import STATUS_INFEASIBLE, solve_irs_stack, solve_status
from .lowering import PlanStack, lower
from .params import ParameterError, SystemParams, as_integer, slot_init
from .scheduler import (
    BlockPlan,
    DemandVector,
    Design,
    Schedule,
    SchedulingError,
    achieved_dof,
    make_schedule,
    worst_case_demand,
)
from .zf import BeamformerSet, zero_forcing_weights

IRS_DISABLED = "disabled"


class ScheduleConsistencyError(RuntimeError):
    """Transmit or decode inputs do not fit the block: beamformers solved
    for other deliveries or serving groups, a symbol count that differs, or
    a decoding receiver the block delivers nothing to."""


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

    def __post_init__(self) -> None:
        # a bool is an int to math.isfinite, but no variance or threshold
        variance, threshold = self.noise_variance, self.success_threshold
        if isinstance(variance, bool) or not (math.isfinite(variance) and variance >= 0.0):
            raise ParameterError(f"noise variance must be finite and nonnegative, got {variance}")
        if isinstance(threshold, bool) or not (math.isfinite(threshold) and threshold > 0.0):
            raise ParameterError(f"success threshold must be finite and positive, got {threshold}")
        if not isinstance(self.disable_irs, bool):
            raise ParameterError(f"disable_irs must be a bool, got {self.disable_irs!r}")
        as_strictness(self.strictness)
        if self.l_size is not None:
            object.__setattr__(self, "l_size", as_integer(self.l_size, "l_size"))


def _draw_symbols(blocks: Sequence[int], n: int, seed: int) -> np.ndarray:
    """``n`` unit-power symbols for each of ``blocks``, one per delivery in
    delivery order: every block draws its phases from its stream 1 into one
    buffer, and one ``exp`` turns them all into symbols. The phases are
    ``block_rng(seed, block, 1).uniform(0, 2 pi, n)``, which numpy forms as
    ``0 + 2 pi * u`` from the same uniforms ``u``."""
    phases = fill_block_streams(np.empty((len(blocks), n)), seed, blocks, 1, "random")
    phases *= 2.0 * math.pi
    return np.exp(1j * phases)


def _symbols_for(plan: BlockPlan, seed: int) -> np.ndarray:
    """One block's symbols: the one-block case of :func:`_draw_symbols`."""
    return _draw_symbols([plan.block_index], len(plan.deliveries), seed)[0]


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b``, formed in float arithmetic as CPython multiplies complex
    numbers; numpy's complex loop may round the last bit differently."""
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _transmit(stack: PlanStack, weights: np.ndarray, symbols: np.ndarray, k_t: int) -> np.ndarray:
    """The ``(S, k_t)`` transmit signals of a stack of blocks, given their
    ``(S, D, G)`` weights and ``(S, D)`` symbols: each transmitter sends the
    sum of weight times symbol over the deliveries it serves, added in
    (delivery, serving transmitter) order; everyone else stays silent."""
    x = np.zeros((len(weights), k_t), dtype=complex)
    blocks = np.arange(len(x))[:, None, None]
    np.add.at(x, (blocks, stack.serving_tx), _cmul(weights, symbols[:, :, None]))
    return x


def _gains_and_cached(
    stack: PlanStack, h_eq: np.ndarray, weights: np.ndarray, symbols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For every delivery of a stack of blocks, ``(S, D)`` each: its gain
    at its receiver, and the summed contributions of the deliveries whose
    subfiles that receiver caches (which it subtracts).

    A gain adds its serving transmitters' terms from 0 in group order, and
    a cached sum adds its deliveries' contributions in delivery order, as
    the scalar sums ``sum(...)`` and ``+=`` would."""
    n, d = len(h_eq), stack.n_deliveries
    blocks = np.arange(n)[:, None, None, None]
    # h[s, a, c, p]: the channel from delivery c's p-th transmitter to delivery a's receiver
    h = h_eq[blocks, stack.delivery_rx[:, :, None, None], stack.serving_tx[:, None]]
    terms = _cmul(h, weights[:, None])
    gains = np.zeros((n, d, d), dtype=complex)
    for p in range(stack.group):
        gains = gains + terms[..., p]
    # a running sum from 0 over every delivery, in order: one the receiver
    # does not cache adds an exact 0, which leaves a sum started at +0 as it is
    running = np.zeros((n, d, d + 1), dtype=complex)
    running[..., 1:] = np.where(stack.cache_mask, _cmul(gains, symbols[:, None, :]), 0)
    cached = np.add.accumulate(running, axis=2)[..., -1]
    return np.diagonal(gains, axis1=1, axis2=2), cached


def _decode(y: np.ndarray, own: np.ndarray, cached: np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and residuals of receivers that heard ``y``: subtract the
    cached contributions, divide by the own gain, and measure the distance
    from the sent symbol. A vanishing own gain decodes nothing: NaN, with
    residual infinity."""
    with np.errstate(all="ignore"):
        estimate = (y - cached) / own
        error = estimate - symbols
    lost = np.hypot(own.real, own.imag) < 1e-300
    return np.where(lost, complex("nan"), estimate), np.where(lost, np.inf, np.hypot(error.real, error.imag))


def _one_block(plan: BlockPlan, beams: BeamformerSet, symbols: np.ndarray, nodes: tuple) -> PlanStack:
    """The plan as a stack of one, once its nodes are checked to fit
    ``nodes`` ``(k_t, k_r)``, and ``beams`` and ``symbols`` to fit it."""
    stack = lower([plan], nodes)
    if beams.deliveries is not plan.deliveries and beams.deliveries != plan.deliveries:
        raise ScheduleConsistencyError(
            f"block {stack.blocks[0]}: beamformers are for deliveries {beams.deliveries}, not this block's serving groups"
        )
    shape = (stack.n_deliveries, stack.group)
    if beams.weights.shape != shape or len(symbols) != shape[0]:
        raise ScheduleConsistencyError(
            f"block {stack.blocks[0]}: need {shape} weights and {shape[0]} symbols, "
            f"got {beams.weights.shape} and {len(symbols)}"
        )
    return stack


def transmit_block(plan: BlockPlan, beams: BeamformerSet, symbols: np.ndarray, k_t: int) -> np.ndarray:
    """Per-transmitter signals: each transmitter sends the weighted sum of
    the scheduled symbols it carries; everyone else stays silent. The
    one-block case of the stacked back end; a transmitter past ``k_t``
    raises a ValueError."""
    stack = _one_block(plan, beams, symbols, (k_t, math.inf))
    return _transmit(stack, beams.weights[None], symbols[None], k_t)[0]


def receiver_decode(
    y: complex,
    rx: int,
    plan: BlockPlan,
    h_eq: np.ndarray,
    beams: BeamformerSet,
    symbols: np.ndarray,
) -> tuple[complex, float]:
    """Cache-subtract and normalize to estimate the intended symbol.

    The receiver knows channels, coefficients, and every cached scheduled
    subfile (those whose caching receivers include it), so it subtracts
    their exact contributions, divides by its own aggregate gain, and is
    left with its symbol plus whatever interference survived. Returns the
    estimate and its distance from the sent symbol. The one-block case of
    the stacked back end; a node past ``h_eq``'s raises a ValueError.
    """
    stack = _one_block(plan, beams, symbols, h_eq.shape[::-1])
    receivers = stack.delivery_rx[0].tolist()
    if rx - 1 not in receivers:
        raise ScheduleConsistencyError(f"block {stack.blocks[0]}: receiver {rx} has no delivery in this block")
    slot = [receivers.index(rx - 1)]
    own, cached = _gains_and_cached(stack, h_eq[None], beams.weights[None], symbols[None])
    estimate, residual = _decode(np.array([y], dtype=complex), own[0, slot], cached[0, slot], symbols[slot])
    return complex(estimate[0]), float(residual[0])


@slot_init
@dataclass(frozen=True, slots=True)
class BlockRecord:
    block_index: int
    n_nulls: int
    q_elements: int
    irs_status: str
    irs_residual: float
    channel_scale: float
    #: (receiver, residual) pairs, one per delivery in delivery order
    decode_errors: tuple[tuple[int, float], ...]
    delivered: int


@dataclass(frozen=True)
class EpisodeReport:
    params: SystemParams
    regime: Design
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


def build_schedule(params: SystemParams, regime: str | Design, options: SimOptions) -> Schedule:
    """Construct the schedule an episode will run with the design named
    ``regime``: full activity when the null count covers all receivers at
    once, partial activity otherwise."""
    design = Design(regime)
    design.check(params)  # before building a transmitter design, which can be large
    system = None
    try:
        if design is Design.THM2_PARTITION:
            system = find_subset_partition(params.m_groups, params.mu_t)
        elif design is Design.THM2_ORDERED:
            system = enumerate_ordered_partitions(params.m_groups, params.mu_t)
    except ValueError as exc:  # the design is past its size guard
        raise SchedulingError(str(exc)) from exc
    return make_schedule(params, _demand(params, options), _l_size(params, options), system)


def _demand(params: SystemParams, options: SimOptions) -> DemandVector:
    """The demand an episode's schedule serves: ``options.demand``, or
    else the worst case, every receiver asking for a different file."""
    return options.demand if options.demand is not None else worst_case_demand(params)


def _l_size(params: SystemParams, options: SimOptions) -> int:
    """The null count ``L`` of an episode's schedule: ``options.l_size``,
    or else the largest the elements support under ``options.strictness``,
    cut to ``K_R - mu_r - mu_t`` as :func:`make_schedule` cuts it."""
    l_size = options.l_size
    if l_size is None:
        l_size = max_feasible_L(params.q_elements, params, options.strictness)
    return min(l_size, params.k_r - params.mu_r - params.mu_t)


def _schedule_for(params: SystemParams, design: Design, options: SimOptions, schedule: Schedule | None) -> Schedule:
    """A prebuilt ``schedule``, once checked to have blocks and to be for
    ``params``, ``design``, and the null count and demand ``options``
    derive; without one, a new build."""
    if schedule is None:
        return build_schedule(params, design, options)
    if not schedule.blocks:
        raise SchedulingError("the schedule has no blocks")
    if schedule.params != params or schedule.design is not design:
        raise SchedulingError(
            f"the schedule is for {schedule.params} with regime {schedule.design.value!r}, "
            f"not for {params} with regime {design.value!r}"
        )
    l_size = _l_size(params, options)
    if schedule.l_size != l_size:
        raise SchedulingError(
            f"the schedule has l_size = {schedule.l_size}, but the options "
            f"(l_size = {options.l_size}, strictness {options.strictness!r}) give l_size = {l_size}"
        )
    demand = _demand(params, options)
    if schedule.demand != demand:
        raise SchedulingError(f"the schedule serves demand {schedule.demand.d}, but the options give demand {demand.d}")
    return schedule


#: bytes of stacked channel draws and systems one front piece of blocks may
#: hold, and of stacked back values one chunk may hold; a block's share of
#: each is estimated by :func:`_block_bytes` and :func:`_back_bytes`
FRONT_CHUNK_BYTES = 512 * 1024


def _block_bytes(params: SystemParams) -> int:
    """Bytes one block adds to a front piece: its channel draw and
    equivalent channel, a square null-steering system, and its joint and
    idle zero-forcing systems."""
    k_t, k_r, q, mu_t = params.k_t, params.k_r, params.q_elements, params.mu_t
    entries = k_r * k_t + q * k_t + k_r * q + q * q + k_r * k_t
    entries += ((params.mu_r + mu_t) * mu_t) ** 2 + k_r * mu_t**2
    return 16 * entries


def _back_bytes(params: SystemParams) -> int:
    """Bytes one block adds to a chunk's back: its equivalent channel (held
    by its front piece, then joined), the channel entries, terms, gains and
    contributions of every pair of deliveries (at most one per receiver),
    and its signals."""
    k_t, k_r = params.k_t, params.k_r
    entries = 2 * k_r * k_t + k_r * k_r * (3 * params.mu_t + 3) + 2 * (k_t + k_r)
    return 16 * entries


class Chunk(NamedTuple):
    """A run of consecutive blocks of a schedule, as columns with a leading
    block axis: their rows of the lowered stack (with their block numbers),
    each block's channel scale and surface residual ``(S,)``, and its
    symbols ``(S, D)``, transmit signals ``(S, k_t)``, received signals
    ``(S, k_r)`` (noise-free unless the options give a noise variance), and
    each delivery's own gain and cached sum at its receiver ``(S, D)``."""

    rows: PlanStack
    scales: np.ndarray
    irs_residuals: np.ndarray
    symbols: np.ndarray
    x: np.ndarray
    y: np.ndarray
    own: np.ndarray
    cached: np.ndarray


def _irs_status(stack: PlanStack, params: SystemParams, options: SimOptions) -> str:
    """The surface-solve status every block lowered to ``stack`` shares."""
    return IRS_DISABLED if options.disable_irs else solve_status(stack.null_pairs.shape[2], params.q_elements)


def _front(stack: PlanStack, params: SystemParams, seed: int, options: SimOptions) -> tuple[np.ndarray, ...]:
    """Sample the channels of the blocks of ``stack``, steer the surface
    onto each block's null links (or leave it off), and form the equivalent
    channels and the beamformers, one stacked call per stage: each block's
    channel scale, surface residual, ``h_eq`` and zero-forcing weights."""
    ch = sample_channels(params, stack.blocks, seed)
    # a surface that is off cuts no links: its coefficients and residuals stay 0
    q, residuals = solve_irs_stack(ch, stack.null_pairs[..., : 0 if options.disable_irs else None])
    h_eq = equivalent_channels(ch, q)
    try:
        weights = zero_forcing_weights(stack, h_eq, params.mu_t)
    except SingularChannelError as exc:
        raise SingularChannelError(f"seed {seed}, {exc}") from exc
    return ch.scale, residuals, h_eq, weights


def _chunks(stack: PlanStack, params: SystemParams, seed: int, options: SimOptions) -> Iterator[Chunk]:
    """Every block of ``stack``, in order, in chunks of the back's size. Each
    chunk runs its front in pieces of the front's size, which is smaller
    where a block's systems are large (one block with a 132-element
    surface), then draws the symbols, transmits, propagates (with each
    block's stream-2 noise, if any) and cache-subtracts for the whole chunk,
    one stacked call per stage. With numpy on OpenBLAS every number equals
    the one-block computation's bit for bit; a singular solve raises the
    error the block-by-block order meets first."""
    step = max(1, FRONT_CHUNK_BYTES // _back_bytes(params))
    piece = max(1, FRONT_CHUNK_BYTES // _block_bytes(params))
    for start in range(0, len(stack), step):
        rows = stack[start : start + step]
        fronts = []
        for at in range(0, len(rows), piece):
            part = rows[at : at + piece]
            try:
                fronts.append(_front(part, params, seed, options))
            except SingularChannelError:
                # the stages ran across blocks: rerun them block by block, so
                # the error raised is that of the first block (and stage) to fail
                for one in range(len(part)):
                    _front(part[one : one + 1], params, seed, options)
                raise
        scales, irs_residuals, h_eq, weights = (np.concatenate(column) for column in zip(*fronts))
        symbols = _draw_symbols(rows.blocks, rows.n_deliveries, seed)
        x = _transmit(rows, weights, symbols, params.k_t)
        y = np.matmul(h_eq, x[:, :, None])[:, :, 0]
        if options.noise_variance > 0.0:
            # unit-variance complex noise: the real parts, then the imaginary parts
            draws = fill_block_streams(np.empty((len(rows), 2, params.k_r)), seed, rows.blocks, 2)
            y = y + (draws[:, 0] + 1j * draws[:, 1]) * math.sqrt(options.noise_variance / 2.0)
        own, cached = _gains_and_cached(rows, h_eq, weights, symbols)
        yield Chunk(rows, scales, irs_residuals, symbols, x, y, own, cached)


def _decode_errors(chunk: Chunk) -> np.ndarray:
    """Each delivery's decode residual ``(S, D)``, in delivery order, once
    the receivers hear the chunk's signals."""
    rx = chunk.rows.delivery_rx.astype(np.intp)
    return _decode(np.take_along_axis(chunk.y, rx, axis=1), chunk.own, chunk.cached, chunk.symbols)[1]


def _records(
    chunk: Chunk, errors: np.ndarray, status: str, params: SystemParams, options: SimOptions
) -> Iterator[BlockRecord]:
    """Each block's record from the chunk's columns and decode residuals:
    only here is each receiver paired with its residual."""
    n_nulls = chunk.rows.null_pairs.shape[2]
    delivered = np.count_nonzero(errors < options.success_threshold, axis=1)
    # in the stack's own dtype (int8 up to index 127) receiver 128 would wrap
    columns = (chunk.rows.delivery_rx.astype(np.intp) + 1, errors, chunk.irs_residuals, chunk.scales, delivered)
    for block, receivers, residuals, irs_residual, scale, count in zip(chunk.rows.blocks, *(c.tolist() for c in columns)):
        yield BlockRecord(
            block_index=block,
            n_nulls=n_nulls,
            q_elements=params.q_elements,
            irs_status=status,
            irs_residual=irs_residual,
            channel_scale=scale,
            decode_errors=tuple(zip(receivers, residuals)),
            delivered=count,
        )


def simulate_block(
    plan: BlockPlan, params: SystemParams, seed: int, options: SimOptions, record: BlockRecord | None = None
) -> BlockRecord:
    """Run one block end to end and measure every intended residual. An
    episode passes in the ``record`` :func:`_records` built for the block,
    which comes back as it is."""
    if record is None:
        chunk = next(_chunks(lower([plan], (params.k_t, params.k_r)), params, seed, options))
        (record,) = _records(chunk, _decode_errors(chunk), _irs_status(chunk.rows, params, options), params, options)
    return record


def run_episode(
    params: SystemParams,
    regime: str | Design,
    seed: int,
    options: SimOptions = SimOptions(),
    schedule: Schedule | None = None,
) -> EpisodeReport:
    """Place, schedule, and simulate a whole delivery horizon.

    A prebuilt ``schedule`` (from :func:`build_schedule` with the same
    parameters, regime and options) skips reconstruction so many seeds can
    share one schedule. The achieved rate counts only deliveries whose
    residual beat the threshold, as an exact rational over the block count.
    The report keeps the seed as a Python int.
    """
    seed = as_seed(seed)
    design = Design(regime)
    schedule = _schedule_for(params, design, options, schedule)
    stack, plans = schedule.lowered, iter(schedule.blocks)
    status = _irs_status(stack, params, options)
    records, total_delivered, max_decode_error, max_irs_residual = [], 0, 0.0, 0.0
    for chunk in _chunks(stack, params, seed, options):
        errors = _decode_errors(chunk)
        # one simulate_block call per block, looked up by name (perfbench's traced run wraps it),
        # is an episode's only read of its plans
        for record in _records(chunk, errors, status, params, options):
            records.append(simulate_block(next(plans), params, seed, options, record))
        total_delivered += int(np.count_nonzero(errors < options.success_threshold))
        max_decode_error = max(max_decode_error, float(errors.max()))
        max_irs_residual = max(max_irs_residual, float(chunk.irs_residuals.max()))
    total_deliveries = len(stack) * stack.n_deliveries
    sum_dof = achieved_dof(schedule, total_delivered)
    return EpisodeReport(
        params=params,
        regime=design,
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
        infeasible_blocks=len(stack) if status == STATUS_INFEASIBLE else 0,
        max_decode_error=max_decode_error,
        max_irs_residual=max_irs_residual,
    )


@dataclass(frozen=True)
class SlopeEstimate:
    """Finite-power rate-growth estimate of the per-user rate exponent."""

    per_receiver: tuple[float, ...]
    mean: float
    powers: tuple[float, ...]


def estimate_dof_slope(
    params: SystemParams,
    regime: str | Design,
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
    finite = all(math.isfinite(p) and p >= 1e3 for p in powers)
    if len(powers) < 2 or not finite or list(powers) != sorted(set(powers)):
        raise ValueError("powers must be finite, >= 1e3, strictly increasing, and at least two")
    schedule = _schedule_for(params, Design(regime), options, schedule)
    h = schedule.h_blocks
    rates = np.zeros((len(powers), params.k_r))
    # the rates count unit noise analytically, so the signals stay noise-free
    for chunk in _chunks(schedule.lowered, params, seed, replace(options, noise_variance=0.0)):
        rx = chunk.rows.delivery_rx.astype(np.intp)
        y = np.take_along_axis(chunk.y, rx, axis=1)
        peaks = [float(np.abs(x).max()) for x in chunk.x]
        values = (rx.tolist(), y.tolist(), chunk.own.tolist(), chunk.cached.tolist(), chunk.symbols.tolist())
        for peak, *block in zip(peaks, *values):
            if peak == 0.0:
                continue
            for j, y_rx, own_gain, cached, symbol in zip(*block):
                leak = y_rx - cached - own_gain * symbol
                for n, p in enumerate(powers):
                    alpha2 = p / peak**2
                    sinr = alpha2 * abs(own_gain) ** 2 / (1.0 + alpha2 * abs(leak) ** 2)
                    rates[n, j] += math.log2(1.0 + sinr) / h
    logp = np.log2(np.asarray(powers, dtype=float))
    slopes = tuple(float(np.polyfit(logp, rates[:, j], 1)[0]) for j in range(params.k_r))
    return SlopeEstimate(per_receiver=slopes, mean=float(np.mean(slopes)), powers=tuple(powers))


def episode_to_jsonable(report: EpisodeReport) -> dict:
    """Summary plus one record per block, for the structured-text report."""
    return {
        "regime": report.regime.value,
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
        "params": asdict(report.params),
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
