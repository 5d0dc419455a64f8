"""The four benchmark workloads, their set-up, their unit of work and the
exact correctness gate every unit passes through.

A unit is one seeded episode for the simulation workloads and one full
plan-and-verify pass for ``plan_verify``. Every call into the package that a
traced run times goes through a ``spans`` object (see ``tracing.Spans``);
the untraced run passes ``NO_SPANS``, whose spans do nothing.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

from irs_cache_dof.analytics import STRICT_Q, SUFFICIENT_Q, dof_theorem1, dof_theorem2, sweep
from irs_cache_dof.channel import SingularChannelError
from irs_cache_dof.cli import PRESETS
from irs_cache_dof.combinatorics import (
    enumerate_ordered_partitions,
    find_subset_partition,
    verify_subset_partition,
)
from irs_cache_dof.irs import required_nulls
from irs_cache_dof.params import SystemParams
from irs_cache_dof.placement import place_caches, split_library, verify_cache_budgets
from irs_cache_dof.scheduler import (
    DemandVector,
    Schedule,
    achieved_dof,
    demanded_for_schedule,
    verify_schedule_partition,
)
from irs_cache_dof.simulator import SimOptions, build_schedule, run_episode

#: set-up repetitions per run; set-up time is reported as their median
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Network:
    """One square network and how its schedule is built (``n_files = k``,
    one packet per file, so every receiver can ask for a distinct file)."""

    k: int
    mu_t: int
    mu_r: int
    q: int
    regime: str
    strictness: str

    def params(self) -> SystemParams:
        return SystemParams(self.k, self.k, self.k, 1, self.mu_t, self.mu_r, self.q)

    def options(self, demand: DemandVector) -> SimOptions:
        return SimOptions(strictness=self.strictness, demand=demand)


SIM_NETWORKS = {
    # Theorem 1, L = 11 on Q = 132: every block is one square 132x132 solve
    "irs_square": Network(14, 1, 2, 132, "thm1", STRICT_Q),
    # Theorem 1, L = 7: 56 links on 60 elements, the min-norm lstsq path
    "irs_minnorm": Network(10, 1, 1, 60, "thm1", STRICT_Q),
    # Theorem 2 ordered, L = 2: tiny systems, per-call Python overhead
    "coop_small": Network(6, 2, 1, 12, "thm2-ordered", SUFFICIENT_Q),
}

PLAN_NETWORKS = (
    Network(12, 1, 1, 80, "thm1", STRICT_Q),
    Network(8, 2, 3, 24, "thm2-partition", SUFFICIENT_Q),
    SIM_NETWORKS["coop_small"],
)

#: the (m, mu_t) designs of the combinatorial-design acceptance criterion
DESIGN_SET = tuple(
    (m, mu_t)
    for m in range(1, 9)
    for mu_t in range(2, 9)
    if m * mu_t <= 8 and not (mu_t > 2 and m > 2)
)

SWEEP_PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

WORKLOADS = (*SIM_NETWORKS, "plan_verify")


class _NoSpans:
    def span(self, name: str):
        return nullcontext()


NO_SPANS = _NoSpans()


@dataclass
class Tally:
    """Attempted and failed operations, plus the first few failure notes."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.notes) < 10:
                self.notes.append(what)


class Seeds:
    """Everything a workload draws from its seed: one distinct-file demand
    permutation per network, then the episode seeds, in a fixed order."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def demand(self, k_r: int) -> DemandVector:
        files = list(range(1, k_r + 1))
        self._rng.shuffle(files)
        return DemandVector(d=tuple(files))

    def episode_seed(self) -> int:
        return self._rng.getrandbits(32)


def closed_form(params: SystemParams, l_size: int) -> Fraction:
    point = dof_theorem1(params, l_size) if params.mu_t == 1 else dof_theorem2(params, l_size)
    return point.sum_dof


# --------------------------------------------------------------------------
# simulation workloads


@dataclass
class SimSetup:
    network: Network
    params: SystemParams
    options: SimOptions
    schedule: Schedule
    build_s: list[float]

    @property
    def deliveries(self) -> int:
        return sum(len(b.deliveries) for b in self.schedule.blocks)


def sim_setup(name: str, seeds: Seeds, spans=NO_SPANS) -> SimSetup:
    """Design and schedule, built ``SETUP_REPEATS`` times; the last build is
    the one the episodes run on."""
    network = SIM_NETWORKS[name]
    params = network.params()
    options = network.options(seeds.demand(params.k_r))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with spans.span("scheduler.build"):
            schedule = build_schedule(params, network.regime, options)
        times.append(time.perf_counter() - start)
    return SimSetup(network, params, options, schedule, times)


@dataclass
class EpisodeOutcome:
    """What a run keeps of one episode; the report itself is dropped, so
    memory does not grow with the number of episodes."""

    completed: bool
    blocks: int
    deliveries: int
    margin_log10: float | None


def sim_episode(setup: SimSetup, seed: int, tally: Tally) -> EpisodeOutcome:
    """One episode on the prebuilt schedule, gated exactly: every delivery
    decodes, and the rate equals the closed form as a rational. A singular
    solve aborts the episode and fails all its deliveries."""
    deliveries = setup.deliveries
    try:
        ep = run_episode(setup.params, setup.network.regime, seed, setup.options, schedule=setup.schedule)
    except SingularChannelError as exc:
        tally.check(False, f"seed {seed}: {exc}", weight=deliveries + 1)
        return EpisodeOutcome(False, setup.schedule.h_blocks, deliveries, None)
    tally.attempted += ep.total_deliveries
    tally.failed += ep.total_deliveries - ep.total_delivered
    expected = closed_form(setup.params, ep.l_size)
    tally.check(
        ep.all_passed and ep.sum_dof == expected,
        f"seed {seed}: sum_dof {ep.sum_dof} vs closed form {expected}, all_passed={ep.all_passed}",
    )
    return EpisodeOutcome(True, ep.h_blocks, ep.total_deliveries, decode_margin_log10(ep))


def decode_margin_log10(ep) -> float:
    """log10(threshold / worst decode error); an exact decode counts as the
    smallest positive double."""
    worst = max(ep.max_decode_error, math.ulp(0.0))
    return math.log10(ep.success_threshold / worst)


# --------------------------------------------------------------------------
# plan_verify


@dataclass
class PassOutcome:
    blocks: int
    deliveries: int
    subfiles: int
    designs_attempted: int
    designs_found: int
    points: int


def plan_verify_pass(seed: int, tally: Tally, spans=NO_SPANS) -> PassOutcome:
    """Designs; then, for each plan network, the schedule, placement,
    refinement, exact cover and null sets; then every figure sweep. The
    demand permutations come from ``seed``."""
    seeds = Seeds(seed)
    found = 0
    for m, mu_t in DESIGN_SET:
        with spans.span("combinatorics.design"):
            system = find_subset_partition(m, mu_t)
        ok = system is not None and verify_subset_partition(system).ok
        found += ok
        tally.check(ok, f"design ({m}, {mu_t}) not found or invalid")
        with spans.span("combinatorics.design"):
            ordered = enumerate_ordered_partitions(m, mu_t)
        expected = math.factorial(m * mu_t) // math.factorial(mu_t) ** m
        found += ordered.count == expected
        tally.check(ordered.count == expected, f"ordered ({m}, {mu_t}): {ordered.count} != {expected}")

    blocks = deliveries = subfiles = 0
    for network in PLAN_NETWORKS:
        params = network.params()
        options = network.options(seeds.demand(params.k_r))
        with spans.span("scheduler.build"):
            schedule = build_schedule(params, network.regime, options)
        with spans.span("placement.split"):
            universe = split_library(params, mode=schedule.tx_mode)
        with spans.span("placement.place"):
            budgets = verify_cache_budgets(place_caches(universe), params)
        tally.check(budgets.ok, f"{network}: cache budgets {budgets.messages[:1]}")
        with spans.span("scheduler.demanded"):
            demanded = demanded_for_schedule(universe, schedule)
        with spans.span("scheduler.cover"):
            cover = verify_schedule_partition(schedule, demanded)
        tally.check(cover.ok, f"{network}: {cover.summary()}")
        with spans.span("irs.nulls"):
            most_links = max(len(required_nulls(plan)) for plan in schedule.blocks)
        tally.check(most_links <= params.q_elements, f"{network}: {most_links} links > Q={params.q_elements}")
        rate = achieved_dof(schedule)
        tally.check(
            rate == closed_form(params, schedule.l_size),
            f"{network}: nominal rate {rate} != closed form",
        )
        blocks += schedule.h_blocks
        deliveries += sum(len(b.deliveries) for b in schedule.blocks)
        subfiles += len(universe.subfiles)

    points = 0
    for name in SWEEP_PRESETS:
        preset = PRESETS[name]
        base = SystemParams(
            preset["k_t"], preset["k_r"], preset["k_r"], 1,
            preset["mu_t"], preset["mu_r"], preset.get("q_elements", 0),
        )
        with spans.span("analytics.sweep"):
            swept = sweep(preset["axis"], preset["values"], base)
        tally.check(len(swept) == 3 * len(preset["values"]), f"sweep {name}: {len(swept)} points")
        points += len(swept)
    return PassOutcome(blocks, deliveries, subfiles, 2 * len(DESIGN_SET), found, points)
