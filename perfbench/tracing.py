"""The traced run: spans around calls into each module, a stage-by-stage
replay of every block through the public functions, the fidelity check
that ties the replay to ``simulate_block``, and the batched-LAPACK floors.

All timing lives here, in the benchmark; nothing inside the package is
instrumented. Calls made from inside the package (the design search inside
``build_schedule``, ``simulate_block`` inside ``run_episode``) are timed by
swapping the module attribute the caller looks up for a timing wrapper for
the duration of a ``with`` block.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

from irs_cache_dof import simulator
from irs_cache_dof.channel import equivalent_channel, sample_block_channels
from irs_cache_dof.irs import STATUS_EXACT, required_nulls, solve_irs
from irs_cache_dof.simulator import receiver_decode, run_episode, transmit_block
from irs_cache_dof.zf import beamformers_for_block

from workloads import SimSetup

clock = time.perf_counter

#: stages of one block, in pipeline order, with the metric each one feeds
STAGES = (
    ("sample", "channel.sample_us"),
    ("nulls", "irs.nulls_us"),
    ("solve", "irs.solve_us"),
    ("h_eq", "channel.h_eq_us"),
    ("beam", "zf.beam_us"),
    ("tx", "simulator.tx_us"),
    ("decode", "simulator.decode_us"),
)


class Spans:
    """Durations per span name, with self time: the part of a span not
    covered by the spans opened inside it."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = clock()
        try:
            yield
        finally:
            elapsed = clock() - start
            inner = self._children.pop()
            if self._children:
                self._children[-1] += elapsed
            self.samples[name].append(elapsed)
            self.self_s[name] += elapsed - inner

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    @contextmanager
    def wrapping(self, module, attr: str, name: str):
        """Time every call the package makes through ``module.attr``."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)


@contextmanager
def designs_traced(spans: Spans):
    """Time the design calls ``build_schedule`` makes as their own spans."""
    with spans.wrapping(simulator, "find_subset_partition", "combinatorics.design"), spans.wrapping(
        simulator, "enumerate_ordered_partitions", "combinatorics.design"
    ):
        yield


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class SimTrace:
    """Accumulates the traced numbers of one simulation workload over its
    episodes."""

    def __init__(self, setup: SimSetup) -> None:
        self.setup = setup
        self.stage_s: dict[str, float] = defaultdict(float)
        self.solve_s: list[float] = []
        self.square = 0
        self.exact = 0
        self.blocks = 0
        self.block_s: list[float] = []
        self.episode_self_s: list[float] = []
        self.overhead: list[float] = []
        self.mismatches: list[str] = []

    def episode(self, seed: int, untraced_s: float) -> None:
        """Trace one episode already run untraced in ``untraced_s`` seconds:
        once through ``run_episode`` with every ``simulate_block`` call
        timed, then block by block, stage by stage."""
        s = self.setup
        spans = Spans()
        with spans.wrapping(simulator, "simulate_block", "block"), spans.span("episode"):
            reference = run_episode(s.params, s.network.regime, seed, s.options, schedule=s.schedule)
        self.block_s.extend(spans.samples["block"])
        self.episode_self_s.append(spans.self_s["episode"])

        start = clock()
        replayed = [self._replay(plan, seed) for plan in s.schedule.blocks]
        self.overhead.append((clock() - start) / untraced_s)
        for record, (delivered, status, errors) in zip(reference.blocks, replayed):
            if (delivered, status, errors) != (record.delivered, record.irs_status, record.decode_errors):
                if len(self.mismatches) < 5:
                    self.mismatches.append(f"seed {seed} block {record.block_index}")

    def _replay(self, plan, seed: int):
        """``simulate_block`` (noise-free), one public call per stage."""
        params, threshold, t = self.setup.params, self.setup.options.success_threshold, self.stage_s
        t0 = clock()
        ch = sample_block_channels(params, plan.block_index, seed)
        t1 = clock()
        nulls = required_nulls(plan)
        t2 = clock()
        irs_cfg, info = solve_irs(ch, nulls)
        t3 = clock()
        h_eq = equivalent_channel(ch, irs_cfg)
        t4 = clock()
        beams = beamformers_for_block(plan, h_eq, params.mu_t)
        t5 = clock()
        # the simulator's own per-block symbol draw, so the replay is bit-exact
        symbols = simulator._symbols_for(plan, seed)
        y = h_eq @ transmit_block(plan, beams, symbols, params.k_t)
        t6 = clock()
        errors = []
        delivered = 0
        for dl in plan.deliveries:
            rx = dl.intended_rx
            _, residual = receiver_decode(y[rx - 1], rx, plan, h_eq, beams, symbols)
            errors.append((rx, residual))
            delivered += residual < threshold
        t7 = clock()
        for (stage, _), span in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6)):
            t[stage] += span
        self.solve_s.append(t3 - t2)
        self.square += info.n_links == info.q_elements
        self.exact += info.status == STATUS_EXACT
        self.blocks += 1
        return delivered, info.status, tuple(errors)

    def stage_us(self) -> dict[str, float]:
        """Mean microseconds per block for each stage."""
        return {metric: 1e6 * self.stage_s[stage] / self.blocks for stage, metric in STAGES}


# --------------------------------------------------------------------------
# LAPACK floors

#: bytes of matrices per batched solve; a stack fits comfortably in L2/L3
FLOOR_STACK_BYTES = 4_000_000
FLOOR_REPEATS = 7


def floor_us_per_solve(n: int, rng: np.random.Generator) -> float:
    """Median microseconds per system of one batched ``np.linalg.solve`` over
    a stack of random complex ``n`` x ``n`` systems."""
    batch = int(min(1024, max(8, FLOOR_STACK_BYTES // (16 * n * n))))
    shape = (batch, n, n)
    a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    b = rng.standard_normal((batch, n, 1)) + 0j
    times = []
    for _ in range(FLOOR_REPEATS):
        start = clock()
        np.linalg.solve(a, b)
        times.append(clock() - start)
    return 1e6 * median(times) / batch


def irs_shapes(setup: SimSetup) -> Counter:
    """Null-steering system sizes (links) over the schedule's blocks."""
    return Counter(len(required_nulls(plan)) for plan in setup.schedule.blocks)


def zf_shapes(setup: SimSetup) -> Counter:
    """Zero-forcing system sizes over the schedule's blocks: the joint lead
    system plus one single-subfile system per idle-receiver delivery. With
    ``mu_t = 1`` the weights are a binary selection and nothing is solved."""
    mu_t = setup.params.mu_t
    shapes: Counter = Counter()
    if mu_t == 1:
        return shapes
    for plan in setup.schedule.blocks:
        group = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
        shapes[group * mu_t] += 1
        shapes[mu_t] += len(plan.deliveries) - group
    return shapes


def floor_us_per_block(shapes: Counter, blocks: int, rng: np.random.Generator) -> float:
    """Batched-solve floor for the given system sizes, per block."""
    total = sum(count * floor_us_per_solve(n, rng) for n, count in sorted(shapes.items()) if n > 0)
    return total / blocks
