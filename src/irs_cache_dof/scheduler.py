"""Block-by-block delivery schedules for both cache regimes.

A schedule assigns every demanded subfile to exactly one communication
block. Within a block, one serving transmitter group carries the subfiles
of a lead receiver, of the receivers whose caches cover them (``r_set``),
and of the zero-forcing targets (``zf_rxs``); each remaining active
receiver is served by its own disjoint group, with the surface cutting the
cross-links those groups would otherwise create. Serving groups rotate
across blocks by cyclic index shifts so that, over the whole horizon,
every demanded subfile appears exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .combinatorics import OrderedPartitionSystem, Subset, SubsetPartitionSystem, cyclic_shift, verify_subset_partition
from .params import SystemParams
from .placement import ORDERED_MODE, SUBSET_MODE, SubfileId, SubfileUniverse, refine_subfiles


class SchedulingError(ValueError):
    """The requested schedule violates a structural precondition."""


@dataclass(frozen=True)
class DemandVector:
    """Requested file per receiver, ``d[j-1]`` for receiver ``j``."""

    d: tuple[int, ...]

    def file_for(self, rx: int) -> int:
        return self.d[rx - 1]


def worst_case_demand(params: SystemParams) -> DemandVector:
    """All receivers request distinct files (receiver ``j`` asks for file ``j``)."""
    return DemandVector(d=tuple(range(1, params.k_r + 1)))


@dataclass(frozen=True)
class Delivery:
    subfile: SubfileId
    intended_rx: int
    serving_txs: Subset


@dataclass(frozen=True)
class BlockPlan:
    """One communication block: who sends what to whom, and which
    cross-links the surface must cut.

    ``cached_rxs``/``zf_rxs`` are the block's common receiver groups (side
    information and zero-forcing targets); ``idle_rxs`` are the active
    receivers outside them, each served by its own transmitter group.
    Receivers not in ``active_rxs`` are untouched this block.

    ``lowering`` caches the plan's integer form; it stays ``None`` until
    the first block stage asks :func:`lowering.lower_plan` for it.
    """

    block_index: int
    deliveries: tuple[Delivery, ...]
    active_rxs: Subset
    lead_rx: int
    cached_rxs: Subset
    zf_rxs: Subset
    idle_rxs: Subset
    lowering: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def null_links(self) -> frozenset[tuple[int, int]]:
        """Cross-links the block's topology eliminates.

        Every serving group keeps its links only to the receivers it is
        allowed to reach (its own receiver plus the cached and zero-forcing
        groups); its links to the remaining active receivers are cut.
        Transmitters not serving this block stay fully connected and
        contribute no pairs.
        """
        links: set[tuple[int, int]] = set()
        for serving, allowed in self.serving_groups():
            for i in serving:
                links.update((i, r) for r in self.active_rxs if r not in allowed)
        return frozenset(links)

    def serving_groups(self) -> list[tuple[Subset, frozenset[int]]]:
        """Each distinct serving group with the receivers it may reach.

        The lead group may reach the lead, cached, and zero-forcing
        receivers; the group serving idle receiver ``j`` may reach
        ``{j}``, the cached, and the zero-forcing receivers. Everything
        else among the active receivers must be cut by the surface.
        """
        base = set(self.cached_rxs) | set(self.zf_rxs)
        groups: list[tuple[Subset, frozenset[int]]] = []
        lead_serving = self.deliveries[0].serving_txs
        groups.append((lead_serving, frozenset(base | {self.lead_rx})))
        for dl in self.deliveries:
            if dl.intended_rx in self.idle_rxs:
                groups.append((dl.serving_txs, frozenset(base | {dl.intended_rx})))
        return groups


@dataclass(frozen=True)
class Schedule:
    regime: str
    tx_mode: str
    params: SystemParams
    demand: DemandVector
    l_size: int
    blocks: tuple[BlockPlan, ...]

    @property
    def h_blocks(self) -> int:
        return len(self.blocks)


def demanded_subfiles(universe: SubfileUniverse, demand: DemandVector) -> frozenset[tuple[SubfileId, int]]:
    """Every (subfile, intended receiver) pair the transmitters must deliver:
    receiver ``j`` needs each subfile of its file whose caching receivers
    exclude ``j``."""
    by_file: dict[int, list[SubfileId]] = {}
    for sub in universe.subfiles:
        by_file.setdefault(sub.file, []).append(sub)
    pairs = []
    for j, file in enumerate(demand.d, start=1):
        pairs.extend((sub, j) for sub in by_file[file] if j not in sub.rx_set)
    return frozenset(pairs)


def demanded_for_schedule(universe: SubfileUniverse, schedule: Schedule) -> frozenset[tuple[SubfileId, int]]:
    """The refined demanded set matching a schedule (zero-forcing split for
    cooperative transmission, surface split for partial-activity blocks)."""
    base = demanded_subfiles(universe, schedule.demand)
    t_split = universe.params.mu_t >= 2
    p = schedule.params
    partial = p.mu_r + p.mu_t + schedule.l_size < p.k_r
    l_size = schedule.l_size if partial else 0
    if not t_split and l_size == 0:
        return base
    refined, _ = refine_subfiles(sorted(base), universe.params, t_split, l_size)
    return frozenset(refined)


class _SingleTxRotator:
    """mu_t = 1: slots are single transmitters, rotated cyclically."""

    regimes = ("T1-I", "T1-II")
    tx_mode = SUBSET_MODE

    def __init__(self, k_t: int):
        self.k_t = k_t
        self.slots = k_t

    def coords(self):
        for k2 in range(1, self.k_t + 1):
            yield (k2,)

    def serving(self, slot, coords):
        (k2,) = coords
        tx = cyclic_shift(slot, k2 - 1, self.k_t)
        return (tx,), (tx,)


class _ParallelClassRotator:
    """mu_t >= 2 with a parallel-class design: slot ``s`` starts at position
    ``s`` of class 1; the position rotates cyclically and the class advances,
    so each slot visits every subset exactly once while the groups inside a
    block always come from one class (hence stay disjoint)."""

    regimes = ("T2-IA", "T2-II")
    tx_mode = SUBSET_MODE

    def __init__(self, system: SubsetPartitionSystem):
        self.system = system
        self.slots = system.m

    def coords(self):
        for k3 in range(1, len(self.system.classes) + 1):
            for k2 in range(1, self.system.m + 1):
                yield (k2, k3)

    def serving(self, slot, coords):
        k2, k3 = coords
        kappa = cyclic_shift(slot, k2 - 1, self.system.m) + (k3 - 1) * self.system.m
        subset = self.system.subset_by_number(kappa)
        return subset, subset


class _OrderedPartitionRotator:
    """mu_t >= 2 without a parallel-class design: slots are ordered
    arrangements whose first group serves. The lead-group coordinate rotates
    cyclically (keeping the block's groups disjoint), while the arrangement
    remainder and the unordered-partition window advance independently."""

    regimes = ("T2-IB", "T2-II")
    tx_mode = ORDERED_MODE

    def __init__(self, system: OrderedPartitionSystem):
        self.system = system
        self.m = self.slots = system.m
        self.sub_count = math.factorial(self.m - 1)

    def coords(self):
        for k4 in range(1, self.system.num_windows + 1):
            for k3 in range(1, self.sub_count + 1):
                for k2 in range(1, self.m + 1):
                    yield (k2, k3, k4)

    def serving(self, slot, coords):
        k2, k3, k4 = coords
        lead = cyclic_shift(slot, k2 - 1, self.m)
        kappa = self.system.number_from_coords(window=k4, lead=lead, remainder=k3)
        return kappa, self.system.partition_by_number(kappa)[0]


def _rt_pairs(active: Subset, lead: int, mu_r: int, mu_t: int) -> list[tuple[Subset, Subset]]:
    """All (cached receivers, zero-forcing receivers) pairs drawn from the
    active set minus the lead, in lexicographic order."""
    others = [j for j in active if j != lead]
    pairs = []
    for r_set in combinations(others, mu_r):
        rest = [j for j in others if j not in r_set]
        for t_set in combinations(rest, mu_t - 1):
            pairs.append((r_set, t_set))
    return pairs


def _block_plan(
    index: int,
    demand: DemandVector,
    active: Subset,
    r_set: Subset,
    t_set: Subset,
    rotator,
    coords: tuple[int, ...],
    include_lset: bool,
) -> BlockPlan:
    """One block delivering one subfile to every receiver in ``active``.

    ``include_lset`` marks partial-activity schedules whose subfiles carry
    the surface-split index (the active receivers outside each subfile's
    own groups).
    """
    lead = active[0]
    in_groups = {lead, *r_set, *t_set}
    idle = tuple(j for j in active if j not in in_groups)
    lead_lset = idle if include_lset else ()
    lead_index, lead_serving = rotator.serving(1, coords)

    def others(group, j):
        return tuple(sorted({lead, *group} - {j}))

    # (receiver, transmitter-side index, serving group, rx_set, zf_set, irs_set)
    specs = [(lead, lead_index, lead_serving, r_set, t_set, lead_lset)]
    specs += [(j, lead_index, lead_serving, others(r_set, j), t_set, lead_lset) for j in r_set]
    specs += [(j, lead_index, lead_serving, r_set, others(t_set, j), lead_lset) for j in t_set]
    for slot, j in enumerate(idle, start=2):
        slot_index, slot_serving = rotator.serving(slot, coords)
        specs.append((j, slot_index, slot_serving, r_set, t_set, others(idle, j) if include_lset else ()))
    return BlockPlan(
        block_index=index,
        deliveries=tuple(
            Delivery(
                subfile=SubfileId(file=demand.file_for(j), tx_index=tx, rx_set=rx, zf_set=zf, irs_set=irs),
                intended_rx=j,
                serving_txs=serving,
            )
            for j, tx, serving, rx, zf, irs in specs
        ),
        active_rxs=active,
        lead_rx=lead,
        cached_rxs=r_set,
        zf_rxs=t_set,
        idle_rxs=idle,
    )


def make_schedule(
    params: SystemParams,
    demand: DemandVector,
    l_size: int,
    system: SubsetPartitionSystem | OrderedPartitionSystem | None = None,
) -> Schedule:
    """The delivery schedule of both cache regimes.

    ``system`` picks how serving groups rotate across blocks: ``None`` for
    disjoint transmitter caches (mu_t = 1, single transmitters), a
    parallel-class design or an ordered-arrangement system for overlapping
    ones (mu_t >= 2). Slot 1 of a block is the lead group; slots 2.. serve
    the idle receivers, one disjoint group each. Each rotator also names
    the schedule's regime, for full and for partial activity.

    When ``mu_r + mu_t + l_size`` reaches ``K_R`` the surface protects every
    receiver at once: ``l_size`` is cut to ``K_R - mu_r - mu_t`` and every
    block serves all receivers (full activity). Otherwise activity rotates
    over all receiver subsets of size ``mu_r + mu_t + l_size``, each handled
    like a full-activity sub-schedule whose subfiles carry the surface-split
    index. Receivers outside the active subset get nothing in those blocks
    (their share of the horizon is what lowers the per-user rate below 1).
    """
    mu_r, mu_t, k_r = params.mu_r, params.mu_t, params.k_r
    if system is None:
        if mu_t != 1:
            raise SchedulingError(f"mu_t = {mu_t} needs a transmitter design")
        rotator = _SingleTxRotator(params.k_t)
    else:
        if mu_t < 2:
            raise SchedulingError("a transmitter design needs mu_t >= 2")
        if (system.m, system.mu_t) != (params.m_groups, mu_t):
            raise SchedulingError(
                f"design is for (m={system.m}, mu_t={system.mu_t}) but parameters need "
                f"(m={params.m_groups}, mu_t={mu_t})"
            )
        if isinstance(system, SubsetPartitionSystem):
            check = verify_subset_partition(system)
            if not check.ok:
                raise SchedulingError(f"invalid subset-partition system: {check.violation}")
            rotator = _ParallelClassRotator(system)
        else:
            rotator = _OrderedPartitionRotator(system)
    if mu_r + mu_t > k_r:
        raise SchedulingError(
            f"mu_r + mu_t = {mu_r + mu_t} exceeds k_r = {k_r}; the joint decoding group does not fit"
        )
    if l_size < 0:
        raise SchedulingError("l_size must be nonnegative")
    partial = mu_r + mu_t + l_size < k_r
    if partial:
        actives = combinations(params.receivers, mu_r + mu_t + l_size)
    else:
        l_size = k_r - mu_r - mu_t
        actives = [tuple(params.receivers)]
    if l_size + 1 > rotator.slots:
        raise SchedulingError(
            f"{l_size + 1} disjoint serving groups needed per block but only "
            f"{rotator.slots} are available"
        )
    blocks: list[BlockPlan] = []
    for active in actives:
        pairs = _rt_pairs(active, active[0], mu_r, mu_t)
        for coords in rotator.coords():
            for r_set, t_set in pairs:
                blocks.append(_block_plan(len(blocks) + 1, demand, active, r_set, t_set, rotator, coords, partial))
    return Schedule(
        regime=rotator.regimes[partial],
        tx_mode=rotator.tx_mode,
        params=params,
        demand=demand,
        l_size=l_size,
        blocks=tuple(blocks),
    )


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    missing: tuple[tuple[SubfileId, int], ...]
    extra: tuple[tuple[SubfileId, int], ...]
    duplicates: tuple[tuple[SubfileId, int], ...]

    def summary(self) -> str:
        if self.ok:
            return "schedule partitions the demanded subfiles exactly"
        parts = []
        if self.missing:
            parts.append(f"{len(self.missing)} demanded subfiles never delivered, e.g. {self.missing[0]}")
        if self.extra:
            parts.append(f"{len(self.extra)} undemanded deliveries, e.g. {self.extra[0]}")
        if self.duplicates:
            parts.append(f"duplicate delivery of {len(self.duplicates)} subfiles, e.g. {self.duplicates[0]}")
        return "; ".join(parts)


def verify_schedule_partition(
    schedule: Schedule, demanded: frozenset[tuple[SubfileId, int]]
) -> PartitionReport:
    """Check the exact-cover property: every demanded (subfile, receiver)
    pair is delivered exactly once and nothing else is delivered."""
    counts: dict[tuple[SubfileId, int], int] = {}
    for block in schedule.blocks:
        for dl in block.deliveries:
            key = (dl.subfile, dl.intended_rx)
            counts[key] = counts.get(key, 0) + 1
    delivered = set(counts)
    missing = tuple(sorted(demanded - delivered))
    extra = tuple(sorted(delivered - demanded))
    duplicates = tuple(sorted(k for k, c in counts.items() if c > 1))
    return PartitionReport(
        ok=not (missing or extra or duplicates),
        missing=missing,
        extra=extra,
        duplicates=duplicates,
    )


def achieved_dof(schedule: Schedule, delivered: int | None = None) -> Fraction:
    """Delivered subfiles per block, as an exact rational. With the default
    ``delivered`` (every scheduled subfile), this is the schedule's nominal
    rate; the simulator passes the count that actually decoded."""
    if delivered is None:
        delivered = sum(len(b.deliveries) for b in schedule.blocks)
    return Fraction(delivered, schedule.h_blocks)


def schedule_to_jsonable(schedule: Schedule) -> dict:
    """Structured-text form of a schedule, one record per block."""
    from .placement import subfile_to_jsonable as subfile_record

    return {
        "regime": schedule.regime,
        "tx_mode": schedule.tx_mode,
        "l_size": schedule.l_size,
        "h_blocks": schedule.h_blocks,
        "demand": list(schedule.demand.d),
        "blocks": [
            {
                "block": b.block_index,
                "active_rxs": list(b.active_rxs),
                "deliveries": [
                    {
                        "subfile": subfile_record(d.subfile),
                        "intended_rx": d.intended_rx,
                        "serving_txs": list(d.serving_txs),
                    }
                    for d in b.deliveries
                ],
                "null_links": sorted([list(p) for p in b.null_links]),
            }
            for b in schedule.blocks
        ],
    }
