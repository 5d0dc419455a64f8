"""Reference schedule construction: the block-by-block path the tabulated
``make_schedule`` replaced, kept as a test oracle.

Every block here recomputes its receiver groups and split tuples and asks
its design's rotator for each slot's serving group at the block's rotator
coordinates, and ``reference_null_links`` derives a block's cut links by
set algebra over its serving groups. ``reference_make_schedule`` returns a
``Schedule`` equal (``==``) to ``make_schedule``'s for the same arguments,
which builds its slots from rounds and offsets instead; nothing here
imports that rotation.
"""

from __future__ import annotations

import math
from itertools import combinations

from irs_cache_dof.combinatorics import SubsetPartitionSystem, verify_subset_partition
from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import BlockPlan, Delivery, Design, Schedule, SchedulingError


def cyclic_shift(i: int, j: int, m: int) -> int:
    """1-based cyclic shift ``1 + ((i + j - 1) mod m)``.

    Shifting index ``i`` by ``j`` positions around a cycle of length ``m``
    stays in ``[1, m]``; ``j = 0`` and ``j = m`` are both the identity.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if not 1 <= i <= m:
        raise ValueError(f"index {i} outside [1, {m}]")
    if j < 0:
        raise ValueError(f"offset must be nonnegative, got {j}")
    return 1 + (i + j - 1) % m


def subset_by_number(system, kappa):
    """Subset number ``kappa`` of a parallel-class design: position ``p`` of
    class ``c`` is number ``(c - 1) * m + p``, so each class fills one
    contiguous window of size ``m``."""
    count = system.m * len(system.classes)
    if not 1 <= kappa <= count:
        raise ValueError(f"subset number {kappa} outside [1, {count}]")
    c, p = divmod(kappa - 1, system.m)
    return system.classes[c][p]


def number_from_coords(system, window, lead, remainder):
    """Arrangement number of an ordered system from its (window, lead,
    remainder) decomposition; all 1-based."""
    sub = math.factorial(system.m - 1)
    return (window - 1) * system.window_size + (lead - 1) * sub + remainder


class _SingleTxRotator:
    """mu_t = 1: slots are single transmitters, rotated cyclically."""

    def __init__(self, params, system):
        self.k_t = self.slots = params.k_t

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

    def __init__(self, params, system):
        check = verify_subset_partition(system)
        if not check.ok:
            raise SchedulingError(f"invalid subset-partition system: {check.violation}")
        self.system = system
        self.slots = system.m

    def coords(self):
        for k3 in range(1, len(self.system.classes) + 1):
            for k2 in range(1, self.system.m + 1):
                yield (k2, k3)

    def serving(self, slot, coords):
        k2, k3 = coords
        kappa = cyclic_shift(slot, k2 - 1, self.system.m) + (k3 - 1) * self.system.m
        subset = subset_by_number(self.system, kappa)
        return subset, subset


class _OrderedPartitionRotator:
    """mu_t >= 2 without a parallel-class design: slots are ordered
    arrangements whose first group serves. The lead-group coordinate rotates
    cyclically (keeping the block's groups disjoint), while the arrangement
    remainder and the unordered-partition window advance independently."""

    def __init__(self, params, system):
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
        kappa = number_from_coords(self.system, window=k4, lead=lead, remainder=k3)
        return kappa, self.system.partition_by_number(kappa)[0]


#: each design's rotator: its slot count, its coordinates in block order, and
#: each slot's (transmitter-side index, serving group) at given coordinates
ROTATORS = {
    Design.THM1: _SingleTxRotator,
    Design.THM2_PARTITION: _ParallelClassRotator,
    Design.THM2_ORDERED: _OrderedPartitionRotator,
}


def reference_null_links(plan):
    """Cross-links the block's topology eliminates: every serving group
    keeps its links only to the receivers it is allowed to reach (its own
    receiver plus the cached and zero-forcing groups); its links to the
    remaining active receivers are cut."""
    links = set()
    for serving, allowed in reference_serving_groups(plan):
        for i in serving:
            links.update((i, r) for r in plan.active_rxs if r not in allowed)
    return frozenset(links)


def reference_serving_groups(plan):
    """Each distinct serving group with the receivers it may reach."""
    base = set(plan.cached_rxs) | set(plan.zf_rxs)
    groups = []
    lead_serving = plan.deliveries[0].serving_txs
    groups.append((lead_serving, frozenset(base | {plan.lead_rx})))
    for dl in plan.deliveries:
        if dl.intended_rx in plan.idle_rxs:
            groups.append((dl.serving_txs, frozenset(base | {dl.intended_rx})))
    return groups


def reference_rt_pairs(active, lead, mu_r, mu_t):
    """All (cached receivers, zero-forcing receivers) pairs drawn from the
    active set minus the lead, in lexicographic order."""
    others = [j for j in active if j != lead]
    pairs = []
    for r_set in combinations(others, mu_r):
        rest = [j for j in others if j not in r_set]
        for t_set in combinations(rest, mu_t - 1):
            pairs.append((r_set, t_set))
    return pairs


def reference_block_plan(index, demand, active, r_set, t_set, rotator, coords, include_lset):
    """One block delivering one subfile to every receiver in ``active``."""
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


def reference_make_schedule(params, demand, l_size, system=None):
    """The schedule of a valid ``(params, demand, l_size, system)``, one
    block at a time; it checks none of the preconditions
    ``make_schedule`` refuses."""
    mu_r, mu_t, k_r = params.mu_r, params.mu_t, params.k_r
    if system is None:
        design = Design.THM1
    else:
        design = Design.THM2_PARTITION if isinstance(system, SubsetPartitionSystem) else Design.THM2_ORDERED
    rotator = ROTATORS[design](params, system)
    partial = mu_r + mu_t + l_size < k_r
    if partial:
        actives = combinations(params.receivers, mu_r + mu_t + l_size)
    else:
        l_size = k_r - mu_r - mu_t
        actives = [tuple(params.receivers)]
    blocks = []
    for active in actives:
        pairs = reference_rt_pairs(active, active[0], mu_r, mu_t)
        for coords in rotator.coords():
            for r_set, t_set in pairs:
                blocks.append(
                    reference_block_plan(len(blocks) + 1, demand, active, r_set, t_set, rotator, coords, partial)
                )
    return Schedule(
        regime=design.labels[partial],
        tx_mode=design.tx_mode,
        params=params,
        demand=demand,
        l_size=l_size,
        blocks=tuple(blocks),
    )
