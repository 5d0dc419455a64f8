"""Reference schedule construction: the block-by-block path the tabulated
``make_schedule`` replaced, kept as a test oracle.

Every block here recomputes its receiver groups and split tuples and asks
the rotator for each slot's serving group, and ``reference_null_links``
derives a block's cut links by set algebra over its serving groups.
``reference_make_schedule`` returns a ``Schedule`` equal (``==``) to
``make_schedule``'s for the same arguments.
"""

from __future__ import annotations

from itertools import combinations

from irs_cache_dof.combinatorics import SubsetPartitionSystem
from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import BlockPlan, Delivery, Design, Schedule


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
    rotator = design.rotator(params, system)
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
