"""Reference exact-cover check: the set-of-objects path the integer-key
cover replaced, kept as a test oracle.

Everything here hashes ``SubfileId`` dataclasses: the demanded set is a
frozenset of ``(SubfileId, receiver)`` pairs, refined object by object, and
the cover is a dictionary of delivery counts compared against it.
``reference_verify_schedule_partition`` returns the same ``PartitionReport``
as ``verify_schedule_partition``, its pairs in the same total order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import astuple
from itertools import combinations

from irs_cache_dof.placement import SubfileId
from irs_cache_dof.scheduler import PartitionReport


def demanded_subfiles(universe, demand):
    """Every (subfile, intended receiver) pair the transmitters must deliver:
    receiver ``j`` needs each subfile of its file whose caching receivers
    exclude ``j``."""
    by_file = {}
    for sub in universe.subfiles:
        by_file.setdefault(sub.file, []).append(sub)
    pairs = []
    for j, file in enumerate(demand.d, start=1):
        pairs.extend((sub, j) for sub in by_file[file] if j not in sub.rx_set)
    return frozenset(pairs)


def refine_subfiles(demanded, params, t_split, l_size=0):
    """Split demanded subfiles into ``C(K_R - mu_r - 1, mu_t - 1)``
    zero-forcing-indexed parts (when ``t_split``) times
    ``C(K_R - mu_r - mu_t, l_size)`` surface-indexed parts. Returns the
    refined pairs and the split factor."""
    t_size = params.mu_t - 1 if t_split else 0
    if params.mu_r + t_size + l_size > params.k_r - 1:
        raise ValueError(
            f"refinement needs mu_r + {t_size} + {l_size} <= k_r - 1; "
            f"got mu_r={params.mu_r}, k_r={params.k_r}"
        )
    factor_t = math.comb(params.k_r - params.mu_r - 1, t_size)
    factor_l = math.comb(params.k_r - params.mu_r - 1 - t_size, l_size)
    refined = []
    for sub, rx in demanded:
        others = [j for j in params.receivers if j != rx and j not in sub.rx_set]
        for zf in combinations(others, t_size):
            rest = [j for j in others if j not in zf]
            for lset in combinations(rest, l_size):
                refined.append((SubfileId(sub.file, sub.tx_index, sub.rx_set, zf, lset), rx))
    return tuple(refined), factor_t * factor_l


def reference_demanded_for_schedule(universe, schedule):
    """The refined demanded set matching a schedule, as a frozenset of
    ``(SubfileId, receiver)`` pairs."""
    base = demanded_subfiles(universe, schedule.demand)
    t_split = universe.params.mu_t >= 2
    p = schedule.params
    partial = p.mu_r + p.mu_t + schedule.l_size < p.k_r
    l_size = schedule.l_size if partial else 0
    if not t_split and l_size == 0:
        return base
    refined, _ = refine_subfiles(sorted(base), universe.params, t_split, l_size)
    return frozenset(refined)


def _sort_key(value):
    """Reals by value, then strings by value, then tuples element by
    element, then any other value by type name and ``repr``: a total order
    that agrees with ``<`` wherever values compare."""
    if isinstance(value, numbers.Real):
        return 0, value
    if isinstance(value, str):
        return 1, value
    if isinstance(value, tuple):
        return 2, tuple(_sort_key(v) for v in value)
    return 3, type(value).__name__, repr(value)


def _sorted_pairs(pairs):
    """(subfile, receiver) pairs sorted by their fields under ``_sort_key``."""
    return tuple(sorted(pairs, key=lambda pair: _sort_key((*astuple(pair[0]), pair[1]))))


def reference_verify_schedule_partition(schedule, demanded):
    """Every demanded pair delivered exactly once and nothing else, by a
    dictionary of delivery counts."""
    counts = {}
    for block in schedule.blocks:
        for dl in block.deliveries:
            key = (dl.subfile, dl.intended_rx)
            counts[key] = counts.get(key, 0) + 1
    delivered = set(counts)
    missing = _sorted_pairs(demanded - delivered)
    extra = _sorted_pairs(delivered - demanded)
    duplicates = _sorted_pairs(k for k, c in counts.items() if c > 1)
    return PartitionReport(
        ok=not (missing or extra or duplicates),
        missing=missing,
        extra=extra,
        duplicates=duplicates,
    )
