"""Subfile universe construction and deterministic cache placement.

Files split into subfiles indexed by a transmitter-side index (a transmitter
subset, or an ordered transmitter-group arrangement identified by its
number) and a receiver subset. Placement follows membership: transmitter
``i`` caches a subfile iff it belongs to the subfile's transmitter index,
receiver ``j`` iff ``j`` is in the receiver subset. Packet mass is tracked
with exact rationals so the cache-budget identities hold for any packet
count ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .combinatorics import OrderedPartitionSystem, Subset, enumerate_ordered_partitions, enumerate_subsets
from .params import SystemParams

SUBSET_MODE = "subset"
ORDERED_MODE = "ordered"

#: transmitter-side index: the caching transmitter subset, or the number of
#: an ordered transmitter-group arrangement (whose first group caches it).
TxIndex = Union[Subset, int]


@dataclass(frozen=True, order=True, slots=True)
class SubfileId:
    """Full index of one subfile.

    ``rx_set`` is the receiver subset caching it; ``zf_set`` and ``irs_set``
    are the finer delivery-time splits (receivers covered by zero-forcing
    and by surface nulling) and stay empty until a refinement introduces
    them. All receiver groups must be pairwise disjoint.
    """

    file: int
    tx_index: TxIndex
    rx_set: Subset
    zf_set: Subset = ()
    irs_set: Subset = ()

    def __post_init__(self) -> None:
        rx, zf, irs = self.rx_set, self.zf_set, self.irs_set
        if len({*rx, *zf, *irs}) != len(rx) + len(zf) + len(irs):
            # some receiver repeats: allowed inside one group, not across two
            groups = (set(rx), set(zf), set(irs))
            if len(groups[0] | groups[1] | groups[2]) != sum(len(g) for g in groups):
                raise ValueError(f"receiver index groups must be disjoint: {self}")


@dataclass(frozen=True)
class SubfileUniverse:
    """Every subfile of every file, in deterministic enumeration order."""

    mode: str
    params: SystemParams
    subfiles: tuple[SubfileId, ...]
    packets_per_subfile: Fraction
    ordered_system: OrderedPartitionSystem | None = None

    @property
    def per_file_count(self) -> int:
        return len(self.subfiles) // self.params.n_files

    def tx_members(self, sub: SubfileId) -> Subset:
        """Transmitters caching ``sub`` (also its serving group in delivery)."""
        if self.mode == SUBSET_MODE:
            return sub.tx_index  # type: ignore[return-value]
        assert self.ordered_system is not None
        return self.ordered_system.partition_by_number(sub.tx_index)[0]  # type: ignore[arg-type]


def split_library(params: SystemParams, mode: str = SUBSET_MODE) -> SubfileUniverse:
    """Partition every file into subfiles.

    Subset mode yields ``C(K_T, mu_t) * C(K_R, mu_r)`` subfiles per file;
    ordered mode indexes the transmitter side by all ordered group
    arrangements instead (used when no parallel-class design is available).
    """
    ordered_system = None
    if mode == SUBSET_MODE:
        tx_indices: list[TxIndex] = list(enumerate_subsets(params.k_t, params.mu_t))
    elif mode == ORDERED_MODE:
        ordered_system = enumerate_ordered_partitions(params.m_groups, params.mu_t)
        tx_indices = list(range(1, ordered_system.count + 1))
    else:
        raise ValueError(f"unknown split mode {mode!r}")

    rx_sets = enumerate_subsets(params.k_r, params.mu_r)
    subfiles = tuple(
        SubfileId(file=k, tx_index=t, rx_set=r)
        for k in range(1, params.n_files + 1)
        for t in tx_indices
        for r in rx_sets
    )
    pps = Fraction(params.f_packets, len(tx_indices) * len(rx_sets))
    return SubfileUniverse(
        mode=mode,
        params=params,
        subfiles=subfiles,
        packets_per_subfile=pps,
        ordered_system=ordered_system,
    )


@dataclass(frozen=True)
class CacheAssignment:
    """Deterministic cache contents for every node (1-based indexing)."""

    universe: SubfileUniverse
    tx_caches: tuple[frozenset[SubfileId], ...]
    rx_caches: tuple[frozenset[SubfileId], ...]

    @property
    def packets_per_subfile(self) -> Fraction:
        return self.universe.packets_per_subfile


def place_caches(universe: SubfileUniverse) -> CacheAssignment:
    """Fill every cache by the membership rule; demand plays no role here."""
    params = universe.params
    tx_caches = [set() for _ in range(params.k_t)]
    rx_caches = [set() for _ in range(params.k_r)]
    for sub in universe.subfiles:
        for i in universe.tx_members(sub):
            tx_caches[i - 1].add(sub)
        for j in sub.rx_set:
            rx_caches[j - 1].add(sub)
    return CacheAssignment(
        universe=universe,
        tx_caches=tuple(frozenset(c) for c in tx_caches),
        rx_caches=tuple(frozenset(c) for c in rx_caches),
    )


def subfile_to_jsonable(sub: SubfileId) -> dict:
    return {
        "file": sub.file,
        "tx_index": list(sub.tx_index) if isinstance(sub.tx_index, tuple) else sub.tx_index,
        "rx_set": list(sub.rx_set),
        "zf_set": list(sub.zf_set),
        "irs_set": list(sub.irs_set),
    }


def assignment_to_jsonable(assignment: CacheAssignment) -> dict:
    """Per-node cache contents as plain lists of subfile tuples."""
    pps = assignment.packets_per_subfile
    return {
        "mode": assignment.universe.mode,
        "packets_per_subfile": [pps.numerator, pps.denominator],
        "tx_caches": [
            [subfile_to_jsonable(s) for s in sorted(cache)] for cache in assignment.tx_caches
        ],
        "rx_caches": [
            [subfile_to_jsonable(s) for s in sorted(cache)] for cache in assignment.rx_caches
        ],
    }


@dataclass(frozen=True)
class BudgetReport:
    ok: bool
    tx_ok: bool
    rx_ok: bool
    coverage_ok: bool
    messages: tuple[str, ...]


def verify_cache_budgets(assignment: CacheAssignment, params: SystemParams) -> BudgetReport:
    """Check the exact packet-budget identities and full library coverage.

    Every transmitter must hold exactly ``M_T * F`` packets, every receiver
    exactly ``M_R * F``, and every subfile must be cached at one transmitter
    at least (no backhaul during delivery).
    """
    pps = assignment.packets_per_subfile
    messages: list[str] = []
    tx_target = params.m_t_files * params.f_packets
    rx_target = params.m_r_files * params.f_packets
    tx_ok = True
    for i, cache in enumerate(assignment.tx_caches, start=1):
        got = len(cache) * pps
        if got != tx_target:
            tx_ok = False
            messages.append(f"tx {i}: {got} packets cached, budget says {tx_target}")
    rx_ok = True
    for j, cache in enumerate(assignment.rx_caches, start=1):
        got = len(cache) * pps
        if got != rx_target:
            rx_ok = False
            messages.append(f"rx {j}: {got} packets cached, budget says {rx_target}")
    covered = frozenset().union(*assignment.tx_caches) if assignment.tx_caches else frozenset()
    uncovered = [s for s in assignment.universe.subfiles if s not in covered]
    coverage_ok = not uncovered
    if uncovered:
        messages.append(f"uncovered subfile: {uncovered[0]} (and {len(uncovered) - 1} more)")
    return BudgetReport(
        ok=tx_ok and rx_ok and coverage_ok,
        tx_ok=tx_ok,
        rx_ok=rx_ok,
        coverage_ok=coverage_ok,
        messages=tuple(messages),
    )
