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
from functools import cached_property
from math import comb
from typing import Union

from .combinatorics import OrderedPartitionSystem, Subset, enumerate_ordered_partitions, enumerate_subsets
from .params import SystemParams, slot_init

SUBSET_MODE = "subset"
ORDERED_MODE = "ordered"

#: transmitter-side index: the caching transmitter subset, or the number of
#: an ordered transmitter-group arrangement (whose first group caches it).
TxIndex = Union[Subset, int]


@slot_init
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
        if not (len(zf) or len(irs)):  # one group: a receiver may repeat inside it
            return
        if len({*rx, *zf, *irs}) != len(rx) + len(zf) + len(irs):
            # some receiver repeats: allowed inside one group, not across two
            groups = (set(rx), set(zf), set(irs))
            if len(groups[0] | groups[1] | groups[2]) != sum(len(g) for g in groups):
                raise ValueError(f"receiver index groups must be disjoint: {self}")

    @staticmethod
    def _unchecked(file, tx_index, rx_set, zf_set, irs_set) -> "SubfileId":
        """The subfile of these fields, made without :meth:`__post_init__`'s
        check: for receiver groups a ``SubfileId(...)`` of the same groups
        has already checked."""
        sub = object.__new__(SubfileId)
        _set_file(sub, file)
        _set_tx_index(sub, tx_index)
        _set_rx_set(sub, rx_set)
        _set_zf_set(sub, zf_set)
        _set_irs_set(sub, irs_set)
        return sub


_set_file, _set_tx_index, _set_rx_set, _set_zf_set, _set_irs_set = (
    SubfileId.__dict__[name].__set__ for name in ("file", "tx_index", "rx_set", "zf_set", "irs_set")
)


@dataclass(frozen=True)
class SubfileUniverse:
    """Every subfile of every file, all fixed by ``mode`` and ``params``."""

    mode: str
    params: SystemParams
    tx_indices: tuple[TxIndex, ...]
    ordered_system: OrderedPartitionSystem | None = None

    @cached_property
    def subfiles(self) -> tuple[SubfileId, ...]:
        """Every subfile in (file, transmitter index, receiver set) order,
        enumerated on first read."""
        rx_sets = enumerate_subsets(self.params.k_r, self.params.mu_r)
        return tuple(
            SubfileId(file=k, tx_index=t, rx_set=r)
            for k in range(1, self.params.n_files + 1)
            for t in self.tx_indices
            for r in rx_sets
        )

    @property
    def packets_per_subfile(self) -> Fraction:
        return Fraction(self.params.f_packets, len(self.tx_indices) * comb(self.params.k_r, self.params.mu_r))

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
    if mode == SUBSET_MODE:
        return SubfileUniverse(mode, params, tuple(enumerate_subsets(params.k_t, params.mu_t)))
    if mode == ORDERED_MODE:
        ordered_system = enumerate_ordered_partitions(params.m_groups, params.mu_t)
        return SubfileUniverse(mode, params, tuple(range(1, ordered_system.count + 1)), ordered_system)
    raise ValueError(f"unknown split mode {mode!r}")


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
    """Fill every cache by the membership rule; demand plays no role here.
    Each node's subfiles are listed, then frozen once."""
    params = universe.params
    tx_caches = [[] for _ in range(params.k_t)]
    rx_caches = [[] for _ in range(params.k_r)]
    for sub in universe.subfiles:
        for i in universe.tx_members(sub):
            tx_caches[i - 1].append(sub)
        for j in sub.rx_set:
            rx_caches[j - 1].append(sub)
    return CacheAssignment(
        universe=universe,
        tx_caches=tuple(map(frozenset, tx_caches)),
        rx_caches=tuple(map(frozenset, rx_caches)),
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
    sides_ok = []
    for side, caches, files in (
        ("tx", assignment.tx_caches, params.m_t_files),
        ("rx", assignment.rx_caches, params.m_r_files),
    ):
        target = files * params.f_packets
        wrong = [(i, len(cache) * pps) for i, cache in enumerate(caches, start=1) if len(cache) * pps != target]
        messages.extend(f"{side} {i}: {got} packets cached, budget says {target}" for i, got in wrong)
        sides_ok.append(not wrong)
    tx_ok, rx_ok = sides_ok
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
