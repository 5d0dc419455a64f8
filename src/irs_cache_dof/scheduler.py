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

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import attrgetter

import numpy as np

from .combinatorics import (
    OrderedPartitionSystem,
    Subset,
    SubsetPartitionSystem,
    cyclic_shift,
    enumerate_subsets,
    subset_ranks,
    subsets_of_ranks,
    verify_subset_partition,
)
from .lowering import PlanStack, lower
from .params import SystemParams
from .placement import ORDERED_MODE, SUBSET_MODE, SubfileId, SubfileUniverse


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


@dataclass(frozen=True, slots=True)
class Delivery:
    subfile: SubfileId
    intended_rx: int
    serving_txs: Subset


@dataclass(frozen=True, slots=True)
class BlockPlan:
    """One communication block: who sends what to whom, and which
    cross-links the surface must cut.

    ``cached_rxs``/``zf_rxs`` are the block's common receiver groups (side
    information and zero-forcing targets); ``idle_rxs`` are the active
    receivers outside them, each served by its own transmitter group.
    Receivers not in ``active_rxs`` are untouched this block.
    """

    block_index: int
    deliveries: tuple[Delivery, ...]
    active_rxs: Subset
    lead_rx: int
    cached_rxs: Subset
    zf_rxs: Subset
    idle_rxs: Subset

    @property
    def null_links(self) -> frozenset[tuple[int, int]]:
        """Cross-links the block's topology eliminates.

        The lead group's own receiver is the lead, and the group serving
        idle receiver ``j`` owns ``j``. Every serving group keeps its links
        to its own receiver and to the cached and zero-forcing groups; its
        links to the remaining active receivers are cut. Transmitters not
        serving this block stay fully connected and contribute no pairs.
        """
        kept = {*self.cached_rxs, *self.zf_rxs}
        cut = [r for r in self.active_rxs if r not in kept]
        owners = [(self.deliveries[0].serving_txs, self.lead_rx)]
        owners += [(dl.serving_txs, dl.intended_rx) for dl in self.deliveries if dl.intended_rx in self.idle_rxs]
        return frozenset((i, r) for serving, own in owners for i in serving for r in cut if r != own)


@dataclass(frozen=True)
class Schedule:
    """The blocks of a delivery horizon. ``regime`` is the paper's label
    for the schedule (say ``T2-II``) and ``tx_mode`` the placement mode its
    subfiles are split in; together they name its :class:`Design`."""

    regime: str
    tx_mode: str
    params: SystemParams
    demand: DemandVector
    l_size: int
    blocks: tuple[BlockPlan, ...]

    @property
    def h_blocks(self) -> int:
        return len(self.blocks)

    @functools.cached_property
    def lowered(self) -> PlanStack:
        """The blocks lowered to one integer stack (:func:`lowering.lower`),
        on first use; building or verifying the schedule lowers nothing."""
        return lower(self.blocks)

    @property
    def design(self) -> Design:
        """The one design whose placement mode and labels match."""
        for design in Design:
            if design.tx_mode == self.tx_mode and self.regime in design.labels:
                return design
        raise SchedulingError(f"no design has regime {self.regime!r} in {self.tx_mode!r} mode")


#: an int64 word of a subfile key holds digits whose radices multiply to at most this
_WORD_RADIX = 1 << 63


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


def _index_digit(value, radix: int) -> int:
    """``value - 1`` for ``value`` in ``1..radix``, else -1."""
    return int(value) - 1 if _is_int(value) and 1 <= value <= radix else -1


def _subset_digit(value, n: int, k: int) -> int:
    """Position of ``value`` in ``enumerate_subsets(n, k)``, or -1 when it is
    not an increasing ``k``-tuple over ``1..n``."""
    if not (isinstance(value, tuple) and len(value) == k and all(_is_int(v) for v in value)):
        return -1
    if list(value) != sorted(set(value)) or (k and not 1 <= value[0] <= value[-1] <= n):
        return -1
    return int(subset_ranks(np.array(value, dtype=np.int64).reshape(1, k), n)[0])


class SubfileKeyCodec:
    """Mixed-radix integer keys of (subfile, intended receiver) pairs.

    The digits, most significant first: ``file - 1``; the transmitter-side
    index (the subset's position in ``enumerate_subsets(k_t, mu_t)``, or the
    arrangement number - 1); the positions of ``rx_set``, ``zf_set`` and
    ``irs_set`` among the receiver subsets of sizes ``mu_r``, ``zf_size``
    and ``irs_size``; and ``intended_rx - 1``. Digits fill int64 words in
    that order, a new word starting where the radix product would pass
    2**63, so key rows order exactly as the pairs do. A pair with a digit
    out of range has no key.
    """

    def __init__(self, params: SystemParams, mode: str, zf_size: int, irs_size: int):
        self.params, self.mode = params, mode
        self.sizes = (params.mu_r, zf_size, irs_size)
        if mode == SUBSET_MODE:
            tx_count = math.comb(params.k_t, params.mu_t)
        else:
            tx_count = math.factorial(params.k_t) // math.factorial(params.mu_t) ** params.m_groups
        self.radices = (params.n_files, tx_count, *(math.comb(params.k_r, k) for k in self.sizes), params.k_r)
        places, word, weight = [], 0, 1
        for radix in reversed(self.radices):
            if radix > _WORD_RADIX:
                raise SchedulingError(f"a key digit of radix {radix} does not fit one int64 word")
            if weight * radix > _WORD_RADIX:
                word, weight = word + 1, 1
            places.append((word, weight))
            weight *= radix
        self.width = word + 1
        #: (word, weight) of each digit; word 0 is the most significant
        self.places = tuple((self.width - 1 - w, weight) for w, weight in reversed(places))
        tx_digit = (
            functools.partial(_subset_digit, n=params.k_t, k=params.mu_t)
            if mode == SUBSET_MODE
            else functools.partial(_index_digit, radix=tx_count)
        )
        #: one function per digit, from the pair's field to the digit, -1 when out of range
        self.digit_of = (
            functools.partial(_index_digit, radix=params.n_files),
            tx_digit,
            *(functools.partial(_subset_digit, n=params.k_r, k=k) for k in self.sizes),
            functools.partial(_index_digit, radix=params.k_r),
        )

    def pair_digits(self, pair: tuple[SubfileId, int]) -> list[int]:
        """The six digits of one pair, -1 where a field is out of range."""
        sub, rx = pair
        fields = (sub.file, sub.tx_index, sub.rx_set, sub.zf_set, sub.irs_set, rx)
        return [digit(value) for digit, value in zip(self.digit_of, fields)]

    def encode(self, *digits) -> np.ndarray:
        """Key rows, shape ``(n, width)``, of the pairs whose six digit arrays
        broadcast together, in C order. A digit outside its radix raises."""
        digits = [np.asarray(d, dtype=np.int64) for d in digits]
        for digit, radix in zip(digits, self.radices):
            if digit.size and not (0 <= digit.min() and digit.max() < radix):
                raise ValueError(f"key digit outside [0, {radix})")
        digits = np.broadcast_arrays(*digits)
        keys = np.zeros((digits[0].size, self.width), dtype=np.int64)
        for digit, (word, weight) in zip(digits, self.places):
            keys[:, word] += digit.reshape(-1) * np.int64(weight)
        return keys

    def pairs(self, rows: np.ndarray) -> list[tuple[SubfileId, int]]:
        """The pairs of key rows, in row order."""
        p = self.params
        file, tx, *groups, rx = (rows[:, w] // weight % radix for (w, weight), radix in zip(self.places, self.radices))
        if self.mode == SUBSET_MODE:
            txs = map(tuple, subsets_of_ranks(tx, p.k_t, p.mu_t).tolist())
        else:
            txs = (tx + 1).tolist()
        rx_sets, zf_sets, irs_sets = (
            map(tuple, subsets_of_ranks(g, p.k_r, k).tolist()) for g, k in zip(groups, self.sizes)
        )
        return [
            (SubfileId(f, t, r, z, i), j)
            for f, t, r, z, i, j in zip((file + 1).tolist(), txs, rx_sets, zf_sets, irs_sets, (rx + 1).tolist())
        ]


@dataclass(frozen=True, eq=False)
class SubfileKeys:
    """A set of distinct (subfile, intended receiver) pairs as key rows of
    ``codec``, one row per pair."""

    codec: SubfileKeyCodec
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, pair) -> bool:
        digits = self.codec.pair_digits(pair)
        if min(digits) < 0:
            return False
        return bool((self.rows == self.codec.encode(*digits)).all(axis=1).any())

    def pairs(self) -> list[tuple[SubfileId, int]]:
        """Every pair as ``(SubfileId, receiver)``, in row order."""
        return self.codec.pairs(self.rows)


def demanded_for_schedule(universe: SubfileUniverse, schedule: Schedule) -> SubfileKeys:
    """Every (subfile, intended receiver) pair the schedule must deliver.

    Receiver ``j`` needs each subfile of its file whose caching receivers
    exclude ``j``, split further by zero-forcing set (``mu_t - 1`` of its
    other receivers) and, in partial-activity schedules, by surface set
    (``l_size`` of the rest). The other receivers are sorted, so one fixed
    pattern of positions among them gives every pair's split.
    """
    p = schedule.params
    if universe.params != p or universe.mode != schedule.tx_mode:
        raise SchedulingError(
            f"the universe is split for {universe.params} in {universe.mode!r} mode but the "
            f"schedule is for {p} in {schedule.tx_mode!r} mode"
        )
    if len(schedule.demand.d) > p.k_r:
        raise SchedulingError(f"the demand names {len(schedule.demand.d)} receivers but the network has {p.k_r}")
    partial = p.mu_r + p.mu_t + schedule.l_size < p.k_r
    zf_size, irs_size = p.mu_t - 1, schedule.l_size if partial else 0
    codec = SubfileKeyCodec(p, universe.mode, zf_size, irs_size)
    n_others = p.k_r - 1 - p.mu_r
    pattern = [
        (zf, irs)
        for zf in combinations(range(n_others), zf_size)
        for irs in combinations([i for i in range(n_others) if i not in zf], irs_size)
    ]
    zf_at = np.array([zf for zf, _ in pattern], dtype=np.intp).reshape(len(pattern), zf_size)
    irs_at = np.array([irs for _, irs in pattern], dtype=np.intp).reshape(len(pattern), irs_size)
    rx_sets = np.array(enumerate_subsets(p.k_r, p.mu_r), dtype=np.intp)
    cached = np.zeros((len(rx_sets), p.k_r + 1), dtype=bool)
    cached[np.arange(len(rx_sets))[:, None], rx_sets] = True
    tx = np.arange(codec.radices[1])[:, None]
    keys = [np.empty((0, codec.width), dtype=np.int64)]
    for j, file in enumerate(schedule.demand.d, start=1):
        rx = np.flatnonzero(~cached[:, j])
        free = ~cached[rx]
        free[:, [0, j]] = False
        others = np.nonzero(free)[1].reshape(len(rx), n_others)
        zf = subset_ranks(others[:, zf_at].reshape(len(rx) * len(pattern), zf_size), p.k_r)
        irs = subset_ranks(others[:, irs_at].reshape(len(rx) * len(pattern), irs_size), p.k_r)
        keys.append(codec.encode(file - 1, tx, np.repeat(rx, len(pattern)), zf, irs, j - 1))
    return SubfileKeys(codec, np.concatenate(keys))


class _SingleTxRotator:
    """mu_t = 1: slots are single transmitters, rotated cyclically."""

    def __init__(self, params: SystemParams, system: None):
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

    def __init__(self, params: SystemParams, system: SubsetPartitionSystem):
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
        subset = self.system.subset_by_number(kappa)
        return subset, subset


class _OrderedPartitionRotator:
    """mu_t >= 2 without a parallel-class design: slots are ordered
    arrangements whose first group serves. The lead-group coordinate rotates
    cyclically (keeping the block's groups disjoint), while the arrangement
    remainder and the unordered-partition window advance independently."""

    def __init__(self, params: SystemParams, system: OrderedPartitionSystem):
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


class Design(Enum):
    """How a schedule's serving transmitter groups rotate across blocks:
    single transmitters (Theorem 1), or the groups of a parallel-class
    design or of ordered arrangements (Theorem 2). A member's value is its
    name in the command line and episode reports; it carries the placement
    mode its subfiles are split in, its paper labels for full and for
    partial activity, and its rotator."""

    THM1 = ("thm1", SUBSET_MODE, ("T1-I", "T1-II"), _SingleTxRotator)
    THM2_PARTITION = ("thm2-partition", SUBSET_MODE, ("T2-IA", "T2-II"), _ParallelClassRotator)
    THM2_ORDERED = ("thm2-ordered", ORDERED_MODE, ("T2-IB", "T2-II"), _OrderedPartitionRotator)

    def __new__(cls, value: str, tx_mode: str, labels: tuple[str, str], rotator: type):
        member = object.__new__(cls)
        member._value_ = value
        member.tx_mode, member.labels, member.rotator = tx_mode, labels, rotator
        return member

    @classmethod
    def _missing_(cls, value):
        raise SchedulingError(f"unknown regime {value!r}; expected one of {tuple(d.value for d in cls)}")

    def check(self, params: SystemParams) -> None:
        """Raise :class:`SchedulingError` unless ``params.mu_t`` fits the
        design: 1 for single transmitters, at least 2 for groups."""
        single = self.rotator is _SingleTxRotator
        if single and params.mu_t != 1:
            raise SchedulingError(f"mu_t = {params.mu_t} needs a transmitter design, not regime {self.value!r}")
        if not single and params.mu_t < 2:
            raise SchedulingError(f"regime {self.value!r} needs mu_t >= 2, got mu_t = {params.mu_t}")


def _active_table(active: Subset, demand: DemandVector, mu_r: int, mu_t: int, partial: bool) -> list:
    """The blocks of one active set, one entry per (cached, zero-forcing)
    pair in lexicographic order: the block's ``(lead, cached, zero-forcing,
    idle)`` receiver groups, and each delivery's ``(file, receiver, slot,
    rx_set, zf_set, irs_set)``. Slot 0 is the lead group; the idle
    receivers take slots 1.. in order. In partial-activity schedules
    (``partial``) a subfile's surface split is the active receivers outside
    its own groups. Every block of the active set shares these tuples,
    whatever its rotator coordinates."""
    lead, *others = active

    def without(group, j):
        return tuple(sorted({lead, *group} - {j}))

    file = demand.file_for
    table = []
    for r_set in combinations(others, mu_r):
        rest = [j for j in others if j not in r_set]
        for t_set in combinations(rest, mu_t - 1):
            idle = tuple(j for j in rest if j not in t_set)
            lead_irs = idle if partial else ()
            specs = [(file(lead), lead, 0, r_set, t_set, lead_irs)]
            specs += [(file(j), j, 0, without(r_set, j), t_set, lead_irs) for j in r_set]
            specs += [(file(j), j, 0, r_set, without(t_set, j), lead_irs) for j in t_set]
            specs += [(file(j), j, s, r_set, t_set, without(idle, j) if partial else ()) for s, j in enumerate(idle, 1)]
            table.append(((lead, r_set, t_set, idle), specs))
    return table


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
    ones (mu_t >= 2): the schedule's :class:`Design`, which also names its
    regime, for full and for partial activity. Slot 1 of a block is the
    lead group; slots 2.. serve the idle receivers, one disjoint group each.

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
        design = Design.THM1
    else:
        design = Design.THM2_PARTITION if isinstance(system, SubsetPartitionSystem) else Design.THM2_ORDERED
    design.check(params)
    if len(demand.d) != k_r or not all(_is_int(f) and 1 <= f <= params.n_files for f in demand.d):
        raise SchedulingError(
            f"the demand {demand.d} must name one file in 1..{params.n_files} for each of the {k_r} receivers"
        )
    if system is not None and (system.m, system.mu_t) != (params.m_groups, mu_t):
        raise SchedulingError(
            f"design is for (m={system.m}, mu_t={system.mu_t}) but parameters need "
            f"(m={params.m_groups}, mu_t={mu_t})"
        )
    rotator = design.rotator(params, system)
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
    # each slot's (transmitter-side index, serving group), per rotator coordinate
    served = [[rotator.serving(s, coords) for s in range(1, l_size + 2)] for coords in rotator.coords()]
    blocks: list[BlockPlan] = []
    for active in actives:
        table = _active_table(active, demand, mu_r, mu_t, partial)
        for slots in served:
            for groups, specs in table:
                deliveries = tuple(
                    [Delivery(SubfileId(f, slots[s][0], rx, zf, irs), j, slots[s][1]) for f, j, s, rx, zf, irs in specs]
                )
                blocks.append(BlockPlan(len(blocks) + 1, deliveries, active, *groups))
    return Schedule(
        regime=design.labels[partial],
        tx_mode=design.tx_mode,
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


class _Digits(dict):
    """Memo of one digit function over the values a schedule repeats."""

    def __init__(self, digit):
        super().__init__()
        self.digit = digit

    def __missing__(self, value):
        self[value] = self.digit(value)
        return self[value]


def verify_schedule_partition(schedule: Schedule, demanded: SubfileKeys) -> PartitionReport:
    """Check the exact-cover property: every demanded (subfile, receiver)
    pair is delivered exactly once and nothing else is delivered.

    Each delivery is keyed once with the demanded set's codec; one with a
    digit out of range has no key and is undemanded. One stable sort of the
    demanded and delivered keys together then groups equal keys: a group
    without a demanded key is undemanded, one without a delivery is missing,
    one with several deliveries is duplicated. Undemanded and duplicated
    pairs are the deliveries' own; missing ones are decoded from their keys.
    """
    codec = demanded.codec
    deliveries = [dl for block in schedule.blocks for dl in block.deliveries]
    subfiles = [dl.subfile for dl in deliveries]
    fields = [map(attrgetter(name), subfiles) for name in ("file", "tx_index", "rx_set", "zf_set", "irs_set")]
    fields.append(map(attrgetter("intended_rx"), deliveries))
    # each field's digits go straight into the deliveries' key rows; a row with a -1 digit is unkeyed
    rows = np.zeros((len(deliveries), codec.width), dtype=np.int64)
    keyed = np.ones(len(deliveries), dtype=bool)
    for digit_of, values, (word, weight) in zip(codec.digit_of, fields, codec.places):
        digit = np.fromiter(map(_Digits(digit_of).__getitem__, values), np.int64, len(deliveries))
        keyed &= digit >= 0
        rows[:, word] += digit * np.int64(weight)

    def pair(i):
        return deliveries[i].subfile, deliveries[i].intended_rx

    unkeyed = Counter(pair(i) for i in np.flatnonzero(~keyed))
    keyed = np.flatnonzero(keyed)
    n_demanded = len(demanded)
    rows = np.concatenate([demanded.rows, rows[keyed]])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    is_demanded = order[starts] < n_demanded
    count = np.diff(np.r_[starts, len(rows)]) - is_demanded
    hit = count > 0
    first = np.zeros(len(starts), dtype=np.intp)
    first[hit] = keyed[order[starts[hit] + is_demanded[hit]] - n_demanded]
    missing = tuple(codec.pairs(rows[starts[~hit]]))
    extra = [pair(i) for i in first[~is_demanded]] + list(unkeyed)
    duplicates = [pair(i) for i in first[count > 1]] + [p for p, c in unkeyed.items() if c > 1]
    return PartitionReport(
        ok=not (missing or extra or duplicates),
        missing=missing,
        extra=tuple(sorted(extra)),
        duplicates=tuple(sorted(duplicates)),
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
