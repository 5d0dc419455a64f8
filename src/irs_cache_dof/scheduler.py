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
import numbers
from collections.abc import Sequence
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
    enumerate_subsets,
    subset_ranks,
    subsets_of_ranks,
    verify_subset_partition,
)
from .lowering import PlanStack, lower, relabel
from .params import SystemParams, as_index, as_integer, slot_init
from .placement import ORDERED_MODE, SUBSET_MODE, SubfileId, SubfileUniverse


class SchedulingError(ValueError):
    """The requested schedule violates a structural precondition."""


@dataclass(frozen=True)
class DemandVector:
    """Requested file per receiver, ``d[j-1]`` for receiver ``j``."""

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", tuple(as_integer(f, "demand") for f in self.d))

    def file_for(self, rx: int) -> int:
        return self.d[rx - 1]


def worst_case_demand(params: SystemParams) -> DemandVector:
    """All receivers request distinct files (receiver ``j`` asks for file ``j``)."""
    return DemandVector(d=tuple(range(1, params.k_r + 1)))


@slot_init
@dataclass(frozen=True, slots=True)
class Delivery:
    subfile: SubfileId
    intended_rx: int
    serving_txs: Subset


@slot_init
@dataclass(frozen=True, slots=True)
class BlockPlan:
    """One communication block: who sends what to whom, and which
    cross-links the surface must cut.

    ``cached_rxs``/``zf_rxs`` are the block's common receiver groups (side
    information and zero-forcing targets); ``idle_rxs`` are the active
    receivers outside them, each served by its own transmitter group.
    Receivers not in ``active_rxs`` are untouched this block. Deliveries go
    to the lead, then the cached, zero-forcing and idle receivers, each group
    in its field's order, as ``null_links`` and the lowered stages read them.
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
    subfiles are split in; together they name its :class:`Design`.
    ``blocks`` is a tuple in a schedule built by keyword, and the
    :class:`BlockPlans` of its factors in one :func:`make_schedule` built."""

    regime: str
    tx_mode: str
    params: SystemParams
    demand: DemandVector
    l_size: int
    blocks: Sequence[BlockPlan]

    @property
    def h_blocks(self) -> int:
        return len(self.blocks)

    @functools.cached_property
    def lowered(self) -> PlanStack:
        """The blocks lowered to one integer stack, on first use: from the
        factors of blocks built for this network (:meth:`BlockPlans.lowered`),
        else from the plans (:func:`lowering.lower`), where a block that
        names a node past the network's raises a ValueError. Building or
        verifying the schedule lowers nothing."""
        blocks = self.blocks
        if isinstance(blocks, BlockPlans) and blocks.params == self.params:
            return blocks.lowered()
        return lower(blocks, (self.params.k_t, self.params.k_r))

    @property
    def design(self) -> Design:
        """The one design whose placement mode and labels match."""
        for design in Design:
            if design.tx_mode == self.tx_mode and self.regime in design.labels:
                return design
        raise SchedulingError(f"no design has regime {self.regime!r} in {self.tx_mode!r} mode")


#: an int64 word of a subfile key holds digits whose radices multiply to at most this
_WORD_RADIX = 1 << 63


def _index_digit(value, radix: int) -> int:
    """``i - 1`` for ``value`` equal to an ``i`` in ``1..radix`` (:func:`as_index`), else -1."""
    return index - 1 if (index := as_index(value)) is not None and 1 <= index <= radix else -1


def _subset_digit(value, n: int, k: int) -> int:
    """Position of ``value`` in ``enumerate_subsets(n, k)``, or -1 when it is
    not a ``k``-tuple equal to an increasing one over ``1..n``."""
    if not (isinstance(value, tuple) and len(value) == k):
        return -1
    subset = list(map(as_index, value))
    if None in subset or subset != sorted(set(subset)) or (k and not 1 <= subset[0] <= subset[-1] <= n):
        return -1
    return int(subset_ranks(np.array(subset, dtype=np.int64).reshape(1, k), n)[0])


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

    def encode(self, *digits, out: np.ndarray | None = None) -> np.ndarray:
        """Key rows, shape ``(n, width)``, of the pairs whose six digit arrays
        broadcast together, in C order, written into ``out`` when it is
        given. A digit outside its radix raises."""
        digits = [np.asarray(d, dtype=np.int64) for d in digits]
        for digit, radix in zip(digits, self.radices):
            if digit.size and not (0 <= digit.min() and digit.max() < radix):
                raise ValueError(f"key digit outside [0, {radix})")
        digits = np.broadcast_arrays(*digits)
        keys = np.empty((digits[0].size, self.width), dtype=np.int64) if out is None else out
        keys.fill(0)
        for digit, (word, weight) in zip(digits, self.places):
            keys[:, word] += (digit * np.int64(weight)).reshape(-1)
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
    size = math.comb(p.k_r - 1, p.mu_r) * len(pattern) * len(tx)  # each receiver's rows
    keys = np.empty((len(schedule.demand.d) * size, codec.width), dtype=np.int64)
    for j, file in enumerate(schedule.demand.d, start=1):
        rx = np.flatnonzero(~cached[:, j])
        free = ~cached[rx]
        free[:, [0, j]] = False
        others = np.nonzero(free)[1].reshape(len(rx), n_others)
        zf = subset_ranks(others[:, zf_at].reshape(len(rx) * len(pattern), zf_size), p.k_r)
        irs = subset_ranks(others[:, irs_at].reshape(len(rx) * len(pattern), irs_size), p.k_r)
        codec.encode(file - 1, tx, np.repeat(rx, len(pattern)), zf, irs, j - 1, out=keys[(j - 1) * size : j * size])
    return SubfileKeys(codec, keys)


class Design(Enum):
    """How a schedule's serving transmitter groups rotate across blocks:
    single transmitters (Theorem 1), or the groups of a parallel-class
    design or of ordered arrangements (Theorem 2). A member's value is its
    name in the command line and episode reports; it carries the placement
    mode its subfiles are split in and its paper labels for full and for
    partial activity."""

    THM1 = ("thm1", SUBSET_MODE, ("T1-I", "T1-II"))
    THM2_PARTITION = ("thm2-partition", SUBSET_MODE, ("T2-IA", "T2-II"))
    THM2_ORDERED = ("thm2-ordered", ORDERED_MODE, ("T2-IB", "T2-II"))

    def __new__(cls, value: str, tx_mode: str, labels: tuple[str, str]):
        member = object.__new__(cls)
        member._value_ = value
        member.tx_mode, member.labels = tx_mode, labels
        return member

    @classmethod
    def _missing_(cls, value):
        raise SchedulingError(f"unknown regime {value!r}; expected one of {tuple(d.value for d in cls)}")

    def check(self, params: SystemParams) -> None:
        """Raise :class:`SchedulingError` unless ``params.mu_t`` fits the
        design: 1 for single transmitters, at least 2 for groups."""
        single = self is Design.THM1
        if single and params.mu_t != 1:
            raise SchedulingError(f"mu_t = {params.mu_t} needs a transmitter design, not regime {self.value!r}")
        if not single and params.mu_t < 2:
            raise SchedulingError(f"regime {self.value!r} needs mu_t >= 2, got mu_t = {params.mu_t}")


def _rounds(params: SystemParams, system: SubsetPartitionSystem | OrderedPartitionSystem | None) -> list[list]:
    """The rounds of a design: ordered lists of disjoint ``(transmitter-side
    index, serving group)`` slots. A block's slots are one round turned by
    an offset, so the groups inside a block stay disjoint while, over all
    rounds and offsets, each slot visits every index once.

    Single transmitters form one round. Each class of a parallel-class
    design is a round. An ordered system gives one round per unordered
    partition and arrangement remainder: its ``m`` arrangements, each group
    leading in turn, with the lead group serving.
    """
    if system is None:
        return [[((tx,), (tx,)) for tx in params.transmitters]]
    if isinstance(system, SubsetPartitionSystem):
        check = verify_subset_partition(system)
        if not check.ok:
            raise SchedulingError(f"invalid subset-partition system: {check.violation}")
        return [[(subset, subset) for subset in cls] for cls in system.classes]
    # arrangement number = window start + (lead - 1) * (m - 1)! + remainder, 1-based
    window, sub = system.window_size, math.factorial(system.m - 1)
    return [
        [(kappa, system.partitions[kappa - 1][0]) for kappa in range(start + rem, start + window + 1, sub)]
        for start in range(0, system.count, window)
        for rem in range(1, sub + 1)
    ]


def _active_table(active: Subset, demand: DemandVector, mu_r: int, mu_t: int, partial: bool) -> list:
    """The blocks of one active set, one entry per (cached, zero-forcing)
    pair in lexicographic order: the block's ``(lead, cached, zero-forcing,
    idle)`` receiver groups, and each delivery's ``(file, receiver, slot,
    rx_set, zf_set, irs_set)``. Slot 0 is the lead group; the idle
    receivers take slots 1.. in order. In partial-activity schedules
    (``partial``) a subfile's surface split is the active receivers outside
    its own groups. Every block of the active set shares these tuples,
    whatever its round and offset."""
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


class BlockPlans(Sequence):
    """The blocks of a schedule as :func:`make_schedule` builds them, kept
    as its factors: each active set of ``actives``, at each coordinate of
    ``served`` (each slot's transmitter-side index and serving group),
    takes each entry of its :func:`_active_table`, in that order.

    ``len`` comes from the factors, and :meth:`lowered` from the plans of
    one table, which it drops. Any other read builds every plan once and
    keeps them, as an episode reads them all. Slices and ``+`` give
    tuples, and the sequence is ``==`` to, and hashes as, the tuple of its
    plans."""

    __slots__ = ("params", "demand", "partial", "served", "actives", "_plans")

    def __init__(self, params: SystemParams, demand: DemandVector, partial: bool, served: list, actives: tuple):
        self.params, self.demand, self.partial, self.served, self.actives = params, demand, partial, served, actives
        self._plans = None

    def __len__(self) -> int:
        n, mu_r = len(self.actives[0]), self.params.mu_r
        entries = math.comb(n - 1, mu_r) * math.comb(n - 1 - mu_r, self.params.mu_t - 1)
        return len(self.actives) * len(self.served) * entries

    def plans(self) -> tuple[BlockPlan, ...]:
        """Every block's plan, built on the first call."""
        if self._plans is None:
            blocks: list[BlockPlan] = []
            for active in self.actives:
                table = _active_table(active, self.demand, self.params.mu_r, self.params.mu_t, self.partial)
                for slots in self.served:
                    for groups, specs in table:
                        deliveries = tuple(
                            [Delivery(SubfileId(f, slots[s][0], rx, zf, irs), j, slots[s][1]) for f, j, s, rx, zf, irs in specs]
                        )
                        blocks.append(BlockPlan(len(blocks) + 1, deliveries, active, *groups))
            self._plans = tuple(blocks)
        return self._plans

    def __getitem__(self, at):
        return self.plans()[at]

    def __iter__(self):
        return iter(self.plans())

    def __eq__(self, other):
        if isinstance(other, BlockPlans):
            other = other.plans()
        return self.plans() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.plans())

    def __add__(self, other) -> tuple:
        return self.plans() + (other.plans() if isinstance(other, BlockPlans) else other)

    def __radd__(self, other) -> tuple:
        return other + self.plans()

    def __repr__(self) -> str:
        return repr(self.plans())

    def lowered(self) -> PlanStack:
        """The stack :func:`lowering.lower` makes of the plans, relabelled
        from one table (:func:`lowering.relabel`): the plans of the active
        set ``1..n`` at the first coordinate are lowered, then dropped."""
        n = len(self.actives[0])
        table = BlockPlans(self.params, self.demand, self.partial, self.served[:1], (tuple(range(1, n + 1)),))
        groups = np.array([[group for _, group in slots] for slots in self.served])
        return relabel(lower(table.plans()), np.array(self.actives), groups)


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
    if len(demand.d) != k_r or not all(1 <= f <= params.n_files for f in demand.d):
        raise SchedulingError(
            f"the demand {demand.d} must name one file in 1..{params.n_files} for each of the {k_r} receivers"
        )
    if system is not None and (system.m, system.mu_t) != (params.m_groups, mu_t):
        raise SchedulingError(
            f"design is for (m={system.m}, mu_t={system.mu_t}) but parameters need "
            f"(m={params.m_groups}, mu_t={mu_t})"
        )
    rounds = _rounds(params, system)
    if mu_r + mu_t > k_r:
        raise SchedulingError(
            f"mu_r + mu_t = {mu_r + mu_t} exceeds k_r = {k_r}; the joint decoding group does not fit"
        )
    if l_size < 0:
        raise SchedulingError("l_size must be nonnegative")
    partial = mu_r + mu_t + l_size < k_r
    if partial:
        actives = tuple(combinations(params.receivers, mu_r + mu_t + l_size))
    else:
        l_size = k_r - mu_r - mu_t
        actives = (tuple(params.receivers),)
    if l_size + 1 > len(rounds[0]):
        raise SchedulingError(
            f"{l_size + 1} disjoint serving groups needed per block but only "
            f"{len(rounds[0])} are available"
        )
    # each slot's (transmitter-side index, serving group): every round turned by every offset
    served = [(r[k:] + r[:k])[: l_size + 1] for r in rounds for k in range(len(r))]
    return Schedule(
        regime=design.labels[partial],
        tx_mode=design.tx_mode,
        params=params,
        demand=demand,
        l_size=l_size,
        blocks=BlockPlans(params, demand, partial, served, actives),
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


def _order_key(value):
    """A sort key total over values of any type that orders like ``<``
    among real numbers, among strings, and among tuples of such values
    (element by element); reals come first, then strings, then tuples, then
    any other value by its type name and ``repr``."""
    if isinstance(value, numbers.Real):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, tuple):
        return (2, tuple(map(_order_key, value)))
    return (3, type(value).__name__, repr(value))


def _pair_key(pair: tuple[SubfileId, int]):
    """:func:`_order_key` of a (subfile, receiver) pair's fields, so pairs
    whose fields mix types (a transmitter index that is a subset in one and
    a number in another) still sort, as ``sorted`` sorts them where they
    compare."""
    sub, rx = pair
    return _order_key((sub.file, sub.tx_index, sub.rx_set, sub.zf_set, sub.irs_set, rx))


def _group_starts(rows: np.ndarray) -> np.ndarray:
    """The first position of every run of equal rows in sorted ``rows``."""
    new = np.ones(len(rows), dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    return np.flatnonzero(new)


#: blocks whose deliveries are keyed at once, which bounds the lists of their fields
_KEY_BLOCKS = 1024


def _key_deliveries(codec: SubfileKeyCodec, blocks: tuple[BlockPlan, ...], rows: np.ndarray) -> np.ndarray:
    """Add every delivery's key, in block order, into its row of ``rows``
    (zero on entry), and return whether each delivery keys: one with a
    digit out of range is left a partial row. The blocks are walked once,
    :data:`_KEY_BLOCKS` at a time, each digit memoized over the values the
    schedule repeats."""
    memos = [_Digits(digit_of) for digit_of in codec.digit_of]
    keyed = np.ones(len(rows), dtype=bool)
    stop = 0
    for first in range(0, len(blocks), _KEY_BLOCKS):
        deliveries = [dl for block in blocks[first : first + _KEY_BLOCKS] for dl in block.deliveries]
        subfiles = [dl.subfile for dl in deliveries]
        fields = [map(attrgetter(name), subfiles) for name in ("file", "tx_index", "rx_set", "zf_set", "irs_set")]
        fields.append(map(attrgetter("intended_rx"), deliveries))
        start, stop = stop, stop + len(deliveries)
        for memo, values, (word, weight) in zip(memos, fields, codec.places):
            digit = np.fromiter(map(memo.__getitem__, values), np.int64, len(deliveries))
            keyed[start:stop] &= digit >= 0
            digit *= weight
            rows[start:stop, word] += digit
    return keyed


def verify_schedule_partition(schedule: Schedule, demanded: SubfileKeys) -> PartitionReport:
    """Check the exact-cover property: every demanded (subfile, receiver)
    pair is delivered exactly once and nothing else is delivered.

    Each delivery is keyed once with the demanded set's codec. When the keys
    fit one word and every delivery keys, the sorted delivered keys equal
    the sorted demanded ones exactly when the cover holds, since the
    demanded keys are distinct. Otherwise the deliveries' key rows follow
    the demanded ones in one array, a delivery with a digit out of range
    given a private key, word 0 ``-1 - id`` (below every codec key) with
    ``id`` shared by equal pairs. One stable sort of all rows then groups
    equal ones: a group without a demanded key is undemanded, one without a
    delivery is missing, one with several deliveries is duplicated.
    Undemanded and duplicated pairs are the deliveries' own; missing ones
    are decoded.
    """
    codec, blocks = demanded.codec, schedule.blocks
    n_deliveries = sum(len(block.deliveries) for block in blocks)
    if codec.width == 1:
        keys = np.zeros((n_deliveries, 1), dtype=np.int64)
        if _key_deliveries(codec, blocks, keys).all():
            keys = keys.reshape(n_deliveries)
            keys.sort()
            if np.array_equal(keys, np.sort(demanded.rows[:, 0])):
                return PartitionReport(ok=True, missing=(), extra=(), duplicates=())
        del keys
    n_demanded = len(demanded)
    rows = np.zeros((n_demanded + n_deliveries, codec.width), dtype=np.int64)
    rows[:n_demanded] = demanded.rows
    keyed = _key_deliveries(codec, blocks, rows[n_demanded:])
    deliveries = [dl for block in blocks for dl in block.deliveries]

    def pair(i):
        return deliveries[i].subfile, deliveries[i].intended_rx

    ids: dict[tuple[SubfileId, int], int] = {}
    unkeyed = np.flatnonzero(~keyed)
    rows[n_demanded + unkeyed] = 0
    rows[n_demanded + unkeyed, 0] = [-1 - ids.setdefault(pair(i), len(ids)) for i in unkeyed]
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    starts = _group_starts(rows)
    is_demanded = order[starts] < n_demanded
    count = np.diff(starts, append=len(rows)) - is_demanded  # deliveries per group

    def delivered(at):  # the deliveries at sorted positions ``at``, in ``_pair_key`` order
        return tuple(sorted(map(pair, order[at] - n_demanded), key=_pair_key))

    missing = tuple(codec.pairs(rows[starts[count == 0]]))
    extra = delivered(starts[~is_demanded])
    duplicates = delivered((starts + is_demanded)[count > 1])
    return PartitionReport(ok=not (missing or extra or duplicates), missing=missing, extra=extra, duplicates=duplicates)


def achieved_dof(schedule: Schedule, delivered: int | None = None) -> Fraction:
    """Delivered subfiles per block, as an exact rational. With the default
    ``delivered`` (every scheduled subfile), this is the schedule's nominal
    rate; the simulator passes the count that actually decoded. A schedule
    with no blocks has no rate: :class:`SchedulingError`."""
    if not schedule.blocks:
        raise SchedulingError("a schedule with no blocks has no rate")
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
