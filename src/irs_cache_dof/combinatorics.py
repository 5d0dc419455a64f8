"""Index arithmetic and block-design machinery behind the delivery schedules.

Everything here is exact and deterministic: subsets are sorted integer
tuples over a 1-based ground set, systems enumerate in lexicographic order,
and parallel-class designs are built by construction, never searched for.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

Subset = tuple[int, ...]

#: ground sets larger than this are refused by the full ordered-partition
#: enumeration (their count grows like (m*mu_t)!).
ORDERED_ENUMERATION_GUARD = 10

#: parallel-class designs needing more classes than this are refused. It is
#: C(15, 7) = 6435, the most any ground set of at most 16 elements needs
#: ((m, mu_t) = (2, 8), ~0.5 s). Timed on a 2-vCPU host, the slowest designs
#: it admits take ~8 s ((8, 4), 4495 classes) and under 40 MB; the next
#: counts up cost 2 s and 54 MB at (2, 9) (24,310 classes), 9 s and 127 MB
#: at (2, 10), and 106 s at (3, 7) (38,760 classes), each step up in mu_t
#: ~5x the classes.
DESIGN_CLASS_GUARD = 6435


def enumerate_subsets(n: int, k: int) -> list[Subset]:
    """All k-subsets of ``{1, ..., n}`` in lexicographic order."""
    if k < 0 or k > n:
        raise ValueError(f"subset size {k} outside [0, {n}]")
    return list(combinations(range(1, n + 1), k))


@functools.cache
def _binomials(n: int, k: int) -> np.ndarray:
    """``C(a, b)`` for ``a <= n``, ``b <= k`` as int64, capped at 2**63 - 1;
    while ``C(n, k)`` is below the cap, ranking ``k``-subsets of
    ``{1, ..., n}`` never reads a capped entry. Read-only, as every caller
    shares it."""
    cap = np.iinfo(np.int64).max
    table = np.array([[min(math.comb(a, b), cap) for b in range(k + 1)] for a in range(n + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def subset_ranks(subsets: np.ndarray, n: int) -> np.ndarray:
    """Position of each row of ``subsets`` (increasing elements of
    ``{1, ..., n}``, ``k`` per row) in :func:`enumerate_subsets` ``(n, k)``.

    Reading ``n - c`` for each element ``c`` turns lexicographic order into
    reverse order of the combinatorial number system (Knuth, TAOCP 4A,
    7.2.1.3), so the rank is ``C(n, k) - 1 - sum_i C(n - c_i, k - i + 1)``.
    """
    k = subsets.shape[1]
    table = _binomials(n, k)
    return table[n, k] - 1 - table[n - subsets, np.arange(k, 0, -1)].sum(axis=1)


def subsets_of_ranks(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """Inverse of :func:`subset_ranks`: the ``k``-subsets, one per row,
    recovered greedily, one element per binomial-column search."""
    table = _binomials(n, k)
    rest = table[n, k] - 1 - np.asarray(ranks, dtype=np.int64)
    subsets = np.empty((len(rest), k), dtype=np.int64)
    for i, size in enumerate(range(k, 0, -1)):
        top = np.searchsorted(table[:, size], rest, side="right") - 1
        subsets[:, i] = n - top
        rest -= table[top, size]
    return subsets


@dataclass(frozen=True)
class SubsetPartitionSystem:
    """A decomposition of all ``mu_t``-subsets of ``{1, ..., m*mu_t}`` into
    parallel classes: each class partitions the ground set into ``m``
    disjoint ``mu_t``-subsets, and every subset appears in exactly one class.
    """

    m: int
    mu_t: int
    classes: tuple[tuple[Subset, ...], ...]


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    violation: str | None = None


def verify_subset_partition(system: SubsetPartitionSystem) -> PartitionCheck:
    """Check all defining invariants of a :class:`SubsetPartitionSystem`.

    Returns the first violation found: wrong class count, a class that is
    not a partition of the ground set, or a subset repeated across classes
    (equivalently, a subset never used).
    """
    m, mu_t = system.m, system.mu_t
    n = m * mu_t
    ground = frozenset(range(1, n + 1))
    expected_classes = math.comb(n - 1, mu_t - 1)
    if len(system.classes) != expected_classes:
        return PartitionCheck(
            False, f"expected {expected_classes} classes, found {len(system.classes)}"
        )
    seen: set[Subset] = set()
    for c, cls in enumerate(system.classes, start=1):
        if len(cls) != m:
            return PartitionCheck(False, f"class {c} has {len(cls)} subsets, expected {m}")
        covered: set[int] = set()
        for s in cls:
            if len(s) != mu_t or len(set(s)) != mu_t:
                return PartitionCheck(False, f"class {c} contains malformed subset {s}")
            if covered & set(s):
                return PartitionCheck(False, f"not a partition: class {c} has overlapping subsets")
            covered |= set(s)
            key = tuple(sorted(s))
            if key in seen:
                return PartitionCheck(False, f"duplicate subset {key} across classes")
            seen.add(key)
        if covered != ground:
            return PartitionCheck(False, f"class {c} does not cover the ground set")
    return PartitionCheck(True)


def _round_robin_classes(m: int) -> list[tuple[Subset, ...]]:
    """Circle-method 1-factorization of the complete graph on ``2m`` points.

    Point ``2m`` stays fixed while the others rotate, producing ``2m - 1``
    rounds of ``m`` disjoint pairs that together use every pair exactly once.
    """
    n = 2 * m
    classes = []
    for r in range(n - 1):
        pairs = [tuple(sorted((n, r + 1)))]
        for k in range(1, m):
            a = (r + k) % (n - 1) + 1
            b = (r - k) % (n - 1) + 1
            pairs.append(tuple(sorted((a, b))))
        classes.append(tuple(sorted(pairs)))
    return classes


def _baranyai_classes(m: int, mu_t: int) -> list[tuple[Subset, ...]]:
    """Baranyai's inductive construction (van Lint & Wilson, *A Course in
    Combinatorics*, ch. 38).

    Start from ``C(n - 1, mu_t - 1)`` classes of ``m`` empty parts, ``n =
    m*mu_t``, and add the elements ``e = 1, ..., n`` in turn: each class gives
    ``e`` to one of its parts, and a part ``S`` takes ``e`` in
    ``C(n - e, mu_t - |S| - 1)`` classes in total. Giving ``e`` to every part
    ``S`` of every class with weight ``(mu_t - |S|) / (n - e + 1)`` meets both
    counts, so a fractional assignment exists and hence an integral one.
    After ``e = n`` every ``mu_t``-subset is a part exactly once.
    """
    n = m * mu_t
    classes = [[()] * m for _ in range(math.comb(n - 1, mu_t - 1))]
    for e in range(1, n + 1):
        options = [list(dict.fromkeys(p for p in cls if len(p) < mu_t)) for cls in classes]
        room = {p: math.comb(n - e, mu_t - len(p) - 1) for opts in options for p in opts}
        for cls, part in zip(classes, _assign(options, room)):
            cls[cls.index(part)] = part + (e,)
    return [tuple(sorted(cls)) for cls in classes]


def _assign(options: list[list[Subset]], room: dict[Subset, int]) -> list[Subset]:
    """Pick one of ``options[c]`` for every class ``c``, part ``p`` at most
    ``room[p]`` times, placing the classes one at a time along augmenting
    paths; such a path always exists when a full assignment does."""
    chosen: list[Subset | None] = [None] * len(options)
    holders: dict[Subset, dict[int, None]] = {p: {} for p in room}
    for root in range(len(options)):
        p, via = _augmenting_path(root, options, room, holders)
        # walk back to the root, moving each class on the path to the part it reached
        while p is not None:
            c = via[p]
            p, chosen[c] = chosen[c], p
            holders[chosen[c]][c] = None
            if p is not None:
                del holders[p][c]
    return chosen


def _augmenting_path(
    root: int, options: list[list[Subset]], room: dict[Subset, int], holders: dict[Subset, dict[int, None]]
) -> tuple[Subset, dict[Subset, int]]:
    """Breadth-first search from class ``root`` for a part with room left.

    Returns that part and, for every part reached, the class that reached it.
    A loop, not recursion, so the path length is not bounded by the
    interpreter's stack.
    """
    via: dict[Subset, int] = {}
    queue = deque([(root,)])
    while True:
        for c in queue.popleft():
            for p in options[c]:
                if p not in via:
                    via[p] = c
                    if len(holders[p]) < room[p]:
                        return p, via
                    queue.append(holders[p])


def find_subset_partition(m: int, mu_t: int) -> SubsetPartitionSystem:
    """Construct a parallel-class decomposition of the ``mu_t``-subsets of
    ``{1, ..., m*mu_t}``, with the classes and their subsets sorted.

    ``mu_t = 2`` uses the round-robin 1-factorization and larger ``mu_t``
    Baranyai's construction; both always succeed. For ``m <= 2`` the
    decomposition is unique.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if mu_t < 2:
        raise ValueError("mu_t must be at least 2")
    n = m * mu_t
    if n > 64:
        raise ValueError(f"ground set of {n} elements exceeds the supported index range")
    if math.comb(n - 1, mu_t - 1) > DESIGN_CLASS_GUARD:
        raise ValueError(
            f"a design for m={m}, mu_t={mu_t} needs {math.comb(n - 1, mu_t - 1)} parallel classes, "
            f"more than the guard ({DESIGN_CLASS_GUARD}), past which construction time and memory grow steeply"
        )
    classes = _round_robin_classes(m) if mu_t == 2 else _baranyai_classes(m, mu_t)
    return SubsetPartitionSystem(m, mu_t, tuple(sorted(classes)))


@dataclass(frozen=True)
class OrderedPartitionSystem:
    """All ordered partitions of ``{1, ..., m*mu_t}`` into ``m`` blocks of
    size ``mu_t``, numbered so that the ``m!`` orderings of one unordered
    partition fill a contiguous window of numbers.

    Within a window the orderings are enumerated lexicographically over the
    sorted block list, so number ``kappa`` decomposes as::

        window    = (kappa - 1) // m!          (which unordered partition)
        lead      = offset // (m-1)!           (which block is first)
        remainder = offset %  (m-1)!           (arrangement of the rest)

    with ``offset = (kappa - 1) % m!``. A delivery schedule's round is one
    (window, remainder) pair, its slots the ``m`` leads.
    """

    m: int
    mu_t: int
    partitions: tuple[tuple[Subset, ...], ...]

    @property
    def count(self) -> int:
        return len(self.partitions)

    @property
    def window_size(self) -> int:
        return math.factorial(self.m)

    @property
    def num_windows(self) -> int:
        return len(self.partitions) // self.window_size

    def partition_by_number(self, kappa: int) -> tuple[Subset, ...]:
        if not 1 <= kappa <= self.count:
            raise ValueError(f"partition number {kappa} outside [1, {self.count}]")
        return self.partitions[kappa - 1]


def _unordered_partitions(elements: tuple[int, ...], block_size: int):
    """Yield partitions of ``elements`` into blocks of ``block_size``, each
    partition as a tuple of blocks led by the smallest remaining element
    (which makes the enumeration canonical and lexicographic)."""
    if not elements:
        yield ()
        return
    head, rest = elements[0], elements[1:]
    for others in combinations(rest, block_size - 1):
        block = (head,) + others
        remaining = tuple(e for e in rest if e not in others)
        for tail in _unordered_partitions(remaining, block_size):
            yield (block,) + tail


def enumerate_ordered_partitions(m: int, mu_t: int) -> OrderedPartitionSystem:
    """Enumerate every ordered partition of ``{1, ..., m*mu_t}`` into ``m``
    blocks of size ``mu_t``, grouped by unordered partition and ordered
    lexicographically inside each group."""
    if m < 1 or mu_t < 1:
        raise ValueError("m and mu_t must be positive")
    n = m * mu_t
    if n > ORDERED_ENUMERATION_GUARD:
        raise ValueError(
            f"ground set of {n} elements exceeds the enumeration guard "
            f"({ORDERED_ENUMERATION_GUARD}); the full ordered-partition table would be huge"
        )
    ordered: list[tuple[Subset, ...]] = []
    for blocks in _unordered_partitions(tuple(range(1, n + 1)), mu_t):
        ordered.extend(sorted(permutations(blocks)))
    expected = math.factorial(n) // math.factorial(mu_t) ** m
    assert len(ordered) == expected
    return OrderedPartitionSystem(m, mu_t, tuple(ordered))
