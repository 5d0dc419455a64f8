"""Index arithmetic and block-design machinery behind the delivery schedules.

Everything here is exact and deterministic: subsets are sorted integer
tuples over a 1-based ground set, systems enumerate in lexicographic order,
and searches explore candidates in a fixed order under an explicit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

Subset = tuple[int, ...]

#: ground sets larger than this are refused by the full ordered-partition
#: enumeration (their count grows like (m*mu_t)!).
ORDERED_ENUMERATION_GUARD = 10

#: default node budget for the backtracking design search.
DEFAULT_SEARCH_BUDGET = 2_000_000


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


def enumerate_subsets(n: int, k: int) -> list[Subset]:
    """All k-subsets of ``{1, ..., n}`` in lexicographic order."""
    if k < 0 or k > n:
        raise ValueError(f"subset size {k} outside [0, {n}]")
    return list(combinations(range(1, n + 1), k))


@dataclass(frozen=True)
class SubsetPartitionSystem:
    """A decomposition of all ``mu_t``-subsets of ``{1, ..., m*mu_t}`` into
    parallel classes: each class partitions the ground set into ``m``
    disjoint ``mu_t``-subsets, and every subset appears in exactly one class.

    Subsets carry a 1-based number: position ``p`` of class ``c`` is number
    ``(c - 1) * m + p``, so each class fills one contiguous window of size
    ``m``.
    """

    m: int
    mu_t: int
    classes: tuple[tuple[Subset, ...], ...]

    @property
    def num_subsets(self) -> int:
        return self.m * len(self.classes)

    def subset_by_number(self, kappa: int) -> Subset:
        if not 1 <= kappa <= self.num_subsets:
            raise ValueError(f"subset number {kappa} outside [1, {self.num_subsets}]")
        c, p = divmod(kappa - 1, self.m)
        return self.classes[c][p]

    def number_of(self, subset: Subset) -> int:
        key = tuple(sorted(subset))
        for c, cls in enumerate(self.classes):
            for p, s in enumerate(cls):
                if s == key:
                    return c * self.m + p + 1
        raise KeyError(f"subset {subset} not in system")


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


def find_subset_partition(
    m: int, mu_t: int, budget: int = DEFAULT_SEARCH_BUDGET
) -> SubsetPartitionSystem | None:
    """Search for a parallel-class decomposition of the ``mu_t``-subsets of
    ``{1, ..., m*mu_t}``.

    For ``mu_t = 2`` the round-robin construction always succeeds. For
    larger ``mu_t`` a deterministic backtracking search over parallel
    classes runs until it finds a system or exhausts ``budget`` nodes;
    ``None`` means "not found within budget", not a proof of absence.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if mu_t < 2:
        raise ValueError("mu_t must be at least 2")
    n = m * mu_t
    if n > 64:
        raise ValueError(f"ground set of {n} elements exceeds the supported index range")

    if m == 1:
        return SubsetPartitionSystem(m, mu_t, ((tuple(range(1, n + 1)),),))
    if mu_t == 2:
        classes = sorted(_round_robin_classes(m))
        return SubsetPartitionSystem(m, mu_t, tuple(classes))

    all_subsets = enumerate_subsets(n, mu_t)
    num_classes = math.comb(n - 1, mu_t - 1)
    by_min: dict[int, list[Subset]] = {}
    for s in all_subsets:
        by_min.setdefault(s[0], []).append(s)

    used: set[Subset] = set()
    classes: list[tuple[Subset, ...]] = []
    nodes = 0

    def extend_class(covered: frozenset[int], acc: list[Subset]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return False
        if len(acc) == m:
            classes.append(tuple(acc))
            if len(classes) == num_classes:
                return True
            if next_class():
                return True
            classes.pop()
            return False
        lowest = min(e for e in range(1, n + 1) if e not in covered)
        for s in by_min[lowest]:
            if s in used or covered & set(s):
                continue
            used.add(s)
            acc.append(s)
            if extend_class(covered | frozenset(s), acc):
                return True
            acc.pop()
            used.remove(s)
            if nodes > budget:
                return False
        return False

    def next_class() -> bool:
        return extend_class(frozenset(), [])

    if next_class():
        ordered = tuple(tuple(sorted(cls)) for cls in sorted(classes))
        return SubsetPartitionSystem(m, mu_t, ordered)
    return None


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

    with ``offset = (kappa - 1) % m!``. The delivery schedules rotate these
    three coordinates independently.
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

    def number_of(self, partition: tuple[Subset, ...]) -> int:
        try:
            return self.partitions.index(partition) + 1
        except ValueError:
            raise KeyError(f"{partition} is not a partition of this system") from None

    def number_from_coords(self, window: int, lead: int, remainder: int) -> int:
        """Inverse of the (window, lead, remainder) decomposition; all 1-based."""
        sub = math.factorial(self.m - 1)
        return (window - 1) * self.window_size + (lead - 1) * sub + remainder


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
