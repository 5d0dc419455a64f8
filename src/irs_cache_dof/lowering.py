"""Block plans lowered to integer arrays.

The per-block stages (null steering, zero forcing, transmit, decode) index
the channel matrices with a plan's node numbers over and over. Lowering
turns the plans of a schedule once into one integer stack, one row per
plan (int8 until an entry passes 127, then int16), so those stages run on index
arrays instead of walking ``Delivery`` objects and hashing ``SubfileId``
keys. A schedule built from its factors lowers the plans of one table
only, then moves those rows to every active set and coordinate
(:func:`relabel`). All indices in the stack are 0-based.

Every block of a one-shot schedule has the same shape: it serves
``mu_r + mu_t + L`` receivers through ``L + 1`` disjoint groups of ``mu_t``
transmitters, each group cutting ``mu_t * L`` links. So its plans share one
header ``(D, G, N, C, Z)`` — deliveries, serving-group size, null links,
cached receivers, zero-forcing receivers — which fixes the length of every
section of a row. A row holds only what no stage can derive from the rest:
each delivery's receiver and serving group, the cache relation, the null
links and the zero-forcing receivers. The zero-forcing systems are gathers
of these (:func:`zf.zf_systems`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import accumulate, chain, pairwise
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .params import as_index

if TYPE_CHECKING:
    from .scheduler import BlockPlan

#: the largest node number a row holds: its index is the largest int16
_MAX_NODE = np.iinfo(np.int16).max + 1
#: rows whose links :func:`lower` sorts at once, which bounds the sort keys' memory
_SORT_ROWS = 1024


class ShapeMismatchError(ValueError):
    """Plans of more than one lowered shape (header) were to be stacked."""


@dataclass(frozen=True, eq=False)
class PlanStack:
    """Integer arrays of the lowered plans of one ``header`` ``(D, G, N, C,
    Z)``, one row per plan (every array has the leading stack axis), so
    a stage gathers for all of them at once. ``stack[a:b]`` is the stack of plans ``a..b-1``,
    whose arrays are views of these. One plan is a stack of one,
    ``lower([plan])``.

    ``delivery_rx`` holds each delivery's receiver, ``serving_tx`` its
    serving transmitters (one row per delivery, in group order) and
    ``cache_mask`` the cache relation: entry ``(a, b)`` is 1 when delivery
    ``a``'s receiver caches delivery ``b``'s subfile. ``null_pairs`` holds
    the cut links sorted by (transmitter, receiver): transmitters in row 0,
    receivers in row 1. ``zf_rxs`` is the block's zero-forcing receiver
    group, sorted; the cached group enters only through its size ``C``.
    """

    header: tuple[int, ...]
    delivery_rx: np.ndarray
    serving_tx: np.ndarray
    cache_mask: np.ndarray
    null_pairs: np.ndarray
    zf_rxs: np.ndarray

    @property
    def n_deliveries(self) -> int:
        return self.header[0]

    @property
    def group(self) -> int:
        """The serving-group size."""
        return self.header[1]

    @property
    def n_joint(self) -> int:
        """The lead group's deliveries: the lead's, the cached receivers'
        and the zero-forcing receivers'."""
        return 1 + self.header[3] + self.header[4]

    def __len__(self) -> int:
        return len(self.delivery_rx)

    def __getitem__(self, plans: slice) -> "PlanStack":
        return PlanStack(self.header, *(getattr(self, f.name)[plans] for f in fields(self)[1:]))


def node_indices(block: int, values: list) -> np.ndarray:
    """Block ``block``'s node numbers ``values`` as 0-based int64 indices: ``i - 1``
    for the ``i`` in ``1.._MAX_NODE`` that each equals (:func:`as_index`),
    and a ValueError naming the block and the value for any other value.
    The rule runs value by value only when an array of them is not of such ints."""
    try:
        array = np.array(values)
        if array.dtype.kind in "iu" and 1 <= min(values) <= max(values) <= _MAX_NODE:
            return np.subtract(array, 1, dtype=np.int64)
    except (ValueError, TypeError, OverflowError):  # sequences or huge ints, which the rule refuses
        pass
    indices = [as_index(value) for value in values]
    for value, index in zip(values, indices):
        if index is None or not 1 <= index <= _MAX_NODE:  # index -1 would read as the last node
            rule = "nodes count from 1" if index is not None and index < 1 else f"nodes are integers in 1..{_MAX_NODE}"
            raise ValueError(f"block {block}: names node {value!r}; {rule}")
    return np.array(indices, dtype=np.int64) - 1


def link_pairs(ends: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Links given by 0-based ends ``(..., 2N)``, ``(tx, rx, tx, rx, ...)``, as
    pairs sorted by (transmitter, receiver), ``(..., 2, N)``: transmitters in
    row 0, receivers in row 1, written into ``out`` (which may be the ends'
    own memory) when it is given, else into a new int64 array. Take the ends
    by :func:`node_indices` first."""
    key = np.multiply(ends[..., 0::2], _MAX_NODE, dtype=np.int32)  # both ends are below _MAX_NODE = 2**15
    key += ends[..., 1::2]
    key.sort(axis=-1)
    if out is None:
        out = np.empty((*key.shape[:-1], 2, key.shape[-1]), dtype=np.int64)
    np.floor_divide(key, _MAX_NODE, out=out[..., 0, :], casting="unsafe")
    np.remainder(key, _MAX_NODE, out=out[..., 1, :], casting="unsafe")
    return out


def check_nodes(block: int, indices: np.ndarray, is_tx: np.ndarray, nodes: tuple[int, int]) -> None:
    """Raise a ValueError naming block ``block`` and the first of the 0-based
    ``indices`` past its count in ``nodes`` ``(k_t, k_r)``; ``is_tx`` tells
    which indices are transmitters."""
    over = indices >= np.where(is_tx, *nodes)
    if over.any():
        at = int(np.argmax(over))
        kind, count = ("transmitter", nodes[0]) if is_tx[at] else ("receiver", nodes[1])
        raise ValueError(f"block {block}: names {kind} {indices[at] + 1}; the network has {count} {kind}s")


@functools.lru_cache(maxsize=8)
def _transmitter_at(n_receivers: int, n_served: int, n_ends: int, n_zf: int) -> np.ndarray:
    """Which positions of :func:`_lower`'s node indices (receivers, serving
    transmitters, ``(tx, rx)`` link ends, zero-forcing receivers) hold a
    transmitter; the others hold a receiver."""
    served = np.arange(n_served) >= n_receivers
    return np.concatenate((served, np.tile([True, False], n_ends // 2), np.zeros(n_zf, bool)))


def _lower(plan: "BlockPlan", nodes: tuple[int, int] | None) -> tuple[tuple[int, ...], np.ndarray]:
    """The plan's header and its row, its null links as unsorted ``(tx, rx)``
    ends and its zero-forcing receivers unsorted, which :func:`lower` sorts.
    With ``nodes`` ``(k_t, k_r)``, a node past its count raises."""
    deliveries, block, links = plan.deliveries, plan.block_index, plan.null_links
    group = len(deliveries[0].serving_txs)
    if any(len(dl.serving_txs) != group for dl in deliveries):
        raise ValueError(f"block {block}: serving groups differ in size")
    if group > 1 and len(plan.zf_rxs) != group - 1:
        raise ValueError(f"block {block}: need {group - 1} zero-forcing receivers")
    receivers = [dl.intended_rx for dl in deliveries]
    served = [*receivers, *(tx for dl in deliveries for tx in dl.serving_txs)]
    indices = node_indices(block, [*served, *chain.from_iterable(links), *plan.zf_rxs])
    if nodes is not None:
        check_nodes(block, indices, _transmitter_at(len(receivers), len(served), 2 * len(links), len(plan.zf_rxs)), nodes)
    # null_links, PlanStack.n_joint and zf.zf_systems read the deliveries' groups in this order
    order = [plan.lead_rx, *plan.cached_rxs, *plan.zf_rxs, *plan.idle_rxs]
    if receivers != order:
        raise ValueError(
            f"block {block}: delivers to {tuple(receivers)}, not to (lead, *cached, *zf, *idle) {tuple(order)}"
        )
    # zf.zf_systems weights every joint delivery for the lead's group, which then sends it
    header = (len(deliveries), group, len(links), len(plan.cached_rxs), len(plan.zf_rxs))
    serving = indices[len(receivers) : len(served)].reshape(len(deliveries), group)
    apart = (serving[1 : 1 + header[3] + header[4]] != serving[0]).any(axis=1)
    if apart.any():
        joint = deliveries[1 + int(np.argmax(apart))]
        raise ValueError(
            f"block {block}: serves receiver {joint.intended_rx} by {tuple(joint.serving_txs)}; the lead, cached "
            f"and zero-forcing receivers share the lead's group {tuple(deliveries[0].serving_txs)}"
        )
    cache = [a.intended_rx in b.subfile.rx_set for a in deliveries for b in deliveries]
    return header, np.concatenate((indices[: len(served)], cache, indices[len(served) :]))


def _sections(header: tuple[int, ...]) -> tuple[tuple, list]:
    """The shape of each section of a row of ``header``, and its
    ``(start, stop)`` columns."""
    d, g, n, _, z = header
    shapes = ((d,), (d, g), (d, d), (2, n), (z,))
    return shapes, list(pairwise(accumulate(map(math.prod, shapes), initial=0)))


def _stack(header: tuple[int, ...], rows: np.ndarray) -> PlanStack:
    """The stack of ``rows``, whose links are unsorted ``(tx, rx)`` ends and
    whose zero-forcing receivers are unsorted: every :data:`_SORT_ROWS`
    rows, the links are sorted in place by :func:`link_pairs` and the
    zero-forcing receivers by value; then the rows are made read-only and
    each section is a view of them."""
    shapes, ends = _sections(header)
    (a, b), (c, e) = ends[3:]
    for first in range(0, len(rows), _SORT_ROWS):
        part = rows[first : first + _SORT_ROWS]
        link_pairs(part[:, a:b], out=part[:, a:b].reshape(len(part), 2, header[2]))
        part[:, c:e].sort(axis=1)
    rows.setflags(write=False)
    return PlanStack(header, *(rows[:, a:b].reshape(len(rows), *shape) for (a, b), shape in zip(ends, shapes)))


def lower(plans: "Sequence[BlockPlan]", nodes: tuple[int, int] | None = None) -> PlanStack:
    """The plans lowered and stacked, one row per plan, in order. They must
    share one shape: the first plan whose header differs from the first
    plan's raises :class:`ShapeMismatchError`, and no plans a ValueError.
    With ``nodes`` ``(k_t, k_r)``, the first plan that names a transmitter
    past ``k_t`` or a receiver past ``k_r`` raises a ValueError.

    Each row is written straight into the stack, which stays int8 until a
    value passes 127 and is then widened once to int16; then the links and
    zero-forcing receivers are sorted in place (:func:`_stack`)."""
    if not plans:
        raise ValueError("there are no plans to lower")
    header, values = _lower(plans[0], nodes)
    rows = np.empty((len(plans), len(values)), dtype=np.int8)
    for at, plan in enumerate(plans):
        shape, values = _lower(plan, nodes)
        if shape != header:
            raise ShapeMismatchError(
                f"block {plan.block_index} lowers to header {shape}, not to the {header} of block "
                f"{plans[0].block_index}; the blocks of one schedule share one shape"
            )
        if rows.dtype == np.int8 and values.max() > np.iinfo(np.int8).max:
            rows = rows.astype(np.int16)
        rows[at] = values
    return _stack(header, rows)


def relabel(stack: PlanStack, actives: np.ndarray, groups: np.ndarray) -> PlanStack:
    """The stack of blocks ``(a, c, e)``, in that nesting order: row ``e``
    of ``stack``, lowered on the receivers ``1..n`` and the groups
    ``groups[0]``, moved to the active set ``actives[a]`` (1-based
    receivers, increasing, ``(A, n)``) and to coordinate ``c`` of
    ``groups`` (1-based transmitters, one disjoint group per slot,
    ``(C, L + 1, G)``). Receiver ``j`` becomes ``actives[a, j]``, each
    slot's transmitters become the same slot's at coordinate ``c``, and the
    cache relation is copied; the links and zero-forcing receivers are then
    sorted again (:func:`_stack`)."""
    top = max(int(actives.max()), int(groups.max()))
    if top > _MAX_NODE:  # its index would wrap in int16
        raise ValueError(f"names node {top}; nodes are integers in 1..{_MAX_NODE}")
    dtype = np.int8 if top - 1 <= np.iinfo(np.int8).max else np.int16
    rx = (actives - 1).astype(dtype)
    tx = np.empty((len(groups), int(groups[0].max())), dtype)  # coordinate 0's transmitter -> coordinate c's
    tx[:, groups[0].ravel() - 1] = groups.reshape(len(groups), -1) - 1
    ends = _sections(stack.header)[1]
    rows = np.empty((len(rx) * len(tx) * len(stack), ends[-1][1]), dtype)
    grid = rows.reshape(len(rx), len(tx), len(stack), -1)
    to_rx, to_tx, to_cache, to_links, to_zf = (slice(*end) for end in ends)
    grid[..., to_rx] = rx[:, None, stack.delivery_rx]
    grid[..., to_tx] = tx[:, stack.serving_tx.reshape(len(stack), -1)]
    grid[..., to_cache] = stack.cache_mask.reshape(len(stack), -1)
    grid[..., to_links][..., 0::2] = tx[:, stack.null_pairs[:, 0]]
    grid[..., to_links][..., 1::2] = rx[:, None, stack.null_pairs[:, 1]]
    grid[..., to_zf] = rx[:, None, stack.zf_rxs]
    return _stack(stack.header, rows)
