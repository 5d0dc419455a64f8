"""Block plans lowered to integer arrays.

The per-block stages (null steering, zero forcing, transmit, decode) index
the channel matrices with a plan's node numbers over and over. Lowering
turns the plans of a schedule once into one integer stack, one row per
plan (int8 when every entry fits, else int16), so those stages run on index
arrays instead of walking ``Delivery`` objects and hashing ``SubfileId``
keys. All indices in the stack are 0-based.

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


def link_pairs(ends: np.ndarray) -> np.ndarray:
    """Links given by 0-based ends ``(..., 2N)``, ``(tx, rx, tx, rx, ...)``, as
    pairs sorted by (transmitter, receiver), ``(..., 2, N)``: transmitters in
    row 0, receivers in row 1. Take the ends by :func:`node_indices` first."""
    key = np.multiply(ends[..., 0::2], _MAX_NODE, dtype=np.int64) + ends[..., 1::2]  # both are below _MAX_NODE
    key.sort(axis=-1)
    return np.stack((key // _MAX_NODE, key % _MAX_NODE), axis=-2)


def _lower(plan: "BlockPlan") -> tuple[tuple[int, ...], np.ndarray]:
    """The plan's header and its row, its null links as unsorted ``(tx, rx)``
    ends and its zero-forcing receivers unsorted, which :func:`lower` sorts."""
    deliveries, block, links = plan.deliveries, plan.block_index, plan.null_links
    group = len(deliveries[0].serving_txs)
    if any(len(dl.serving_txs) != group for dl in deliveries):
        raise ValueError(f"block {block}: serving groups differ in size")
    if group > 1 and len(plan.zf_rxs) != group - 1:
        raise ValueError(f"block {block}: need {group - 1} zero-forcing receivers")
    receivers = [dl.intended_rx for dl in deliveries]
    served = (*receivers, *(tx for dl in deliveries for tx in dl.serving_txs))
    indices = node_indices(block, [*served, *chain.from_iterable(links), *plan.zf_rxs])
    # null_links, PlanStack.n_joint and zf.zf_systems read the deliveries' groups in this order
    order = [plan.lead_rx, *plan.cached_rxs, *plan.zf_rxs, *plan.idle_rxs]
    if receivers != order:
        raise ValueError(
            f"block {block}: delivers to {tuple(receivers)}, not to (lead, *cached, *zf, *idle) {tuple(order)}"
        )
    header = (len(deliveries), group, len(links), len(plan.cached_rxs), len(plan.zf_rxs))
    cache = [a.intended_rx in b.subfile.rx_set for a in deliveries for b in deliveries]
    return header, np.concatenate((indices[: len(served)], cache, indices[len(served) :]))


def lower(plans: "Sequence[BlockPlan]") -> PlanStack:
    """The plans lowered and stacked, one row per plan, in order. They must
    share one shape: the first plan whose header differs from the first
    plan's raises :class:`ShapeMismatchError`, and no plans a ValueError."""
    if not plans:
        raise ValueError("there are no plans to lower")
    header, values = _lower(plans[0])
    rows = np.empty((len(plans), len(values)), dtype=np.int16)
    for row, plan in zip(rows, plans):
        shape, values = _lower(plan)
        if shape != header:
            raise ShapeMismatchError(
                f"block {plan.block_index} lowers to header {shape}, not to the {header} of block "
                f"{plans[0].block_index}; the blocks of one schedule share one shape"
            )
        row[:] = values
    d, g, n, _, z = header
    shapes = ((d,), (d, g), (d, d), (2, n), (z,))
    ends = list(pairwise(accumulate(map(math.prod, shapes), initial=0)))
    (a, b), (c, e) = ends[3:]
    for part in np.split(rows, range(_SORT_ROWS, len(plans), _SORT_ROWS)):
        part[:, a:b] = link_pairs(part[:, a:b]).reshape(len(part), -1)
        part[:, c:e].sort(axis=1)
    if rows.max() <= np.iinfo(np.int8).max:
        rows = rows.astype(np.int8)
    rows.setflags(write=False)
    return PlanStack(header, *(rows[:, a:b].reshape(len(plans), *shape) for (a, b), shape in zip(ends, shapes)))
