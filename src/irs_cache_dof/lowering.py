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
from itertools import accumulate, chain, islice, pairwise
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scheduler import BlockPlan

_MAX_INDEX = np.iinfo(np.int16).max


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


def _lower(plan: "BlockPlan") -> tuple[tuple[int, ...], list[int]]:
    """The plan's header and its row."""
    deliveries = plan.deliveries
    group = len(deliveries[0].serving_txs)
    if any(len(dl.serving_txs) != group for dl in deliveries):
        raise ValueError(f"block {plan.block_index}: serving groups differ in size")
    if group > 1 and len(plan.zf_rxs) != group - 1:
        raise ValueError(f"block {plan.block_index}: need {group - 1} zero-forcing receivers")
    links = sorted(plan.null_links)
    header = (len(deliveries), group, len(links), len(plan.cached_rxs), len(plan.zf_rxs))
    sections = [
        [dl.intended_rx - 1 for dl in deliveries],
        [tx - 1 for dl in deliveries for tx in dl.serving_txs],
        [int(a.intended_rx in b.subfile.rx_set) for a in deliveries for b in deliveries],
        [tx - 1 for tx, _ in links] + [r - 1 for _, r in links],
        [j - 1 for j in sorted(plan.zf_rxs)],
    ]
    values = list(chain.from_iterable(sections))
    if min(values) < 0:  # numpy would read index -1 as the last node
        raise ValueError(f"block {plan.block_index}: names node {min(values) + 1}; nodes count from 1")
    if max(values) > _MAX_INDEX:
        raise ValueError(f"block {plan.block_index} is too large to lower to int16 indices")
    return header, values


def lower(plans: "Sequence[BlockPlan]") -> PlanStack:
    """The plans lowered and stacked, one row per plan, in order. They must
    share one shape: the first plan whose header differs from the first
    plan's raises :class:`ShapeMismatchError`, and no plans a ValueError."""
    if not plans:
        raise ValueError("there are no plans to lower")
    lowered = map(_lower, plans)
    header, values = next(lowered)
    rows = np.empty((len(plans), len(values)), dtype=np.int16)
    rows[0] = values
    for row, plan, (shape, values) in zip(rows[1:], islice(plans, 1, None), lowered):
        if shape != header:
            raise ShapeMismatchError(
                f"block {plan.block_index} lowers to header {shape}, not to the {header} of block "
                f"{plans[0].block_index}; the blocks of one schedule share one shape"
            )
        row[:] = values
    if rows.max() <= np.iinfo(np.int8).max:
        rows = rows.astype(np.int8)
    rows.setflags(write=False)
    d, g, n, _, z = header
    shapes = ((d,), (d, g), (d, d), (2, n), (z,))
    ends = pairwise(accumulate(map(math.prod, shapes), initial=0))
    return PlanStack(header, *(rows[:, a:b].reshape(len(plans), *shape) for (a, b), shape in zip(ends, shapes)))
