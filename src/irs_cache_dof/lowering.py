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
header ``(D, G, N, C, Z, R)`` — deliveries, serving-group size, null links,
cached receivers, zero-forcing receivers, joint zero-forcing rows — which
fixes the length of every section of a row; a row holds the sections
:class:`PlanStack` reads, in the order of its section numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, chain, islice, pairwise
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scheduler import BlockPlan

_MAX_INDEX = np.iinfo(np.int16).max


def joint_zf_rows(n_slots: int, mu_t: int) -> list[tuple[int, int]]:
    """Row pattern of the joint zero-forcing system of one serving group
    delivering ``n_slots`` subfiles (lead, ``mu_r`` cache-covered slots,
    ``mu_t - 1`` zero-forcing slots, in that order).

    Row ``(s, u)`` holds slot ``s``'s receiver's channel from the serving
    group, placed on the unknowns of slot ``u``: unit gain when ``s == u``,
    zero otherwise. The lead and every zero-forcing target cut each slot
    their cache does not cover; cache-covered cross terms stay
    unconstrained (the receiver subtracts them).
    """
    mu_r = n_slots - mu_t
    if mu_r < 0:
        raise ValueError("receiver list shorter than the serving group")
    zf_slots = range(mu_r + 1, n_slots)
    rows = [(0, 0)] + [(0, u) for u in zf_slots]
    rows += [(s, s) for s in range(1, mu_r + 1)]
    for s in zf_slots:
        rows.append((s, s))
        rows += [(s, u) for u in range(mu_r + 1)]
        rows += [(s, u) for u in zf_slots if u != s]
    return rows


class ShapeMismatchError(ValueError):
    """Plans of more than one lowered shape (header) were to be stacked."""


@dataclass(frozen=True, eq=False)
class PlanStack:
    """Integer arrays of the lowered plans of one ``header`` ``(D, G, N, C,
    Z, R)``, one row per plan (every array has the leading stack axis), so
    a stage gathers for all of them at once. ``stack[a:b]`` is the stack of plans ``a..b-1``,
    whose arrays are views of these. One plan is a stack of one,
    ``lower([plan])``.

    ``delivery_rx`` holds each delivery's receiver, ``serving_tx`` its
    serving transmitters (one row per delivery, in group order) and
    ``cache_mask`` the cache relation: entry ``(a, b)`` is 1 when delivery
    ``a``'s receiver caches delivery ``b``'s subfile. ``null_pairs`` holds
    the cut links sorted by (transmitter, receiver): transmitters in row 0,
    receivers in row 1. ``cached_rxs`` and ``zf_rxs`` are the block's
    common receiver groups, each sorted. For the joint zero-forcing system
    of the lead group's ``n_joint`` deliveries, ``joint_rx`` and
    ``joint_tx`` give the ``h_eq`` entry of each nonzero in
    ``joint_zf_layout`` order; for the square system of each idle delivery
    after them, ``idle_rx`` and ``idle_tx`` give the ``h_eq`` entry of
    every element, row-major: rows are its own receiver then the
    zero-forcing ones, columns its serving group.
    """

    header: tuple[int, ...]
    delivery_rx: np.ndarray
    serving_tx: np.ndarray
    cache_mask: np.ndarray
    null_pairs: np.ndarray
    cached_rxs: np.ndarray
    zf_rxs: np.ndarray
    joint_rx: np.ndarray
    joint_tx: np.ndarray
    idle_rx: np.ndarray
    idle_tx: np.ndarray

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


class JointLayout(NamedTuple):
    """Where the nonzeros of a joint zero-forcing system go: the receiver
    slot each one reads (its serving transmitter cycles through the group),
    its flat position in the square matrix, and the right-hand side."""

    rx_slot: tuple[int, ...]
    pos: np.ndarray
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.rhs)


@lru_cache(maxsize=None)
def joint_zf_layout(n_slots: int, mu_t: int) -> JointLayout:
    """The layout of ``joint_zf_rows(n_slots, mu_t)``, shared by every
    block with the same group shape."""
    rows = joint_zf_rows(n_slots, mu_t)
    dim = len(rows)
    pos = np.array([row * dim + u * mu_t + p for row, (_, u) in enumerate(rows) for p in range(mu_t)])
    rhs = np.array([1.0 if s == u else 0.0 for s, u in rows], dtype=complex)
    pos.setflags(write=False)
    rhs.setflags(write=False)
    return JointLayout(tuple(s for s, _ in rows for _ in range(mu_t)), pos, rhs)


def _lower(plan: "BlockPlan") -> tuple[tuple[int, ...], list[int]]:
    """The plan's header and its row."""
    deliveries = plan.deliveries
    group = len(deliveries[0].serving_txs)
    if any(len(dl.serving_txs) != group for dl in deliveries):
        raise ValueError(f"block {plan.block_index}: serving groups differ in size")
    n_joint = 1 + len(plan.cached_rxs) + len(plan.zf_rxs)
    rx = [dl.intended_rx - 1 for dl in deliveries]
    zf_rxs = [j - 1 for j in sorted(plan.zf_rxs)]
    serving = [[tx - 1 for tx in dl.serving_txs] for dl in deliveries]
    joint: tuple[list[int], list[int]] = ([], [])
    idle_rx: list[int] = []
    idle_tx: list[int] = []
    if group > 1:
        if len(zf_rxs) != group - 1:
            raise ValueError(f"block {plan.block_index}: need {group - 1} zero-forcing receivers")
        layout = joint_zf_layout(n_joint, group)
        joint = ([rx[s] for s in layout.rx_slot], serving[0] * layout.dim)
        for r, txs in zip(rx[n_joint:], serving[n_joint:]):
            idle_rx += [j for j in (r, *zf_rxs) for _ in txs]
            idle_tx += txs * group
    links = sorted(plan.null_links)
    header = (len(deliveries), group, len(links), len(plan.cached_rxs), len(zf_rxs), len(joint[0]) // group)
    sections = [
        rx,
        [tx for txs in serving for tx in txs],
        [int(a.intended_rx in b.subfile.rx_set) for a in deliveries for b in deliveries],
        [tx - 1 for tx, _ in links] + [r - 1 for _, r in links],
        [j - 1 for j in sorted(plan.cached_rxs)],
        zf_rxs,
        *joint,
        idle_rx,
        idle_tx,
    ]
    values = list(chain.from_iterable(sections))
    if max(values) > _MAX_INDEX:
        raise ValueError(f"block {plan.block_index} is too large to lower to int16 indices")
    return header, values


def lower(plans: "Sequence[BlockPlan]") -> PlanStack:
    """The plans lowered and stacked, one row per plan, in order. They must
    share one shape: the first plan whose header differs from the first
    plan's raises :class:`ShapeMismatchError`."""
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
    d, g, n, c, z, r = header
    idle = (d - 1 - c - z) * g * g if r else 0
    shapes = ((d,), (d, g), (d, d), (2, n), (c,), (z,), (r * g,), (r * g,), (idle,), (idle,))
    ends = pairwise(accumulate(map(math.prod, shapes), initial=0))
    return PlanStack(header, *(rows[:, a:b].reshape(len(plans), *shape) for (a, b), shape in zip(ends, shapes)))
