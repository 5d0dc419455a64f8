"""Block plans lowered to integer arrays.

The per-block stages (null steering, zero forcing, transmit, decode) index
the channel matrices with a plan's node numbers over and over. Lowering
turns a plan once into one small integer buffer (int8 when every entry
fits, else int16), cached on the plan, so those stages run on index arrays
instead of walking ``Delivery`` objects and hashing ``SubfileId`` keys. All
indices in the buffer are 0-based.

Buffer layout: the header ``(D, G, N, C, Z, R)`` — deliveries,
serving-group size, null links, cached receivers, zero-forcing receivers,
joint zero-forcing rows — then the sections :class:`PlanStack` reads,
in the order of its section numbers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .scheduler import BlockPlan

_HEADER = 6
_MAX_INDEX = np.iinfo(np.int16).max
# buffer sections after the header, in order
(_RX, _SERVING, _CACHED, _NULL_PAIRS, _CACHED_RXS, _ZF_RXS,
 _JOINT_RX, _JOINT_TX, _IDLE_RX, _IDLE_TX) = range(10)


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


def _section_ends(header: list[int]) -> list[int]:
    """Where each buffer section ends, from the header's counts."""
    d, g, n, c, z, r = header
    idle = (d - 1 - c - z) * g * g if r else 0
    sizes = (d, d * g, d * d, 2 * n, c, z, r * g, r * g, idle, idle)
    return list(accumulate(sizes, initial=_HEADER))


class PlanStack:
    """Integer array views of the gather sections of the lowered buffers
    of plans with one header, stacked one per row (every view has the
    leading stack axis), so a stage gathers for all of them at once, with
    the header's counts: ``n_deliveries``, ``n_joint`` (the lead group's
    deliveries) and ``group`` (the serving-group size). One plan is a stack
    of one, ``PlanStack([plan_buffer(plan)])``.

    ``delivery_rx`` holds each delivery's receiver, ``serving_tx`` its
    serving transmitters (one row per delivery, in group order) and
    ``cache_mask`` the cache relation: entry ``(a, b)`` is 1 when delivery
    ``a``'s receiver caches delivery ``b``'s subfile. ``cached_rxs`` and
    ``zf_rxs`` are the block's common receiver groups, each sorted.
    ``null_pairs`` holds the cut links sorted by (transmitter, receiver):
    transmitters in row 0, receivers in row 1. For the joint zero-forcing
    system of the lead group's ``n_joint`` deliveries, ``joint_rx`` and
    ``joint_tx`` give the ``h_eq`` entry of each nonzero in
    ``joint_zf_layout`` order; for the square system of each idle delivery
    after them, ``idle_rx`` and ``idle_tx`` give the ``h_eq`` entry of
    every element, row-major: rows are its own receiver then the
    zero-forcing ones, columns its serving group.
    """

    __slots__ = ("buf", "n_deliveries", "n_joint", "group", "_ends")

    def __init__(self, bufs: list[np.ndarray]):
        self.buf = np.array(bufs)
        header = self.buf[0, :_HEADER].tolist()
        d, g, _, c, z, _ = header
        self.n_deliveries, self.group, self.n_joint = d, g, 1 + c + z
        self._ends = _section_ends(header)

    def _array(self, section: int) -> np.ndarray:
        return self.buf[:, self._ends[section] : self._ends[section + 1]]

    def _matrix(self, section: int, cols: int) -> np.ndarray:
        return self._array(section).reshape(len(self.buf), self.n_deliveries, cols)

    @property
    def delivery_rx(self) -> np.ndarray:
        return self._array(_RX)

    @property
    def serving_tx(self) -> np.ndarray:
        return self._matrix(_SERVING, self.group)

    @property
    def cache_mask(self) -> np.ndarray:
        return self._matrix(_CACHED, self.n_deliveries)

    @property
    def cached_rxs(self) -> np.ndarray:
        return self._array(_CACHED_RXS)

    @property
    def zf_rxs(self) -> np.ndarray:
        return self._array(_ZF_RXS)

    @property
    def null_pairs(self) -> np.ndarray:
        return self._array(_NULL_PAIRS).reshape(len(self.buf), 2, -1)

    @property
    def joint_rx(self) -> np.ndarray:
        return self._array(_JOINT_RX)

    @property
    def joint_tx(self) -> np.ndarray:
        return self._array(_JOINT_TX)

    @property
    def idle_rx(self) -> np.ndarray:
        return self._array(_IDLE_RX)

    @property
    def idle_tx(self) -> np.ndarray:
        return self._array(_IDLE_TX)


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


def _lower(plan: "BlockPlan") -> np.ndarray:
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
    header = [len(deliveries), group, len(links), len(plan.cached_rxs), len(zf_rxs), len(joint[0]) // group]
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
    values = header + list(chain.from_iterable(sections))
    largest = max(values)
    if largest > _MAX_INDEX:
        raise ValueError(f"block {plan.block_index} is too large to lower to int16 indices")
    buf = np.array(values, dtype=np.int8 if largest <= np.iinfo(np.int8).max else np.int16)
    buf.setflags(write=False)
    return buf


def plan_buffer(plan: "BlockPlan") -> np.ndarray:
    """The plan's lowered buffer, built on the first call and cached on
    the plan (one buffer per plan) for every later block stage."""
    if plan.lowering is None:
        object.__setattr__(plan, "lowering", _lower(plan))
    return plan.lowering


def stack_plans(plans: "Sequence[BlockPlan]") -> list[tuple[list[int], PlanStack]]:
    """The plans grouped by header (so by the shape of every section),
    each group as the positions of its plans in ``plans`` and their
    stacked buffers, groups in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    bufs = [plan_buffer(plan) for plan in plans]
    for position, buf in enumerate(bufs):
        groups.setdefault(tuple(buf[:_HEADER].tolist()), []).append(position)
    return [(positions, PlanStack([bufs[p] for p in positions])) for positions in groups.values()]
