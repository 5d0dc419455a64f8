"""Active-surface null steering: which cross-links each block must cut, and
the complex coefficient solve that cuts them.

Cutting the link from transmitter ``i`` to receiver ``j`` means choosing
coefficients ``q`` with ``sum_u tx_to_irs[u,i] * irs_to_rx[j,u] * q[u] =
-direct[j,i]``, one linear equation per link. With at most as many links as
elements the system is solvable almost surely for continuous fading; with
more links than elements it is generically unsolvable, which the solver
reports rather than hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .channel import (
    ChannelRealization,
    ChannelStack,
    IrsConfig,
    SingularChannelError,
    solve_each,
)
from .lowering import check_nodes, link_pairs, node_indices

if TYPE_CHECKING:
    from .scheduler import BlockPlan

STATUS_EXACT = "exact"
STATUS_INFEASIBLE = "infeasible"


def required_nulls(plan: "BlockPlan") -> frozenset[tuple[int, int]]:
    """Cross-links a block's topology eliminates, as 1-based (transmitter,
    receiver) pairs (``BlockPlan.null_links``)."""
    return plan.null_links


@dataclass(frozen=True)
class IrsSolveInfo:
    status: str
    residual: float
    n_links: int
    q_elements: int


def solve_status(n_links: int, q_count: int) -> str:
    """``exact`` when ``n_links`` links fit ``q_count`` elements, else ``infeasible``."""
    return STATUS_EXACT if n_links <= q_count else STATUS_INFEASIBLE


def solve_irs_stack(ch: ChannelStack, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Surface coefficients ``q[b]`` that cut the links ``pairs[b]`` in
    block ``b`` of ``ch``, and each block's residual ``(S,)``. ``pairs`` is
    ``(S, 2, N)``: every block cuts ``N`` links, sorted 0-based index pairs
    with transmitters in row 0 and receivers in row 1.

    With as many links as elements, the square systems are solved in one
    stacked call; with fewer or more, each block takes the least-squares
    path alone. A block whose null set fits the elements gets the
    minimum-norm exact solution, one with more links than elements the
    least-squares compromise (:func:`solve_status` names the two), one
    ``lstsq`` per block in block order on the calling thread (an episode
    spreads whole fronts over threads, not these solves). An exactly
    singular system with enough elements is a probability-zero channel
    event: the first block with one raises.
    """
    n_blocks, q_count = ch.tx_to_irs.shape[:2]
    n_links = pairs.shape[2]
    q = np.zeros((n_blocks, q_count), dtype=complex)
    residual = np.zeros(n_blocks)
    failed: dict[int, str] = {}
    if n_links == q_count > 0:
        at = np.arange(n_blocks)[:, None]
        tx, rx = pairs.transpose(1, 0, 2)
        rows = ch.tx_to_irs.transpose(0, 2, 1)[at, tx] * ch.irs_to_rx[at, rx]
        rhs = -ch.direct[at, rx, tx]
        x, singular = solve_each(rows, rhs[..., None])
        q[:] = x[..., 0]
        residual[:] = np.abs((rows @ x)[..., 0] - rhs).max(axis=1)
        for b in np.flatnonzero(singular).tolist():
            failed[b] = f"square null-steering system of size {q_count} is singular"
    elif n_links:
        for b, (tx, rx) in enumerate(pairs):
            rows = ch.tx_to_irs[b].T[tx] * ch.irs_to_rx[b][rx]
            rhs = -ch.direct[b][rx, tx]
            q[b], _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
            if n_links <= q_count and rank < n_links:
                failed[b] = f"null-steering system rank {rank} < {n_links} equations"
            residual[b] = np.abs(rows @ q[b] - rhs).max()
    if n_links <= q_count:
        # a non-finite q leaves a non-finite residual, which fails the comparison
        for b in np.flatnonzero(~(residual <= 1e-6 * ch.scale)).tolist():
            failed.setdefault(b, f"null-steering solve left residual {residual[b]:.3e}")
    if failed:
        b = min(failed)
        raise SingularChannelError(f"seed {ch.seed}, block {ch.blocks[b]}: {failed[b]}; the episode aborts")
    return q, residual


def solve_irs(ch: ChannelRealization, links: frozenset[tuple[int, int]]) -> tuple[IrsConfig, IrsSolveInfo]:
    """Solve for surface coefficients that cut every 1-based (transmitter,
    receiver) link in ``links``: the one-block case of
    :func:`solve_irs_stack`, its nodes taken by :func:`lowering.node_indices`
    and checked against the channel's (:func:`lowering.check_nodes`)."""
    ends = node_indices(ch.block_index, [node for tx, rx in links for node in (tx, rx)])
    check_nodes(ch.block_index, ends, np.arange(len(ends)) % 2 == 0, ch.direct.shape[::-1])
    pairs = link_pairs(ends)
    q, residual = solve_irs_stack(ChannelStack.of(ch), pairs[None])
    status = solve_status(len(links), q.shape[1])
    return IrsConfig(q=q[0]), IrsSolveInfo(status, float(residual[0]), len(links), q.shape[1])

