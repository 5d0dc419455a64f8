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
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .channel import (
    ChannelRealization,
    ChannelStack,
    IrsConfig,
    SingularChannelError,
    equivalent_channel,
    solve_each,
)
from .lowering import lower_plan

if TYPE_CHECKING:
    from .scheduler import BlockPlan

STATUS_EXACT = "exact"
STATUS_INFEASIBLE = "infeasible"


class NullSet:
    """Transmitter-receiver pairs whose links the surface must cut.

    Given as ``links`` (1-based pairs) or as ``pairs``, the same links
    sorted, as 0-based indices: transmitters in row 0, receivers in row 1.
    The other form is derived on first use.
    """

    def __init__(self, links: Iterable[tuple[int, int]] | None = None, *, pairs: np.ndarray | None = None):
        if (links is None) == (pairs is None):
            raise TypeError("give exactly one of links and pairs")
        self._links = None if links is None else frozenset(links)
        self._pairs = pairs

    @property
    def links(self) -> frozenset[tuple[int, int]]:
        if self._links is None:
            self._links = frozenset((tx + 1, rx + 1) for tx, rx in zip(*self._pairs.tolist()))
        return self._links

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            self._pairs = np.array(self.sorted_links(), dtype=np.intp).reshape(-1, 2).T - 1
        return self._pairs

    def __len__(self) -> int:
        return self._pairs.shape[1] if self._links is None else len(self._links)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullSet) and self.links == other.links

    def __hash__(self) -> int:
        return hash(self.links)

    def __repr__(self) -> str:
        return f"NullSet({self.sorted_links()})"

    def sorted_links(self) -> list[tuple[int, int]]:
        return sorted(self.links)


def required_nulls(plan: "BlockPlan") -> NullSet:
    """Cross-links a block's topology eliminates (``BlockPlan.null_links``).

    A plan already lowered for simulation hands over its sorted index pairs
    as they are; a fresh one is not lowered here.
    """
    if plan.lowering is None:
        return NullSet(plan.null_links)
    return NullSet(pairs=lower_plan(plan).null_pairs)


@dataclass(frozen=True)
class IrsSolveInfo:
    status: str
    residual: float
    n_links: int
    q_elements: int


def solve_irs_stack(ch: ChannelStack, pairs: Sequence[np.ndarray]) -> tuple[np.ndarray, list[IrsSolveInfo]]:
    """Surface coefficients ``q[b]`` that cut the links ``pairs[b]`` (a
    null set's sorted index pairs, see :class:`NullSet`) in block ``b`` of
    ``ch``, and each block's solve info.

    The square systems (as many links as elements) are gathered and solved
    in one stacked call; the others take the least-squares path one block
    at a time. A block whose null set fits the elements gets the
    minimum-norm exact solution (status ``exact``), one with more links
    than elements the least-squares compromise with its residual (status
    ``infeasible``). An exactly singular system with enough elements is a
    probability-zero channel event: the first block with one raises.
    """
    n_blocks, q_count = ch.tx_to_irs.shape[:2]
    n_links = [links.shape[1] for links in pairs]
    q = np.zeros((n_blocks, q_count), dtype=complex)
    residual = np.zeros(n_blocks)
    failed: dict[int, str] = {}
    square = [b for b, n in enumerate(n_links) if n == q_count > 0]
    if square:
        at = np.array(square)[:, None]
        tx, rx = np.array([pairs[b] for b in square]).transpose(1, 0, 2)
        rows = ch.tx_to_irs.transpose(0, 2, 1)[at, tx] * ch.irs_to_rx[at, rx]
        rhs = -ch.direct[at, rx, tx]
        x, singular = solve_each(rows, rhs[..., None])
        into = slice(None) if len(square) == n_blocks else square
        q[into] = x[..., 0]
        residual[into] = np.abs((rows @ x)[..., 0] - rhs).max(axis=1)
        if singular.any():
            for s in np.flatnonzero(singular).tolist():
                failed[square[s]] = f"square null-steering system of size {q_count} is singular"
    for b, n in enumerate(n_links):
        if n == 0 or n == q_count:
            continue
        tx, rx = pairs[b]
        rows = ch.tx_to_irs[b].T[tx] * ch.irs_to_rx[b][rx]
        rhs = -ch.direct[b][rx, tx]
        q[b], _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
        if n <= q_count and rank < n:
            failed[b] = f"null-steering system rank {rank} < {n} equations"
        residual[b] = np.abs(rows @ q[b] - rhs).max()
    infos = []
    for b, (n, res, scale) in enumerate(zip(n_links, residual.tolist(), ch.scale.tolist())):
        # a non-finite q leaves a non-finite residual, which fails the comparison
        if n <= q_count and not res <= 1e-6 * scale:
            failed.setdefault(b, f"null-steering solve left residual {res:.3e}")
        infos.append(IrsSolveInfo(STATUS_EXACT if n <= q_count else STATUS_INFEASIBLE, res, n, q_count))
    if failed:
        b = min(failed)
        raise SingularChannelError(f"seed {ch.seed}, block {ch.blocks[b]}: {failed[b]}; the episode aborts")
    return q, infos


def solve_irs(ch: ChannelRealization, nulls: NullSet) -> tuple[IrsConfig, IrsSolveInfo]:
    """Solve for surface coefficients that cut every link in ``nulls``: the
    one-block case of :func:`solve_irs_stack`."""
    q, (info,) = solve_irs_stack(ChannelStack.of(ch), [nulls.pairs])
    return IrsConfig(q=q[0]), info


def residuals(irs: IrsConfig, ch: ChannelRealization, nulls: NullSet) -> float:
    """Largest surviving equivalent-channel magnitude over the null set."""
    if not nulls.links:
        return 0.0
    h_eq = equivalent_channel(ch, irs)
    return max(abs(h_eq[j - 1, i - 1]) for i, j in nulls.links)
