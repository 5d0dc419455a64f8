"""Closed-form rate evaluation: the two achievability formulas, the
element-budget-to-null-count conversion, two literature baselines, convex
memory sharing, and the parameter sweeps behind the standard comparison
figures. All values are exact rationals built from big-integer binomials.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .params import ParameterError, SystemParams, as_count, as_integer, slot_init

STRICT_Q = "strict"
SUFFICIENT_Q = "sufficient"

SCHEME_THM1 = "thm1"
SCHEME_THM2 = "thm2"
SCHEME_BENCH_ONESHOT = "bench_oneshot"
SCHEME_BENCH_NDT = "bench_ndt"
SCHEME_MEMORY_SHARING = "memory_sharing"


@slot_init
@dataclass(frozen=True, slots=True)
class DofPoint:
    """One evaluated (parameters -> rate) record."""

    scheme: str
    k_t: int
    k_r: int
    mu_t: Fraction
    mu_r: Fraction
    q_elements: int | None
    l_size: int | None
    sum_dof: Fraction
    per_user_dof: Fraction
    strictness: str | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.per_user_dof <= 1:
            raise ValueError(f"per-user rate {self.per_user_dof} outside [0, 1]")
        if self.sum_dof != self.k_r * self.per_user_dof:
            raise ValueError("sum and per-user rates disagree")


def required_elements(l_size: int, mu_t: int, mode: str) -> int:
    """Surface elements needed to support ``l_size`` covered receivers.

    ``strict`` charges one element per cut receiver pair,
    ``L*(L+1)`` in total; ``sufficient`` charges every individual
    transmitter-receiver link the topology cuts, ``mu_t*L*(L+1)``, which is
    what the per-link equations actually require when serving groups have
    ``mu_t > 1`` transmitters.
    """
    if mode == STRICT_Q:
        return l_size * (l_size + 1)
    if mode == SUFFICIENT_Q:
        return max(mu_t, 1) * l_size * (l_size + 1)
    raise ValueError(f"unknown strictness mode {mode!r}")


def l_cap(params: SystemParams) -> int:
    """Largest surface-covered receiver count the schedules can use."""
    if params.mu_t == 1:
        return min(params.k_t - 1, params.k_r - 1)
    return min(params.m_groups - 1, params.k_r - 1)


def max_feasible_L(q_elements: int, params: SystemParams, mode: str = STRICT_Q) -> int:
    """Largest ``L`` whose element requirement fits the budget, capped by
    the schedule structure; 0 when even one covered receiver is too dear."""
    q_elements = as_count(q_elements, "q_elements")
    best = 0
    for l_size in range(1, l_cap(params) + 1):
        if required_elements(l_size, params.mu_t, mode) <= q_elements:
            best = l_size
    return best


def _point(scheme: str, params: SystemParams, l_size: int | None, per_user: Fraction, mode: str | None = None) -> DofPoint:
    return DofPoint(
        scheme=scheme,
        k_t=params.k_t,
        k_r=params.k_r,
        mu_t=Fraction(params.mu_t),
        mu_r=Fraction(params.mu_r),
        q_elements=params.q_elements,
        l_size=l_size,
        sum_dof=per_user * params.k_r,
        per_user_dof=per_user,
        strictness=mode,
    )


def dof_theorem1(params: SystemParams, l_size: int, mode: str | None = None) -> DofPoint:
    """Achievable sum rate ``min(mu_r + 1 + L, K_R)`` for disjoint
    transmitter caches helped by an ``L``-covering surface: the ``mu_t = 1``
    case of :func:`dof_theorem`."""
    if params.mu_t != 1:
        raise ParameterError("this formula requires mu_t = 1")
    return dof_theorem(params, l_size, mode)


def dof_theorem2(params: SystemParams, l_size: int, mode: str | None = None) -> DofPoint:
    """Achievable sum rate ``min(mu_r + mu_t + L, K_R)`` for overlapping
    transmitter caches (grouped transmitters) helped by the surface: the
    ``mu_t >= 2`` case of :func:`dof_theorem`."""
    if params.mu_t < 2:
        raise ParameterError("this formula requires mu_t >= 2")
    return dof_theorem(params, l_size, mode)


def dof_theorem(params: SystemParams, l_size: int, mode: str | None = None) -> DofPoint:
    """Achievable sum rate ``min(mu_r + mu_t + L, K_R)`` with an
    ``L``-covering surface: Theorem 1 at ``mu_t = 1``, Theorem 2 above."""
    l_size = as_integer(l_size, "l_size")
    if not 0 <= l_size <= l_cap(params):
        raise ParameterError(f"l_size {l_size} outside [0, {l_cap(params)}]")
    per_user = Fraction(min(params.mu_r + params.mu_t + l_size, params.k_r), params.k_r)
    return _point(SCHEME_THM1 if params.mu_t == 1 else SCHEME_THM2, params, l_size, per_user, mode)


def dof_benchmark_oneshot(params: SystemParams) -> DofPoint:
    """Surface-free one-shot baseline: per-user ``min(mu_t + mu_r, K_R) / K_R``."""
    per_user = Fraction(min(params.mu_t + params.mu_r, params.k_r), params.k_r)
    return _point(SCHEME_BENCH_ONESHOT, params, None, per_user)


def _ndt_d1(k_t: int, k_r: int, mu_t: int, mu_r: int) -> Fraction:
    best = Fraction(0)
    for mt in range(1, mu_t + 1):
        num = (
            math.comb(k_r - 1, mu_r)
            * math.comb(k_t - 1, mt)
            * math.comb(k_r - mu_r - 1, mt - 1)
            * mt
        )
        den_extra = (
            math.comb(k_r - 1, mu_r + 1)
            * math.comb(k_r - mu_r - 2, mt - 1)
            * math.comb(k_t, mt - 1)
        )
        value = Fraction(num, num + den_extra)
        best = max(best, value)
    return best


def dof_benchmark_ndt(params: SystemParams) -> DofPoint:
    """Delivery-time-derived baseline (symbol extension allowed): a
    three-case piecewise formula over ``mu_r + mu_t`` versus ``K_R``, with
    an inner maximization over the effective transmitter cooperation size."""
    k_t, k_r, mu_t, mu_r = params.k_t, params.k_r, params.mu_t, params.mu_r
    if mu_r + mu_t >= k_r:
        per_user = Fraction(1)
    elif mu_r + mu_t == k_r - 1:
        num = math.comb(k_r - 1, mu_r) * math.comb(k_t - 1, mu_t) * mu_t
        per_user = Fraction(num, num + 1)
    else:
        per_user = max(_ndt_d1(k_t, k_r, mu_t, mu_r), Fraction(mu_r + mu_t, k_r))
    return _point(SCHEME_BENCH_NDT, params, None, per_user)


def dof_memory_sharing(
    k_t: int, k_r: int, mu_t, mu_r, l_size: int
) -> DofPoint:
    """Per-user rate at fractional cache sizes by bilinear interpolation of
    the integer-grid formula values (time sharing between the four
    surrounding integer operating points)."""
    mu_t = Fraction(mu_t)
    mu_r = Fraction(mu_r)
    if not 1 <= mu_t <= k_t:
        raise ParameterError(f"mu_t {mu_t} outside [1, {k_t}]")
    if not 1 <= mu_r <= k_r - 1:
        raise ParameterError(f"mu_r {mu_r} outside [1, {k_r - 1}]")
    l_size = as_count(l_size, "l_size")

    def corner(mt: int, mr: int) -> Fraction:
        return Fraction(min(mr + mt + l_size, k_r), k_r)

    t0, r0 = math.floor(mu_t), math.floor(mu_r)
    t1, r1 = min(t0 + 1, k_t), min(r0 + 1, k_r - 1)
    wt, wr = mu_t - t0, mu_r - r0
    per_user = (
        (1 - wt) * (1 - wr) * corner(t0, r0)
        + (1 - wt) * wr * corner(t0, r1)
        + wt * (1 - wr) * corner(t1, r0)
        + wt * wr * corner(t1, r1)
    )
    return DofPoint(
        scheme=SCHEME_MEMORY_SHARING,
        k_t=k_t,
        k_r=k_r,
        mu_t=mu_t,
        mu_r=mu_r,
        q_elements=None,
        l_size=l_size,
        sum_dof=per_user * k_r,
        per_user_dof=per_user,
    )


AXIS_Q = "q"
AXIS_KR = "k_r"
AXIS_MUR = "mu_r"
SWEEP_AXES = (AXIS_Q, AXIS_KR, AXIS_MUR)
#: the network parameter each axis sets, a field of both SystemParams and DofPoint
SWEEP_FIELDS = {AXIS_Q: "q_elements", AXIS_KR: "k_r", AXIS_MUR: "mu_r"}


def sweep(
    axis: str,
    values: Iterable[int],
    base: SystemParams,
    mode: str = STRICT_Q,
) -> list[DofPoint]:
    """Evaluate the achievability formula and both baselines along one axis.

    The surface scheme converts each element budget to its usable ``L``
    under the chosen strictness; baselines ignore the surface. Points come
    out in axis order, three schemes per value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    field = SWEEP_FIELDS[axis]
    points: list[DofPoint] = []
    for value in values:
        # more receivers keep one distinct file each
        n_files = max(base.n_files, value) if axis == AXIS_KR else base.n_files
        params = replace(base, n_files=n_files, **{field: value})
        l_size = max_feasible_L(params.q_elements, params, mode)
        points.append(dof_theorem(params, l_size, mode))
        points.append(dof_benchmark_oneshot(params))
        points.append(dof_benchmark_ndt(params))
    return points


SWEEP_CSV_COLUMNS = ("axis_value", "scheme", "l_size", "sum_dof_num", "sum_dof_den", "per_user_dof_float")


def write_sweep_csv(points: Sequence[DofPoint], axis: str, path) -> None:
    """One row per point: exact rational plus a float convenience column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        field = SWEEP_FIELDS[axis]
        for p in points:
            writer.writerow(
                [
                    getattr(p, field),
                    p.scheme,
                    p.l_size if p.l_size is not None else "",
                    p.sum_dof.numerator,
                    p.sum_dof.denominator,
                    f"{float(p.per_user_dof):.10g}",
                ]
            )
