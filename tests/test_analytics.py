"""Closed-form rate formulas, baselines, memory sharing, and sweeps."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from irs_cache_dof.analytics import (
    STRICT_Q,
    SUFFICIENT_Q,
    dof_benchmark_ndt,
    dof_benchmark_oneshot,
    dof_memory_sharing,
    dof_theorem,
    dof_theorem1,
    dof_theorem2,
    max_feasible_L,
    required_elements,
    sweep,
)
from irs_cache_dof.params import ParameterError, SystemParams


def P(k_t, k_r, mu_t, mu_r, q=0):
    return SystemParams(k_t=k_t, k_r=k_r, n_files=max(k_r, 2), f_packets=1, mu_t=mu_t, mu_r=mu_r, q_elements=q)


def test_required_elements_modes():
    assert required_elements(2, 1, STRICT_Q) == 6
    assert required_elements(2, 1, SUFFICIENT_Q) == 6
    assert required_elements(1, 2, STRICT_Q) == 2
    assert required_elements(1, 2, SUFFICIENT_Q) == 4


def test_max_feasible_L_worked_example():
    assert max_feasible_L(6, P(3, 4, 1, 1), STRICT_Q) == 2


def test_max_feasible_L_zero_budget():
    assert max_feasible_L(0, P(26, 26, 1, 5)) == 0


def test_max_feasible_L_boundary():
    p = P(26, 26, 1, 5)
    assert max_feasible_L(419, p) == 19
    assert max_feasible_L(420, p) == 20  # 20 * 21 = 420


def test_max_feasible_L_respects_structure_caps():
    assert max_feasible_L(10_000, P(3, 26, 1, 5)) == 2  # K_T - 1
    assert max_feasible_L(10_000, P(26, 4, 1, 1)) == 3  # K_R - 1
    assert max_feasible_L(10_000, P(4, 26, 2, 5)) == 1  # M - 1


def test_theorem1_values():
    assert dof_theorem1(P(26, 26, 1, 5), 20).sum_dof == 26
    assert dof_theorem1(P(26, 26, 1, 5), 20).per_user_dof == 1
    assert dof_theorem1(P(26, 26, 1, 5), 0).sum_dof == 6
    assert dof_theorem1(P(3, 4, 1, 1), 2).sum_dof == 4


def test_theorem2_values():
    assert dof_theorem2(P(26, 26, 2, 12), 12).sum_dof == 26
    assert dof_theorem2(P(26, 26, 2, 12), 0).sum_dof == 14
    assert dof_theorem2(P(4, 4, 2, 1), 1).sum_dof == 4


def test_theorem_preconditions():
    with pytest.raises(ParameterError):
        dof_theorem1(P(4, 4, 2, 1), 0)
    with pytest.raises(ParameterError):
        dof_theorem2(P(4, 4, 1, 1), 0)
    with pytest.raises(ParameterError):
        dof_theorem1(P(3, 4, 1, 1), 3)  # beyond min(K_T-1, K_R-1)


@pytest.mark.parametrize("value", [True, 1.5, 2.0, "1", None], ids=repr)
def test_l_size_and_q_elements_of_non_integers_refused(value):
    """The null count and the element budget are integers: a bool, a float
    (even an integral one), a string or None is refused naming the argument,
    not kept, truncated or left to fail inside the formula."""
    p1, p2 = P(3, 4, 1, 1, 6), P(4, 4, 2, 1, 4)
    for call, name in [
        (lambda: dof_theorem(p1, value), "l_size"),
        (lambda: dof_theorem1(p1, value), "l_size"),
        (lambda: dof_theorem2(p2, value), "l_size"),
        (lambda: max_feasible_L(value, p1), "q_elements"),
    ]:
        with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call()


def test_negative_q_elements_refused_as_a_parameter_error():
    with pytest.raises(ParameterError, match=r"^q_elements must be nonnegative, got -1$"):
        max_feasible_L(-1, P(3, 4, 1, 1, 6))


def test_numpy_l_size_and_q_elements_are_python_ints():
    p = P(3, 4, 1, 1, 6)
    point = dof_theorem(p, np.int64(1))
    assert type(point.l_size) is int and point == dof_theorem(p, 1)
    assert type(dof_theorem2(P(4, 4, 2, 1), np.uint8(1)).l_size) is int
    best = max_feasible_L(np.int64(6), p)
    assert type(best) is int and best == 2


def test_benchmark_oneshot_values():
    assert dof_benchmark_oneshot(P(26, 26, 1, 5)).per_user_dof == Fraction(6, 26)
    assert dof_benchmark_oneshot(P(26, 26, 2, 12)).per_user_dof == Fraction(14, 26)
    assert dof_benchmark_oneshot(P(4, 4, 2, 3)).per_user_dof == 1


def test_benchmark_ndt_saturated_case():
    assert dof_benchmark_ndt(P(4, 4, 2, 3)).per_user_dof == 1
    assert dof_benchmark_ndt(P(4, 4, 2, 2)).per_user_dof == 1


def test_benchmark_ndt_one_below_case():
    p = P(4, 4, 2, 1)  # mu_r + mu_t = K_R - 1
    num = math.comb(3, 1) * math.comb(3, 2) * 2
    assert dof_benchmark_ndt(p).per_user_dof == Fraction(num, num + 1)


def _ndt_d1_bruteforce(k_t, k_r, mu_t, mu_r):
    best = Fraction(0)
    for mt in range(1, mu_t + 1):
        num = math.comb(k_r - 1, mu_r) * math.comb(k_t - 1, mt) * math.comb(k_r - mu_r - 1, mt - 1) * mt
        den = num + math.comb(k_r - 1, mu_r + 1) * math.comb(k_r - mu_r - 2, mt - 1) * math.comb(k_t, mt - 1)
        best = max(best, Fraction(num, den))
    return best


def test_benchmark_ndt_general_case_against_bruteforce():
    for k_t, k_r, mu_t, mu_r in ((20, 26, 1, 5), (26, 26, 2, 12), (20, 26, 2, 5), (16, 16, 2, 3)):
        p = P(k_t, k_r, mu_t, mu_r)
        if mu_r + mu_t > k_r - 2:
            continue
        d1 = _ndt_d1_bruteforce(k_t, k_r, mu_t, mu_r)
        expected = max(d1, Fraction(mu_r + mu_t, k_r))
        assert dof_benchmark_ndt(p).per_user_dof == expected


def test_memory_sharing_at_grid_points():
    assert dof_memory_sharing(26, 26, 1, 5, 2).per_user_dof == Fraction(8, 26)
    assert dof_memory_sharing(4, 4, 2, 1, 1).per_user_dof == 1


def test_memory_sharing_midpoint_is_mean_of_corners():
    v = dof_memory_sharing(26, 26, 1, Fraction(11, 2), 2).per_user_dof
    assert v == Fraction(Fraction(8 + 9, 2), 26)


def test_memory_sharing_bilinear_in_both_axes():
    a = dof_memory_sharing(16, 16, Fraction(3, 2), Fraction(5, 2), 1).per_user_dof
    corners = [
        Fraction(min(mt + mr + 1, 16), 16) for mt in (1, 2) for mr in (2, 3)
    ]
    assert a == sum(corners) / 4


@pytest.mark.parametrize(
    "value, message",
    [(True, "must be an integer, got True"), (1.5, "must be an integer, got 1.5"), (-1, "must be nonnegative, got -1")],
)
def test_memory_sharing_l_size_must_be_a_count(value, message):
    with pytest.raises(ParameterError, match=rf"^l_size {message}$"):
        dof_memory_sharing(4, 4, 1, 1, value)


def test_memory_sharing_numpy_l_size_is_a_python_int():
    point = dof_memory_sharing(4, 4, 1, 1, np.int64(1))
    assert type(point.l_size) is int and point == dof_memory_sharing(4, 4, 1, 1, 1)


def test_memory_sharing_range_checks():
    with pytest.raises(ParameterError):
        dof_memory_sharing(4, 4, 0.5, 1, 0)
    with pytest.raises(ParameterError):
        dof_memory_sharing(4, 4, 1, 4, 0)


def test_monotonicity_in_budget_cache_sizes():
    # nondecreasing per-user rate in Q, mu_r, mu_t; capped at one
    for mu_r in range(1, 6):
        last = Fraction(0)
        for q in range(0, 60, 3):
            p = P(6, 6, 1, mu_r, q)
            v = dof_theorem1(p, max_feasible_L(q, p)).per_user_dof
            assert v >= last
            assert v <= 1
            last = v
    for q in (0, 2, 6, 12):
        for k_r in (4, 6):
            values = []
            for mu_t in (1, 2):
                p = P(4, k_r, mu_t, 1, q)
                l = max_feasible_L(q, p, SUFFICIENT_Q)
                point = dof_theorem1(p, l) if mu_t == 1 else dof_theorem2(p, l)
                values.append(point.per_user_dof)
            assert values[1] >= values[0] or max_feasible_L(q, P(4, k_r, 1, 1, q)) > max_feasible_L(
                q, P(4, k_r, 2, 1, q), SUFFICIENT_Q
            )
    last = Fraction(0)
    for mu_r in range(1, 6):
        v = dof_theorem1(P(6, 6, 1, mu_r), 0).per_user_dof
        assert v >= last
        last = v


def test_theorem_dominates_oneshot_benchmark():
    for k_t in (2, 4, 6):
        for k_r in (3, 4, 6):
            for mu_r in range(1, k_r):
                p1 = P(k_t, k_r, 1, mu_r)
                for l in range(0, min(k_t - 1, k_r - 1) + 1):
                    assert dof_theorem1(p1, l).per_user_dof >= dof_benchmark_oneshot(
                        P(k_t, k_r, 1, mu_r)
                    ).per_user_dof
                if k_t % 2 == 0:
                    p2 = P(k_t, k_r, 2, mu_r)
                    assert dof_theorem2(p2, 0).per_user_dof >= dof_benchmark_oneshot(p2).per_user_dof


def test_dof_values_are_exact_rationals():
    p = P(26, 26, 1, 5, 100)
    for point in (
        dof_theorem1(p, max_feasible_L(100, p)),
        dof_benchmark_oneshot(p),
        dof_benchmark_ndt(p),
    ):
        assert isinstance(point.per_user_dof, Fraction)
        assert isinstance(point.sum_dof, Fraction)
        assert point.sum_dof == point.per_user_dof * 26


def test_sweep_q_axis_matches_formula():
    base = P(26, 26, 1, 5)
    points = sweep("q", range(0, 421, 30), base)
    theorem_points = [pt for pt in points if pt.scheme == "thm1"]
    for pt in theorem_points:
        l = max_feasible_L(pt.q_elements, base)
        assert pt.per_user_dof == Fraction(min(6 + l, 26), 26)
    oneshot = {pt.per_user_dof for pt in points if pt.scheme == "bench_oneshot"}
    assert oneshot == {Fraction(6, 26)}


def test_sweep_kr_axis_holds_full_rate_while_covered():
    base = P(20, 26, 1, 5, 420)
    points = sweep("k_r", range(6, 31), base)
    for pt in points:
        if pt.scheme != "thm1":
            continue
        if pt.mu_r + 1 + pt.l_size >= pt.k_r:
            assert pt.per_user_dof == 1
        else:
            assert pt.per_user_dof < 1


def test_sweep_mur_axis_nondecreasing():
    base = P(16, 16, 1, 1, 420)
    points = [pt for pt in sweep("mu_r", range(1, 16), base) if pt.scheme == "thm1"]
    values = [pt.per_user_dof for pt in points]
    assert values == sorted(values)
    assert values[-1] == 1
