import math

import pytest

from dqc1.bounds import (bound_s12, bound_s123, bound_s123_asymptotic,
                         bounds_csv, trace_power)
from oracles import solve_degeneracy_triple

SQRT2 = math.sqrt(2)


def residuals(solution, big_n):
    p = [sum(d * v**s for v, d in zip(solution.distinct_values, solution.degeneracies))
         for s in (1, 2, 3)]
    return [abs(p[0] - 1.0), abs(p[1] - 1.0 / big_n), abs(p[2] - 1.0 / big_n**2)]


def test_trace_power_values():
    assert trace_power(8, 0.3, 1) == 1.0
    assert abs(trace_power(8, 1.0, 2) - 1 / 8) <= 1e-15
    assert abs(trace_power(4, 1.0, 3) - 1 / 16) <= 1e-15
    assert abs(trace_power(16, 0.5, 2) - (1 + 0.25) / 32) <= 1e-15


def test_trace_power_rejects_bad_s():
    with pytest.raises(ValueError):
        trace_power(8, 1.0, 4)
    with pytest.raises(ValueError):
        trace_power(8, 1.0, 0)


def test_s12_continuous_closed_form():
    for alpha in (0.25, 0.5, 1.0):
        cont, _ = bound_s12(16, alpha)
        assert cont.bound == math.sqrt(1 + alpha * alpha)
    cont, _ = bound_s12(4, 1.0)
    assert abs(cont.bound - SQRT2) <= 1e-15


def test_s12_maximizing_degeneracy_fraction():
    # the continuous optimum sits at t/N = 1 - 1/sqrt(1+alpha^2) (~0.292 at alpha=1)
    t_over_n = 1 - 1 / math.sqrt(2)
    assert abs(t_over_n - 0.292) <= 1e-3
    _, integer = bound_s12(1 << 12, 1.0)
    t = integer.witness.degeneracies[0]
    assert abs(t / (1 << 12) - t_over_n) <= 1e-3


def test_s12_integer_small_case():
    _, integer = bound_s12(4, 1.0)
    assert abs(integer.bound - (3 + math.sqrt(7)) / 4) <= 1e-15
    assert integer.witness.degeneracies == (1, 7)
    lam_minus, lam_plus = integer.witness.distinct_values
    assert lam_minus < 0 < lam_plus
    assert residuals(integer.witness, 4)[0] <= 1e-10
    assert abs(lam_minus**2 * 1 + 7 * lam_plus**2 - trace_power(4, 1.0, 2)) <= 1e-10


def test_s12_alpha_half():
    cont, _ = bound_s12(8, 0.5)
    assert abs(cont.bound - math.sqrt(1.25)) <= 1e-15


def test_s12_alpha_zero_degenerate():
    cont, inte = bound_s12(8, 0.0)
    assert cont.bound == 1.0 and inte.bound == 1.0
    assert cont.degenerate and inte.degenerate
    assert inte.witness.degeneracies == (16,)


def test_s12_witness_satisfies_constraints():
    for big_n, alpha in ((4, 1.0), (8, 0.5), (32, 0.25), (64, 1.0)):
        _, integer = bound_s12(big_n, alpha)
        w = integer.witness
        p1 = sum(d * v for v, d in zip(w.distinct_values, w.degeneracies))
        p2 = sum(d * v * v for v, d in zip(w.distinct_values, w.degeneracies))
        assert abs(p1 - 1.0) <= 1e-10
        assert abs(p2 - trace_power(big_n, alpha, 2)) <= 1e-10


def test_s123_three_qubits_saturated():
    res = bound_s123(4)
    assert abs(res.bound - 1.25) <= 1e-8
    assert res.witness.degeneracies == (1, 1, 6)
    a, b, c = res.witness.distinct_values
    assert abs(a + 0.125) <= 1e-9 and abs(b - 0.375) <= 1e-9 and abs(c - 0.125) <= 1e-9


def test_s123_sixteen_eigenvalues():
    # frozen from an exact (symbolic) solve of the moment system
    res = bound_s123(8)
    assert abs(res.bound - 1.278338757779103) <= 1e-9
    assert res.witness.degeneracies == (3, 1, 12)
    assert max(residuals(res.witness, 8)) <= 1e-10


def test_s123_below_s12():
    for big_n in (4, 8, 16):
        cont, _ = bound_s12(big_n, 1.0)
        assert bound_s123(big_n).bound <= cont.bound + 1e-12


def test_s123_witness_residuals():
    for big_n in (4, 9, 16, 25):
        res = bound_s123(big_n)
        assert max(residuals(res.witness, big_n)) <= 1e-10
        assert res.witness.total == 2 * big_n
        assert abs(res.bound - sum(d * abs(v) for v, d in zip(
            res.witness.distinct_values, res.witness.degeneracies))) <= 1e-12


def test_s123_monotone_and_bounded():
    values = [bound_s123(big_n).bound for big_n in range(4, 17, 2)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(values, values[1:]))
    assert all(v < SQRT2 for v in values)


def test_s123_guided_search_beyond_exhaustive_range():
    res = bound_s123(64)  # 2N = 128 > 78 triggers the guided neighborhood
    assert bound_s123(39).bound <= res.bound < SQRT2
    assert res.witness.degeneracies[1] == 1
    assert max(residuals(res.witness, 64)) <= 1e-10


def test_asymptotic_values():
    assert abs(bound_s123_asymptotic(512) - 1.35854) <= 1e-5
    assert abs(bound_s123_asymptotic(2**40) - SQRT2) <= 1e-4
    residual = [abs(bound_s123(big_n).bound - bound_s123_asymptotic(big_n))
                for big_n in (8, 16, 32)]
    assert residual[0] > residual[1] > residual[2]


def test_solve_degeneracy_triple_roots():
    sols = solve_degeneracy_triple(1, 1, 6, 4.0)
    assert any(abs(s.m_value - 1.25) <= 1e-9 for s in sols)
    for s in sols:
        assert max(residuals(s, 4)) <= 1e-10
        assert s.degeneracies in ((1, 1, 6), (1, 6, 1), (6, 1, 1))

    # three real directions: all six solutions, the smallest-M one included
    sols = solve_degeneracy_triple(3, 12, 13, 14.0)
    assert len(sols) == 6
    assert any(abs(s.m_value - 1.038937413671) <= 1e-11 for s in sols)

    # u = w: a quadratic plus the direction b = 0, whose middle value is the mean
    sols = solve_degeneracy_triple(5, 2, 5, 6.0)
    assert len(sols) == 3
    assert any(s.degeneracies[2] == 2 and abs(s.distinct_values[2] - 1 / 12) <= 1e-15
               for s in sols)

    # u + v = w: t = 1 is a double root, the two-valued spectrum {0 x39, 1/39 x39}
    sols = solve_degeneracy_triple(19, 20, 39, 39.0)
    assert len(sols) == 4
    assert any(sorted(s.distinct_values)[0] == pytest.approx(0, abs=1e-15)
               and max(s.distinct_values) == pytest.approx(1 / 39, abs=1e-15)
               and sum(d for v, d in zip(s.distinct_values, s.degeneracies)
                       if abs(v) <= 1e-15) == 39
               for s in sols)

    for (u, v, w), big_n in (((3, 12, 13), 14), ((5, 2, 5), 6), ((19, 20, 39), 39)):
        for s in solve_degeneracy_triple(u, v, w, float(big_n)):
            assert max(residuals(s, big_n)) <= 1e-10
            assert s.total == 2 * big_n


def test_bounds_csv_format():
    rows = bounds_csv([*bound_s12(4, 1.0), bound_s123(4)])
    lines = rows.strip().split("\n")
    assert lines[0] == "two_N,kind,bound,u,v,w,A,B,C"
    cont = lines[1].split(",")
    assert cont[0] == "8" and cont[1] == "s12_continuous" and cont[3] == ""
    inte = lines[2].split(",")
    assert inte[1] == "s12_integer" and inte[3] == "1" and inte[4] == "7"
    s123 = lines[3].split(",")
    assert s123[1] == "s123_numeric" and s123[3:6] == ["1", "1", "6"]
    assert float(s123[2]) == pytest.approx(1.25, abs=1e-8)
