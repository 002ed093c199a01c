"""Derive the exact s = 1, 2, 3 negativity bound at 2N = 16 with sympy.

The partially transposed DQC1 output state at alpha = 1 has trace powers
tr(rho_pt**s) = N**(1 - s) for s = 1, 2, 3.  With at most three distinct
eigenvalues A, B, C of degeneracies u + v + w = 2N, the bound is the largest
u|A| + v|B| + w|C| over every real solution of

    u A + v B + w C = 1,  u A**2 + v B**2 + w C**2 = 1/N,
    u A**3 + v B**3 + w C**3 = 1/N**2,

plus the two-value spectra (t, 2N - t) that satisfy all three constraints.
C is eliminated through the linear constraint and A, B are roots of
resultants with rational coefficients, so every real solution is found as an
exact algebraic number and the maximum is certified, not sampled.

Run from the repository root:

    python3 perfbench/derive_s123_16.py

It prints the bound to 30 significant digits and the maximizing triple; the
benchmark's ``bounds_s123`` check holds the printed value as
``S123_EXACT_16``.
"""

from __future__ import annotations

import sympy as sp

TWO_N = 16
MATCH_TOL = sp.Float("1e-40", 60)


def solutions(u: int, v: int, w: int, big_n: int):
    """Real (A, B, C) solving the three-moment system for degeneracies u, v, w.

    Each of A and B is a root of a resultant with rational coefficients, so
    the real roots are exact algebraic numbers; pairs are matched by checking
    both remaining constraints at 60 digits.
    """
    a, b = sp.symbols("a b", real=True)
    c = (1 - u * a - v * b) / sp.Integer(w)
    f2 = sp.expand((u * a**2 + v * b**2 + w * c**2 - sp.Rational(1, big_n)) * w)
    f3 = sp.expand((u * a**3 + v * b**3 + w * c**3 - sp.Rational(1, big_n**2)) * w**2)
    a_roots = sp.Poly(sp.resultant(f2, f3, b), a).real_roots()
    b_roots = sp.Poly(sp.resultant(f2, f3, a), b).real_roots()
    out = []
    for a_root in set(a_roots):
        for b_root in set(b_roots):
            point = {a: sp.N(a_root, 60), b: sp.N(b_root, 60)}
            if abs(f2.subs(point)) < MATCH_TOL and abs(f3.subs(point)) < MATCH_TOL:
                out.append((a_root, b_root, c.subs({a: a_root, b: b_root})))
    return out


def two_value_solutions(t: int, two_n: int, big_n: int):
    """Real (A, B) of degeneracies (t, 2N - t) meeting all three constraints."""
    a = sp.symbols("a", real=True)
    b = (1 - t * a) / sp.Integer(two_n - t)
    f2 = sp.expand(t * a**2 + (two_n - t) * b**2 - sp.Rational(1, big_n))
    out = []
    for a_root in sp.Poly(f2, a).real_roots():
        b_val = b.subs(a, a_root)
        f3 = t * a_root**3 + (two_n - t) * b_val**3 - sp.Rational(1, big_n**2)
        if abs(sp.N(f3, 60)) < MATCH_TOL:
            out.append((a_root, b_val))
    return out


def main() -> None:
    big_n = TWO_N // 2
    best, best_at = sp.Integer(0), None
    for u in range(1, TWO_N - 1):
        for v in range(1, TWO_N - u):
            w = TWO_N - u - v
            if not u <= v <= w:
                continue  # the system is symmetric under permuting (u, A), (v, B), (w, C)
            for root in solutions(u, v, w, big_n):
                m = u * abs(root[0]) + v * abs(root[1]) + w * abs(root[2])
                if sp.N(m - best, 40) > 0:
                    best, best_at = m, (u, v, w, root)
    for t in range(1, TWO_N):
        for root in two_value_solutions(t, TWO_N, big_n):
            m = t * abs(root[0]) + (TWO_N - t) * abs(root[1])
            if sp.N(m - best, 40) > 0:
                best, best_at = m, (t, TWO_N - t, root)
    print(f"2N={TWO_N} bound={sp.N(best, 30)}")
    print(f"degeneracies and values: {best_at[:-1]} "
          f"{[sp.N(x, 20) for x in best_at[-1]]}")


if __name__ == "__main__":
    main()
