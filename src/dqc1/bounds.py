"""Upper bounds on the register negativity from trace-power constraints.

The partial transpose of the output state has known trace powers

    tr(rho_pt**s) = [(1+alpha)**s + (1-alpha)**s] / (2**s N**(s-1)),  s = 1,2,3,

independent of the unitary and of the bipartite division.  Maximizing
sum|lambda| subject to the s = 1,2 constraints gives the closed form
sqrt(1 + alpha**2); adding s = 3 (at alpha = 1) forces at most three distinct
eigenvalues, and the bound becomes a finite search over their degeneracies
(u, v, w).  Shifted by their mean 1/(2N), the eigenvalues of one triple obey
two homogeneous constraints (s = 1, 3) and one quadratic (s = 2), so their
direction is a root of one cubic and their scale follows in closed form: the
real solutions of every triple are found completely, with no iterative
search.  A spectrum with only two distinct values must be {0, 1/N}, each N
times, with M = 1; it is no candidate for the maximum.  The s = 1,2,3 bound
tightens the small-register picture and approaches sqrt(2) from below like
sqrt(2) - 2**(-7/6) N**(-1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CONSTRAINT_TOL = 1e-10
EXHAUSTIVE_MAX_TWO_N = 78
GUIDED_RADIUS = 3


@dataclass(frozen=True)
class SpectrumSolution:
    """An eigenvalue multiset: distinct values with their degeneracies."""

    distinct_values: tuple[float, ...]
    degeneracies: tuple[int, ...]
    m_value: float

    @property
    def total(self) -> int:
        return sum(self.degeneracies)


@dataclass(frozen=True)
class BoundResult:
    two_n: int          # spectrum size 2N of the transposed state
    alpha: float
    bound: float
    kind: str           # s12_continuous | s12_integer | s123_numeric | s123_asymptotic
    witness: SpectrumSolution | None = None
    degenerate: bool = False    # alpha = 0: the state is maximally mixed


def trace_power(N: int, alpha: float, s: int) -> float:
    """tr(rho_pt**s) for polarization alpha and N = 2**n."""
    if s not in (1, 2, 3):
        raise ValueError(f"s must be 1, 2, or 3, got {s}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if not abs(alpha) <= 1:
        raise ValueError(f"|alpha| must be <= 1, got {alpha}")
    return ((1 + alpha) ** s + (1 - alpha) ** s) / (2**s * N ** (s - 1))


def _s12_lambdas(N: int, alpha: float, t: int) -> tuple[float, float]:
    """The stationary eigenvalue pair for t negative, 2N - t nonnegative."""
    lam_minus = (1 - alpha * math.sqrt((2 * N - t) / t)) / (2 * N)
    lam_plus = (1 + alpha * math.sqrt(t / (2 * N - t))) / (2 * N)
    return lam_minus, lam_plus


def bound_s12(N: int, alpha: float) -> tuple[BoundResult, BoundResult]:
    """(continuous, integer) bounds from the s = 1, 2 constraints.

    The continuous optimum is sqrt(1 + alpha**2) at t = N(1 - 1/sqrt(1+alpha**2))
    negative eigenvalues; the integer bound re-maximizes over the two integers
    bracketing t (equal values resolve to the smaller t).
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    two_n = 2 * N
    if alpha == 0:
        flat = SpectrumSolution((1.0 / two_n,), (two_n,), 1.0)
        cont = BoundResult(two_n, 0.0, 1.0, "s12_continuous", witness=None, degenerate=True)
        inte = BoundResult(two_n, 0.0, 1.0, "s12_integer", witness=flat, degenerate=True)
        return cont, inte
    bound_cont = math.sqrt(1 + alpha * alpha)
    t_star = N * (1 - 1 / bound_cont)
    cont = BoundResult(two_n, alpha, bound_cont, "s12_continuous")

    def m_of(t: int) -> float:
        # absolute sum of the witness pair; when the putatively negative
        # eigenvalue is still positive (small alpha) this is 1, never less
        lam_minus, lam_plus = _s12_lambdas(N, alpha, t)
        return t * abs(lam_minus) + (two_n - t) * abs(lam_plus)

    candidates = sorted({t for t in (math.floor(t_star), math.ceil(t_star))
                         if 1 <= t <= two_n - 1})
    best_t = candidates[0]
    for t in candidates[1:]:
        if m_of(t) > m_of(best_t) + 1e-12:
            best_t = t
    lam_minus, lam_plus = _s12_lambdas(N, alpha, best_t)
    witness = SpectrumSolution((lam_minus, lam_plus), (best_t, two_n - best_t), m_of(best_t))
    inte = BoundResult(two_n, alpha, m_of(best_t), "s12_integer", witness=witness)
    return cont, inte


# ---------------------------------------------------------------------------
# s = 1, 2, 3 bound (alpha = 1)

def _triple_solutions(triples: Sequence[tuple[int, int, int]],
                      N: float) -> list[SpectrumSolution]:
    """Every real solution of the moment system for each degeneracy triple.

    Shifted by the mean mu = 1/(2N), the values a = A - mu, b = B - mu,
    c = C - mu obey u a + v b + w c = 0, u a^2 + v b^2 + w c^2 = 1/(2N) and
    u a^3 + v b^3 + w c^3 = 0.  Eliminating c through the first, the direction
    t = a/b solves the cubic w^2 (u t^3 + v) - (u t + v)^3 = 0, which drops to
    a quadratic plus the direction b = 0 when u = w.  Each direction gives the
    pair mu +- s (a, b, c), with s > 0 fixed by the quadratic constraint.  Roots
    enter by their real part; the residual filter drops complex ones and keeps
    double roots.  Returns one canonically ordered solution (see
    :func:`_canonical`) per row that passes it, triple by triple.
    """
    x = 1.0 / N
    mu = x / 2
    rows = []
    for u, v, w in triples:
        cubic = [u * (w * w - u * u), -3 * u * u * v, -3 * u * v * v, v * (w * w - v * v)]
        directions = [(float(t), 1.0) for t in np.roots(cubic).real]
        if u == w:
            directions.append((1.0, 0.0))
        for a, b in directions:
            c = -(u * a + v * b) / w
            scale = math.sqrt(mu / (u * a * a + v * b * b + w * c * c))
            for s in (scale, -scale):
                A, B, C = mu + s * a, mu + s * b, mu + s * c
                f1 = u * A * A + v * B * B + w * C * C - x
                f2 = u * A**3 + v * B**3 + w * C**3 - x * x
                if abs(f1) <= CONSTRAINT_TOL and abs(f2) <= CONSTRAINT_TOL:
                    vals, degs = _canonical((A, B, C), (u, v, w))
                    m = sum(d * abs(t) for t, d in zip(vals, degs))
                    rows.append(SpectrumSolution(vals, degs, m))
    return rows


def _canonical(values: Sequence[float], degs: Sequence[int]) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Order a 3-value solution as (lowest, highest, middle): the negative
    eigenvalue first with degeneracy u, the top eigenvalue second with
    degeneracy v, the remaining one last with degeneracy w."""
    pairs = sorted(zip(values, degs))
    (va, da), (vc, dc), (vb, db) = pairs
    return (va, vb, vc), (da, db, dc)


def _pattern_center(N: float, two_n: int) -> tuple[int, int, int]:
    u = round(N * (1 - 1 / math.sqrt(2)))
    return u, 1, two_n - 1 - u


def bound_s123(N: int) -> BoundResult:
    """The s = 1, 2, 3 bound at alpha = 1 for spectrum size 2N.

    Every real solution of a triple's moment system comes from the roots of
    one cubic (see :func:`_triple_solutions`), so the value is the maximum
    over the triples searched, to the constraint tolerance.  Up to 2N = 78
    every degeneracy triple is enumerated and the value is the certified
    maximum; beyond that only a +-3 neighborhood of the asymptotic maximizer
    pattern (u ~ N(1 - 1/sqrt 2) negatives, a nondegenerate top eigenvalue)
    is searched, so those values are best-effort and can lie below the true
    maximum.  The witness is canonically ordered (negative, top, middle) =
    (A, B, C) with degeneracies (u, v, w).
    """
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    two_n = 2 * N
    if two_n <= EXHAUSTIVE_MAX_TWO_N:
        triples = [(u, v, two_n - u - v)
                   for u in range(1, two_n // 3 + 1)
                   for v in range(u, (two_n - u) // 2 + 1)
                   if two_n - u - v >= v]
    else:
        u0, v0, w0 = _pattern_center(N, two_n)
        triples = []
        for du in range(-GUIDED_RADIUS, GUIDED_RADIUS + 1):
            for dv in range(-GUIDED_RADIUS, GUIDED_RADIUS + 1):
                u, v = u0 + du, v0 + dv
                w = two_n - u - v
                if u >= 1 and v >= 1 and w >= 1:
                    triples.append((u, v, w))
    best: SpectrumSolution | None = None

    def better(cand: SpectrumSolution, cur: SpectrumSolution | None) -> bool:
        if cur is None or cand.m_value > cur.m_value:
            return True
        return cand.m_value == cur.m_value and cand.degeneracies < cur.degeneracies

    for cand in _triple_solutions(triples, float(N)):
        if better(cand, best):
            best = cand
    if best is None:
        raise RuntimeError(f"no real solution found for any degeneracy triple at 2N={two_n}")
    return BoundResult(two_n, 1.0, best.m_value, "s123_numeric", witness=best)


def bound_s123_asymptotic(N: int) -> float:
    """Leading large-N form of the s = 1, 2, 3 bound: sqrt(2) - 2**(-7/6) N**(-1/3)."""
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return math.sqrt(2) - 2.0 ** (-7.0 / 6.0) * N ** (-1.0 / 3.0)


def bounds_csv(results: Sequence[BoundResult]) -> str:
    """CSV rows `two_N,kind,bound,u,v,w,A,B,C` (witness fields empty if absent)."""
    lines = ["two_N,kind,bound,u,v,w,A,B,C"]
    for r in results:
        degs: tuple = ("", "", "")
        vals: tuple = ("", "", "")
        if r.witness is not None:
            pad = 3 - len(r.witness.degeneracies)
            degs = tuple(str(d) for d in r.witness.degeneracies) + ("",) * pad
            vals = tuple(f"{t:.17g}" for t in r.witness.distinct_values) + ("",) * pad
        lines.append(",".join([str(r.two_n), r.kind, f"{r.bound:.17g}", *degs, *vals]))
    return "\n".join(lines) + "\n"
