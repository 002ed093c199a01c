"""Reference implementations the tests compare the package against.

Each one is the plain, dense or deduplicated form of a quantity the package
computes another way; none of them has a production caller.
"""

import numpy as np

from dqc1.bounds import SpectrumSolution, _triple_solutions
from dqc1.pathsum import _H_MAT, _T_MAT, Gate, _flipped_rows
from dqc1.state import Dqc1State

ROOT_DEDUPE_TOL = 1e-8


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    """Full 2**n matrix of a single gate (qubit 0 most significant).

    The dense reference that the per-gate kernel of ``circuit_unitary`` is
    tested against.
    """
    if g.name in ("H", "T"):
        base = _H_MAT if g.name == "H" else _T_MAT
        out = np.eye(1, dtype=np.complex128)
        for q in range(n):
            out = np.kron(out, base if q == g.qubits[0] else np.eye(2))
        return out
    m = np.zeros((2**n, 2**n), dtype=np.complex128)
    m[_flipped_rows(g, n), np.arange(2**n)] = 1.0
    return m


def rho_of(state: Dqc1State) -> np.ndarray:
    """The block state [[I, alpha U^dag], [alpha U, I]] / 2N of ``state``."""
    u, alpha = state.unitary, state.alpha
    eye = np.eye(len(u))
    return np.block([[eye, alpha * u.conj().T], [alpha * u, eye]]) / (2 * len(u))


def reconstruct_mixture(terms: list[tuple[float, np.ndarray, np.ndarray]]) -> np.ndarray:
    """Rebuild the density matrix of a product-state mixture."""
    dim0 = len(terms[0][1])
    dim1 = len(terms[0][2])
    rho = np.zeros((dim0 * dim1, dim0 * dim1), dtype=np.complex128)
    for w, a, e in terms:
        vec = np.kron(a, e)
        rho += w * np.outer(vec, vec.conj())
    return rho


def solve_degeneracy_triple(u: int, v: int, w: int, N: float) -> list[SpectrumSolution]:
    """All real solutions of the three-moment system for one degeneracy triple,
    deduplicated, in canonical order, largest M first."""
    seen = set()
    out = []
    for sol in _triple_solutions([(u, v, w)], N):
        key = tuple(round(t / ROOT_DEDUPE_TOL) for t in sol.distinct_values)
        if key in seen:
            continue
        seen.add(key)
        out.append(sol)
    return sorted(out, key=lambda s: -s.m_value)
