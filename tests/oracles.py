"""Reference implementations the tests compare the package against.

Each one is the plain, dense or deduplicated form of a quantity the package
computes another way, or a closed form from the paper that the package's
numbers are checked against; none of them has a production caller.
"""

import math

import numpy as np

from dqc1.bounds import SpectrumSolution, _triple_solutions
from dqc1.linalg import Bipartition
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


def _unit_eigenbasis(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvalues and an orthonormal eigenbasis (columns) of the unitary ``u``.

    eigh of the Hermitian Cayley transform K = i(z+U)(z-U)^-1 keeps U's
    eigenspaces, degenerate ones included, with an orthonormal basis, which
    np.linalg.eig does not guarantee.  z, halfway along the widest gap between
    U's eigenphases, lies ~pi/N or more from the spectrum.
    """
    angles = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    z_eye = np.exp(1j * (angles[widest] + gaps[widest] / 2)) * np.eye(len(u))
    k = 1j * np.linalg.solve(z_eye - u, z_eye + u)
    _, q = np.linalg.eigh((k + k.conj().T) / 2)
    phases = np.einsum("ij,ij->j", q.conj(), u @ q)
    return phases / np.abs(phases), q


def separable_decomposition(state: Dqc1State) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Write the state as a mixture of product states across the (special, rest) cut.

    Diagonalizing U = sum_j e^{i phi_j} |e_j><e_j| gives terms
    (1/2N, |a_j>, |e_j>) and (1/2N, |b_j>, |e_j>) with
    |a_j> = cos(theta)|0> + e^{i phi_j} sin(theta)|1>,
    |b_j> = sin(theta)|0> + e^{i phi_j} cos(theta)|1>, and sin(2 theta) = alpha.
    The weighted mixture reconstructs rho; this is why the special qubit is
    never entangled with the rest, whatever U is.
    """
    big_n = 2**state.n
    theta = math.asin(state.alpha) / 2
    phases, q = _unit_eigenbasis(state.unitary)
    terms = []
    for j in range(big_n):
        e, phase = q[:, j], phases[j]
        a = np.array([math.cos(theta), phase * math.sin(theta)], dtype=np.complex128)
        b = np.array([math.sin(theta), phase * math.cos(theta)], dtype=np.complex128)
        terms.append((1.0 / (2 * big_n), a, e))
        terms.append((1.0 / (2 * big_n), b, e))
    return terms


def separable_ball_alpha(n: int) -> tuple[float, float]:
    """Polarization thresholds placing the state inside balls around I/2**(n+1).

    Returns (lower, upper): below ``lower`` = 2*3**(-(n+1)/2) the state sits in
    the proven-separable ball; ``upper`` = 2*2**(-(n+1)/2) comes from the known
    family of entangled states bounding the ball radius from above.
    """
    if n < 1:
        raise ValueError("need at least one unpolarized qubit")
    return 2.0 * 3.0 ** (-(n + 1) / 2), 2.0 * 2.0 ** (-(n + 1) / 2)


def pure_state_negativity(schmidt: np.ndarray) -> float:
    """M of a bipartite pure state from its Schmidt coefficients mu_j.

    Equals (sum_j sqrt(mu_j))**2, which is bounded by the number of nonzero
    coefficients and saturates it exactly for the maximally entangled state.
    """
    mu = np.asarray(schmidt, dtype=float)
    if mu.size == 0 or np.any(mu < 0):
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(mu.sum() - 1.0) > 1e-12:
        raise ValueError(f"Schmidt coefficients must sum to 1, got {mu.sum():.15g}")
    return float(np.sqrt(mu).sum() ** 2)


def qubits_1_and_n_together(n: int, part: Bipartition) -> bool:
    """Whether register qubits 1 and n land in the same side of the division."""
    if part.total_qubits != n + 1:
        raise ValueError(f"bipartition is over {part.total_qubits} qubits, expected {n + 1}")
    return (1 in part.transposed_part) == (n in part.transposed_part)


def family_negativity(n: int, alpha: float, part: Bipartition) -> float:
    """Closed-form negativity of the canonical family's output state.

    Divisions grouping register qubits 1 and n give 1; divisions separating
    them give max(1, (2 alpha + 3)/4), independent of n.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if qubits_1_and_n_together(n, part):
        return 1.0
    return max(1.0, (2.0 * alpha + 3.0) / 4.0)
