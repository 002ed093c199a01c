"""Multiplicative negativity of bipartite states.

M(rho) = tr|rho^PT| is 1 for every PPT state and grows up to d (the smaller
part dimension) for maximally entangled pure states; N(rho), the magnitude of
the sum of negative partial-transpose eigenvalues, satisfies M = 1 + 2N.
A value of 1 certifies PPT only: bound entangled states are PPT too, so M = 1
must never be read as "separable".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import Bipartition, partial_transpose, require_density, singular_values
from .state import Dqc1State

# eigenvalues this close below zero are rounding noise, not entanglement
NEGATIVE_EIGENVALUE_CUTOFF = 1e-12


@dataclass(frozen=True)
class NegativityResult:
    m_value: float
    n_value: float
    partition: Bipartition
    method: str  # "eigen" or "singular"

    @property
    def is_ppt(self) -> bool:
        return self.n_value == 0.0


def negativity_eigen(state: Dqc1State | np.ndarray, part: Bipartition) -> NegativityResult:
    """M and N from the eigenvalues of the partial transpose of a 2N x 2N state.

    A bare matrix is validated by ``require_density`` and transposed.  A
    :class:`Dqc1State` is a density matrix by construction, and its transpose
    is written from V = :func:`unpolarized_partial_transpose` into one array,
    entry for entry as in rho, so bit for bit the partial transpose of rho.
    A partial transpose only permutes entries, so it is as Hermitian as the
    state and its spectrum is taken without a further check.
    """
    if not isinstance(state, Dqc1State):
        rho_pt = partial_transpose(require_density(state), part)
    else:
        v = unpolarized_partial_transpose(state, part)
        big_n = 2**state.n
        rho_pt = np.zeros((2 * big_n, 2 * big_n), dtype=np.complex128)
        np.fill_diagonal(rho_pt, 1.0)
        upper = rho_pt[:big_n, big_n:]
        np.conjugate(v.T, out=upper)
        upper *= state.alpha
        np.multiply(v, state.alpha, out=rho_pt[big_n:, :big_n])
        rho_pt /= 2 * big_n
    lam = np.linalg.eigvalsh(rho_pt)[::-1]
    return _from_spectrum(lam, part, "eigen")


def _from_spectrum(lam: np.ndarray, part: Bipartition, method: str) -> NegativityResult:
    """M = 1 + 2N, with N the magnitude of the sum of the eigenvalues of the
    partial transpose that lie below -NEGATIVE_EIGENVALUE_CUTOFF."""
    neg = lam[lam < -NEGATIVE_EIGENVALUE_CUTOFF]
    n_value = float(-neg.sum()) if neg.size else 0.0
    return NegativityResult(m_value=1.0 + 2.0 * n_value, n_value=n_value,
                            partition=part, method=method)


def unpolarized_partial_transpose(state: Dqc1State, part: Bipartition) -> np.ndarray:
    """V, the partial transpose of U over the unpolarized qubits named by ``part``.

    The state's partial transpose is then [[I, alpha V^dag], [alpha V, I]] / 2N.
    ``part`` divides the full register; register qubit q >= 1 is qubit q - 1
    of U.  If ``part`` contains the special qubit, its complement is used, with
    a warning: the two partial transposes of the state are each other's full
    transpose, so they share eigenvalues and singular values.
    """
    if part.total_qubits != state.total_qubits:
        raise ValueError(f"bipartition is over {part.total_qubits} qubits, "
                         f"state has {state.total_qubits}")
    if 0 in part.transposed_part:
        part = part.complement()
        warnings.warn("transposed part contains the special qubit; "
                      "using the complement, which has the same spectrum", stacklevel=3)
    shifted = frozenset(q - 1 for q in part.transposed_part)
    if len(shifted) == state.n:
        return state.unitary.T  # every unpolarized qubit: a plain transpose
    return partial_transpose(state.unitary, Bipartition(state.n, shifted))


def negativity_singular(state: Dqc1State, part: Bipartition) -> NegativityResult:
    """M via the singular values of the partially transposed unitary.

    With the transpose on the side away from the special qubit, the spectrum of
    the transposed state is {(1 +- alpha s_j)/2N} over the singular values s_j
    of the transposed unitary.  Only the (1 - |alpha| s_j)/2N can be negative;
    as on the eigen route, only those below -NEGATIVE_EIGENVALUE_CUTOFF count,
    so N = sum (|alpha| s_j - 1)/2N over them and a PPT state gives M = 1
    exactly.  Only the N x N transposed U is formed, never a 2N x 2N matrix.
    """
    s = singular_values(unpolarized_partial_transpose(state, part))
    return _from_spectrum((1.0 - abs(state.alpha) * s) / 2**(state.n + 1), part, "singular")
