"""Dense complex linear algebra for qubit registers.

Matrices are plain complex ``numpy`` arrays of dimension 2**q for q qubits.
Qubit 0 is the most significant index throughout: for a register of t qubits,
the bit of qubit q in basis index i is ``(i >> (t - 1 - q)) & 1``.
Everything here is pure and never mutates its arguments; the hard size cap is
14 qubits (a 16384 x 16384 dense matrix).  Callers that build a matrix from a
qubit count check that count against the cap before they allocate.  Every
tolerance test is written so that a NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
MAX_QUBITS = 14


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def num_qubits(m: np.ndarray) -> int:
    """Number of qubits carried by a 2**q dimensional matrix."""
    dim = m.shape[0]
    q = dim.bit_length() - 1
    if 2**q != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceeds the dense-storage cap of {MAX_QUBITS}")
    return q


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def unitary_defect(u: np.ndarray) -> float:
    """Max-norm of U^dag U - I; NaN when U has a non-finite entry."""
    u = as_complex_matrix(u)
    with np.errstate(invalid="ignore"):
        return max_abs(u.conj().T @ u - np.eye(u.shape[0]))


def require_unitary(u: np.ndarray) -> np.ndarray:
    u = as_complex_matrix(u)
    defect = unitary_defect(u)
    if not defect <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: max|U^dag U - I| = {defect:.3e} > {UNITARY_TOL:g}")
    return u


# perfbench/tracer.py times this by name: moving or renaming it breaks `run.py --trace 1`
def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, positive semidefinite."""
    rho = as_complex_matrix(rho)
    herm = max_abs(rho - rho.conj().T)
    if not herm <= HERMITIAN_TOL:
        raise ValueError(f"density matrix is not Hermitian: max|rho - rho^dag| = {herm:.3e}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= max(TRACE_TOL, 1e-12 * rho.shape[0]):
        raise ValueError(f"density matrix trace is {tr:.15g}, expected 1")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if not lo >= -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


@dataclass(frozen=True)
class Bipartition:
    """A bipartite division of a qubit register.

    ``transposed_part`` names the qubits whose indices get transposed; it must
    be a proper nonempty subset of {0, ..., total_qubits - 1}.  The trailing-k
    convention calls the division that groups the last k qubits together the
    (total - k, k) splitting.
    """

    total_qubits: int
    transposed_part: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "transposed_part", frozenset(self.transposed_part))
        t = self.total_qubits
        if not 2 <= t <= MAX_QUBITS:
            raise ValueError(f"total_qubits must be in [2, {MAX_QUBITS}], got {t}")
        part = self.transposed_part
        if not part or not all(isinstance(q, (int, np.integer)) and 0 <= q < t for q in part):
            raise ValueError(f"transposed part {sorted(part)} not a nonempty subset of 0..{t - 1}")
        if len(part) == t:
            raise ValueError("transposed part must be a proper subset (use plain transposition)")

    @classmethod
    def trailing(cls, total_qubits: int, k: int) -> "Bipartition":
        """The (total - k, k) splitting: the last k qubits are transposed."""
        if not 1 <= k < total_qubits:
            raise ValueError(f"trailing split size k={k} out of range for {total_qubits} qubits")
        return cls(total_qubits, frozenset(range(total_qubits - k, total_qubits)))

    @property
    def k(self) -> int:
        return len(self.transposed_part)

    def complement(self) -> "Bipartition":
        return Bipartition(self.total_qubits,
                           frozenset(range(self.total_qubits)) - self.transposed_part)

    def __repr__(self) -> str:
        return f"Bipartition({self.total_qubits}, {{{', '.join(map(str, sorted(self.transposed_part)))}}})"


def partial_transpose(m: np.ndarray, part: Bipartition) -> np.ndarray:
    """Transpose the matrix indices of the qubits in ``part.transposed_part``.

    Trace-preserving, involutive, and Hermiticity-preserving; a pure entry
    permutation, so repeated application is bit-exact.
    """
    m = as_complex_matrix(m)
    t = num_qubits(m)
    if t != part.total_qubits:
        raise ValueError(f"matrix has {t} qubits but bipartition expects {part.total_qubits}")
    axes = list(range(2 * t))
    for q in part.transposed_part:
        axes[q], axes[t + q] = axes[t + q], axes[q]
    return m.reshape((2,) * (2 * t)).transpose(axes).reshape(m.shape)


# only tests call this; it stays while perfbench/tracer.py times it by name
def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""
    m = as_complex_matrix(m)
    herm = max_abs(m - m.conj().T)
    if not herm <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max|m - m^dag| = {herm:.3e}")
    return np.linalg.eigvalsh(m)[::-1]


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values (eigenvalues of sqrt(m^dag m)), sorted descending."""
    return np.linalg.svd(as_complex_matrix(m), compute_uv=False)


def load_unitary(path) -> np.ndarray:
    """Read a matrix: line 1 is the dimension, then one line of re,im tokens per row.

    Round-trips float64 entries exactly (17 significant digits).  Raises
    ValueError naming the offending line on malformed input.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file")
    try:
        dim = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"{path}: line 1: expected integer dimension, got {lines[0]!r}") from None
    if dim < 1 or len(lines) < dim + 1:
        raise ValueError(f"{path}: line 1: dimension {dim} does not match {len(lines) - 1} data lines")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i in range(dim):
        lineno = i + 2
        tokens = lines[i + 1].split()
        if len(tokens) != dim:
            raise ValueError(f"{path}: line {lineno}: expected {dim} entries, got {len(tokens)}")
        for j, tok in enumerate(tokens):
            re, _, im = tok.partition(",")
            try:
                out[i, j] = complex(float(re), float(im))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad entry {tok!r}") from None
    for lineno, line in enumerate(lines[dim + 1:], start=dim + 2):
        if line.strip():
            raise ValueError(f"{path}: line {lineno}: extra data after {dim} rows: {line!r}")
    return out
