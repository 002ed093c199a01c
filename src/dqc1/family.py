"""A block-structured unitary family with analytically known negativity.

The n-qubit member is built from four single-qubit blocks A, B, C, D as

    U_n = [[I_(n-2) x A,  X_(n-2) x C],
           [X_(n-2) x D,  I_(n-2) x B]],

i.e. the first qubit selects the block row, the middle n-2 qubits carry
identity or all-X factors, and the last qubit carries the block.  Because I
and X are transposition invariant, only qubits 1 and n of the register react
to a partial transpose, and the output-state negativity collapses to the
three-qubit case whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, max_abs
from .pathsum import CNOT, GateCircuit, H, T, Gate

BLOCK_IDENTITY_TOL = 1e-12

@dataclass(frozen=True, eq=False)
class U2Blocks:
    """The four equal-size blocks of a seed unitary [[a, c], [d, b]], compared
    and hashed by identity, as their arrays have no single truth value."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        blocks = [as_complex_matrix(m) for m in (self.a, self.b, self.c, self.d)]
        for name, m in zip("abcd", blocks):
            object.__setattr__(self, name, m)
            if m.shape != blocks[0].shape:
                raise ValueError("blocks must share one shape")
        a, b, c, d = blocks
        eye = np.eye(a.shape[0])
        defects = (max_abs(a.conj().T @ a + d.conj().T @ d - eye),
                   max_abs(b.conj().T @ b + c.conj().T @ c - eye),
                   max_abs(a.conj().T @ c + d.conj().T @ b))
        if not all(defect <= BLOCK_IDENTITY_TOL for defect in defects):
            raise ValueError(f"blocks do not assemble to a unitary (defects {defects})")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def matrix(self) -> np.ndarray:
        """Assemble the seed unitary [[a, c], [d, b]]."""
        return np.block([[self.a, self.c], [self.d, self.b]])


def canonical_u2() -> U2Blocks:
    """The 0/1 block choice whose seed unitary swaps |00> and |11>."""
    return U2Blocks(a=np.array([[0, 0], [0, 1]], dtype=np.complex128),
                    b=np.array([[1, 0], [0, 0]], dtype=np.complex128),
                    c=np.array([[0, 1], [0, 0]], dtype=np.complex128),
                    d=np.array([[0, 0], [1, 0]], dtype=np.complex128))


def build_family(n: int, blocks: U2Blocks | None = None) -> np.ndarray:
    """The n-qubit family unitary for the given seed blocks.

    With 2x2 blocks this is the canonical family (n >= 2, reducing to the seed
    at n = 2).  Blocks of dimension 2**(k-1) give the k-qubit-seed
    generalization, whose negativity is a numerical matter only.  U^dag U - I
    is built from the three block identities that :class:`U2Blocks` checks to
    BLOCK_IDENTITY_TOL, below UNITARY_TOL, so the result is not checked again.
    """
    if blocks is None:
        blocks = canonical_u2()
    seed_qubits = blocks.dim.bit_length()  # k: block dim 2**(k-1)
    if 2**(seed_qubits - 1) != blocks.dim:
        raise ValueError(f"block dimension {blocks.dim} is not a power of 2")
    if n < seed_qubits:
        raise ValueError(f"family needs n >= {seed_qubits} for these blocks, got {n}")
    middle = n - seed_qubits
    eye_m = np.eye(2**middle, dtype=np.complex128)
    x_m = eye_m[::-1]  # X^(x)m flips every bit: index i -> 2**m - 1 - i
    return np.block([[np.kron(eye_m, blocks.a), np.kron(x_m, blocks.c)],
                     [np.kron(x_m, blocks.d), np.kron(eye_m, blocks.b)]])


def _u2_gates(q1: int, qn: int) -> tuple[Gate, ...]:
    """The canonical seed (swap |00> <-> |11|) on qubits (q1, qn) in primitive
    gates: conjugate an anti-controlled NOT by CNOT(q1 -> qn), with X = H T^4 H."""
    x_qn = (H(qn), T(qn), T(qn), T(qn), T(qn), H(qn))
    return (CNOT(q1, qn), *x_qn, CNOT(qn, q1), *x_qn, CNOT(q1, qn))


def circuit_family(n: int) -> GateCircuit:
    """Gate realization of the canonical family member on n qubits.

    Circuit qubit q corresponds to register qubit q + 1.  The seed acts on
    qubits (0, n-1), bracketed by CNOTs from qubit 0 to each middle qubit.
    """
    if n < 2:
        raise ValueError(f"family needs n >= 2, got {n}")
    fan_out = tuple(CNOT(0, q) for q in range(1, n - 1))
    return GateCircuit(n, fan_out + _u2_gates(0, n - 1) + tuple(reversed(fan_out)))
