"""The one-clean-qubit register: output state, readout, and trace estimation.

A register of n + 1 qubits starts with the special qubit (qubit 0) in the
mixed state (I + alpha*Z)/2 and n unpolarized qubits in I/2**n.  A Hadamard on
qubit 0 followed by a controlled U on the rest leaves the block state

    rho = [[I, alpha*U^dag], [alpha*U, I]] / 2**(n+1),

whose X/Y readout on qubit 0 encodes tr(U)/2**n.  Every quantity the package
reads from rho follows from (U, alpha), so rho itself is never assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, num_qubits, require_unitary, MAX_QUBITS
from .rng import philox_stream

# estimator runs per observable: the largest L Generator.binomial takes (int64)
MAX_TRACE_RUNS = 2**62


@dataclass(frozen=True)
class Dqc1State:
    """Output state of the circuit, held as its defining (U, alpha, n)."""

    n: int
    alpha: float
    unitary: np.ndarray

    @property
    def total_qubits(self) -> int:
        return self.n + 1

    @property
    def tau(self) -> complex:
        """The normalized trace tr(U)/2**n, all the special qubit's readout carries."""
        return complex(np.trace(self.unitary)) / 2**self.n


@dataclass(frozen=True)
class TraceEstimate:
    """Result of the simulated repeated-measurement protocol."""

    estimate: complex
    runs_used: int


def require_register(total_qubits: int) -> None:
    """Refuse a register of more than MAX_QUBITS qubits.

    Takes the qubit count alone, so a caller can refuse before it builds U.
    """
    if total_qubits > MAX_QUBITS:
        raise ValueError(f"register of {total_qubits} qubits exceeds the cap of {MAX_QUBITS}")


def require_polarization(alpha: float) -> None:
    """Refuse |alpha| > 1 (or NaN); a scalar check a caller can make before U."""
    if not abs(alpha) <= 1:
        raise ValueError(f"polarization must satisfy |alpha| <= 1, got {alpha}")


def build_state(u: np.ndarray, alpha: float) -> Dqc1State:
    """Assemble the (n+1)-qubit output state for unitary ``u`` and polarization ``alpha``.

    The one check of U and alpha: for every unitary U and |alpha| <= 1 the
    block state is a density matrix, so code that receives a Dqc1State does
    not validate it again.
    """
    u = as_complex_matrix(u)
    n = num_qubits(u)
    require_register(n + 1)
    u = require_unitary(u)
    require_polarization(alpha)
    return Dqc1State(n=n, alpha=float(alpha), unitary=u)


def pauli_expectations(state: Dqc1State) -> tuple[float, float]:
    """(<X>, <Y>) of the special qubit, read from tau = tr(U)/N; see :func:`_readout`."""
    return _readout(state.tau, state.alpha)


def _readout(tau: complex, alpha: float) -> tuple[float, float]:
    """(<X>, <Y>) = (alpha Re tau, -alpha Im tau): <X> = tr(rho (X (x) I)), and the
    second is -tr(rho (Y (x) I)) for Y = [[0, -i], [i, 0]], so <X> - i<Y> = alpha tau."""
    return alpha * tau.real, -alpha * tau.imag


def runs_required(alpha: float, epsilon: float, p_error: float) -> int | float:
    """Runs per observable: ceil(2 ln(4/p_error) / (alpha**2 epsilon**2)),
    or math.inf past float range, as when (alpha epsilon)**2 underflows to 0."""
    scale = alpha * alpha * epsilon * epsilon
    runs = 2.0 * math.log(4.0 / p_error) / scale if scale else math.inf
    return math.ceil(runs) if math.isfinite(runs) else runs


def estimator_runs(alpha: float, epsilon: float, p_error: float) -> int:
    """Runs per observable L, after refusing, in this order: alpha = 0, epsilon or
    p_error outside (0, 1), |alpha| > 1, and L above MAX_TRACE_RUNS.  Scalar
    checks only, so a caller can make them before it builds U."""
    if alpha == 0:
        raise ValueError("alpha = 0 carries no trace signal")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0 < p_error < 1:
        raise ValueError(f"p_error must be in (0, 1), got {p_error}")
    require_polarization(alpha)
    runs = runs_required(alpha, epsilon, p_error)
    if runs > MAX_TRACE_RUNS:
        raise ValueError(f"estimator needs {runs:.3g} runs per observable; "
                         f"the cap is {MAX_TRACE_RUNS}")
    return runs


def estimate_trace(tau: complex, alpha: float, epsilon: float, p_error: float,
                   seed: int) -> TraceEstimate:
    """Simulate the repeated-measurement estimate of tau = tr(U)/2**n.

    The protocol reads U only through tau, so the caller checks U (by
    :func:`build_state`).  Runs L = ceil(2 ln(4/p_error) / (alpha*epsilon)**2)
    independent circuits for X and another L for Y.  Each run draws an outcome
    of +-1 with p(+1) = (1 + <X>)/2 (resp. <Y>), the readout of tau; the
    estimate is (mean_X - i mean_Y)/alpha.  Only the count c of +1 outcomes is
    kept, the estimator's sufficient statistic: c ~ Binomial(L, p), drawn once
    per observable, and mean = (2c - L)/L.  p is clipped to [0, 1], since a U
    inside the unitarity tolerance can put |<X>| a hair above 1.

    Deterministic given ``seed``: a single Philox stream keyed (seed, 0)
    draws the X count, then the Y count.  The settings are checked by
    :func:`estimator_runs` before any number is drawn.
    """
    runs = estimator_runs(alpha, epsilon, p_error)
    mean_x, mean_y = _readout(tau, alpha)
    rng = philox_stream(seed, 0)
    p_x, p_y = np.clip([(1 + mean_x) / 2, (1 + mean_y) / 2], 0.0, 1.0)
    count_x, count_y = int(rng.binomial(runs, p_x)), int(rng.binomial(runs, p_y))
    est = complex((2 * count_x - runs) / runs, -((2 * count_y - runs) / runs)) / alpha
    return TraceEstimate(estimate=est, runs_used=runs)


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
