"""The one-clean-qubit register: output state, readout, and trace estimation.

A register of n + 1 qubits starts with the special qubit (qubit 0) in the
mixed state (I + alpha*Z)/2 and n unpolarized qubits in I/2**n.  A Hadamard on
qubit 0 followed by a controlled U on the rest leaves the block state

    rho = [[I, alpha*U^dag], [alpha*U, I]] / 2**(n+1),

whose X/Y readout on qubit 0 encodes tr(U)/2**n.  Every quantity the package
reads from rho follows from (U, alpha), so rho itself is never assembled.
For every U, rho is a mixture of product states across the cut between qubit 0
and the rest, so qubit 0 alone is never entangled; that decomposition and the
separable-ball thresholds are test oracles in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_matrix, num_qubits, require_unitary, MAX_QUBITS
from .rng import philox_stream

# estimator runs per observable: the largest L Generator.binomial takes (int64)
MAX_TRACE_RUNS = 2**62


@dataclass(frozen=True, eq=False)
class Dqc1State:
    """Output state of the circuit, held as its defining (U, alpha, n).

    Compared and hashed by identity: a field-wise ``==`` on the unitary array
    has no single truth value.
    """

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
    """Refuse a register of fewer than 2 or more than MAX_QUBITS qubits.

    Takes the qubit count n + 1 alone, so a caller can refuse before it builds U.
    """
    if total_qubits < 2:
        raise ValueError(f"register needs at least 2 qubits, got {total_qubits}")
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
