"""Pseudo-random unitaries and negativity statistics over random registers.

Haar sampling needs resources exponential in the register, so typical-case
statistics come from the standard substitute: layers of independent random
single-qubit rotations interleaved with a fixed nearest-neighbor ZZ phase
mixer, repeated j times (j = 40 reproduces circular-ensemble statistics well
past 10 qubits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import Bipartition
from .negativity import negativity_eigen
from .rng import philox_stream
from .state import build_state

DEFAULT_REPETITIONS = 40


@dataclass(frozen=True)
class RandomCircuitParams:
    n: int
    j: int = DEFAULT_REPETITIONS
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.j < 1:
            raise ValueError("need n >= 1 and j >= 1")


@dataclass(frozen=True)
class SweepStats:
    n_plus_1: int
    partition: Bipartition
    samples: int
    mean_m: float
    std_m: float
    seed: int

    @property
    def k(self) -> int:
        return self.partition.k


def su2_rotation(theta: float, phi: float, chi: float) -> np.ndarray:
    """The rotation [[e^{i phi} cos, e^{i chi} sin], [-e^{-i chi} sin, e^{-i phi} cos]]."""
    ct, st = math.cos(theta), math.sin(theta)
    return np.array([[np.exp(1j * phi) * ct, np.exp(1j * chi) * st],
                     [-np.exp(-1j * chi) * st, np.exp(-1j * phi) * ct]])


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """One random rotation: theta uniform on [0, pi/2], phi and chi on [0, 2 pi).

    Draw order is theta, phi, chi (three uniforms per call).
    """
    theta = rng.uniform(0.0, math.pi / 2)
    phi = rng.uniform(0.0, 2 * math.pi)
    chi = rng.uniform(0.0, 2 * math.pi)
    return su2_rotation(theta, phi, chi)


def mixing_operator(n: int) -> np.ndarray:
    """Diagonal phase unitary exp(i pi/4 sum_j Z_j Z_{j+1}) over nearest neighbors.

    Basis state b picks up exp(i pi/4 * sum_j (-1)^(b_j xor b_{j+1})); with a
    single qubit the sum is empty and the operator is the identity.
    """
    return np.diag(_mixing_phases(n))


def _mixing_phases(n: int) -> np.ndarray:
    """The diagonal of :func:`mixing_operator`, without the dense matrix."""
    if n < 1:
        raise ValueError("need n >= 1")
    idx = np.arange(2**n)
    total = np.zeros(2**n)
    for j in range(n - 1):
        b_j = (idx >> (n - 1 - j)) & 1
        b_next = (idx >> (n - 2 - j)) & 1
        total += np.where(b_j == b_next, 1.0, -1.0)
    return np.exp(1j * math.pi / 4 * total)


def pseudo_random_unitary(params: RandomCircuitParams, sample_index: int = 0) -> np.ndarray:
    """R_j M R_{j-1} ... M R_2 M R_1 with fresh rotations on every qubit per layer.

    Bit-reproducible: the stream is Philox keyed (seed, sample_index), and layer
    k draws (theta, phi, chi) for qubits 1..n in order.
    """
    rng = philox_stream(params.seed, sample_index)
    mix_diag = _mixing_phases(params.n)[:, None] if params.n > 1 else None
    u = mixed = None
    for _ in range(params.j):
        layer = np.eye(1, dtype=np.complex128)
        for _ in range(params.n):
            layer = np.kron(layer, random_su2(rng))
        if u is None:
            u, mixed = layer, np.empty_like(layer)
        elif mix_diag is None:
            u = layer @ u
        else:  # u <- layer @ (M u), written into u and mixed: no fresh N x N results per layer
            np.multiply(mix_diag, u, out=mixed)
            np.matmul(layer, mixed, out=u)
    return u


def half_split_k(n_plus_1: int) -> int:
    """Trailing-part size of the roughly equal (floor(n/2)+1, ceil(n/2)) division."""
    return max(1, math.ceil((n_plus_1 - 1) / 2))


def default_samples(n_plus_1: int) -> int:
    """Sweep sample budget: 100 up to 8 total qubits, 30 for 9 and 10."""
    return 100 if n_plus_1 <= 8 else 30


def _resolve_ks(n_plus_1: int, split) -> list[int]:
    n = n_plus_1 - 1
    if split == "half":
        return [half_split_k(n_plus_1)]
    if split == "all":
        return list(range(1, max(n, 1) + 1))
    ks = [int(k) for k in (split if isinstance(split, (list, tuple)) else [split])]
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"split k={k} out of range for {n_plus_1} qubits")
    return ks


def negativity_sweep(n_plus_1_values: Iterable[int],
                     split: str | int | Sequence[int] = "half",
                     samples: int | None = None,
                     seed: int = 0) -> list[SweepStats]:
    """Mean and sample standard deviation of M over pseudo-random registers.

    For each register size, ``samples`` unitaries are drawn (one Philox stream
    per (seed, sample index)), the alpha = 1 output state is built, and M is
    evaluated for every requested trailing-k division; the same unitaries serve
    all divisions of one size.  ``split`` is "half", "all", a k, or a list of
    k.  Means use compensated summation so the reduction order is immaterial.
    """
    results = []
    for n_plus_1 in n_plus_1_values:
        if n_plus_1 < 2:
            raise ValueError(f"need at least 2 qubits, got {n_plus_1}")
        n = n_plus_1 - 1
        ks = _resolve_ks(n_plus_1, split)
        count = default_samples(n_plus_1) if samples is None else samples
        if count < 2:
            raise ValueError("need at least 2 samples")
        values = {k: [] for k in ks}
        for i in range(count):
            u = pseudo_random_unitary(RandomCircuitParams(n=n, seed=seed), sample_index=i)
            state = build_state(u, 1.0)
            for k in ks:
                part = Bipartition.trailing(n_plus_1, k)
                values[k].append(negativity_eigen(state.rho, part).m_value)
        for k in ks:
            mean = math.fsum(values[k]) / count
            var = math.fsum((v - mean) ** 2 for v in values[k]) / (count - 1)
            results.append(SweepStats(n_plus_1=n_plus_1,
                                      partition=Bipartition.trailing(n_plus_1, k),
                                      samples=count, mean_m=mean,
                                      std_m=math.sqrt(var), seed=seed))
    return results


def sweep_csv(stats: Sequence[SweepStats]) -> str:
    lines = ["n_plus_1,k,samples,mean_m,std_m,seed"]
    lines += [f"{s.n_plus_1},{s.k},{s.samples},{s.mean_m:.17g},{s.std_m:.17g},{s.seed}"
              for s in stats]
    return "\n".join(lines) + "\n"
