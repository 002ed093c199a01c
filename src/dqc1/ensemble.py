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
from .negativity import negativity_singular
from .rng import philox_stream
from .state import build_state, require_register

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


def su2_rotation(theta, phi, chi) -> np.ndarray:
    """The rotation [[e^{i phi} cos, e^{i chi} sin], [-e^{-i chi} sin, e^{-i phi} cos]].

    Array arguments broadcast to a stack of rotations of shape (..., 2, 2).
    """
    ct, st = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([np.exp(1j * phi) * ct, np.exp(1j * chi) * st], axis=-1),
                     np.stack([-np.exp(-1j * chi) * st, np.exp(-1j * phi) * ct], axis=-1)],
                    axis=-2)


# theta, phi and chi are uniform on [0, span)
_ANGLE_SPANS = (math.pi / 2, 2 * math.pi, 2 * math.pi)


def random_su2(rng: np.random.Generator,
               shape: int | tuple[int, ...] | None = None) -> np.ndarray:
    """Random rotations: theta uniform on [0, pi/2], phi and chi on [0, 2 pi).

    One rotation, or a stack of shape (*shape, 2, 2) from one draw of shape
    (*shape, 3).  Draw order is theta, phi, chi (three uniforms per rotation),
    rotation by rotation in C order of ``shape``, so a stack consumes the
    stream exactly as the same number of single calls do.
    """
    lead = () if shape is None else tuple(np.atleast_1d(shape))
    angles = rng.uniform(0.0, _ANGLE_SPANS, size=(*lead, 3))
    return su2_rotation(angles[..., 0], angles[..., 1], angles[..., 2])


def _mixing_phases(n: int) -> np.ndarray:
    """Diagonal of the phase unitary exp(i pi/4 sum_j Z_j Z_{j+1}) over nearest
    neighbors.

    Basis state b picks up exp(i pi/4 * sum_j (-1)^(b_j xor b_{j+1})); with a
    single qubit the sum is empty and the operator is the identity.
    """
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

    Each layer R_k = L (x) R' is applied in factored form, never as a dense
    N x N matrix: L acts on the first hi = ceil(n/2) qubits with one matmul on
    U reshaped to (2^hi, 2^lo N), and R' on the other lo = floor(n/2) with one
    batched matmul, so a layer costs O(N^2 (2^hi + 2^lo)) instead of O(N^3).
    The factors of all j layers are built before the layer loop, as two stacks
    of shape (j, 2^hi, 2^hi) and (j, 2^lo, 2^lo) from one (j, n) rotation draw.

    Bit-reproducible at a fixed BLAS thread count: the stream is Philox keyed
    (seed, sample_index), and the one draw takes (theta, phi, chi) for qubits
    1..n of layer 1, then of layer 2, and so on, the order of j draws of n.
    """
    rng = philox_stream(params.seed, sample_index)
    n, j = params.n, params.j
    big_n = 2**n
    rotations = random_su2(rng, (j, n))
    hi = (n + 1) // 2
    lefts, rights = _kron_stack(rotations[:, :hi]), _kron_stack(rotations[:, hi:])
    u = np.kron(lefts[0], rights[0])
    mix_diag = _mixing_phases(n)[:, None] if n > 1 else None
    mixed = np.empty((big_n, big_n), dtype=np.complex128)
    blocks = lefts.shape[1]
    for left, right in zip(lefts[1:], rights[1:]):
        if mix_diag is not None:
            np.multiply(mix_diag, u, out=u)
        # u <- (L (x) R') u: L mixes the 2^hi row blocks, R' the rows inside each block
        np.matmul(left, u.reshape(blocks, -1), out=mixed.reshape(blocks, -1))
        np.matmul(right, mixed.reshape(blocks, -1, big_n), out=u.reshape(blocks, -1, big_n))
    return u


def _kron_stack(rotations: np.ndarray) -> np.ndarray:
    """Kronecker products over axis 1 of a (j, q, 2, 2) stack, in qubit order: (j, 2^q, 2^q)."""
    j = len(rotations)
    f = np.ones((j, 1, 1), dtype=np.complex128)
    for q in range(rotations.shape[1]):  # np.kron(f[k], r[k]) for every k at once
        r, m = rotations[:, q], f.shape[1]
        f = (f[:, :, None, :, None] * r[:, None, :, None, :]).reshape(j, 2 * m, 2 * m)
    return f


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
    per (seed, sample index)), and M of the alpha = 1 output state is evaluated
    for every requested trailing-k division by the singular values of the
    N x N partially transposed U; the same unitaries serve all divisions of one
    size.  The 2N x 2N state is never built, and needs no density-matrix
    validation: it is one by construction from the validated U.  ``split`` is
    "half", "all", a k, or a list of k.  Means use compensated summation so the
    reduction order is immaterial.  Every size, split and the sample count are
    checked (sizes against the register cap) before the first unitary is drawn.
    """
    plan = []
    for n_plus_1 in n_plus_1_values:
        require_register(n_plus_1)
        plan.append((n_plus_1, _resolve_ks(n_plus_1, split)))
    if samples is not None and samples < 2:
        raise ValueError("need at least 2 samples")
    results = []
    for n_plus_1, ks in plan:
        n = n_plus_1 - 1
        count = default_samples(n_plus_1) if samples is None else samples
        values = {k: [] for k in ks}
        for i in range(count):
            u = pseudo_random_unitary(RandomCircuitParams(n=n, seed=seed), sample_index=i)
            state = build_state(u, 1.0)
            for k in ks:
                part = Bipartition.trailing(n_plus_1, k)
                values[k].append(negativity_singular(state, part).m_value)
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
