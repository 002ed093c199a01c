"""Classical sum-over-paths evaluation of circuit traces.

A circuit over {H, T, CNOT, TOFFOLI} is first surrounded by a layer of
Hadamards on every qubit, which leaves the trace unchanged but removes the
closed-path restriction.  Tracing each wire as a Z2 polynomial in the path
bits turns the trace into

    tr(U) = 2**-(n + h/2) * sum_x (-1)**psi(x)                 (H/Toffoli)
    tr(U) = 2**-(n + h/2) * sum_x exp(i pi chi(x)/4) (-1)**phi(x)   (H/T/CNOT)

over x in {0,1}**(2n+h), with h the number of Hadamards inside the bracket:
the circuit's own plus two for each Hadamard pair (HH = I) that compilation
places on a wire that a T or a Toffoli control needs as one path bit.
psi is cubic over Z2, phi purely quadratic, and chi a linear form over Z8.
Evaluating the sum exactly means counting polynomial zeros, which is why the
exact evaluator carries a hard path-bit budget; the uniform sampling estimator
has no such budget, only the 64-bit limit of its path indices, but averages
terms of magnitude 2**(h/2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .rng import philox_stream

PATH_BIT_BUDGET = 26
DENSE_TRACE_MAX_QUBITS = 10
_CHUNK_BITS = 20
SAMPLE_BIT_LIMIT = 64            # sampled path indices are uint64

GATE_ARITY = {"H": 1, "T": 1, "CNOT": 2, "TOFFOLI": 3}
MODE_GATES = {"toffoli": {"H", "TOFFOLI"}, "t_gate": {"H", "T", "CNOT"}}


class PathBudgetError(ValueError):
    """Exact evaluation would exceed the path-bit budget."""


@dataclass(frozen=True)
class Gate:
    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.name not in GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(f"{self.name} takes {GATE_ARITY[self.name]} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.name} operands must be distinct, got {self.qubits}")


def H(q: int) -> Gate:
    return Gate("H", (q,))


def T(q: int) -> Gate:
    return Gate("T", (q,))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def TOFFOLI(c1: int, c2: int, target: int) -> Gate:
    return Gate("TOFFOLI", (c1, c2, target))


@dataclass(frozen=True)
class GateCircuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if any(q >= self.n for q in g.qubits):
                raise ValueError(f"gate {g} addresses a qubit >= {self.n}")

    @property
    def hadamard_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "H")


def format_circuit(c: GateCircuit) -> str:
    lines = [f"qubits {c.n}"]
    lines += [" ".join([g.name, *map(str, g.qubits)]) for g in c.gates]
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> GateCircuit:
    """Parse the one-gate-per-line format; errors carry the offending line number."""
    lines = text.splitlines()
    if not lines or not lines[0].split() or lines[0].split()[0] != "qubits":
        raise ValueError("line 1: expected header 'qubits <n>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError(f"line 1: bad qubit count in {lines[0]!r}") from None
    gates = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        name, args = tokens[0].upper(), tokens[1:]
        if name not in GATE_ARITY:
            raise ValueError(f"line {i}: unknown gate {tokens[0]!r}")
        try:
            qubits = tuple(int(a) for a in args)
            gates.append(Gate(name, qubits))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    return GateCircuit(n=n, gates=tuple(gates))


def load_circuit(path) -> GateCircuit:
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_circuit(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_circuit(path, c: GateCircuit) -> None:
    with open(path, "w") as fh:
        fh.write(format_circuit(c))


# ---------------------------------------------------------------------------
# dense reference

_H_MAT = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_T_MAT = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(np.complex128)


def gate_matrix(g: Gate, n: int) -> np.ndarray:
    """Full 2**n matrix of a single gate (qubit 0 most significant)."""
    dim = 2**n
    if g.name in ("H", "T"):
        base = _H_MAT if g.name == "H" else _T_MAT
        out = np.eye(1, dtype=np.complex128)
        for q in range(n):
            out = np.kron(out, base if q == g.qubits[0] else np.eye(2))
        return out
    cols = np.arange(dim)
    if g.name == "CNOT":
        c, t = g.qubits
        rows = cols ^ (((cols >> (n - 1 - c)) & 1) << (n - 1 - t))
    else:  # TOFFOLI
        c1, c2, t = g.qubits
        both = ((cols >> (n - 1 - c1)) & 1) & ((cols >> (n - 1 - c2)) & 1)
        rows = cols ^ (both << (n - 1 - t))
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[rows, cols] = 1.0
    return m


def circuit_unitary(c: GateCircuit) -> np.ndarray:
    """Dense product of the gate list (first gate applied first)."""
    u = np.eye(2**c.n, dtype=np.complex128)
    for g in c.gates:
        u = gate_matrix(g, c.n) @ u
    return u


def dense_trace(c: GateCircuit) -> complex:
    """Reference trace by dense matrix multiplication."""
    if c.n > DENSE_TRACE_MAX_QUBITS:
        raise ValueError(f"dense trace capped at {DENSE_TRACE_MAX_QUBITS} qubits, got {c.n}")
    return complex(np.trace(circuit_unitary(c)))


# ---------------------------------------------------------------------------
# circuit preparation

def hadamard_bracket(c: GateCircuit) -> GateCircuit:
    """Surround the circuit with H on every qubit; the trace is unchanged."""
    layer = tuple(H(q) for q in range(c.n))
    return GateCircuit(c.n, layer + c.gates + layer)


def prepare_circuit(c: GateCircuit, mode: str) -> GateCircuit:
    """Check the gate set, then bracket: the form :func:`compile_circuit` expects."""
    _check_gate_set(c, mode)
    return hadamard_bracket(c)


def _check_gate_set(c: GateCircuit, mode: str) -> None:
    if mode not in MODE_GATES:
        raise ValueError(f"mode must be one of {sorted(MODE_GATES)}, got {mode!r}")
    for g in c.gates:
        if g.name not in MODE_GATES[mode]:
            raise ValueError(f"gate {g.name} not in the {mode!r} gate set")


# ---------------------------------------------------------------------------
# compilation to path polynomials

@dataclass(frozen=True)
class PathPolynomials:
    """Phase polynomials of a bracketed circuit over its path bits.

    Path bits are numbered: inputs 0..n-1, then the opening bracket-H outputs,
    then internal-H outputs in circuit order, the compiled Hadamard pairs
    included.  The closing bracket's outputs are the input bits again, which
    is what restricts the sum to closed paths.  ``hadamard_count`` counts every
    internal Hadamard, two per compiled pair.  Monomials are sorted variable
    tuples; chi maps path bits to Z8 coefficients.
    """

    n: int
    hadamard_count: int
    n_path_bits: int
    mode: str
    psi: frozenset | None = None
    phi: frozenset | None = None
    chi: tuple[tuple[int, int], ...] | None = None


def compile_circuit(c: GateCircuit, mode: str) -> PathPolynomials:
    """Forward symbolic pass turning a bracketed circuit into its path
    polynomials.

    Every wire is tracked as a Z2 polynomial in the path bits.  A Hadamard
    contributes (wire * fresh output) to the phase polynomial and resets the
    wire; CNOT and Toffoli update wires deterministically; T adds its input
    bit to the Z8 form.  Where a T input or a Toffoli control is not one path
    bit, two Hadamards are compiled on that wire first (HH = I), so the wire
    becomes a fresh bit.  Wires then stay linear in t_gate mode and at most
    quadratic in toffoli mode, which keeps phi quadratic and psi cubic.
    """
    _check_gate_set(c, mode)
    n = c.n
    if len(c.gates) < 2 * n:
        raise ValueError("circuit is not bracketed; apply hadamard_bracket first")
    opening, closing = c.gates[:n], c.gates[-n:]
    for layer in (opening, closing):
        if {g.name for g in layer} != {"H"} or {g.qubits[0] for g in layer} != set(range(n)):
            raise ValueError("circuit is not bracketed; apply hadamard_bracket first")

    wires: list[set] = [{(q,)} for q in range(n)]
    phase: set = set()           # psi (toffoli) or phi (t_gate)
    chi: dict[int, int] = {}
    fresh = itertools.count(n)   # the next unused path bit
    closing_start = len(c.gates) - n

    def hadamard(q: int, out_var: int) -> None:
        for mono in wires[q]:
            phase.symmetric_difference_update({tuple(sorted((*mono, out_var)))})
        wires[q] = {(out_var,)}

    def single_bit(q: int) -> int:
        """The path bit wire q carries, after compiling an HH pair if needed."""
        if len(wires[q]) != 1 or len(next(iter(wires[q]))) != 1:
            hadamard(q, next(fresh))
            hadamard(q, next(fresh))
        return next(iter(wires[q]))[0]

    for pos, g in enumerate(c.gates):
        if g.name == "H":
            q = g.qubits[0]
            # closed path: the closing bracket's output is the input bit
            hadamard(q, q if pos >= closing_start else next(fresh))
        elif g.name == "T":
            var = single_bit(g.qubits[0])
            chi[var] = (chi.get(var, 0) + 1) % 8
        elif g.name == "CNOT":
            ctrl, tgt = g.qubits
            wires[tgt] = wires[tgt] ^ wires[ctrl]
        else:  # TOFFOLI
            c1, c2, tgt = g.qubits
            a = single_bit(c1)
            b = single_bit(c2)
            wires[tgt] = wires[tgt] ^ {tuple(sorted({a, b}))}

    n_path_bits = next(fresh)
    h_internal = n_path_bits - 2 * n
    if mode == "toffoli":
        return PathPolynomials(n=n, hadamard_count=h_internal, n_path_bits=n_path_bits,
                               mode=mode, psi=frozenset(phase))
    chi_form = tuple(sorted((v, k) for v, k in chi.items() if k))
    return PathPolynomials(n=n, hadamard_count=h_internal, n_path_bits=n_path_bits,
                           mode=mode, phi=frozenset(phase), chi=chi_form)


# ---------------------------------------------------------------------------
# evaluation

def _poly_values(monomials: Iterable[tuple[int, ...]], idx: np.ndarray) -> np.ndarray:
    """Z2 polynomial values on the path indices in ``idx`` (bit v of an index
    is the value of path bit v)."""
    acc = np.zeros(idx.shape, dtype=np.uint8)
    for mono in monomials:
        bit = np.ones(idx.shape, dtype=np.uint8)
        for v in mono:
            bit &= (idx >> np.uint64(v)).astype(np.uint8) & np.uint8(1)
        acc ^= bit
    return acc


def _chi_values(chi: tuple[tuple[int, int], ...], idx: np.ndarray) -> np.ndarray:
    acc = np.zeros(idx.shape, dtype=np.uint8)
    for v, coeff in chi:
        acc += np.uint8(coeff) * ((idx >> np.uint64(v)).astype(np.uint8) & np.uint8(1))
    return acc & np.uint8(7)


def _norm(p: PathPolynomials) -> float:
    return 2.0 ** -(p.n + p.hadamard_count / 2.0)


def _chunks(n_bits: int):
    total = 1 << n_bits
    step = 1 << min(n_bits, _CHUNK_BITS)
    for start in range(0, total, step):
        yield np.arange(start, start + step, dtype=np.uint64)


_OMEGA = np.exp(1j * math.pi / 4 * np.arange(8))


def exact_trace_enumeration(p: PathPolynomials) -> complex:
    """Exact trace by summing the amplitude of every allowed path."""
    if p.n_path_bits > PATH_BIT_BUDGET:
        raise PathBudgetError(
            f"enumeration needs {p.n_path_bits} path bits; budget is {PATH_BIT_BUDGET}")
    re_parts, im_parts = [], []
    for idx in _chunks(p.n_path_bits):
        if p.mode == "toffoli":
            psi = _poly_values(p.psi, idx)
            re_parts.append(float(idx.size - 2 * int(psi.sum(dtype=np.int64))))
            im_parts.append(0.0)
        else:
            sign = 1.0 - 2.0 * _poly_values(p.phi, idx).astype(np.float64)
            amp = sign * _OMEGA[_chi_values(p.chi, idx)]
            re_parts.append(float(np.sum(amp.real)))
            im_parts.append(float(np.sum(amp.imag)))
    return _norm(p) * complex(math.fsum(re_parts), math.fsum(im_parts))


def path_class_counts(p: PathPolynomials) -> np.ndarray:
    """Tally paths by phase class: shape (2,) of psi values in toffoli mode,
    (8, 2) of (chi, phi) values in t_gate mode."""
    if p.n_path_bits > PATH_BIT_BUDGET:
        raise PathBudgetError(
            f"counting needs {p.n_path_bits} path bits; budget is {PATH_BIT_BUDGET}")
    if p.mode == "toffoli":
        counts = np.zeros(2, dtype=np.int64)
        for idx in _chunks(p.n_path_bits):
            ones = int(_poly_values(p.psi, idx).sum(dtype=np.int64))
            counts += (idx.size - ones, ones)
        return counts
    counts = np.zeros(16, dtype=np.int64)
    for idx in _chunks(p.n_path_bits):
        cls = 2 * _chi_values(p.chi, idx).astype(np.int64) + _poly_values(p.phi, idx)
        counts += np.bincount(cls, minlength=16)
    return counts.reshape(8, 2)


def trace_by_counting(p: PathPolynomials) -> complex:
    """Trace reconstructed from the per-class path counts."""
    counts = path_class_counts(p)
    if p.mode == "toffoli":
        return _norm(p) * complex(int(counts[0] - counts[1]))
    diff = counts[:, 0] - counts[:, 1]
    return _norm(p) * complex(np.sum(_OMEGA * diff))


def sampled_trace(p: PathPolynomials, samples: int, seed: int) -> tuple[complex, float]:
    """Monte Carlo estimate of the normalized trace tr(U)/2**n.

    Uniform path sampling; each term is 2**(h/2) times the path's phase, so
    the spread (and the sample cost for fixed accuracy) grows as 2**(h/2).
    Path indices are uint64, so more than 64 path bits is refused.
    Returns (estimate, standard error of the complex mean).
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if p.n_path_bits > SAMPLE_BIT_LIMIT:
        raise ValueError(f"sampling needs {p.n_path_bits} path bits; path indices "
                         f"are {SAMPLE_BIT_LIMIT}-bit, so the limit is {SAMPLE_BIT_LIMIT}")
    rng = philox_stream(seed, 0)
    idx = rng.integers(0, 1 << p.n_path_bits, size=samples, dtype=np.uint64)
    scale = 2.0 ** (p.hadamard_count / 2.0)
    if p.mode == "toffoli":
        z = scale * (1.0 - 2.0 * _poly_values(p.psi, idx).astype(np.float64)) + 0j
    else:
        sign = 1.0 - 2.0 * _poly_values(p.phi, idx).astype(np.float64)
        z = scale * sign * _OMEGA[_chi_values(p.chi, idx)]
    estimate = complex(z.mean())
    stderr = math.sqrt(float(np.sum(np.abs(z - estimate) ** 2)) / (samples * (samples - 1)))
    return estimate, stderr
