"""Classical sum-over-paths evaluation of circuit traces.

A circuit over {H, T, CNOT, TOFFOLI} is first surrounded by a layer of
Hadamards on every qubit, which leaves the trace unchanged but removes the
closed-path restriction.  Tracing each wire as a Z2 polynomial in the path
bits turns the trace into one phase form for both gate sets,

    tr(U) = 2**-(n + h/2) * sum_x exp(i pi chi(x)/4) (-1)**phase(x)

over x in {0,1}**(2n+h), with h the number of Hadamards inside the bracket:
the circuit's own plus two for each Hadamard pair (HH = I) that compilation
places on a wire that a T or a Toffoli control needs as one path bit.
The phase is at most cubic over Z2 (quadratic without Toffolis) and chi a
linear form over Z8 (zero without T gates).  Evaluating the sum exactly means
counting polynomial zeros, which is why the exact evaluator carries a hard
path-bit budget; the uniform sampling estimator has no such budget, only the
64-bit limit of its path indices, but averages terms of magnitude 2**(h/2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
            _check_qubits(g, self.n)

    @property
    def hadamard_count(self) -> int:
        return sum(1 for g in self.gates if g.name == "H")


def _check_qubits(g: Gate, n: int) -> None:
    if any(not 0 <= q < n for q in g.qubits):
        raise ValueError(f"gate {g.name} {g.qubits} addresses a qubit outside 0..{n - 1}")


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
    if n < 1:
        raise ValueError(f"line 1: circuit needs at least one qubit, got {n}")
    gates = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if not tokens:
            continue
        name, args = tokens[0].upper(), tokens[1:]
        if name not in GATE_ARITY:
            raise ValueError(f"line {i}: unknown gate {tokens[0]!r}")
        try:
            gates.append(Gate(name, tuple(int(a) for a in args)))
            _check_qubits(gates[-1], n)
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


def _flipped_rows(g: Gate, n: int) -> np.ndarray:
    """Basis index each index maps to under CNOT or TOFFOLI: the target bit
    flips where every control is 1.  The map is its own inverse."""
    cols = np.arange(2**n)
    *controls, t = g.qubits
    on = np.ones(2**n, dtype=cols.dtype)
    for c in controls:
        on &= (cols >> (n - 1 - c)) & 1
    return cols ^ (on << (n - 1 - t))


def _apply_gate(u: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """The full 2**n matrix of gate g times u, in O(2**n) work per column of u.

    H mixes the row pairs that differ in bit q, T scales the rows whose bit q
    is 1, and CNOT/TOFFOLI permute rows.  ``u`` is left unchanged.
    """
    q = g.qubits[0]
    if g.name == "H":
        return (_H_MAT @ u.reshape(2**q, 2, -1)).reshape(u.shape)
    if g.name == "T":
        out = u.copy()
        out.reshape(2**q, 2, -1)[:, 1] *= _T_MAT[1, 1]
        return out
    return u[_flipped_rows(g, n)]


def circuit_unitary(c: GateCircuit) -> np.ndarray:
    """Product of the gate list (first gate applied first), gate by gate in
    O(G * 4**n) work rather than by dense gate matrices.

    Refused above DENSE_TRACE_MAX_QUBITS qubits, before anything is allocated.
    """
    if c.n > DENSE_TRACE_MAX_QUBITS:
        raise ValueError(f"dense product capped at {DENSE_TRACE_MAX_QUBITS} qubits, got {c.n}")
    u = np.eye(2**c.n, dtype=np.complex128)
    for g in c.gates:
        u = _apply_gate(u, g, c.n)
    return u


def dense_trace(c: GateCircuit) -> complex:
    """Reference trace by dense matrix multiplication."""
    return complex(np.trace(circuit_unitary(c)))


# ---------------------------------------------------------------------------
# circuit preparation

def hadamard_bracket(c: GateCircuit) -> GateCircuit:
    """Surround the circuit with H on every qubit; the trace is unchanged."""
    layer = tuple(H(q) for q in range(c.n))
    return GateCircuit(c.n, layer + c.gates + layer)


def prepare_circuit(c: GateCircuit, mode: str) -> GateCircuit:
    """Check the gate set ``mode`` names, then bracket: the form :func:`compile_circuit` expects."""
    if mode not in MODE_GATES:
        raise ValueError(f"mode must be one of {sorted(MODE_GATES)}, got {mode!r}")
    for g in c.gates:
        if g.name not in MODE_GATES[mode]:
            raise ValueError(f"gate {g.name} not in the {mode!r} gate set")
    return hadamard_bracket(c)


# ---------------------------------------------------------------------------
# compilation to the phase form

@dataclass(frozen=True)
class PathPolynomials:
    """Phase form of a bracketed circuit over its path bits, with

        tr(U) = 2**-(n + h/2) * sum_x exp(i pi chi(x)/4) (-1)**phase(x)

    and h = ``hadamard_count``.  Path bits are numbered: inputs 0..n-1, then
    the opening bracket-H outputs, then internal-H outputs in circuit order,
    the compiled Hadamard pairs included.  The closing bracket's outputs are
    the input bits again, which is what restricts the sum to closed paths.
    ``hadamard_count`` counts every internal Hadamard, two per compiled pair.
    ``phase`` is a set of Z2 monomials (sorted variable tuples), at most
    cubic; ``chi`` maps path bits to nonzero Z8 coefficients and is empty for
    a circuit without T.
    """

    n: int
    hadamard_count: int
    n_path_bits: int
    phase: frozenset
    chi: tuple[tuple[int, int], ...]


def compile_circuit(c: GateCircuit) -> PathPolynomials:
    """Forward symbolic pass turning a bracketed circuit into its phase form
    (see :class:`PathPolynomials` for the trace formula).

    Every wire is tracked as a Z2 polynomial in the path bits.  A Hadamard
    contributes (wire * fresh output) to the phase and resets the wire; CNOT
    and Toffoli update wires deterministically; T adds its input bit to the
    Z8 form chi.  Where a T input or a Toffoli control is not one path bit,
    two Hadamards are compiled on that wire first (HH = I), so the wire
    becomes a fresh bit.  Wires then stay at most quadratic (linear without
    Toffolis), which keeps the phase at most cubic (quadratic) for any mix
    of the four gates.
    """
    n = c.n
    layer = {H(q) for q in range(n)}
    if len(c.gates) < 2 * n or set(c.gates[:n]) != layer or set(c.gates[-n:]) != layer:
        raise ValueError("circuit is not bracketed; apply hadamard_bracket first")

    wires: list[set] = [{(q,)} for q in range(n)]
    phase: set = set()
    chi: dict[int, int] = {}
    fresh = itertools.count(n)   # the next unused path bit

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

    for g in c.gates[:-n]:
        if g.name == "H":
            hadamard(g.qubits[0], next(fresh))
        elif g.name == "T":
            var = single_bit(g.qubits[0])
            chi[var] = (chi.get(var, 0) + 1) % 8
        elif g.name == "CNOT":
            ctrl, tgt = g.qubits
            wires[tgt] = wires[tgt] ^ wires[ctrl]
        else:  # TOFFOLI
            c1, c2, tgt = g.qubits
            monomial = tuple(sorted((single_bit(c1), single_bit(c2))))
            wires[tgt] = wires[tgt] ^ {monomial}
    for g in c.gates[-n:]:   # closed path: the closing bracket's output is the input bit
        hadamard(g.qubits[0], g.qubits[0])

    n_path_bits = next(fresh)
    return PathPolynomials(n=n, hadamard_count=n_path_bits - 2 * n, n_path_bits=n_path_bits,
                           phase=frozenset(phase),
                           chi=tuple(sorted((v, k) for v, k in chi.items() if k)))


# ---------------------------------------------------------------------------
# evaluation

_OMEGA = np.exp(1j * math.pi / 4 * np.arange(8))
# exp(i pi c/4) (-1)**b, indexed by the phase class 2c + b
_AMPLITUDE = (np.array([1.0, -1.0]) * _OMEGA[:, None]).reshape(16)


def _bit(idx: np.ndarray, v: int) -> np.ndarray:
    return (idx >> np.uint64(v)).astype(np.uint8) & np.uint8(1)


def _path_classes(p: PathPolynomials, idx: np.ndarray) -> np.ndarray:
    """Phase class 2*chi(x) + phase(x), in 0..15, of each path index in
    ``idx`` (bit v of an index is the value of path bit v)."""
    cls = np.zeros(idx.shape, dtype=np.uint8)
    for v, coeff in p.chi:
        cls += np.uint8(2 * coeff) * _bit(idx, v)
    cls &= np.uint8(14)          # 2*chi(x) mod 16; bit 0 is left for the phase
    for mono in p.phase:
        term = _bit(idx, mono[0])
        for v in mono[1:]:
            term &= _bit(idx, v)
        cls ^= term
    return cls


def _norm(p: PathPolynomials) -> float:
    return 2.0 ** -(p.n + p.hadamard_count / 2.0)


def _chunks(n_bits: int):
    """All path indices, in chunks; exact evaluation stops at the budget here."""
    if n_bits > PATH_BIT_BUDGET:
        raise PathBudgetError(
            f"enumeration needs {n_bits} path bits; budget is {PATH_BIT_BUDGET}")
    total = 1 << n_bits
    step = 1 << min(n_bits, _CHUNK_BITS)
    for start in range(0, total, step):
        yield np.arange(start, start + step, dtype=np.uint64)


def exact_trace_enumeration(p: PathPolynomials) -> complex:
    """Exact trace by summing the amplitude of every allowed path."""
    re_parts, im_parts = [], []
    for idx in _chunks(p.n_path_bits):
        amp = _AMPLITUDE[_path_classes(p, idx)]
        re_parts.append(float(np.sum(amp.real)))
        im_parts.append(float(np.sum(amp.imag)))
    return _norm(p) * complex(math.fsum(re_parts), math.fsum(im_parts))


# perfbench/tracer.py times this by name: moving or renaming it breaks `run.py --trace 1`
def path_class_counts(p: PathPolynomials) -> np.ndarray:
    """Tally paths by phase class: shape (8, 2), entry [c, b] counting the
    paths with chi = c and phase = b."""
    counts = np.zeros(16, dtype=np.int64)
    for idx in _chunks(p.n_path_bits):
        counts += np.bincount(_path_classes(p, idx), minlength=16)
    return counts.reshape(8, 2)


def trace_by_counting(p: PathPolynomials) -> complex:
    """Trace reconstructed from the per-class path counts."""
    counts = path_class_counts(p)
    return _norm(p) * complex(np.sum(_OMEGA * (counts[:, 0] - counts[:, 1])))


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
    z = 2.0 ** (p.hadamard_count / 2.0) * _AMPLITUDE[_path_classes(p, idx)]
    estimate = complex(z.mean())
    stderr = math.sqrt(float(np.sum(np.abs(z - estimate) ** 2)) / (samples * (samples - 1)))
    return estimate, stderr
