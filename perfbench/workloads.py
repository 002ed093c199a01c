"""The benchmark's workloads: seeded inputs, the CLI operations, output checks.

Each workload turns a seed into a fixed list of ``dqc1`` command lines (one
round) plus whatever input files they read, and checks the outputs of a round
against computations of its own.  The program sees only the generated
command lines and files.  The work in a round does not depend on the seed,
only the values it works on do, so the run-to-run spread of the timings
measures the machine, not the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)

# Exact s = 1, 2, 3 bound at 2N = 16, as printed by derive_s123_16.py.
S123_EXACT_16 = 1.27833875777910288584640267136

# The family circuit at n = 4 compiles to 28 path bits and exact evaluation
# refuses it; the refusal is counted as a failed operation on every round.
FAMILY_N4_REFUSAL = "error: enumeration needs 28 path bits; budget is 26"


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a round."""

    argv: tuple[str, ...]
    largest: bool = False          # the workload's largest stated operation
    known_refusal: str | None = None   # stderr line of a known program fault


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Inputs:
    ops: list[Op]
    data: dict = field(default_factory=dict)   # what the checks need


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _rows(text: str) -> list[dict[str, str]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _keys(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.strip().splitlines())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# numerics of the benchmark's own, independent of the package

def _pt_trailing(u: np.ndarray, k: int) -> np.ndarray:
    """Partial transpose of U over its last k qubits."""
    dim = u.shape[0]
    lo = 2**k
    hi = dim // lo
    return u.reshape(hi, lo, hi, lo).transpose(0, 3, 2, 1).reshape(dim, dim)


def _m_by_svd(u: np.ndarray, k: int, alpha: float = 1.0) -> float:
    """M of the output state split off the last k register qubits:
    (1/N) sum_j max(|alpha| s_j, 1) over singular values of the transposed U."""
    s = np.linalg.svd(_pt_trailing(u, k), compute_uv=False)
    return float(np.maximum(abs(alpha) * s, 1.0).sum() / u.shape[0])


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _write_unitary(path: Path, u: np.ndarray) -> None:
    """The package's text format: dimension, then rows of re,im tokens."""
    with open(path, "w") as fh:
        fh.write(f"{u.shape[0]}\n")
        for row in u:
            fh.write(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row) + "\n")


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_T = np.diag([1.0, np.exp(1j * math.pi / 4)])


def _gate(name: str, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full matrix of one gate, qubit 0 most significant."""
    if name in ("H", "T"):
        out = np.ones((1, 1), dtype=complex)
        for q in range(n):
            out = np.kron(out, (_H if name == "H" else _T) if q == qubits[0] else np.eye(2))
        return out
    basis = np.arange(2**n)
    bits = [(basis >> (n - 1 - q)) & 1 for q in qubits]
    flip = bits[0] if name == "CNOT" else bits[0] & bits[1]
    image = basis ^ (flip << (n - 1 - qubits[-1]))
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[image, basis] = 1.0
    return out


def _dense_trace(n: int, gates: list[tuple]) -> complex:
    u = np.eye(2**n, dtype=complex)
    for name, *qubits in gates:
        u = _gate(name, tuple(qubits), n) @ u
    return complex(np.trace(u))


def _write_circuit(path: Path, n: int, gates: list[tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(f"qubits {n}\n")
        for name, *qubits in gates:
            fh.write(" ".join([name, *map(str, qubits)]) + "\n")


def _family_gates(n: int) -> list[tuple]:
    """The paper's family circuit: CNOT fan-out from qubit 0, the seed swap of
    |00> and |11> on qubits (0, n-1) with X = H T^4 H, then the fan-in."""
    fan = [("CNOT", 0, q) for q in range(1, n - 1)]
    x_last = [("H", n - 1)] + [("T", n - 1)] * 4 + [("H", n - 1)]
    seed = [("CNOT", 0, n - 1), *x_last, ("CNOT", n - 1, 0), *x_last, ("CNOT", 0, n - 1)]
    return fan + seed + fan[::-1]


def _random_gates(rng: np.random.Generator, n: int, counts: dict[str, int]) -> list[tuple]:
    """A fixed multiset of gates in seeded order on seeded distinct qubits."""
    names = [name for name, c in counts.items() for _ in range(c)]
    rng.shuffle(names)
    arity = {"H": 1, "T": 1, "CNOT": 2, "TOFFOLI": 3}
    return [(name, *(int(q) for q in rng.choice(n, size=arity[name], replace=False)))
            for name in names]


# ---------------------------------------------------------------------------
# ensemble_sweep

# half-split sweeps as (n+1, samples per operation, operations): many short
# operations, each on its own seed, so the median operation is one of several
# alike and not a single sweep
HALF_SWEEPS = ((5, 5, 4), (6, 3, 4), (7, 2, 4), (8, 2, 2), (9, 2, 1))
ALL_SPLITS_NPLUS1, ALL_SPLITS_SAMPLES = 9, 2       # the largest operation
RECOMPUTED_MAX_NPLUS1 = 8      # half-split sizes whose samples are all recomputed


def ensemble_inputs(seed: int, workdir: Path) -> Inputs:
    sweeps = [(n1, samples) for n1, samples, count in HALF_SWEEPS for _ in range(count)]
    sweeps.append((ALL_SPLITS_NPLUS1, ALL_SPLITS_SAMPLES))
    seeds = [int(s) for s in _rng(seed, 0).integers(0, 2**31, size=len(sweeps))]
    ops = [Op(("sweep", "--nplus1", str(n1), "--split", "half", "--samples", str(samples),
               "--seed", str(s)))
           for (n1, samples), s in zip(sweeps[:-1], seeds)]
    ops.append(Op(("sweep", "--nplus1", str(ALL_SPLITS_NPLUS1), "--all-splits", "--samples",
                   str(ALL_SPLITS_SAMPLES), "--seed", str(seeds[-1])), largest=True))
    return Inputs(ops, {"sweeps": sweeps, "seeds": seeds})


def _sample_unitaries(n_plus_1: int, count: int, seed: int) -> list[np.ndarray]:
    # the ensemble's own generator: the check is of the negativities, not the draw
    from dqc1.ensemble import RandomCircuitParams, pseudo_random_unitary
    params = RandomCircuitParams(n=n_plus_1 - 1, seed=seed)
    return [pseudo_random_unitary(params, i) for i in range(count)]


def ensemble_check(inputs: Inputs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    sweeps = inputs.data["sweeps"]
    for index, ((n1, samples), seed, out) in enumerate(zip(sweeps, inputs.data["seeds"],
                                                           outcomes)):
        all_splits = index == len(sweeps) - 1
        rows = _rows(out.stdout)
        ks = list(range(1, n1)) if all_splits else [math.ceil((n1 - 1) / 2)]
        if [int(r["k"]) for r in rows] != ks:
            problems.append(f"sweep n+1={n1}: splits {[r['k'] for r in rows]}, expected {ks}")
            continue
        for r in rows:
            mean = float(r["mean_m"])
            if not 1.0 <= mean <= SQRT2:
                problems.append(f"sweep n+1={n1} k={r['k']}: mean {mean} outside [1, sqrt 2]")
            if not all_splits and not 1.10 <= mean <= 1.20:
                problems.append(f"sweep n+1={n1}: half-split mean {mean} outside 1.10..1.20")
            if int(r["samples"]) != samples or int(r["seed"]) != seed:
                problems.append(f"sweep n+1={n1}: echoed samples/seed {r['samples']}/{r['seed']}")
        if not all_splits and n1 > RECOMPUTED_MAX_NPLUS1:
            continue
        unitaries = _sample_unitaries(n1, samples, seed)
        for r in rows:
            values = [_m_by_svd(u, int(r["k"])) for u in unitaries]
            mean = math.fsum(values) / samples
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (samples - 1))
            if not (_close(mean, float(r["mean_m"]), 1e-9)
                    and _close(std, float(r["std_m"]), 1e-9)):
                problems.append(f"sweep n+1={n1} k={r['k']}: mean/std {r['mean_m']}/"
                                f"{r['std_m']}, SVD recomputation {mean!r}/{std!r}")
    return problems


# ---------------------------------------------------------------------------
# large_register

TRACE_EPSILON, TRACE_ALPHA, TRACE_P_ERROR = 0.01, 0.25, 1e-6


def large_inputs(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 1)
    random_seed, trace_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    # (n+1, k, alpha) for the random, large family, small family and file states
    draws = {}
    for name, n1 in (("random", 10), ("family11", 11), ("family9", 9), ("file", 9)):
        draws[name] = (n1, int(rng.integers(1, n1)), round(float(rng.uniform(0.3, 1.0)), 6))
    haar = _haar_unitary(2 ** (draws["file"][0] - 1), rng)
    path = workdir / "haar9.mat"
    _write_unitary(path, haar)

    def negativity(source: tuple[str, ...], name: str, method: str, largest=False) -> Op:
        n1, k, alpha = draws[name]
        return Op(("negativity", *source, "--k", str(k), "--alpha", repr(alpha),
                   "--method", method), largest=largest)

    random_src = ("--random", "--n", "10", "--seed", str(random_seed))
    ops = [negativity(random_src, "random", "eigen", largest=True),
           negativity(random_src, "random", "singular"),
           negativity(("--family", "--n", "11"), "family11", "singular"),
           negativity(("--family", "--n", "9"), "family9", "eigen"),
           negativity(("--file", str(path)), "file", "eigen"),
           negativity(("--file", str(path)), "file", "singular"),
           Op(("trace", "--random", "--n", "9", "--seed", str(trace_seed),
               "--epsilon", repr(TRACE_EPSILON), "--alpha", repr(TRACE_ALPHA),
               "--p-error", repr(TRACE_P_ERROR))),
           Op(("family-verify", "--n", "9"))]
    return Inputs(ops, {"draws": draws, "haar": haar, "trace_seed": trace_seed})


def large_check(inputs: Inputs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    draws = inputs.data["draws"]
    m = [float(_rows(o.stdout)[0]["m_value"]) for o in outcomes[:6]]
    if not _close(m[0], m[1], 1e-9):
        problems.append(f"random n+1=10: eigen M {m[0]!r} vs singular {m[1]!r}")
    if not 1.0 <= m[0] <= math.sqrt(1 + draws["random"][2] ** 2) + 1e-12:
        problems.append(f"random n+1=10: M {m[0]!r} outside [1, sqrt(1 + alpha^2)]")
    for value, name in ((m[2], "family11"), (m[3], "family9")):
        n1, k, alpha = draws[name]
        separated = k < n1 - 1      # trailing k holds register qubit n but not qubit 1
        expected = max(1.0, (2 * alpha + 3) / 4) if separated else 1.0
        if not _close(value, expected, 1e-9):
            problems.append(f"family n+1={n1} k={k} alpha={alpha}: M {value!r}, "
                            f"expected {expected!r}")
    _, k, alpha = draws["file"]
    own = _m_by_svd(inputs.data["haar"], k, alpha)
    if not (_close(m[4], m[5], 1e-9) and _close(m[4], own, 1e-9)):
        problems.append(f"file n+1=9: eigen {m[4]!r}, singular {m[5]!r}, SVD {own!r}")

    report = _keys(outcomes[6].stdout)
    runs = math.ceil(2 * math.log(4 / TRACE_P_ERROR) / (TRACE_ALPHA * TRACE_EPSILON) ** 2)
    if int(report["runs_used"]) != runs:
        problems.append(f"trace: runs_used {report['runs_used']}, expected {runs}")
    from dqc1.ensemble import RandomCircuitParams, pseudo_random_unitary
    u = pseudo_random_unitary(RandomCircuitParams(n=8, seed=inputs.data["trace_seed"]))
    true = complex(np.trace(u)) / u.shape[0]
    estimate = complex(float(report["estimate_re"]), float(report["estimate_im"]))
    if abs(estimate - true) > TRACE_EPSILON:
        problems.append(f"trace: |estimate - tr(U)/N| = {abs(estimate - true)!r} > epsilon")

    if _keys(outcomes[7].stdout).get("verified") != "true":
        problems.append("family-verify --n 9 did not print verified=true")
    return problems


# ---------------------------------------------------------------------------
# bounds_s123

# exhaustive sizes, every 16th of 8..78 plus both sizes with exact values
S123_EXHAUSTIVE = (8, 16, 30, 46, 62, 78)
GUIDED_COUNT = 3


def bounds_inputs(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 2)
    guided = sorted(int(x) for x in rng.choice(np.arange(80, 2002, 2), GUIDED_COUNT,
                                               replace=False))
    alpha = round(float(rng.uniform(0.05, 1.0)), 6)
    s12_lo = 2 * int(rng.integers(2, 50))
    asym_lo = 2 * int(rng.integers(2, 5000))
    ops = [Op(("bounds", "--kind", "s123", "--two-n", str(t)), largest=t == S123_EXHAUSTIVE[-1])
           for t in S123_EXHAUSTIVE]
    ops += [Op(("bounds", "--kind", "s123", "--two-n", str(t))) for t in guided]
    ops.append(Op(("bounds", "--kind", "s12", "--alpha", repr(alpha),
                   "--two-n", f"{s12_lo}..{s12_lo + 998}")))
    ops.append(Op(("bounds", "--kind", "asymptote", "--two-n", f"{asym_lo}..{asym_lo + 998}")))
    return Inputs(ops, {"sizes": list(S123_EXHAUSTIVE) + guided, "alpha": alpha,
                        "s12": range(s12_lo, s12_lo + 999, 2),
                        "asymptote": range(asym_lo, asym_lo + 999, 2)})


def _witness(row: dict[str, str]) -> list[tuple[int, float]]:
    return [(int(row[d]), float(row[v])) for d, v in (("u", "A"), ("v", "B"), ("w", "C"))
            if row[d]]


def _check_spectrum(label: str, row: dict[str, str], moments: list[float]) -> list[str]:
    """Witness sums sum d lambda^s match ``moments`` (s = 1, 2, ...) to 1e-10, and
    the bound is sum d |lambda|."""
    two_n = int(row["two_N"])
    pairs = _witness(row)
    problems = []
    if sum(d for d, _ in pairs) != two_n:
        problems.append(f"{label}: degeneracies {[d for d, _ in pairs]} do not sum to {two_n}")
    for s, target in enumerate(moments, start=1):
        got = math.fsum(d * lam**s for d, lam in pairs)
        if not _close(got, target, 1e-10):
            problems.append(f"{label}: sum d*lambda^{s} = {got!r}, expected {target!r}")
    if not _close(float(row["bound"]), math.fsum(d * abs(lam) for d, lam in pairs), 1e-12):
        problems.append(f"{label}: bound {row['bound']} is not sum d*|lambda|")
    return problems


def bounds_check(inputs: Inputs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    sizes = inputs.data["sizes"]
    for two_n, out in zip(sizes, outcomes):
        (row,) = _rows(out.stdout)
        label = f"s123 2N={two_n}"
        if int(row["two_N"]) != two_n or row["kind"] != "s123_numeric":
            problems.append(f"{label}: row {row}")
            continue
        big_n = two_n // 2
        problems += _check_spectrum(label, row, [big_n ** (1 - s) for s in (1, 2, 3)])
        bound = float(row["bound"])
        if bound > SQRT2:
            problems.append(f"{label}: bound {bound!r} exceeds sqrt 2")
        if two_n == 8 and not _close(bound, 1.25, 1e-8):
            problems.append(f"{label}: bound {bound!r}, expected 5/4")
        if two_n == 16 and not _close(bound, S123_EXACT_16, 1e-12):
            problems.append(f"{label}: bound {bound!r}, exact value {S123_EXACT_16!r}")

    alpha = inputs.data["alpha"]
    rows = _rows(outcomes[len(sizes)].stdout)
    expected = [(t, kind) for t in inputs.data["s12"] for kind in ("s12_continuous", "s12_integer")]
    if [(int(r["two_N"]), r["kind"]) for r in rows] != expected:
        problems.append("s12: rows do not cover the requested sizes")
    for cont, inte in zip(rows[::2], rows[1::2]):
        two_n = int(cont["two_N"])
        if not _close(float(cont["bound"]), math.sqrt(1 + alpha**2), 1e-12):
            problems.append(f"s12 2N={two_n}: continuous bound {cont['bound']}")
        if float(inte["bound"]) > float(cont["bound"]) + 1e-12:
            problems.append(f"s12 2N={two_n}: integer bound above the continuous one")
        problems += _check_spectrum(f"s12 2N={two_n}", inte, [1.0, (1 + alpha**2) / two_n])

    rows = _rows(outcomes[len(sizes) + 1].stdout)
    if [int(r["two_N"]) for r in rows] != list(inputs.data["asymptote"]):
        problems.append("asymptote: rows do not cover the requested sizes")
    for r in rows:
        big_n = int(r["two_N"]) // 2
        value = SQRT2 - 2.0 ** (-7.0 / 6.0) * big_n ** (-1.0 / 3.0)
        if not _close(float(r["bound"]), value, 1e-12):
            problems.append(f"asymptote 2N={r['two_N']}: {r['bound']}, expected {value!r}")
    return problems


# ---------------------------------------------------------------------------
# pathsum_exact

CIRCUIT_QUBITS = 6
# gate multisets; path bits are 2n + #H + 2 #T (t_gate) or 2n + #H + 2 #TOFFOLI
EXACT_CIRCUITS = [("t_gate", {"H": 2, "T": 3, "CNOT": 6}),      # 20 path bits
                  ("toffoli", {"H": 2, "TOFFOLI": 3})]          # 20
SAMPLED_CIRCUITS = [("t_gate", {"H": 4, "T": 4, "CNOT": 8}),    # 24
                    ("toffoli", {"H": 4, "TOFFOLI": 4})]        # 24
PATH_SAMPLES = 1_000_000


def pathsum_inputs(seed: int, workdir: Path) -> Inputs:
    rng = _rng(seed, 3)
    circuits = []   # (file, mode, qubits, gates, exact)
    for i, (mode, counts) in enumerate(EXACT_CIRCUITS + SAMPLED_CIRCUITS):
        gates = _random_gates(rng, CIRCUIT_QUBITS, counts)
        circuits.append((workdir / f"random{i}.txt", mode, CIRCUIT_QUBITS, gates,
                         i < len(EXACT_CIRCUITS)))
    for n, exact in ((2, True), (4, True), (3, False)):
        circuits.append((workdir / f"family{n}.txt", "t_gate", n, _family_gates(n), exact))
    sample_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(circuits))]
    ops = []
    for (path, mode, n, gates, exact), sample_seed in zip(circuits, sample_seeds):
        _write_circuit(path, n, gates)
        argv = ("trace", "--pathsum", str(path), "--mode", mode)
        family_n = n if path.name.startswith("family") else None
        if exact:
            ops.append(Op(argv + ("--exact",), largest=family_n == 2,
                          known_refusal=FAMILY_N4_REFUSAL if family_n == 4 else None))
        else:
            ops.append(Op(argv + ("--samples", str(PATH_SAMPLES), "--seed", str(sample_seed))))
    traces = [_dense_trace(n, gates) for _, _, n, gates, _ in circuits]
    return Inputs(ops, {"circuits": [(p.name, mode, n, exact)
                                     for p, mode, n, _, exact in circuits],
                        "traces": traces})


def pathsum_check(inputs: Inputs, outcomes: list[Outcome]) -> list[str]:
    problems = []
    for (name, mode, n, exact), true, op, out in zip(inputs.data["circuits"],
                                                     inputs.data["traces"], inputs.ops,
                                                     outcomes):
        if out.rc != 0:
            continue   # a known refusal; run.py has matched its message already
        report = _keys(out.stdout)
        if exact:
            value = complex(float(report["trace_re"]), float(report["trace_im"]))
            counted = complex(float(report["counting_re"]), float(report["counting_im"]))
            if abs(value - true) > 1e-9:
                problems.append(f"{name}: trace {value!r}, dense product {true!r}")
            if abs(value - counted) > 1e-12:
                problems.append(f"{name}: counting {counted!r} differs from enumeration")
            if mode == "toffoli" and abs(value.imag) > 1e-12:
                problems.append(f"{name}: toffoli-mode trace {value!r} is not real")
            if name.startswith("family") and abs(value - 2 ** (n - 1)) > 1e-9:
                problems.append(f"{name}: trace {value!r}, expected 2^(n-1) = {2 ** (n - 1)}")
        else:
            estimate = complex(float(report["normalized_estimate_re"]),
                               float(report["normalized_estimate_im"]))
            stderr = float(report["stderr"])
            if abs(estimate - true / 2**n) > 5 * stderr + 1e-12:
                problems.append(f"{name}: estimate {estimate!r} is more than 5 stderr "
                                f"({stderr!r}) from {true / 2**n!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int, Path], Inputs]
    check: Callable[[Inputs, list[Outcome]], list[str]]


WORKLOADS = {
    "ensemble_sweep": Workload(ensemble_inputs, ensemble_check),
    "large_register": Workload(large_inputs, large_check),
    "bounds_s123": Workload(bounds_inputs, bounds_check),
    "pathsum_exact": Workload(pathsum_inputs, pathsum_check),
}
