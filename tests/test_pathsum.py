import cmath
import math

import numpy as np
import pytest

from conftest import format_circuit
from dqc1 import pathsum
from dqc1.family import circuit_family
from dqc1.pathsum import (CNOT, Gate, GateCircuit, H, PathBudgetError,
                          PathPolynomials, T, TOFFOLI, circuit_unitary,
                          compile_circuit, dense_trace, exact_trace_enumeration,
                          hadamard_bracket,
                          load_circuit, parse_circuit, path_class_counts,
                          prepare_circuit, sampled_trace, trace_by_counting)
from oracles import gate_matrix


def random_circuit(n, n_gates, mode, rng):
    """Random circuit over the ``mode`` gate set, or over all four gates for "mixed"."""
    gates = []
    for _ in range(n_gates):
        if mode == "toffoli":
            kind = str(rng.choice(["H", "TOFFOLI"])) if n >= 3 else "H"
        elif mode == "mixed":
            kind = str(rng.choice(["H", "T", "CNOT", "TOFFOLI"][:min(n, 3) + 1]))
        else:
            kind = str(rng.choice(["H", "T", "CNOT"])) if n >= 2 else str(rng.choice(["H", "T"]))
        qs = [int(q) for q in rng.choice(n, size={"H": 1, "T": 1, "CNOT": 2, "TOFFOLI": 3}[kind],
                                         replace=False)]
        gates.append(Gate(kind, tuple(qs)))
    return GateCircuit(n, tuple(gates))


def evaluate(circuit, mode):
    return compile_circuit(prepare_circuit(circuit, mode))


def test_gate_validation():
    with pytest.raises(ValueError, match="distinct"):
        CNOT(1, 1)
    with pytest.raises(ValueError, match="unknown gate"):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError, match="takes"):
        Gate("H", (0, 1))
    with pytest.raises(ValueError, match="addresses"):
        GateCircuit(2, (H(2),))
    with pytest.raises(ValueError, match="addresses a qubit outside 0..1"):
        GateCircuit(2, (H(-1), T(-1), H(-1)))
    with pytest.raises(ValueError, match="addresses"):
        GateCircuit(3, (TOFFOLI(0, -1, 2),))


def test_circuit_text_round_trip():
    c = GateCircuit(3, (H(0), T(1), CNOT(0, 2), TOFFOLI(0, 1, 2)))
    assert parse_circuit(format_circuit(c)) == c


def test_circuit_parse_errors(tmp_path):
    with pytest.raises(ValueError, match="line 1"):
        parse_circuit("3 qubits\nH 0\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_circuit("qubits 2\nH 0\nSWAP 0 1\n")
    # negative indices must not wrap around to the last qubit
    with pytest.raises(ValueError, match="line 2: .*outside"):
        parse_circuit("qubits 2\nH -1\nT -1\nH -1\n")
    with pytest.raises(ValueError, match="line 3: .*outside 0..1"):
        parse_circuit("qubits 2\nH 0\nT 5\n")
    with pytest.raises(ValueError, match="line 1: .*at least one qubit"):
        parse_circuit("qubits 0\n")
    path = tmp_path / "c.txt"
    path.write_text("qubits 2\nCNOT 0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_circuit(path)


def test_gate_matrix_cnot_permutation():
    m = gate_matrix(CNOT(0, 1), 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1
    assert np.array_equal(m.real, expected)


def gate_matrix_product(c):
    """The circuit unitary as a product of dense gate matrices: the oracle."""
    u = np.eye(2**c.n, dtype=complex)
    for g in c.gates:
        u = gate_matrix(g, c.n) @ u
    return u


def test_circuit_unitary_matches_gate_matrix_product():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        c = random_circuit(n, int(rng.integers(1, 25)), "mixed", rng)
        assert np.max(np.abs(circuit_unitary(c) - gate_matrix_product(c))) <= 1e-15
    for n in range(2, 9):
        c = circuit_family(n)
        assert np.max(np.abs(circuit_unitary(c) - gate_matrix_product(c))) <= 1e-15


def test_gate_kernel_returns_new_array_for_any_layout():
    # a transposed or column-strided u reshapes to a copy, not a view; every gate
    # must still act on it and leave it as it was
    rng = np.random.default_rng(32)
    n = 3
    base = rng.normal(size=(2**n, 2 * 2**n)) + 1j * rng.normal(size=(2**n, 2 * 2**n))
    for u in (base[:, ::2], base[:, :2**n].T):
        assert not u.flags.c_contiguous
        before = u.copy()
        for g in (H(1), T(0), T(2), CNOT(2, 0), TOFFOLI(0, 2, 1)):
            got = pathsum._apply_gate(u, g, n)
            assert np.max(np.abs(got - gate_matrix(g, n) @ u)) <= 1e-15
            assert np.array_equal(u, before)


def test_dense_fixed_traces():
    assert dense_trace(GateCircuit(1, (H(0),))) == pytest.approx(0.0, abs=1e-15)
    assert dense_trace(GateCircuit(2, (CNOT(0, 1),))) == pytest.approx(2.0)
    assert dense_trace(GateCircuit(3, (TOFFOLI(0, 1, 2),))) == pytest.approx(6.0)
    t_trace = dense_trace(GateCircuit(1, (T(0),)))
    assert t_trace == pytest.approx(1 + cmath.exp(1j * math.pi / 4))


def test_bracket_preserves_trace():
    c = GateCircuit(2, (CNOT(0, 1),))
    bracketed = hadamard_bracket(c)
    assert len(bracketed.gates) == len(c.gates) + 4
    assert dense_trace(bracketed) == pytest.approx(dense_trace(c), abs=1e-12)
    twice = hadamard_bracket(bracketed)
    assert dense_trace(twice) == pytest.approx(dense_trace(c), abs=1e-12)
    assert len(twice.gates) == len(c.gates) + 8


def test_rewrite_inserts_hadamard_pairs():
    # a pair is compiled only where a T input or a Toffoli control is not one path bit
    cases = [(GateCircuit(1, (T(0), T(0), T(0))), "t_gate", 0, 2),
             (GateCircuit(2, (CNOT(0, 1), T(1))), "t_gate", 2, 6),
             (GateCircuit(3, (TOFFOLI(0, 1, 2),)), "toffoli", 0, 6),
             (GateCircuit(4, (TOFFOLI(0, 1, 2), TOFFOLI(2, 3, 0))), "toffoli", 2, 10)]
    for c, mode, h, bits in cases:
        p = evaluate(c, mode)
        assert (p.hadamard_count, p.n_path_bits) == (h, bits)
        assert abs(exact_trace_enumeration(p) - dense_trace(c)) <= 1e-12


def test_rewrite_rejects_wrong_gate_set():
    with pytest.raises(ValueError, match="gate set"):
        prepare_circuit(GateCircuit(2, (CNOT(0, 1),)), "toffoli")
    with pytest.raises(ValueError, match="gate set"):
        prepare_circuit(GateCircuit(3, (TOFFOLI(0, 1, 2),)), "t_gate")


def test_compile_requires_bracket():
    with pytest.raises(ValueError, match="bracket"):
        compile_circuit(GateCircuit(2, (CNOT(0, 1),)))


def test_compile_identity_bracket_only():
    p = compile_circuit(hadamard_bracket(GateCircuit(1, ())))
    assert p.n_path_bits == 2 and p.hadamard_count == 0
    # the opening and closing Hadamard terms coincide and cancel mod 2
    assert p.phase == frozenset() and p.chi == ()
    assert exact_trace_enumeration(p) == 2.0


def test_compile_single_t():
    p = evaluate(GateCircuit(1, (T(0),)), "t_gate")
    assert p.n_path_bits == 2 and p.hadamard_count == 0
    assert len(p.chi) == 1 and p.chi[0][1] == 1
    # the opening and closing bracket terms cancel, as for the bare bracket
    assert p.phase == frozenset()
    assert exact_trace_enumeration(p) == pytest.approx(1 + cmath.exp(1j * math.pi / 4), abs=1e-12)


def test_compile_psi_stays_cubic():
    rng = np.random.default_rng(0)
    for trial in range(20):
        c = random_circuit(3, int(rng.integers(1, 8)), "toffoli", rng)
        p = evaluate(c, "toffoli")
        assert max((len(m) for m in p.phase), default=0) <= 3 and p.chi == ()


def test_compile_phi_purely_quadratic_chi_linear():
    rng = np.random.default_rng(1)
    for trial in range(20):
        c = random_circuit(3, int(rng.integers(1, 8)), "t_gate", rng)
        p = evaluate(c, "t_gate")
        assert all(len(m) == 2 for m in p.phase)
        assert all(1 <= coeff <= 7 for _, coeff in p.chi)


def test_degree_overflow_without_rewrite():
    # the second Toffoli's first control and the T input are not single path bits;
    # compiling a pair there keeps the phase cubic, and quadratic without Toffolis
    nested = GateCircuit(4, (TOFFOLI(0, 1, 2), TOFFOLI(2, 3, 0)))
    p = compile_circuit(hadamard_bracket(nested))
    assert max(len(m) for m in p.phase) == 3
    assert abs(exact_trace_enumeration(p) - dense_trace(nested)) <= 1e-12
    linear_t = GateCircuit(2, (CNOT(0, 1), T(1)))
    p = compile_circuit(hadamard_bracket(linear_t))
    assert all(len(m) == 2 for m in p.phase)
    assert abs(exact_trace_enumeration(p) - dense_trace(linear_t)) <= 1e-12


def test_family_circuit_compiles_to_2n_plus_4_bits():
    for n in range(2, 9):
        p = evaluate(circuit_family(n), "t_gate")
        assert p.n_path_bits == 2 * n + 4
        value = exact_trace_enumeration(p)
        assert abs(value - 2 ** (n - 1)) <= 1e-9
        assert abs(trace_by_counting(p) - value) <= 1e-12


def test_enumeration_matches_dense_on_random_circuits():
    rng = np.random.default_rng(2)
    for trial in range(30):
        mode = "toffoli" if trial % 2 == 0 else "t_gate"
        n = int(rng.integers(1, 5))
        c = random_circuit(n, int(rng.integers(0, 7)), mode, rng)
        p = evaluate(c, mode)
        if p.n_path_bits > 22:
            continue
        value = exact_trace_enumeration(p)
        assert abs(value - dense_trace(c)) <= 1e-9
        if mode == "toffoli":
            assert abs(value.imag) <= 1e-12
        assert abs(trace_by_counting(p) - value) <= 1e-12
    # circuits mixing all four gates compile to the same phase form, with no gate-set check
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        c = random_circuit(n, int(rng.integers(0, 9)), "mixed", rng)
        p = compile_circuit(hadamard_bracket(c))
        if p.n_path_bits > 22:
            continue
        assert max((len(m) for m in p.phase), default=0) <= 3
        value = exact_trace_enumeration(p)
        assert abs(value - dense_trace(c)) <= 1e-9
        assert abs(trace_by_counting(p) - value) <= 1e-12


def test_counting_fixed_points():
    p = compile_circuit(hadamard_bracket(GateCircuit(1, ())))
    counts = path_class_counts(p)
    assert counts.tolist() == [[4, 0]] + [[0, 0]] * 7
    assert trace_by_counting(p) == 2.0


def test_counting_constant_polynomial():
    p = PathPolynomials(n=2, hadamard_count=0, n_path_bits=4, phase=frozenset(), chi=())
    counts = path_class_counts(p)
    assert counts.tolist() == [[16, 0]] + [[0, 0]] * 7
    assert trace_by_counting(p) == 4.0  # 2**(n + h/2) when every path adds +1


def test_counting_single_t_bins():
    p = evaluate(GateCircuit(1, (T(0),)), "t_gate")
    diff = path_class_counts(p)[:, 0] - path_class_counts(p)[:, 1]
    assert diff.tolist() == [2, 2, 0, 0, 0, 0, 0, 0]


def test_enumeration_budget():
    big = hadamard_bracket(GateCircuit(1, tuple(H(0) for _ in range(30))))
    p = compile_circuit(big)
    assert p.n_path_bits == 32
    with pytest.raises(PathBudgetError, match="32"):
        exact_trace_enumeration(p)
    with pytest.raises(PathBudgetError):
        path_class_counts(p)
    # sampling has no such budget, only the 64-bit limit of its path indices
    estimate, stderr = sampled_trace(p, 256, seed=0)
    assert np.isfinite(stderr)
    wide = compile_circuit(hadamard_bracket(GateCircuit(1, tuple(H(0) for _ in range(63)))))
    assert wide.n_path_bits == 65
    with pytest.raises(ValueError, match="65 path bits.*64"):
        sampled_trace(wide, 256, seed=0)


def test_sampled_trace_exact_when_terms_constant():
    p = compile_circuit(hadamard_bracket(GateCircuit(2, ())))
    estimate, stderr = sampled_trace(p, 100, seed=4)
    assert estimate == 1.0 and stderr == 0.0


def test_sampled_trace_consistent():
    p = evaluate(GateCircuit(2, (CNOT(0, 1),)), "t_gate")
    estimate, stderr = sampled_trace(p, 10_000, seed=5)
    assert abs(estimate - 0.5) <= 4 * max(stderr, 1e-3)
    again, _ = sampled_trace(p, 10_000, seed=5)
    assert estimate == again


def test_sampled_trace_unbiased():
    p = evaluate(GateCircuit(2, (CNOT(0, 1),)), "t_gate")
    estimates = np.array([sampled_trace(p, 200, seed=s)[0] for s in range(100)])
    joint_se = estimates.std() / math.sqrt(len(estimates))
    assert abs(estimates.mean() - 0.5) <= 3 * joint_se


def test_sampled_magnitude_grows_with_hadamards():
    base = evaluate(GateCircuit(2, (CNOT(0, 1),)), "t_gate")
    padded = evaluate(GateCircuit(2, (CNOT(0, 1),) + tuple(H(1) for _ in range(10))), "t_gate")
    assert base.hadamard_count == 0 and padded.hadamard_count == 10
    _, se_base = sampled_trace(base, 20_000, seed=6)
    _, se_padded = sampled_trace(padded, 20_000, seed=6)
    # same trace, but the padded terms have magnitude 2**5
    expected = math.sqrt((2**10 - 0.25) / 0.75)
    assert se_padded / se_base == pytest.approx(expected, rel=0.08)
    assert 24 <= se_padded / se_base <= 48


def test_sampled_trace_needs_two_samples():
    p = compile_circuit(hadamard_bracket(GateCircuit(1, ())))
    with pytest.raises(ValueError, match="samples"):
        sampled_trace(p, 1, seed=0)
