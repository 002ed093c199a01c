"""Acceptance suite: one check per shipped criterion, each printing a
PASS/FAIL line (visible with `pytest -s`), at the stated tolerances."""

import cmath
import math
import time

import numpy as np
import pytest

from conftest import haar_unitary
from dqc1.bounds import bound_s12, bound_s123, bound_s123_asymptotic
from dqc1.cli import main as cli_main
from dqc1.ensemble import negativity_sweep
from dqc1.family import build_family
from dqc1.linalg import Bipartition, partial_transpose
from dqc1.negativity import negativity_eigen, negativity_singular
from dqc1.pathsum import (CNOT, Gate, GateCircuit, H, T, TOFFOLI,
                          compile_circuit, dense_trace,
                          exact_trace_enumeration, prepare_circuit,
                          trace_by_counting)
from dqc1.state import build_state, estimate_trace, runs_required
from oracles import family_negativity, rho_of


def report(label: str, condition: bool, detail: str = ""):
    print(f"ACCEPTANCE {label}: {'PASS' if condition else 'FAIL'}  {detail}")
    assert condition, f"{label}: {detail}"


def test_criterion_01_family_negativity_all_splits():
    t0 = time.time()
    worst = 0.0
    for n in range(2, 9):
        rho = rho_of(build_state(build_family(n), 1.0))
        for k in range(1, n + 1):
            part = Bipartition.trailing(n + 1, k)
            expected = 1.25 if k < n else 1.0  # k < n separates qubits 1 and n
            analytic = family_negativity(n, 1.0, part)
            numeric = negativity_eigen(rho, part).m_value
            worst = max(worst, abs(analytic - expected), abs(numeric - expected))
    elapsed = time.time() - t0
    report("1 family negativity", worst <= 1e-9 and elapsed < 60,
           f"worst |M - expected| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_family_alpha_profile():
    state_cache = {a: build_state(build_family(3), a) for a in (0, 0.25, 0.5, 0.75, 1)}
    part = Bipartition.trailing(4, 1)
    worst = 0.0
    for alpha, state in state_cache.items():
        expected = 1.0 if alpha <= 0.5 else (2 * alpha + 3) / 4
        worst = max(worst, abs(family_negativity(3, alpha, part) - expected),
                    abs(negativity_eigen(rho_of(state), part).m_value - expected))
    report("2 family alpha profile", worst <= 1e-9, f"worst deviation = {worst:.2e}")


def test_criterion_03_method_equivalence():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for i in range(50):
        n = 2 + i % 5  # n = 2..6
        state = build_state(haar_unitary(2**n, rng), float(rng.uniform(0, 1)))
        rho = rho_of(state)
        for k in range(1, n + 1):
            part = Bipartition.trailing(n + 1, k)
            gap = abs(negativity_eigen(rho, part).m_value
                      - negativity_singular(state, part).m_value)
            worst = max(worst, gap)
    report("3 eigen/singular equivalence", worst <= 1e-9, f"worst gap = {worst:.2e}")


def test_criterion_04_special_qubit_separability():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for i in range(50):
        n = 1 + i % 7  # n = 1..7
        state = build_state(haar_unitary(2**n, rng), 1.0)
        m = negativity_eigen(rho_of(state), Bipartition.trailing(n + 1, n)).m_value
        worst = max(worst, abs(m - 1.0))
    report("4 special qubit unentangled", worst <= 1e-10, f"worst |M - 1| = {worst:.2e}")


def test_criterion_05_trace_product_lemma():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        t = int(rng.integers(2, 7))  # dimensions 4..64
        dim = 2**t
        a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
        b = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(dim)
        size = int(rng.integers(1, t))
        part = Bipartition(t, frozenset(rng.choice(t, size=size, replace=False).tolist()))
        lhs = np.trace(partial_transpose(a, part) @ partial_transpose(b, part))
        worst = max(worst, abs(lhs - np.trace(a @ b)))
    report("5 partial-transpose trace lemma", worst <= 1e-12, f"worst gap = {worst:.2e}")


@pytest.fixture(scope="module")
def s123_sweep():
    t0 = time.time()
    results = {two_n: bound_s123(two_n // 2) for two_n in range(8, 79, 2)}
    return results, time.time() - t0


def test_criterion_06a_s12_closed_form():
    exact = all(bound_s12(2**n, alpha)[0].bound == math.sqrt(1 + alpha * alpha)
                for n in (1, 3, 6, 10) for alpha in (0.25, 0.5, 0.75, 1.0))
    report("6a s12 continuous bound", exact, "equals sqrt(1+alpha^2) exactly")


def test_criterion_06b_s123_three_qubits(s123_sweep):
    results, _ = s123_sweep
    gap = abs(results[8].bound - 1.25)
    report("6b s123 bound at 2N=8", gap <= 1e-8, f"|bound - 5/4| = {gap:.2e}")


def test_criterion_06c_maximizer_pattern(s123_sweep):
    results, _ = s123_sweep
    v_bad, u_bad = [], []
    for two_n, res in results.items():
        u, v, w = res.witness.degeneracies
        if v != 1:
            v_bad.append(two_n)
        if u != round((two_n / 2) * (1 - 1 / math.sqrt(2))):
            u_bad.append((two_n, u, round((two_n / 2) * (1 - 1 / math.sqrt(2)))))
    detail = (f"v=1 violations: {v_bad or 'none'}; "
              f"u != [N(1-1/sqrt2)] at {len(u_bad)} sizes: {u_bad[:6]}"
              + ("..." if len(u_bad) > 6 else ""))
    report("6c maximizer degeneracy pattern", not v_bad and not u_bad, detail)


def test_criterion_06d_asymptotic_residual(s123_sweep):
    results, elapsed = s123_sweep
    sizes = [16, 32, 64, 78]
    res = [abs(results[t].bound - bound_s123_asymptotic(t // 2)) for t in sizes]
    slope = float(np.polyfit(np.log([t / 2 for t in sizes]), np.log(res), 1)[0])
    ok = -1.0 <= slope <= -0.4 and elapsed < 600
    report("6d asymptotic residual decay", ok,
           f"fitted exponent = {slope:.3f}, sweep took {elapsed:.1f}s")


def test_criterion_07_bound_universality():
    rng = np.random.default_rng(1007)
    worst = -np.inf
    for i in range(200):
        n = 2 + i % 5  # n = 2..6
        alpha = (0.25, 0.5, 1.0)[i % 3]
        state = build_state(haar_unitary(2**n, rng), alpha)
        size = int(rng.integers(1, n + 1))
        part = Bipartition(n + 1, frozenset(rng.choice(n + 1, size=size, replace=False).tolist()))
        m = negativity_eigen(rho_of(state), part).m_value
        _, integer = bound_s12(2**n, alpha)
        worst = max(worst, m - integer.bound)
    report("7 bound holds for all (U, split, alpha)", worst <= 1e-9,
           f"max M - bound = {worst:.2e}")


def test_criterion_08_random_ensemble():
    t0 = time.time()
    half = negativity_sweep([5, 6, 7, 8], split="half", samples=50, seed=1008)
    means = [s.mean_m for s in half]
    stds = [s.std_m for s in half]
    in_band = all(1.10 <= m <= 1.20 for m in means)
    ses = [s.std_m / math.sqrt(2 * (s.samples - 1)) for s in half]
    decreasing = all(stds[i + 1] < stds[i] + math.hypot(ses[i], ses[i + 1])
                     for i in range(len(stds) - 1))
    all_splits = negativity_sweep([9], split="all", samples=30, seed=1008)
    peak_k = max(all_splits, key=lambda s: s.mean_m).k
    elapsed = time.time() - t0
    ok = in_band and decreasing and peak_k in (4, 5) and elapsed < 900
    report("8 random ensemble statistics", ok,
           f"means = {[round(m, 4) for m in means]}, stds = {[round(s, 5) for s in stds]}, "
           f"peak k = {peak_k}, {elapsed:.1f}s")


def _random_bounded_circuit(mode, rng):
    """Random circuit with n <= 4 with at most 12 internal Hadamards once a pair
    is counted for every T or Toffoli (a bound on the compiled count)."""
    while True:
        n = int(rng.integers(1, 5)) if mode == "t_gate" else int(rng.integers(1, 5))
        c = _draw(n, int(rng.integers(0, 9)), mode, rng)
        rewrite_cost = {"toffoli": "TOFFOLI", "t_gate": "T"}[mode]
        h = c.hadamard_count + 2 * sum(1 for g in c.gates if g.name == rewrite_cost)
        if h <= 12:
            return c


def _draw(n, n_gates, mode, rng):
    gates = []
    for _ in range(n_gates):
        if mode == "toffoli":
            kind = str(rng.choice(["H", "TOFFOLI"])) if n >= 3 else "H"
        else:
            kind = str(rng.choice(["H", "T", "CNOT"])) if n >= 2 else str(rng.choice(["H", "T"]))
        arity = {"H": 1, "T": 1, "CNOT": 2, "TOFFOLI": 3}[kind]
        gates.append(Gate(kind, tuple(int(q) for q in rng.choice(n, size=arity, replace=False))))
    return GateCircuit(n, tuple(gates))


def test_criterion_09_path_sum():
    t0 = time.time()
    rng = np.random.default_rng(1009)
    worst_oracle, worst_imag, worst_counting = 0.0, 0.0, 0.0
    for mode in ("toffoli", "t_gate"):
        for _ in range(100):
            c = _random_bounded_circuit(mode, rng)
            poly = compile_circuit(prepare_circuit(c, mode))
            value = exact_trace_enumeration(poly)
            worst_oracle = max(worst_oracle, abs(value - dense_trace(c)))
            worst_counting = max(worst_counting, abs(value - trace_by_counting(poly)))
            if mode == "toffoli":
                worst_imag = max(worst_imag, abs(value.imag))
    fixed = (exact_trace_enumeration(compile_circuit(
                 prepare_circuit(GateCircuit(2, (CNOT(0, 1),)), "t_gate"))) == 2.0,
             exact_trace_enumeration(compile_circuit(
                 prepare_circuit(GateCircuit(3, (TOFFOLI(0, 1, 2),)), "toffoli"))) == 6.0,
             exact_trace_enumeration(compile_circuit(
                 prepare_circuit(GateCircuit(1, (H(0),)), "toffoli"))) == 0.0,
             abs(exact_trace_enumeration(compile_circuit(
                 prepare_circuit(GateCircuit(1, (T(0),)), "t_gate")))
                 - (1 + cmath.exp(1j * math.pi / 4))) <= 1e-15)
    elapsed = time.time() - t0
    ok = (worst_oracle <= 1e-9 and worst_imag <= 1e-12 and worst_counting <= 1e-12
          and all(fixed) and elapsed < 300)
    report("9 path-sum evaluation", ok,
           f"oracle gap = {worst_oracle:.2e}, imag = {worst_imag:.2e}, "
           f"counting gap = {worst_counting:.2e}, fixed traces exact = {all(fixed)}, "
           f"{elapsed:.1f}s")


def test_criterion_10_trace_estimator():
    rng = np.random.default_rng(1010)
    unitaries = [haar_unitary(2 ** (1 + i % 5), rng) for i in range(20)]
    epsilon, p_error = 0.05, 0.01
    results = {}
    for alpha in (1.0, 0.25):
        hits, runs_ok = 0, True
        trials = 0
        for i, u in enumerate(unitaries):
            true = complex(np.trace(u)) / u.shape[0]
            for trial in range(25):
                est = estimate_trace(true, alpha, epsilon, p_error,
                                     seed=100_000 * i + 97 * trial + int(alpha * 1000))
                trials += 1
                hits += abs(est.estimate - true) <= epsilon
                runs_ok &= est.runs_used == runs_required(alpha, epsilon, p_error)
        results[alpha] = (hits, trials, runs_ok)
    formula_exact = (all(r[2] for r in results.values())
                     and runs_required(0.25, epsilon, p_error)
                     == math.ceil(2 * math.log(4 / p_error) / (0.25**2 * epsilon**2)))
    ok = all(hits >= 0.99 * trials for hits, trials, _ in results.values()) and formula_exact
    report("10 trace estimator accuracy", ok,
           f"hits = { {a: f'{h}/{t}' for a, (h, t, _) in results.items()} }, "
           f"runs follow ceil(2 ln(4/Pe)/(alpha eps)^2) = {formula_exact}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    cases = [
        ["sweep", "--nplus1", "5", "--all-splits", "--samples", "8", "--seed", "4"],
        ["negativity", "--random", "--n", "4", "--seed", "11", "--k", "2"],
        ["bounds", "--kind", "s123", "--two-n", "8..16"],
    ]
    identical = True
    for i, argv in enumerate(cases):
        paths = [tmp_path / f"run{i}_{j}.csv" for j in (0, 1)]
        for path in paths:
            assert cli_main(["--output", str(path), *argv]) == 0
        identical &= paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()
    report("11 CLI byte determinism", identical, f"{len(cases)} command pairs")
