import math
import re

import numpy as np
import pytest

from conftest import haar_unitary
import dqc1.state
from dqc1.family import build_family
from dqc1.linalg import Bipartition, hermitian_eigenvalues, partial_transpose
from dqc1.state import (build_state, estimate_trace, pauli_expectations,
                        runs_required, separable_ball_alpha, separable_decomposition)
from oracles import reconstruct_mixture

Z = np.diag([1.0, -1.0]).astype(complex)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def test_build_state_block_form():
    rng = np.random.default_rng(0)
    u = haar_unitary(8, rng)
    alpha = 0.7
    st = build_state(u, alpha)
    expected = np.block([[np.eye(8), alpha * u.conj().T],
                         [alpha * u, np.eye(8)]]) / 16
    assert np.max(np.abs(st.rho - expected)) <= 1e-12
    assert abs(np.trace(st.rho) - 1) <= 1e-12
    assert hermitian_eigenvalues(st.rho)[-1] >= -1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.37, -0.5, 0.0])
def test_rho_assembled_in_place_trims_heap_once(monkeypatch, alpha):
    trims = []
    monkeypatch.setattr(dqc1.state, "_MALLOC_TRIM", trims.append)
    u = haar_unitary(16, np.random.default_rng(2))
    st = build_state(u, alpha)
    expected = np.block([[np.eye(16), alpha * u.conj().T],
                         [alpha * u, np.eye(16)]]) / 32
    # bit for bit, signed zeros included
    assert np.array_equal(st.rho.view(np.float64), expected.view(np.float64))
    assert np.array_equal(np.signbit(st.rho.view(np.float64)),
                          np.signbit(expected.view(np.float64)))
    assert st.rho is st.rho and trims == [0]


def test_build_state_identity_polarized():
    st = build_state(np.eye(2, dtype=complex), 1.0)
    assert pauli_expectations(st) == (1.0, 0.0)


def test_build_state_alpha_zero_is_maximally_mixed():
    rng = np.random.default_rng(1)
    st = build_state(haar_unitary(4, rng), 0.0)
    assert np.array_equal(st.rho, np.eye(8) / 8)


def test_build_state_traceless_unitary():
    st = build_state(Z, 1.0)
    x, y = pauli_expectations(st)
    assert x == 0.0 and y == 0.0


def test_build_state_rejections():
    with pytest.raises(ValueError, match="unitary"):
        build_state(np.ones((2, 2), dtype=complex), 1.0)
    with pytest.raises(ValueError, match="alpha"):
        build_state(np.eye(2, dtype=complex), 1.5)
    with pytest.raises(ValueError, match="alpha"):
        build_state(np.eye(2, dtype=complex), float("nan"))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="unitary"):
            build_state(np.diag([bad, 1.0]).astype(complex), 1.0)


def test_pauli_expectations_t_gate():
    x, y = pauli_expectations(build_state(T_GATE, 1.0))
    assert abs(x - (1 + math.cos(math.pi / 4)) / 2) <= 1e-15
    assert abs(y - (-math.sin(math.pi / 4) / 2)) <= 1e-15


def test_pauli_expectations_match_operator_expectations():
    # the readout's <Y> carries the sign that makes <X> - i<Y> = alpha tr(U)/N,
    # which is -tr(rho (Y x I)) for Y = [[0, -i], [i, 0]] on qubit 0
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    pauli_y = np.array([[0, -1j], [1j, 0]])
    rng = np.random.default_rng(5)
    for u, alpha in ((haar_unitary(8, rng), 0.7), (T_GATE, 1.0), (haar_unitary(4, rng), -0.3)):
        st = build_state(u, alpha)
        eye = np.eye(len(u))
        x_op = np.trace(st.rho @ np.kron(pauli_x, eye))
        y_op = np.trace(st.rho @ np.kron(pauli_y, eye))
        x, y = pauli_expectations(st)
        assert abs(x - x_op) <= 1e-12 and abs(y + y_op) <= 1e-12


def test_pauli_expectations_linear_in_alpha():
    rng = np.random.default_rng(2)
    u = haar_unitary(8, rng)
    full = pauli_expectations(build_state(u, 1.0))
    half = pauli_expectations(build_state(u, 0.5))
    assert half == (0.5 * full[0], 0.5 * full[1])


def test_estimate_trace_identity():
    # p(+1) = 1 for the X batch, so its mean is exactly 1; the Y batch is a
    # fair coin (zero mean signal) and only adds statistical noise
    est = estimate_trace(np.eye(4, dtype=complex), 1.0, 0.1, 0.01, seed=0)
    assert est.estimate.real == 1.0
    assert abs(est.estimate.imag) <= 4 / math.sqrt(est.runs_used)


def test_estimate_trace_zero_trace_unitary():
    u = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    within = sum(
        abs(estimate_trace(u, 1.0, 0.05, 0.01, seed=s).estimate) <= 0.05
        for s in range(200))
    assert within >= 198


def test_runs_scale_inverse_alpha_squared():
    p_e = 4 * math.exp(-2)  # ln(4/p_e) = 2, so L(alpha=1, eps=0.1) = 400 exactly
    assert runs_required(1.0, 0.1, p_e) == 400
    assert runs_required(0.1, 0.1, p_e) == 40000
    est1 = estimate_trace(np.eye(2, dtype=complex), 1.0, 0.1, p_e, seed=1)
    est2 = estimate_trace(np.eye(2, dtype=complex), 0.1, 0.1, p_e, seed=1)
    assert est2.runs_used == 100 * est1.runs_used


def test_estimate_trace_deterministic_per_seed():
    rng = np.random.default_rng(3)
    u = haar_unitary(4, rng)
    a = estimate_trace(u, 0.8, 0.2, 0.1, seed=9)
    b = estimate_trace(u, 0.8, 0.2, 0.1, seed=9)
    assert a.estimate == b.estimate
    assert a.estimate != estimate_trace(u, 0.8, 0.2, 0.1, seed=10).estimate


def test_estimate_trace_rejections():
    u = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="alpha"):
        estimate_trace(u, 0.0, 0.1, 0.1, seed=0)
    with pytest.raises(ValueError, match="epsilon"):
        estimate_trace(u, 1.0, 1.5, 0.1, seed=0)
    with pytest.raises(ValueError, match="p_error"):
        estimate_trace(u, 1.0, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError, match="unitary"):
        estimate_trace(np.ones((2, 2), dtype=complex), 1.0, 0.1, 0.1, seed=0)
    for alpha in (1.5, math.nan):
        with pytest.raises(ValueError, match="polarization"):
            estimate_trace(u, alpha, 0.1, 0.1, seed=0)
    with pytest.raises(ValueError, match="polarization"):  # before the run cap
        estimate_trace(u, 1.5, 1e-6, 0.1, seed=0)


def _refuse_draws_and_state(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("built a state or drew before the run cap was checked")
    monkeypatch.setattr(dqc1.state, "philox_stream", refused)
    monkeypatch.setattr(dqc1.state, "build_state", refused)


def test_estimate_trace_run_cap_boundary(monkeypatch):
    u = np.eye(2, dtype=complex)
    runs = runs_required(0.5, 0.2, 0.1)
    monkeypatch.setattr(dqc1.state, "MAX_TRACE_RUNS", runs)
    assert estimate_trace(u, 0.5, 0.2, 0.1, seed=0).runs_used == runs
    monkeypatch.setattr(dqc1.state, "MAX_TRACE_RUNS", runs - 1)
    _refuse_draws_and_state(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"needs {runs:.3g} runs per observable; "
                                                   f"the cap is {runs - 1}")):
        estimate_trace(u, 0.5, 0.2, 0.1, seed=0)


def test_estimate_trace_refuses_over_run_cap(monkeypatch):
    _refuse_draws_and_state(monkeypatch)
    runs = runs_required(0.25, 1e-9, 1e-6)
    assert runs > dqc1.state.MAX_TRACE_RUNS == 2**62
    with pytest.raises(ValueError, match=re.escape(f"needs {runs:.3g} runs per observable")):
        estimate_trace(np.eye(2, dtype=complex), 0.25, 1e-9, 1e-6, seed=0)


@pytest.mark.parametrize("sign", [1, -1])
def test_estimate_trace_clips_probability_inside_unitarity_tolerance(sign):
    # defect 8e-11 passes require_unitary, yet <X> = 1 + 4e-11 puts p(+1) above 1
    u = sign * (1 + 4e-11) * np.eye(2, dtype=complex)
    assert sign * pauli_expectations(build_state(u, 1.0))[0] > 1
    for seed in range(5):
        assert estimate_trace(u, 1.0, 0.05, 0.01, seed).estimate.real == sign * 1.0


def test_estimator_variance_matches_binomial():
    # Var(estimate.real) = (1 - <X>^2) / (L alpha^2), and likewise for <Y>.  Over
    # 4000 seeds the sample variance has relative standard deviation
    # sqrt(2/3999) = 0.022, so a 0.12 tolerance is over 5 sigma; an estimator
    # drawing 2L or L/2 runs would be off by a factor of 2.
    u = haar_unitary(4, np.random.default_rng(23))
    alpha, epsilon, p_error = 0.6, 0.3, 0.1
    runs = runs_required(alpha, epsilon, p_error)
    expectations = pauli_expectations(build_state(u, alpha))
    estimates = np.array([estimate_trace(u, alpha, epsilon, p_error, seed).estimate
                          for seed in range(4000)])
    for sample, mean in zip((estimates.real, estimates.imag), expectations):
        expected = (1 - mean**2) / (runs * alpha**2)
        assert abs(sample.var(ddof=1) / expected - 1) <= 0.12


def test_partially_transposed_state_is_exactly_hermitian():
    rng = np.random.default_rng(22)
    for n in range(1, 7):
        u = haar_unitary(2**n, rng)
        for alpha in (1.0, -0.6, 0.3, float(rng.uniform(-1, 1))):
            rho = build_state(u, alpha).rho
            for k in range(1, n + 1):
                pt = partial_transpose(rho, Bipartition.trailing(n + 1, k))
                assert np.array_equal(pt, pt.conj().T)


def test_estimator_unbiased():
    u = np.diag([1.0, 1j]).astype(complex)
    true = complex(np.trace(u)) / 2
    estimates = np.array([estimate_trace(u, 1.0, 0.3, 0.5, seed=s).estimate
                          for s in range(10_000)])
    sigma = estimates.std() / math.sqrt(len(estimates))
    assert abs(estimates.mean() - true) <= 3 * sigma


def test_separable_decomposition_reconstructs():
    rng = np.random.default_rng(4)
    for alpha in (1.0, 0.6):
        st = build_state(haar_unitary(4, rng), alpha)
        residual = np.max(np.abs(reconstruct_mixture(separable_decomposition(st)) - st.rho))
        assert residual <= 1e-10


def _rotated_near_degenerate_diagonal():
    rng = np.random.default_rng(6)
    phases = np.array([0.3, 0.3, 0.3 + 1e-9, 0.3 - 1e-9, 2.0, 2.0, -math.pi, math.pi])
    q = haar_unitary(8, rng)
    return q @ np.diag(np.exp(1j * phases)) @ q.conj().T


_X = np.array([[0, 1], [1, 0]], dtype=complex)
DEGENERATE_UNITARIES = {
    **{f"family{n}": (lambda n=n: build_family(n)) for n in range(2, 6)},
    "xxx": lambda: np.kron(np.kron(_X, _X), _X),
    "haar2_x_i4": lambda: np.kron(haar_unitary(2, np.random.default_rng(7)), np.eye(4)),
    "minus_i8": lambda: -np.eye(8, dtype=complex),
    "rotated_near_degenerate": _rotated_near_degenerate_diagonal,
}


@pytest.mark.parametrize("alpha", [1.0, 0.6, -0.4])
@pytest.mark.parametrize("name", DEGENERATE_UNITARIES)
def test_separable_decomposition_degenerate_spectra(name, alpha):
    u = DEGENERATE_UNITARIES[name]()
    st = build_state(u, alpha)
    terms = separable_decomposition(st)
    theta = math.asin(alpha) / 2
    basis = np.column_stack([e for _, _, e in terms[0::2]])
    # |b_j> = sin(theta)|0> + e^{i phi_j} cos(theta)|1>, and cos(theta) >= 1/sqrt 2
    phases = np.array([b[1] for _, b, _ in terms[1::2]]) / math.cos(theta)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(u)))) <= 1e-12
    assert np.max(np.abs(u @ basis - basis * phases)) <= 1e-12
    assert np.max(np.abs(reconstruct_mixture(terms) - st.rho)) <= 1e-12


def test_separable_decomposition_identity_unitary():
    st = build_state(np.eye(2, dtype=complex), 1.0)
    terms = separable_decomposition(st)
    # alpha = 1 means theta = pi/4: every special-qubit factor is |+>-like
    for _, a, _ in terms:
        assert np.allclose(np.abs(a), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert np.max(np.abs(reconstruct_mixture(terms) - st.rho)) <= 1e-12


def test_separable_decomposition_alpha_zero():
    rng = np.random.default_rng(5)
    terms = separable_decomposition(build_state(haar_unitary(4, rng), 0.0))
    a_states = [a for _, a, _ in terms[0::2]]
    b_states = [b for _, b, _ in terms[1::2]]
    for a in a_states:
        assert np.allclose(np.abs(a), [1.0, 0.0], atol=1e-12)
    for b in b_states:  # |1> up to the eigenphase
        assert np.allclose(np.abs(b), [0.0, 1.0], atol=1e-12)


def test_separable_ball_thresholds():
    lo, hi = separable_ball_alpha(1)
    assert abs(lo - 2 / 3) <= 1e-15 and hi == 1.0
    lo, hi = separable_ball_alpha(3)
    assert abs(lo - 2 / 9) <= 1e-15 and hi == 0.5
    values = [separable_ball_alpha(n) for n in range(1, 11)]
    assert all(a[0] > b[0] and a[1] > b[1] for a, b in zip(values, values[1:]))


def test_distance_from_maximally_mixed():
    rng = np.random.default_rng(6)
    for n, alpha in ((2, 1.0), (3, 0.7), (4, 0.25)):
        st = build_state(haar_unitary(2**n, rng), alpha)
        delta = st.rho - np.eye(2 ** (n + 1)) / 2 ** (n + 1)
        dist = math.sqrt(np.trace(delta @ delta).real)
        assert abs(dist - alpha * 2 ** (-(n + 1) / 2)) <= 1e-12


def test_unpolarized_marginal_completely_mixed():
    rng = np.random.default_rng(7)
    st = build_state(haar_unitary(8, rng), 0.9)
    marginal = st.rho[:8, :8] + st.rho[8:, 8:]
    assert np.array_equal(marginal, np.eye(8) / 8)


def test_transpose_over_all_unpolarized_matches_transposed_unitary():
    rng = np.random.default_rng(8)
    u = haar_unitary(8, rng)
    st = build_state(u, 0.8)
    part = Bipartition.trailing(4, 3)
    transposed = partial_transpose(st.rho, part)
    assert np.array_equal(transposed, build_state(u.T, 0.8).rho)
    assert np.allclose(hermitian_eigenvalues(transposed),
                       hermitian_eigenvalues(st.rho), atol=1e-10)
