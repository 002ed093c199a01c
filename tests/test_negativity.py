import dataclasses
import math

import numpy as np
import pytest

from conftest import haar_unitary, random_density
from dqc1.family import build_family
from dqc1.linalg import Bipartition, hermitian_eigenvalues, partial_transpose, singular_values
from dqc1.negativity import (negativity_eigen, negativity_singular,
                             unpolarized_partial_transpose)
from dqc1.state import build_state
from oracles import family_negativity, pure_state_negativity, rho_of


def bell_density():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / math.sqrt(2)
    return np.outer(phi, phi.conj())


def test_product_state_is_ppt():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        # product across the tested cut
        rho = np.kron(random_density(2 ** (4 - k), rng), random_density(2**k, rng))
        res = negativity_eigen(rho, Bipartition.trailing(4, k))
        assert res.m_value == 1.0 and res.n_value == 0.0 and res.is_ppt


def test_bell_state_saturates_dimension():
    res = negativity_eigen(bell_density(), Bipartition(2, {1}))
    assert abs(res.m_value - 2.0) <= 1e-12
    assert abs(res.m_value - (1 + 2 * res.n_value)) <= 1e-10


def test_family_state_value():
    st = build_state(build_family(2), 1.0)
    res = negativity_eigen(rho_of(st), Bipartition.trailing(3, 1))
    assert abs(res.m_value - 1.25) <= 1e-12


def test_negativity_eigen_rejects_invalid():
    with pytest.raises(ValueError):
        negativity_eigen(np.eye(4, dtype=complex), Bipartition(2, {1}))


def test_eigen_route_on_state_equals_route_on_rho():
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        st = build_state(haar_unitary(2**n, rng), float(rng.uniform(-1, 1)))
        parts = [Bipartition.trailing(n + 1, k) for k in range(1, n + 1)]
        if n == 3:
            parts += [Bipartition(4, {1, 3}), Bipartition(4, {0, 2})]
        for part in parts:
            if 0 in part.transposed_part:
                with pytest.warns(UserWarning, match="complement"):
                    on_state = negativity_eigen(st, part)
            else:
                on_state = negativity_eigen(st, part)
            assert on_state == negativity_eigen(rho_of(st), part)


@pytest.mark.parametrize("alpha", [1.0, 0.37, -0.5, 0.0])
def test_eigen_route_spectrum_input_is_transposed_rho(monkeypatch, alpha):
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m.copy()) or eigvalsh(m))
    st = build_state(haar_unitary(16, np.random.default_rng(2)), alpha)
    parts = [Bipartition.trailing(5, 2), Bipartition(5, {1, 3}), Bipartition.trailing(5, 4)]
    for part in parts:
        negativity_eigen(st, part)
    assert len(seen) == len(parts)
    for part, matrix in zip(parts, seen):
        expected = partial_transpose(rho_of(st), part).view(np.float64)
        # bit for bit, signed zeros included
        assert np.array_equal(matrix.view(np.float64), expected)
        assert np.array_equal(np.signbit(matrix.view(np.float64)), np.signbit(expected))


def test_routes_refuse_part_over_other_register_size():
    st = build_state(haar_unitary(8, np.random.default_rng(3)), 1.0)
    for route in (negativity_eigen, negativity_singular):
        with pytest.raises(ValueError, match="bipartition is over 5 qubits, state has 4"):
            route(st, Bipartition.trailing(5, 1))


def test_eigen_route_validates_bare_matrices_only(monkeypatch):
    import dqc1.negativity
    calls = []
    check = dqc1.negativity.require_density

    def counted(rho):
        calls.append(rho.shape)
        return check(rho)

    monkeypatch.setattr(dqc1.negativity, "require_density", counted)
    st = build_state(haar_unitary(8, np.random.default_rng(12)), 0.6)
    part = Bipartition.trailing(4, 2)
    negativity_eigen(st, part)
    assert calls == []
    negativity_eigen(rho_of(st), part)
    assert calls == [(16, 16)]


def test_singular_all_unpolarized_gives_one():
    rng = np.random.default_rng(1)
    st = build_state(haar_unitary(8, rng), 1.0)
    res = negativity_singular(st, Bipartition.trailing(4, 3))
    assert abs(res.m_value - 1.0) <= 1e-12


def test_state_holds_no_rho():
    rng = np.random.default_rng(9)
    state = build_state(haar_unitary(8, rng), 1.0)
    negativity_singular(state, Bipartition.trailing(4, 2))
    negativity_eigen(state, Bipartition.trailing(4, 2))
    fields = [f.name for f in dataclasses.fields(state)]
    assert fields == ["n", "alpha", "unitary"] and list(vars(state)) == fields
    assert not hasattr(state, "rho")


def test_singular_alpha_zero_gives_one():
    rng = np.random.default_rng(2)
    st = build_state(haar_unitary(8, rng), 0.0)
    for k in (1, 2, 3):
        assert negativity_singular(st, Bipartition.trailing(4, k)).m_value == 1.0


def test_negativity_even_in_alpha():
    rng = np.random.default_rng(3)
    u = haar_unitary(8, rng)
    part = Bipartition.trailing(4, 2)
    plus = negativity_singular(build_state(u, 0.7), part).m_value
    minus = negativity_singular(build_state(u, -0.7), part).m_value
    assert abs(plus - minus) <= 1e-12


def test_singular_complement_fallback_warns():
    rng = np.random.default_rng(4)
    st = build_state(haar_unitary(4, rng), 1.0)
    straight = negativity_singular(st, Bipartition.trailing(3, 1))
    with pytest.warns(UserWarning, match="complement"):
        flipped = negativity_singular(st, Bipartition(3, {0, 1}))
    assert abs(straight.m_value - flipped.m_value) <= 1e-12


def test_methods_agree_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        st = build_state(haar_unitary(2**n, rng), float(rng.uniform(0, 1)))
        for k in range(1, n + 1):
            part = Bipartition.trailing(n + 1, k)
            a = negativity_eigen(rho_of(st), part).m_value
            b = negativity_singular(st, part).m_value
            assert abs(a - b) <= 1e-9


def test_methods_agree_on_noncontiguous_partition():
    rng = np.random.default_rng(10)
    st = build_state(haar_unitary(8, rng), 1.0)
    part = Bipartition(4, {1, 3})
    a = negativity_eigen(rho_of(st), part).m_value
    b = negativity_singular(st, part).m_value
    assert abs(a - b) <= 1e-9


def test_transposed_spectrum_structure():
    # spectrum of the transposed state is {(1 +- alpha s_j)/2N}
    rng = np.random.default_rng(6)
    n = 3
    u = haar_unitary(2**n, rng)
    alpha = 0.6
    st = build_state(u, alpha)
    part = Bipartition.trailing(n + 1, 2)
    eigs = hermitian_eigenvalues(partial_transpose(rho_of(st), part))
    s = singular_values(unpolarized_partial_transpose(st, part))
    predicted = np.sort(np.concatenate([1 + alpha * s, 1 - alpha * s]))[::-1] / 2 ** (n + 1)
    assert np.allclose(eigs, predicted, atol=1e-10)


def test_monotone_in_alpha():
    rng = np.random.default_rng(7)
    u = haar_unitary(8, rng)
    part = Bipartition.trailing(4, 2)
    values = [negativity_eigen(rho_of(build_state(u, a)), part).m_value
              for a in np.linspace(0, 1, 9)]
    assert all(m2 >= m1 - 1e-10 for m1, m2 in zip(values, values[1:]))


def test_local_unitary_invariance():
    rng = np.random.default_rng(8)
    st = build_state(haar_unitary(8, rng), 1.0)
    part = Bipartition.trailing(4, 2)
    base = negativity_eigen(rho_of(st), part).m_value
    v = np.kron(haar_unitary(4, rng), haar_unitary(4, rng))  # local to the 2|2 cut
    rotated = v @ rho_of(st) @ v.conj().T
    rotated = (rotated + rotated.conj().T) / 2
    assert abs(negativity_eigen(rotated, part).m_value - base) <= 1e-10


def test_block_offdiagonal_trace_powers():
    # C = [[0, Upt^dag], [Upt, 0]] has tr C^2 = 2N and vanishing odd powers
    rng = np.random.default_rng(9)
    for k in (1, 2, 3):
        n = 3
        st = build_state(haar_unitary(2**n, rng), 1.0)
        u_pt = unpolarized_partial_transpose(st, Bipartition.trailing(n + 1, k))
        c = np.block([[np.zeros((8, 8)), u_pt.conj().T], [u_pt, np.zeros((8, 8))]])
        assert abs(np.trace(c)) <= 1e-12
        assert abs(np.trace(c @ c) - 2 * 2**n) <= 1e-10
        assert abs(np.trace(c @ c @ c)) <= 1e-10


def test_family_singular_route_up_to_twelve_qubits():
    # the family's U and its partial transposes fall apart into blocks of at
    # most 2 x 2, so the singular route costs milliseconds even at N = 2048
    for n in range(2, 12):
        u = build_family(n)
        for alpha in (1.0, 0.75):
            st = build_state(u, alpha)
            for k in range(1, n + 1):
                part = Bipartition.trailing(n + 1, k)
                m = negativity_singular(st, part).m_value
                assert abs(m - family_negativity(n, alpha, part)) <= 1e-12, (n, alpha, k)
                if n + 1 <= 9:
                    assert abs(negativity_eigen(st, part).m_value - m) <= 1e-12, (n, alpha, k)


def test_pure_state_negativity_values():
    assert pure_state_negativity([1.0, 0.0]) == 1.0
    assert abs(pure_state_negativity([0.5, 0.5]) - 2.0) <= 1e-12
    expected = 1 + math.sqrt(3) / 2
    assert abs(pure_state_negativity([0.75, 0.25]) - expected) <= 1e-12


def test_pure_state_negativity_matches_eigen_route():
    psi = np.zeros(4, dtype=complex)
    psi[0], psi[3] = math.sqrt(0.75), math.sqrt(0.25)
    rho = np.outer(psi, psi.conj())
    direct = negativity_eigen(rho, Bipartition(2, {1})).m_value
    assert abs(direct - pure_state_negativity([0.75, 0.25])) <= 1e-10


def test_pure_state_negativity_rejects_bad_input():
    with pytest.raises(ValueError, match="sum to 1"):
        pure_state_negativity([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        pure_state_negativity([1.5, -0.5])
