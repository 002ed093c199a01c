import numpy as np
import pytest

from conftest import haar_unitary
from dqc1.family import U2Blocks, build_family, canonical_u2, circuit_family
from dqc1.linalg import (Bipartition, hermitian_eigenvalues, max_abs,
                         partial_transpose, unitary_defect)
from dqc1.negativity import negativity_eigen
from dqc1.pathsum import circuit_unitary
from dqc1.state import build_state
from oracles import family_negativity, qubits_1_and_n_together, rho_of


def test_canonical_blocks_identities_exact():
    blocks = canonical_u2()
    eye = np.eye(2)
    assert np.array_equal(blocks.a.conj().T @ blocks.a + blocks.d.conj().T @ blocks.d, eye)
    assert np.array_equal(blocks.b.conj().T @ blocks.b + blocks.c.conj().T @ blocks.c, eye)
    assert np.array_equal(blocks.a.conj().T @ blocks.c + blocks.d.conj().T @ blocks.b,
                          np.zeros((2, 2)))


def test_canonical_u2_is_integer_permutation():
    u2 = canonical_u2().matrix()
    assert unitary_defect(u2) == 0.0
    assert np.array_equal(u2, u2.real.astype(int))
    assert np.array_equal(np.sort(np.abs(u2).sum(axis=0)), np.ones(4))
    # swaps |00> and |11>, fixes the rest
    assert u2[3, 0] == 1 and u2[0, 3] == 1 and u2[1, 1] == 1 and u2[2, 2] == 1


def test_build_family_reduces_to_seed():
    assert np.array_equal(build_family(2), canonical_u2().matrix())


def test_build_family_n4_integer_unitary():
    u = build_family(4)
    assert u.shape == (16, 16)
    assert unitary_defect(u) <= 1e-12
    assert set(np.unique(u.real)) <= {0.0, 1.0}
    assert np.max(np.abs(u.imag)) == 0.0


def test_build_family_rejects_small_n():
    with pytest.raises(ValueError):
        build_family(1)


def test_circuit_matches_matrix():
    for n in (2, 3, 4, 5):
        defect = max_abs(circuit_unitary(circuit_family(n)) - build_family(n))
        assert defect <= 1e-12


def test_circuit_layer_structure():
    c = circuit_family(4)
    names = [g.name for g in c.gates]
    assert names[:2] == ["CNOT", "CNOT"] and names[-2:] == ["CNOT", "CNOT"]
    assert c.gates[0].qubits == (0, 1) and c.gates[1].qubits == (0, 2)
    assert c.gates[-1].qubits == (0, 1) and c.gates[-2].qubits == (0, 2)
    # the middle block acts only on the first and last qubits
    for g in c.gates[2:-2]:
        assert set(g.qubits) <= {0, 3}
    assert len(circuit_family(2).gates) == len(c.gates) - 4


def test_three_qubit_transposed_spectrum():
    for alpha in (0.0, 0.3, 0.5, 1.0):
        st = build_state(build_family(2), alpha)
        eigs = hermitian_eigenvalues(partial_transpose(rho_of(st), Bipartition.trailing(3, 1)))
        expected = np.sort(np.array([1 + 2 * alpha] + [1.0] * 6 + [1 - 2 * alpha]))[::-1] / 8
        assert np.max(np.abs(eigs - expected)) <= 1e-12


def test_block_reduction_of_spectrum():
    # the (n+1)-qubit transposed spectrum is the 3-qubit one scaled by 4/N,
    # each value N/4-fold degenerate
    base = hermitian_eigenvalues(
        partial_transpose(rho_of(build_state(build_family(2), 1.0)), Bipartition.trailing(3, 1)))
    for n in (3, 4, 5):
        big_n = 2**n
        st = build_state(build_family(n), 1.0)
        eigs = hermitian_eigenvalues(
            partial_transpose(rho_of(st), Bipartition.trailing(n + 1, 1)))
        expected = np.sort(np.repeat(base * 4 / big_n, big_n // 4))[::-1]
        assert np.max(np.abs(eigs - expected)) <= 1e-12


def test_partition_classification():
    assert qubits_1_and_n_together(4, Bipartition(5, {1, 4}))
    assert qubits_1_and_n_together(4, Bipartition(5, {2}))
    assert not qubits_1_and_n_together(4, Bipartition(5, {4}))
    assert not qubits_1_and_n_together(4, Bipartition(5, {1}))


def test_family_negativity_profile():
    part = Bipartition.trailing(4, 1)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        expected = max(1.0, (2 * alpha + 3) / 4)
        assert abs(family_negativity(3, alpha, part) - expected) <= 1e-15
    assert family_negativity(3, 0.5, part) == 1.0


def test_family_negativity_matches_numeric():
    for n in (2, 3, 4):
        st = build_state(build_family(n), 1.0)
        for part in (Bipartition.trailing(n + 1, 1), Bipartition(n + 1, {1}),
                     Bipartition(n + 1, {1, n}), Bipartition(n + 1, {2})):
            analytic = family_negativity(n, 1.0, part)
            numeric = negativity_eigen(rho_of(st), part).m_value
            assert abs(analytic - numeric) <= 1e-9


def test_family_negativity_independent_of_n():
    values = {family_negativity(n, 0.8, Bipartition.trailing(n + 1, 1))
              for n in range(2, 9)}
    assert len(values) == 1


def test_generalized_seed_blocks():
    # any unitary sliced into four equal blocks satisfies the assembly identities
    rng = np.random.default_rng(0)
    seed = haar_unitary(8, rng)
    blocks = U2Blocks(a=seed[:4, :4], b=seed[4:, 4:], c=seed[:4, 4:], d=seed[4:, :4])
    assert np.array_equal(build_family(3, blocks), seed)
    u5 = build_family(5, blocks)
    assert unitary_defect(u5) <= 1e-12
    m = negativity_eigen(rho_of(build_state(u5, 1.0)), Bipartition.trailing(6, 1)).m_value
    assert 1.0 - 1e-12 <= m <= np.sqrt(2) + 1e-9


def test_blocks_validation():
    bad = np.eye(2) * 0.5
    with pytest.raises(ValueError, match="unitary"):
        U2Blocks(a=bad, b=bad, c=bad, d=bad)
    # a NaN in b leaves the first defect at 0 and makes the later two NaN
    seed = canonical_u2()
    nan_b = seed.b.copy()
    nan_b[0, 0] = np.nan
    with pytest.raises(ValueError, match="unitary"):
        U2Blocks(a=seed.a, b=nan_b, c=seed.c, d=seed.d)
