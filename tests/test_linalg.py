import numpy as np
import pytest

from conftest import haar_unitary, random_density
from dqc1.linalg import (Bipartition, _nonzero_blocks, hermitian_eigenvalues, load_unitary,
                         partial_transpose, require_density, require_unitary, save_unitary,
                         singular_values, unitary_defect)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_partial_transpose_identity_invariant():
    for part in (Bipartition(3, {0}), Bipartition(3, {1, 2}), Bipartition(3, {0, 2})):
        assert np.array_equal(partial_transpose(np.eye(8, dtype=complex), part), np.eye(8))


def test_partial_transpose_bell():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    eigs = hermitian_eigenvalues(partial_transpose(rho, Bipartition(2, {1})))
    assert np.allclose(eigs, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_partial_transpose_involution_bit_exact():
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = int(rng.integers(2, 6))
        m = rng.standard_normal((2**t, 2**t)) + 1j * rng.standard_normal((2**t, 2**t))
        size = int(rng.integers(1, t))
        part = Bipartition(t, frozenset(rng.choice(t, size=size, replace=False).tolist()))
        assert np.array_equal(partial_transpose(partial_transpose(m, part), part), m)


def test_partial_transpose_complement_same_spectrum():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = int(rng.integers(2, 6))
        rho = random_density(2**t, rng)
        size = int(rng.integers(1, t))
        part = Bipartition(t, frozenset(rng.choice(t, size=size, replace=False).tolist()))
        a = hermitian_eigenvalues(partial_transpose(rho, part))
        b = hermitian_eigenvalues(partial_transpose(rho, part.complement()))
        assert np.allclose(a, b, atol=1e-10)


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4, dtype=complex), Bipartition(3, {1}))


def test_trace_product_preserved_under_partial_transpose():
    # tr(A_pt B_pt) = tr(A B) for a shared bipartition
    rng = np.random.default_rng(2)
    for _ in range(20):
        t = int(rng.integers(2, 7))
        dim = 2**t
        a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        b = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        size = int(rng.integers(1, t))
        part = Bipartition(t, frozenset(rng.choice(t, size=size, replace=False).tolist()))
        lhs = np.trace(partial_transpose(a, part) @ partial_transpose(b, part))
        assert abs(lhs - np.trace(a @ b)) <= 1e-12


def test_hermitian_eigenvalues_diagonal():
    assert np.array_equal(hermitian_eigenvalues(np.diag([3.0, 1.0, -1.0]).astype(complex)),
                          [3.0, 1.0, -1.0])


def test_hermitian_eigenvalues_pauli_x():
    assert np.allclose(hermitian_eigenvalues(X), [1.0, -1.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects_nonhermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigenvalues(np.diag([np.nan, 1.0]).astype(complex))


def test_singular_values_of_unitary_are_ones():
    rng = np.random.default_rng(3)
    u = haar_unitary(8, rng)
    assert np.allclose(singular_values(u), np.ones(8), atol=1e-10)


def test_singular_values_diagonal():
    assert np.allclose(singular_values(np.diag([2.0, 0.0]).astype(complex)), [2.0, 0.0])


def test_transposed_unitary_singular_values_norm():
    # sum s_j^2 of the partially transposed unitary equals its dimension
    rng = np.random.default_rng(4)
    for _ in range(5):
        u = haar_unitary(4, rng)
        s = singular_values(partial_transpose(u, Bipartition(2, {1})))
        assert abs(np.sum(s**2) - 4.0) <= 1e-10


def test_singular_values_unitarily_invariant():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    v, w = haar_unitary(8, rng), haar_unitary(8, rng)
    assert np.allclose(singular_values(v @ m @ w), singular_values(m), atol=1e-10)


def phased_permutation(dim, rng, phases=None):
    """A permutation matrix with unit phases (uniform ones unless given)."""
    if phases is None:
        phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    return np.eye(dim)[rng.permutation(dim)] * phases


def scrambled(m, rng):
    """m with its rows and its columns randomly permuted."""
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]


def test_singular_values_block_route_matches_dense_svd():
    rng = np.random.default_rng(13)
    direct_sum = np.zeros((24, 24), dtype=complex)
    direct_sum[:7, :7] = haar_unitary(7, rng)
    direct_sum[7:, 7:] = haar_unitary(17, rng)
    with_zeros = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    with_zeros[[3, 20]] = 0
    with_zeros[:, [0, 9, 10]] = 0
    sparse = rng.standard_normal((16, 16)) * (rng.uniform(size=(16, 16)) < 0.1)
    chain = np.diag(rng.standard_normal(64)) + np.diag(rng.standard_normal(63), 1)
    cases = {"phased permutation": phased_permutation(64, rng),
             "V x I4": scrambled(np.kron(haar_unitary(16, rng), np.eye(4)), rng),
             "direct sum": scrambled(direct_sum, rng),
             "zero rows and columns": scrambled(with_zeros, rng),
             "sparse with empty rows": sparse.astype(complex),
             "bidiagonal chain": scrambled(chain, rng).astype(complex),
             "zero matrix": np.zeros((4, 4), dtype=complex)}
    for name, m in cases.items():
        dense = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(singular_values(m) - dense)) <= 1e-13, name
    # the chain is one block: labelled as such, it gets the dense call
    assert _nonzero_blocks(cases["bidiagonal chain"]) is None
    assert [b.shape for b in _nonzero_blocks(cases["phased permutation"])] == [(64, 1, 1)]
    assert [b.shape for b in _nonzero_blocks(cases["V x I4"])] == [(4, 16, 16)]
    assert [b.shape for b in _nonzero_blocks(cases["direct sum"])] == [(1, 7, 7), (1, 17, 17)]


def test_dense_input_takes_the_plain_calls_bit_for_bit():
    rng = np.random.default_rng(14)
    for dim in (1, 2, 16, 64):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u = haar_unitary(dim, rng)
        assert np.array_equal(singular_values(m), np.linalg.svd(m, compute_uv=False))
        assert unitary_defect(u) == np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    m[5, 7] = 0  # row 0 and column 0 still have no zero: one block
    assert _nonzero_blocks(m) is None


def test_unitary_defect_of_exact_phased_permutation_is_zero():
    rng = np.random.default_rng(15)
    exact_phases = np.array([1, 1j, -1, -1j])[rng.integers(4, size=32)]
    u = phased_permutation(32, rng, phases=exact_phases)
    assert _nonzero_blocks(u) is not None
    assert unitary_defect(u) == 0.0
    assert unitary_defect(scrambled(np.kron(haar_unitary(8, rng), np.eye(4)), rng)) <= 1e-14


def test_block_route_refuses_non_unitaries():
    rng = np.random.default_rng(16)
    u = phased_permutation(16, rng)
    zero_col = u.copy()
    zero_col[:, 5] = 0
    assert unitary_defect(zero_col) == 1.0
    bad = [zero_col]
    for value in (np.nan, np.inf):
        on_entry, joining = u.copy(), u.copy()
        on_entry[np.nonzero(u[:, 3])[0][0], 3] = value
        # a non-finite entry where U is zero joins two 1 x 1 blocks into a
        # 2 x 2 block, whose defect the other, exact, blocks must not hide
        joining[np.nonzero(u[:, 3])[0][0], 4] = value
        bad += [on_entry, joining]
    for m in bad:
        assert _nonzero_blocks(m) is not None
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(m)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition(3, set())
    with pytest.raises(ValueError):
        Bipartition(3, {0, 1, 2})
    with pytest.raises(ValueError):
        Bipartition(3, {3})
    with pytest.raises(ValueError):
        Bipartition(1, {0})


def test_bipartition_trailing_and_complement():
    part = Bipartition.trailing(5, 2)
    assert sorted(part.transposed_part) == [3, 4]
    assert part.k == 2
    assert sorted(part.complement().transposed_part) == [0, 1, 2]
    assert part.complement().complement() == part


def test_require_density_rejections():
    with pytest.raises(ValueError, match="Hermitian"):
        require_density(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        require_density(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative"):
        require_density(np.diag([1.5, -0.5]).astype(complex))
    # a NaN or inf entry fails a check rather than slipping past every comparison
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="Hermitian"), np.errstate(invalid="ignore"):
            require_density(np.diag([bad, 0.5]).astype(complex))


def test_unitary_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    u = haar_unitary(8, rng)
    path = tmp_path / "u.mat"
    save_unitary(path, u)
    assert np.array_equal(load_unitary(path), u)


def test_unitary_file_parse_errors(tmp_path):
    bad_header = tmp_path / "a.mat"
    bad_header.write_text("not-a-number\n")
    with pytest.raises(ValueError, match="line 1"):
        load_unitary(bad_header)

    bad_row = tmp_path / "b.mat"
    bad_row.write_text("2\n1,0 0,0\n0,0 oops\n")
    with pytest.raises(ValueError, match="line 3"):
        load_unitary(bad_row)

    short_row = tmp_path / "c.mat"
    short_row.write_text("2\n1,0\n0,0 1,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_unitary(short_row)

    extra_row = tmp_path / "d.mat"
    extra_row.write_text("2\n1,0 0,0\n0,0 1,0\n9,9 9,9\n")
    with pytest.raises(ValueError, match="line 4"):
        load_unitary(extra_row)
