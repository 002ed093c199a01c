import hashlib
import math

import numpy as np
import pytest

from dqc1.ensemble import (RandomCircuitParams, default_samples, half_split_k,
                           mixing_operator, negativity_sweep,
                           pseudo_random_unitary, random_su2, su2_rotation,
                           sweep_csv)
from dqc1.family import build_family
from dqc1.linalg import Bipartition, unitary_defect
from dqc1.negativity import negativity_eigen, negativity_singular
from dqc1.rng import philox_stream
from dqc1.state import build_state

# frozen from a reference run: pseudo_random_unitary(n=3, j=40, seed=7)
GOLDEN_SHA256 = "3ff7e06c179a8030b62072fb87e20036c011aec95370af65944e2c99384ef627"


def dense_layer_unitary(params, sample_index=0):
    """Oracle: the same circuit with every layer formed as a dense N x N Kronecker product."""
    rng = philox_stream(params.seed, sample_index)
    mix = np.diag(mixing_operator(params.n))[:, None]
    u = None
    for _ in range(params.j):
        layer = np.eye(1, dtype=np.complex128)
        for _ in range(params.n):
            layer = np.kron(layer, random_su2(rng))
        u = layer if u is None else layer @ (mix * u)
    return u


def test_su2_rotation_parameter_points():
    assert np.array_equal(su2_rotation(0.0, 0.0, 0.0), np.eye(2))
    flip = su2_rotation(math.pi / 2, 0.0, 0.0)
    assert np.max(np.abs(flip - np.array([[0, 1], [-1, 0]]))) <= 1e-15


def test_random_su2_special_unitary():
    rng = philox_stream(0)
    for _ in range(50):
        r = random_su2(rng)
        assert unitary_defect(r) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_random_su2_stack_equals_single_draws():
    single = philox_stream(4, 2)
    stack = random_su2(philox_stream(4, 2), 9)
    assert stack.shape == (9, 2, 2)
    assert np.array_equal(stack, np.array([random_su2(single) for _ in range(9)]))


def test_random_su2_theta_marginal():
    # E|<0|R|0>|^2 = E[cos^2 theta] = 1/2 for theta uniform on [0, pi/2]
    rng = philox_stream(1)
    values = [abs(random_su2(rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(values) - 0.5) <= 0.015


def test_mixing_operator_single_qubit():
    assert np.array_equal(mixing_operator(1), np.eye(2))


def test_mixing_operator_two_qubit_phases():
    m = mixing_operator(2)
    assert np.max(np.abs(m - np.diag(np.diag(m)))) == 0.0
    assert abs(m[0, 0] - np.exp(1j * math.pi / 4)) <= 1e-15   # |00>
    assert abs(m[1, 1] - np.exp(-1j * math.pi / 4)) <= 1e-15  # |01>
    assert unitary_defect(m) <= 1e-12


def test_pseudo_random_unitary_is_unitary():
    for n in (1, 2, 4):
        u = pseudo_random_unitary(RandomCircuitParams(n=n, j=10, seed=3))
        assert u.shape == (2**n, 2**n)
        assert unitary_defect(u) <= 1e-10


def test_pseudo_random_unitary_reproducible():
    params = RandomCircuitParams(n=3, j=40, seed=7)
    u1 = pseudo_random_unitary(params)
    u2 = pseudo_random_unitary(params)
    assert np.array_equal(u1, u2)
    assert hashlib.sha256(u1.tobytes()).hexdigest() == GOLDEN_SHA256
    assert not np.array_equal(u1, pseudo_random_unitary(RandomCircuitParams(n=3, j=40, seed=8)))
    assert not np.array_equal(u1, pseudo_random_unitary(params, sample_index=1))


def test_factored_layers_match_dense_product():
    for n in range(1, 9):
        for seed, index in ((0, 0), (5, 3), (11, 1)):
            params = RandomCircuitParams(n=n, j=40, seed=seed)
            gap = np.max(np.abs(pseudo_random_unitary(params, index)
                                - dense_layer_unitary(params, index)))
            assert gap <= 1e-14, (n, seed, index, gap)


def test_single_layer_preserves_product_states():
    u = pseudo_random_unitary(RandomCircuitParams(n=2, j=1, seed=5))
    out = (u @ np.array([1, 0, 0, 0], dtype=complex)).reshape(2, 2)
    s = np.linalg.svd(out, compute_uv=False)
    assert s[1] <= 1e-12  # Schmidt rank 1


def test_single_qubit_any_j_is_su2():
    u = pseudo_random_unitary(RandomCircuitParams(n=1, j=7, seed=2))
    assert u.shape == (2, 2)
    assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_half_split_and_default_samples():
    assert [half_split_k(m) for m in (2, 5, 6, 9, 10)] == [1, 2, 3, 4, 5]
    assert default_samples(8) == 100 and default_samples(9) == 30


def test_sweep_two_qubits_never_entangled():
    stats = negativity_sweep([2], split="all", samples=10, seed=0)
    assert len(stats) == 1
    assert stats[0].mean_m == 1.0 and stats[0].std_m == 0.0


def test_singular_route_reports_ppt_exactly():
    # these n + 1 = 2 draws once gave M = 1.0000000000000002 with is_ppt False
    part = Bipartition.trailing(2, 1)
    for index in (1, 3, 7, 9):
        state = build_state(pseudo_random_unitary(RandomCircuitParams(n=1, seed=0), index), 1.0)
        for res in (negativity_singular(state, part), negativity_eigen(state.rho, part)):
            assert res.m_value == 1.0 and res.n_value == 0.0 and res.is_ppt
    # transposing every unpolarized qubit of the family state leaves it PPT
    for n in (2, 3, 5):
        state = build_state(build_family(n), 1.0)
        part = Bipartition.trailing(n + 1, n)
        assert negativity_singular(state, part).m_value == 1.0
        assert negativity_eigen(state.rho, part).m_value == 1.0


def test_sweep_matches_eigen_recomputation():
    samples, seed = 4, 17
    for n_plus_1 in range(3, 8):
        stats = negativity_sweep([n_plus_1], split="all", samples=samples, seed=seed)
        unitaries = [pseudo_random_unitary(RandomCircuitParams(n=n_plus_1 - 1, seed=seed), i)
                     for i in range(samples)]
        for s in stats:
            values = [negativity_eigen(build_state(u, 1.0).rho, s.partition).m_value
                      for u in unitaries]
            mean = math.fsum(values) / samples
            std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (samples - 1))
            assert abs(s.mean_m - mean) <= 1e-12 and abs(s.std_m - std) <= 1e-12


def test_sweep_deterministic():
    a = negativity_sweep([4], split="half", samples=6, seed=42)
    b = negativity_sweep([4], split="half", samples=6, seed=42)
    assert a == b
    c = negativity_sweep([4], split="half", samples=6, seed=43)
    assert a[0].mean_m != c[0].mean_m


def test_sweep_validation():
    with pytest.raises(ValueError, match="samples"):
        negativity_sweep([4], samples=1)
    with pytest.raises(ValueError, match="out of range"):
        negativity_sweep([4], split=9, samples=2)


def test_sweep_csv_schema():
    stats = negativity_sweep([3], split="all", samples=3, seed=1)
    text = sweep_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == "n_plus_1,k,samples,mean_m,std_m,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "1" and first[2] == "3" and first[5] == "1"
    float(first[3]), float(first[4])  # parseable
