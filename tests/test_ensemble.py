import hashlib
import math

import numpy as np
import pytest

from dqc1.ensemble import (RandomCircuitParams, _mixing_phases, default_samples,
                           half_split_k, negativity_sweep, pseudo_random_unitary,
                           random_su2, su2_rotation, sweep_csv)
from dqc1.family import build_family
from dqc1.linalg import Bipartition, unitary_defect
from dqc1.negativity import negativity_eigen, negativity_singular
from dqc1.rng import philox_stream
from dqc1.state import build_state

# frozen from a reference run: pseudo_random_unitary(n=3, j=40, seed=7)
GOLDEN_SHA256 = "3ff7e06c179a8030b62072fb87e20036c011aec95370af65944e2c99384ef627"
# frozen from a reference run of the layer-by-layer build: pseudo_random_unitary(n, j, seed, index)
GOLDEN_SHA256_BY_SIZE = {
    (1, 1, 0, 0): "9c5e26444f8dbed426df8b0ffe5690ec3e95808b202897cc3e1a9b2074d9e9aa",
    (1, 1, 5, 3): "5d0063ff997a3e0c1a9ccdbda93c7b85f5e7a8f299e41a6028d3632900d73661",
    (1, 2, 0, 0): "058c338694030ad1c046425d3af36eb300acb7028b4b8214ffddae21eb17fdf6",
    (1, 2, 5, 3): "b687e5ced441da51923e8495bea8785dd756059245ce06c756949fa97ded3894",
    (1, 40, 0, 0): "dd2769f84a0693417f3607a7986ce6ed201fd34a1600d8776ee3e14bd7a1ac9b",
    (1, 40, 5, 3): "4047728ecb6a2bb021d98134c2fc53bf74685ff35e148d7ddf1db932ff039912",
    (2, 1, 0, 0): "58f61fc38e36bdb382b90ebfb0de47e180d036281d3c014c734243f974b9f1a5",
    (2, 1, 5, 3): "8845fb8ae669ddb6b609c058bb9b0e341a6344a1bd7ae81731dbe77378c90b20",
    (2, 2, 0, 0): "436a4e943190e5c331da324448343fc2484d5adeaf8d3586d1e178e8376bd16b",
    (2, 2, 5, 3): "71a1fd020be1b74f1ffcb66ed7b506f99bc5a6aad8c85f2c30c2cfc97893fd32",
    (2, 40, 0, 0): "e4d701b1455c96e86f56cd7c2a9d7fed2069057d970bab8ab144654f0ec17f3b",
    (2, 40, 5, 3): "5e34fd6a776a27c873fc56f7b142a7c179ab1fe366934da0430989ac818c0113",
    (3, 1, 0, 0): "4341f910c9993136d8cae265fff366169db97cb4b588f9ac08c39a316d9ad99f",
    (3, 1, 5, 3): "eda5e0a984cababc4090b80b88194df364dfaeeb81ba457d8b84dfbc440ac741",
    (3, 2, 0, 0): "7342eae9c08be6e1ffbd8e76c97e316d35bd4835982883a4e62c3e94d7fcdb54",
    (3, 2, 5, 3): "ed5d61f442e93dbcd2f2837754206f4f31e59cc8224967bbf9e99c8c3f42c2f1",
    (3, 40, 0, 0): "4b57960f9f93aafeaedefbd4da149aa828310356590620ad12641e52179ffa91",
    (3, 40, 5, 3): "39fcf604a7ee2b4a61588cc6d6360dea1ba1c05f627b641024ec313d06f9d42a",
    (4, 1, 0, 0): "547d59a58d73876b9e35066eb5b395a4f2153a1c1cea39cb731eb2f32f3c9c27",
    (4, 1, 5, 3): "8c156614ade5a88d5a911d575b09e558adeed19435bcacb5ba42a7ff617c8930",
    (4, 2, 0, 0): "80e62bb25df0493bf529234df032959f6180fa9c945cb76086e8a5fd6d9cb4cb",
    (4, 2, 5, 3): "4831a04088b9e3e2ff7414745e8439a42ff6c7fb1ef96f343a56838e09084e58",
    (4, 40, 0, 0): "29e5410af7ab8d33517486e3d0349d6c747562666dac91e3bcf3279b583a4e86",
    (4, 40, 5, 3): "761efc507008032b985f7647c89c1833f1e4f26d739671b6530a166294ff7ca3",
    (5, 1, 0, 0): "44662c8bb11b7eafd3fb1183b04f7159cbce8629e6cb3d35101b22c1385112ce",
    (5, 1, 5, 3): "22731a918c5b34c1c746d3b56cac8950232189982bf070a17ef2bfa2763346af",
    (5, 2, 0, 0): "2b67390b6c75b8b2f2daec70034d9d5f11e8e6be383d0f3d41d4626e53374b83",
    (5, 2, 5, 3): "491cbab812eb608fde582f214e9bc20605712408e01c9451d8244b206ad92012",
    (5, 40, 0, 0): "ff2a7b490708ad44e72917c76629fc190fa71b9b40e0d47ce57cdfe5cf4e5fc3",
    (5, 40, 5, 3): "901cd176d553fbebb5febed87da6407bb8fc6f9142c10ec52a832ac5c596c119",
    (6, 1, 0, 0): "0b6ecf6183422469302e25fb320c04afdc955381af61d5fda1c4eeda364a0135",
    (6, 1, 5, 3): "a47017c4da7fefd1a704336d4e96cde4206431d41dd9375d3cc12cd7e929b817",
    (6, 2, 0, 0): "19c6b5c7f73d29ef365b53ae06f4577afe9c48a0e705dacc858bdc6ac701171d",
    (6, 2, 5, 3): "f33be26935ad48aa9852e0f232bbf9de494bf67e56cf83b59e89ed706e6db305",
    (6, 40, 0, 0): "3427632b247c7602b05958355ba0f38cc0c44151135aa4893ff8dfabed9a14bc",
    (6, 40, 5, 3): "0f0945a6a6f66e1ef7cadaf3597b725d1b9b16ca9a8815d3c26e8e69337f5cbf",
    (7, 1, 0, 0): "3f4c2f83e225982fbfc48695f8ff93a504d5db9e54637d1313d5569aba1cc301",
    (7, 1, 5, 3): "f6d956b1cb74d94995bb69220b34dceb0b19bb8384cdaf9f7d4a8c38b730f78e",
    (7, 2, 0, 0): "252f196ed377df856f6c7a9751c8a83d3975deaec400bb319a4cb29f562beb7c",
    (7, 2, 5, 3): "a138a7fc01fd5f4fa91b0e6f0b043f6f49110007b96dfe0471a46a76eaaeab18",
    (7, 40, 0, 0): "cc3c5da9990bc60d7ada093e4011e44cec60656e88dcf03b23ec97fc31fb40c8",
    (7, 40, 5, 3): "1dfda4f45b55d2d5fa55e2891b296f60aece8d65700a9f9012c077a9904be02d",
    (8, 1, 0, 0): "6e135f16239fe4e6605a245746765eb9f8535ebc67b66268cea0df8dadb05e9d",
    (8, 1, 5, 3): "85362e7555f187ef28be19741f1080e041cd8f3d61b5db4055e4f35a04b00c0b",
    (8, 2, 0, 0): "9e3b58e071bdcc2a48e835f0908132590e8b1dd60b6f863273081387f3b5b8dd",
    (8, 2, 5, 3): "ae83773c0dff5ac8f22d050c1ef6c5208e88fe3d72c6f9041983390ba06be824",
    (8, 40, 0, 0): "160f06571e771e32f010135d38b9e9cfda24b41ac9cc5fae46a42821ce6fe53f",
    (8, 40, 5, 3): "26b4143eb37d5bb3cd48a310f387da079d9019e8f84aaf8f042b4ac5fa63451b",
    (9, 1, 0, 0): "cc9c87fc4bd4fae15c3ed9f4b640a68babea47da2c31c393710cf134705439c6",
    (9, 1, 5, 3): "0f5dd33bd4b7ce4ec7271ffd602ad385d725b5e5a072611a24acbdd021fbc3f9",
    (9, 2, 0, 0): "17c48f1d58e428d2d29c5c24d4ff1057c4109f51691174bc7fcca46529b924ff",
    (9, 2, 5, 3): "9ad2c5f2ab34ce2af181a4cf7d1f6a77705bd7f780f46a5f59dfa0cd46eccc22",
    (9, 40, 0, 0): "cf21caf943aeb96774022c817a402ad7720b206faff10a554cd8685c5d03bc4c",
    (9, 40, 5, 3): "3d9901833b12968e06974ac1e862ec416dda246276ad9b95ebc34e0c3e0e94d5",
}


def dense_layer_unitary(params, sample_index=0):
    """Oracle: the same circuit with every layer formed as a dense N x N Kronecker product."""
    rng = philox_stream(params.seed, sample_index)
    mix = _mixing_phases(params.n)[:, None]
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
    # a (j, n) stack is j * n single draws, layer by layer
    single = philox_stream(4, 2)
    stack = random_su2(philox_stream(4, 2), (5, 3))
    assert stack.shape == (5, 3, 2, 2)
    singles = np.array([[random_su2(single) for _ in range(3)] for _ in range(5)])
    assert np.array_equal(stack, singles)


def test_random_su2_theta_marginal():
    # E|<0|R|0>|^2 = E[cos^2 theta] = 1/2 for theta uniform on [0, pi/2]
    rng = philox_stream(1)
    values = [abs(random_su2(rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(values) - 0.5) <= 0.015


def test_mixing_operator_single_qubit():
    assert np.array_equal(np.diag(_mixing_phases(1)), np.eye(2))


def test_mixing_operator_two_qubit_phases():
    phases = _mixing_phases(2)
    assert abs(phases[0] - np.exp(1j * math.pi / 4)) <= 1e-15   # |00>
    assert abs(phases[1] - np.exp(-1j * math.pi / 4)) <= 1e-15  # |01>
    assert unitary_defect(np.diag(phases)) <= 1e-12


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


@pytest.mark.parametrize("n", range(1, 10))
def test_unitary_bytes_pinned_across_sizes(n):
    for (size, j, seed, index), digest in GOLDEN_SHA256_BY_SIZE.items():
        if size == n:
            u = pseudo_random_unitary(RandomCircuitParams(n=n, j=j, seed=seed), index)
            assert hashlib.sha256(u.tobytes()).hexdigest() == digest, (n, j, seed, index)


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
