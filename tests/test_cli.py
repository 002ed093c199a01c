import numpy as np
import pytest

from conftest import haar_unitary
from dqc1.cli import main
from dqc1.linalg import save_unitary
from dqc1.pathsum import CNOT, GateCircuit, H, T, TOFFOLI, save_circuit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_negativity_family(capsys):
    code, out, _ = run_cli(capsys, "negativity", "--family", "--n", "3",
                           "--alpha", "1", "--k", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "n_plus_1,k,alpha,m_value,n_value,method"
    fields = row.split(",")
    assert fields[:2] == ["3", "1"]
    assert float(fields[3]) == pytest.approx(1.25, abs=1e-9)
    assert fields[5] == "singular"


def test_negativity_from_file_alpha_zero(capsys, tmp_path):
    path = tmp_path / "u.mat"
    save_unitary(path, haar_unitary(2, np.random.default_rng(0)))
    code, out, _ = run_cli(capsys, "negativity", "--file", str(path), "--n", "2",
                           "--alpha", "0", "--k", "1")
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[3]) == 1.0


def test_negativity_singular_method(capsys):
    code, out, _ = run_cli(capsys, "negativity", "--family", "--n", "4", "--k", "1",
                           "--method", "singular")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[3]) == pytest.approx(1.25, abs=1e-9)
    assert row[5] == "singular"


@pytest.mark.parametrize("source,n_plus_1,seed",
                         [("--family", n1, "0") for n1 in range(3, 9)]
                         + [("--random", n1, seed) for n1 in range(4, 8) for seed in ("1", "2")])
def test_negativity_default_route_matches_eigen(capsys, source, n_plus_1, seed):
    # no --method runs the singular route; the 2N x 2N eigen route is its oracle
    for k in range(1, n_plus_1):
        argv = ("negativity", source, "--n", str(n_plus_1), "--seed", seed, "--k", str(k))
        code, out, _ = run_cli(capsys, *argv)
        row = out.strip().split("\n")[1].split(",")
        assert code == 0 and row[5] == "singular"
        code, out, _ = run_cli(capsys, *argv, "--method", "eigen")
        assert code == 0
        assert abs(float(row[3]) - float(out.strip().split("\n")[1].split(",")[3])) <= 1e-12


def test_negativity_random_reproducible(capsys):
    _, out1, _ = run_cli(capsys, "negativity", "--random", "--n", "5", "--seed", "7",
                         "--k", "3")
    _, out2, _ = run_cli(capsys, "negativity", "--random", "--n", "5", "--seed", "7",
                         "--k", "3")
    assert out1 == out2


def test_sweep_trivial_split(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--range", "2..2", "--samples", "4",
                           "--seed", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n_plus_1,k,samples,mean_m,std_m,seed"
    assert lines[1].split(",")[3] == "1"


def test_sweep_output_bytes_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["--output", str(out), "sweep", "--nplus1", "4", "--all-splits",
                     "--samples", "5", "--seed", "3"])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    rows = out1.read_text().strip().split("\n")
    assert len(rows) == 4  # header + k = 1, 2, 3


def test_sweep_all_splits_with_split_refused(capsys):
    code, out, err = run_cli(capsys, "sweep", "--nplus1", "4", "--split", "2",
                             "--all-splits", "--samples", "2")
    assert code == 2 and out == ""
    assert err == "error: --all-splits conflicts with --split 2\n"


def test_bounds_s12_sweep(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "s12", "--alpha", "1",
                           "--two-n", "8..16")
    assert code == 0
    lines = out.strip().split("\n")[1:]
    cont = [l for l in lines if l.split(",")[1] == "s12_continuous"]
    inte = [l for l in lines if l.split(",")[1] == "s12_integer"]
    assert len(cont) == len(inte) == 5
    assert all(float(l.split(",")[2]) == pytest.approx(np.sqrt(2)) for l in cont)
    assert all(float(l.split(",")[2]) <= np.sqrt(2) for l in inte)


def test_bounds_s123_small(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "s123", "--two-n", "8")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(1.25, abs=1e-8)


def test_bounds_asymptote(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--kind", "asymptote", "--two-n", "1024")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(np.sqrt(2) - 2 ** (-7 / 6) * 512 ** (-1 / 3))


@pytest.mark.parametrize("kind,two_n", [("s123", "8"), ("asymptote", "1024")])
def test_bounds_alpha_one_kinds_refuse_other_alpha(capsys, tmp_path, kind, two_n):
    code, out, err = run_cli(capsys, "bounds", "--kind", kind, "--two-n", two_n,
                             "--alpha", "0.3")
    assert code == 2 and out == ""
    assert err == f"error: --kind {kind} holds only at alpha = 1, got 0.3\n"
    config = tmp_path / "bounds.cfg"
    config.write_text(f"kind={kind}\nalpha=0.5\n")
    code, out, err = run_cli(capsys, "--config", str(config), "bounds", "--two-n", two_n)
    assert code == 2 and out == ""
    assert err == f"error: --kind {kind} holds only at alpha = 1, got 0.5\n"
    # an explicit alpha = 1 still runs
    assert run_cli(capsys, "bounds", "--kind", kind, "--two-n", two_n, "--alpha", "1")[0] == 0


def test_bounds_rejects_odd_two_n(capsys):
    code, _, err = run_cli(capsys, "bounds", "--kind", "s12", "--two-n", "7")
    assert code == 2 and err.startswith("error:")


def test_trace_protocol(capsys):
    code, out, _ = run_cli(capsys, "trace", "--family", "--n", "4",
                           "--epsilon", "0.05", "--p-error", "0.01", "--seed", "3")
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(report["abs_error"]) <= 0.05
    assert int(report["runs_used"]) >= 1


def test_trace_pathsum_exact(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    save_circuit(path, GateCircuit(2, (CNOT(0, 1), T(1))))
    code, out, _ = run_cli(capsys, "trace", "--pathsum", str(path), "--mode", "t_gate",
                           "--exact")
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert float(report["trace_re"]) == pytest.approx(float(report["dense_re"]), abs=1e-9)
    assert float(report["trace_im"]) == pytest.approx(float(report["dense_im"]), abs=1e-9)
    assert float(report["counting_re"]) == pytest.approx(float(report["trace_re"]), abs=1e-12)


GOLDEN_PATHSUM_EXACT = [
    ("toffoli", GateCircuit(3, (H(0), TOFFOLI(0, 1, 2), H(2), TOFFOLI(2, 0, 1), H(1),
                                TOFFOLI(1, 2, 0))),
     ["qubits=3", "mode=toffoli", "path_bits=9",
      "trace_re=0.70710678118654757", "trace_im=0",
      "counting_re=0.70710678118654757", "counting_im=0",
      "dense_re=0.70710678118654735", "dense_im=0"]),
    ("t_gate", GateCircuit(2, (H(0), T(0), CNOT(0, 1), T(1), H(1), T(1), T(0))),
     ["qubits=2", "mode=t_gate", "path_bits=8",
      "trace_re=1.2071067811865475", "trace_im=-1.2071067811865475",
      "counting_re=1.2071067811865475", "counting_im=-1.2071067811865475",
      "dense_re=1.207106781186547", "dense_im=-1.2071067811865475"]),
]


@pytest.mark.parametrize("mode,circuit,expected", GOLDEN_PATHSUM_EXACT,
                         ids=[mode for mode, _, _ in GOLDEN_PATHSUM_EXACT])
def test_trace_pathsum_exact_golden_bytes(capsys, tmp_path, mode, circuit, expected):
    # the exact path-sum report is pinned to the bytes below, in both gate sets
    path = tmp_path / "circuit.txt"
    save_circuit(path, circuit)
    code, out, _ = run_cli(capsys, "trace", "--pathsum", str(path), "--mode", mode, "--exact")
    assert code == 0
    assert out == "\n".join(expected) + "\n"


GOLDEN_UNITARY_ROUTES = [
    (("negativity", "--random", "--n", "7", "--seed", "3", "--k", "3", "--method", "eigen"),
     ["n_plus_1,k,alpha,m_value,n_value,method",
      "7,3,1,1.1591788669167506,0.079589433458375297,eigen"]),
    (("negativity", "--random", "--n", "7", "--seed", "3", "--k", "3", "--method", "singular"),
     ["n_plus_1,k,alpha,m_value,n_value,method",
      "7,3,1,1.1591788669167506,0.079589433458375353,singular"]),
    (("negativity", "--family", "--n", "6", "--alpha", "0.75", "--k", "2"),
     ["n_plus_1,k,alpha,m_value,n_value,method",
      "6,2,0.75,1.125,0.0625,singular"]),
    (("trace", "--random", "--n", "6", "--seed", "2", "--epsilon", "0.1"),
     ["n_plus_1=6", "alpha=1", "epsilon=0.10000000000000001", "p_error=0.01", "seed=2",
      "runs_used=1199", "estimate_re=-0.0075062552126772307",
      "estimate_im=0.017514595496246871", "true_re=0.014490376515045509",
      "true_im=-0.00077051189334391423", "abs_error=0.028604142350609398"]),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_UNITARY_ROUTES,
                         ids=["eigen", "singular", "family", "trace"])
def test_unitary_routes_golden_bytes(capsys, argv, expected):
    # pinned bytes, the same at one and two BLAS threads
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "\n".join(expected) + "\n"


def test_trace_pathsum_sampled(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    save_circuit(path, GateCircuit(2, (H(0), CNOT(0, 1))))
    code, out, _ = run_cli(capsys, "trace", "--pathsum", str(path), "--mode", "t_gate",
                           "--samples", "500", "--seed", "2")
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert "stderr" in report and "normalized_estimate_re" in report


def test_trace_pathsum_exact_with_samples_refused(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    save_circuit(path, GateCircuit(2, (H(0), CNOT(0, 1))))
    code, out, err = run_cli(capsys, "trace", "--pathsum", str(path), "--mode", "t_gate",
                             "--exact", "--samples", "100")
    assert code == 2 and out == ""
    assert err == "error: --exact conflicts with --samples\n"


def test_trace_pathsum_with_unitary_source_refused(capsys, tmp_path):
    path = tmp_path / "circuit.txt"
    save_circuit(path, GateCircuit(2, (H(0), CNOT(0, 1))))
    code, out, err = run_cli(capsys, "trace", "--pathsum", str(path), "--random", "--n", "3",
                             "--exact")
    assert code == 2 and out == ""
    assert err == "error: --pathsum conflicts with --random, --n\n"
    # the settings are checked after the config file is merged in
    config = tmp_path / "run.cfg"
    config.write_text("family=true\n")
    code, out, err = run_cli(capsys, "--config", str(config), "trace", "--pathsum", str(path))
    assert code == 2 and out == ""
    assert err == "error: --pathsum conflicts with --family\n"


def test_family_verify(capsys):
    code, out, _ = run_cli(capsys, "family-verify", "--n", "5")
    assert code == 0
    assert "verified=true" in out


def test_bad_unitary_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2\n1,0 0,0\nnope\n")
    code, _, err = run_cli(capsys, "negativity", "--file", str(path), "--k", "1")
    assert code == 2
    assert err.startswith("error:") and "line 3" in err


@pytest.mark.parametrize("entry", ["nan,0", "inf,0"])
@pytest.mark.parametrize("command", [("negativity", "--k", "1", "--method", "eigen"),
                                     ("negativity", "--k", "1", "--method", "singular"),
                                     ("trace",)], ids=["eigen", "singular", "trace"])
def test_non_finite_unitary_file_rejected(capsys, tmp_path, entry, command):
    path = tmp_path / "u.mat"
    path.write_text(f"2\n{entry} 0,0\n0,0 1,0\n")
    code, out, err = run_cli(capsys, *command, "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not unitary" in err and err.count("\n") == 1


def _refuse_call(monkeypatch, module, name, calls):
    def refused(*args, **kwargs):
        calls.append(name)
        raise AssertionError(f"{name} ran")
    monkeypatch.setattr(module, name, refused)


@pytest.mark.parametrize("argv", [("negativity", "--random", "--n", "15"),
                                  ("negativity", "--family", "--n", "15"),
                                  ("trace", "--random", "--n", "15"),
                                  ("trace", "--family", "--n", "15"),
                                  ("sweep", "--nplus1", "15", "--samples", "2"),
                                  ("sweep", "--range", "14..15")])
def test_oversized_register_refused_before_building(capsys, monkeypatch, argv):
    import dqc1.ensemble
    import dqc1.family
    calls = []
    _refuse_call(monkeypatch, dqc1.ensemble, "pseudo_random_unitary", calls)
    _refuse_call(monkeypatch, dqc1.family, "build_family", calls)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and calls == []
    assert err == "error: register of 15 qubits exceeds the cap of 14\n"


def test_negativity_bad_method_refused_before_building(capsys, monkeypatch, tmp_path):
    import dqc1.ensemble
    calls = []
    _refuse_call(monkeypatch, dqc1.ensemble, "pseudo_random_unitary", calls)
    config = tmp_path / "run.cfg"
    config.write_text("method=bogus\n")
    code, out, err = run_cli(capsys, "--config", str(config), "negativity", "--random",
                             "--n", "12")
    assert code == 2 and out == "" and calls == []
    assert err == "error: method must be eigen or singular, got 'bogus'\n"


def test_family_verify_refused_above_dense_cap(capsys, monkeypatch):
    import dqc1.family
    import dqc1.pathsum
    calls = []
    _refuse_call(monkeypatch, dqc1.family, "build_family", calls)
    _refuse_call(monkeypatch, dqc1.pathsum, "_apply_gate", calls)
    code, _, err = run_cli(capsys, "family-verify", "--n", "11")
    assert code == 2 and calls == []
    assert err == "error: dense product capped at 10 qubits, got 11\n"


def test_trace_over_run_cap_refused_before_drawing(capsys, monkeypatch):
    import dqc1.state
    calls = []
    _refuse_call(monkeypatch, dqc1.state, "philox_stream", calls)
    code, out, err = run_cli(capsys, "trace", "--random", "--n", "3", "--alpha", "0.25",
                             "--epsilon", "1e-9", "--p-error", "1e-6")
    assert code == 2 and out == "" and calls == []
    assert err == ("error: estimator needs 4.86e+20 runs per observable; "
                   "the cap is 4611686018427387904\n")


def test_trace_tens_of_billions_of_runs(capsys):
    # L = 4.86e10 per observable: one binomial count each, well under the cap
    code, out, _ = run_cli(capsys, "trace", "--random", "--n", "3", "--alpha", "0.25",
                           "--epsilon", "0.0001", "--p-error", "1e-6")
    assert code == 0
    report = dict(line.split("=", 1) for line in out.strip().split("\n"))
    assert report["runs_used"] == "48645775742"
    assert float(report["abs_error"]) <= 1e-4


@pytest.mark.parametrize("flags", [("--epsilon", "1e-200"), ("--epsilon", "1e-160"),
                                   ("--alpha", "1e-170", "--epsilon", "0.5")])
def test_trace_underflowing_accuracy_refused_at_run_cap(capsys, monkeypatch, flags):
    # (alpha epsilon)**2 underflows to 0 or the run count overflows to inf
    import dqc1.state
    calls = []
    _refuse_call(monkeypatch, dqc1.state, "philox_stream", calls)
    code, out, err = run_cli(capsys, "trace", "--random", "--n", "3", *flags)
    assert code == 2 and out == "" and calls == []
    assert err == ("error: estimator needs inf runs per observable; "
                   "the cap is 4611686018427387904\n")


def test_trace_huge_run_count_refused_in_one_short_line(capsys):
    # 2 ln(4/0.01)/1e-200 runs: a finite count of 200 digits, printed to 3
    code, out, err = run_cli(capsys, "trace", "--random", "--n", "3", "--epsilon", "1e-100")
    assert code == 2 and out == ""
    assert err == ("error: estimator needs 1.2e+201 runs per observable; "
                   "the cap is 4611686018427387904\n")
    assert len(err) < 100


def test_conflicting_sources_rejected(capsys):
    code, _, err = run_cli(capsys, "negativity", "--family", "--random", "--n", "3")
    assert code == 2 and "error:" in err


def test_config_file_defaults(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("alpha=0.5\nk=1\n")
    _, out, _ = run_cli(capsys, "--config", str(config), "negativity", "--family",
                        "--n", "3")
    row = out.strip().split("\n")[1].split(",")
    assert float(row[2]) == 0.5
    assert float(row[3]) == pytest.approx(1.0)  # alpha = 0.5 sits at the flat part
    # explicit flag beats the config value
    _, out, _ = run_cli(capsys, "--config", str(config), "negativity", "--family",
                        "--n", "3", "--alpha", "1")
    assert float(out.strip().split("\n")[1].split(",")[3]) == pytest.approx(1.25)


def test_config_casts_numbers_and_booleans(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("all_splits=true\nsamples=3\nseed=5\n")
    code, out, _ = run_cli(capsys, "--config", str(config), "sweep", "--nplus1", "4")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3  # all three splits of a 4-qubit register
    assert all(row.split(",")[2] == "3" and row.split(",")[5] == "5" for row in rows)

    bad = tmp_path / "bad.cfg"
    bad.write_text("samples=plenty\n")
    code, _, err = run_cli(capsys, "--config", str(bad), "sweep", "--nplus1", "4")
    assert code == 2 and err.startswith("error:")


def test_repeated_commands_in_one_process(capsys, tmp_path):
    circuit = tmp_path / "c.circ"
    save_circuit(circuit, GateCircuit(2, (H(0), T(0), CNOT(0, 1), H(1))))
    argvs = [("sweep", "--nplus1", "4", "--samples", "3", "--seed", "2"),
             ("bounds", "--kind", "s123", "--two-n", "8"),
             ("trace", "--pathsum", str(circuit), "--mode", "t_gate", "--exact"),
             ("negativity", "--random", "--n", "4", "--k", "2", "--seed", "3"),
             ("sweep", "--split", "half", "--bogus")]

    def one_pass():
        results = []
        for argv in argvs:
            try:
                results.append(run_cli(capsys, *argv))
            except SystemExit as exc:
                captured = capsys.readouterr()
                results.append((exc.code, captured.out, captured.err))
        return results

    first = one_pass()
    assert [rc for rc, _, _ in first] == [0, 0, 0, 0, 2]
    assert first[-1][2].startswith("usage: dqc1")
    assert one_pass() == first
