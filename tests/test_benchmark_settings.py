import importlib
import sys
from pathlib import Path

import dqc1.cli


class _SettingsPassed(Exception):
    pass


def test_benchmark_ops_give_only_settings_their_routes_read(monkeypatch, tmp_path, capsys):
    # every command the benchmark runs must pass the settings check; each one
    # stops right after it, so no unitary is built and no work is done
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    check = dqc1.cli._refuse_unread

    def stop_after_check(*args):
        check(*args)
        raise _SettingsPassed("settings check passed")

    monkeypatch.setattr(dqc1.cli, "_refuse_unread", stop_after_check)
    checked = 0
    for name, workload in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        for op in workload.make_inputs(1, workdir).ops:
            if op.argv[0] == "family-verify":
                continue  # one setting, read by its only route
            assert dqc1.cli.main(list(op.argv)) == 2, op.argv
            assert capsys.readouterr() == ("", "error: settings check passed\n"), op.argv
            checked += 1
    assert checked > 0
