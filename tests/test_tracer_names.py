import importlib
from pathlib import Path


def test_traced_names_resolve(monkeypatch):
    # the benchmark's traced run looks each (module, function) up by name, so a
    # name gone from the package would crash `perfbench/run.py --trace 1`
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    assert tracer.TRACED
    for module, name in tracer.TRACED:
        assert callable(getattr(importlib.import_module(f"dqc1.{module}"), name, None)), \
            f"dqc1.{module}.{name}"
