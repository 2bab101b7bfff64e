"""The benchmark's tracer (``bench/tracer.py``) rebinds qfrt functions by
module and attribute name; a rename under ``src/`` must fail here, not only
in a traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import qfrt
import qfrt.cli

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses looks it up
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TRACED
        if not callable(getattr(getattr(qfrt, module, None), attr, None))
    ]
    assert missing == []
