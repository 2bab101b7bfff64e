"""The benchmark's tracer (``bench/tracer.py``) rebinds qfrt functions by
module and attribute name and computes counts from the circuits they take;
a rename or a new payload form under ``src/`` must fail here, not only in a
traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

import qfrt
import qfrt.cli
from qfrt.base_transforms import make_transform
from qfrt.fractional import FractionalSpec, build_qfrin_circuit, build_qfru_circuit

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses looks it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    assert tracer.TRACED
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.TRACED
        if not callable(getattr(getattr(qfrt, module, None), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("transform_id", ["fourier", "hartley", "cst1", "cst4"])
def test_computed_counts_read_every_circuit(tracer, transform_id):
    t = make_transform(transform_id, 1)
    circuits = [build_qfru_circuit(FractionalSpec(t, 0.3))]
    if t.order == 2:
        circuits.append(build_qfrin_circuit(t, 0.3))
    for circuit in circuits:
        payload_bytes = sum(op.matrix.nbytes for op in circuit.ops if op.name == "unitary")
        assert payload_bytes > 0
        for name, (keys, counts) in tracer.COMPUTED.items():
            if name == "qasm.export_circuit":
                got = counts((circuit,), qfrt.qasm.export_circuit(circuit))
                assert got["bytes"] > 0
                continue
            got = counts((circuit,), None)
            assert set(got) == set(keys)
            assert got["gates"] == len(circuit.ops)
            if "payload_bytes" in got:
                assert got["payload_bytes"] == payload_bytes
