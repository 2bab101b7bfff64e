import numpy as np
import pytest

from helpers import random_circuit
from qfrt import linalg
from qfrt.base_transforms import hartley_transform
from qfrt.circuits import Circuit, GateOp, circuit_unitary, increment_circuit, qft_circuit
from qfrt.errors import ExportError
from qfrt.fractional import build_qfrin_circuit
from qfrt.qasm import export_circuit, import_circuit


@pytest.mark.parametrize(
    "circuit",
    [
        qft_circuit(3),
        qft_circuit(2, inverse=True),
        increment_circuit(3),
        build_qfrin_circuit(hartley_transform(1), 0.5),
        build_qfrin_circuit(hartley_transform(2), 1.7),
    ],
    ids=["qft3", "iqft2", "inc3", "qfrin_h1", "qfrin_h2"],
)
def test_round_trip_preserves_unitary(circuit):
    text = export_circuit(circuit)
    rebuilt = import_circuit(text)
    assert rebuilt.num_qubits == circuit.num_qubits
    assert linalg.max_norm_diff(circuit_unitary(rebuilt), circuit_unitary(circuit)) <= 1e-12


def test_round_trip_is_textually_stable():
    text = export_circuit(build_qfrin_circuit(hartley_transform(2), 0.3))
    assert export_circuit(import_circuit(text)) == text


def test_header_and_statement_shape():
    text = export_circuit(Circuit(2, (GateOp("x", targets=(0,), controls=(1,)),)))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert lines[2] == "qubit[2] q;"
    assert lines[3] == "ctrl @ x q[1], q[0];"


def test_multi_control_prefix():
    text = export_circuit(increment_circuit(3))
    assert "ctrl(2) @ x q[0], q[1], q[2];" in text


def test_random_circuits_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = random_circuit(4, 25, rng)
        rebuilt = import_circuit(export_circuit(c))
        assert linalg.max_norm_diff(circuit_unitary(rebuilt), circuit_unitary(c)) <= 1e-12


def test_wide_matrix_gate_rejected_with_diagnostic():
    op = GateOp("unitary", targets=(0, 1, 2), matrix=hartley_transform(3).dense)
    with pytest.raises(ExportError, match=r"op 0: unitary on 3 qubits"):
        export_circuit(Circuit(3, (op,)))


def test_import_rejects_garbage_line():
    with pytest.raises(ValueError, match="line 2"):
        import_circuit("qubit[2] q;\nfrobnicate q[0];;\n")


def test_import_requires_declaration():
    with pytest.raises(ValueError):
        import_circuit("h q[0];\n")


def test_import_checks_payload_entry_count():
    text = "qubit[1] q;\nunitary { 1,0 0,0 0,0 } q[0];\n"
    with pytest.raises(ValueError, match="payload"):
        import_circuit(text)


def test_import_rejects_non_unitary_payload():
    text = "qubit[1] q;\nunitary { 1,0 1,0 0,0 1,0 } q[0];\n"
    with pytest.raises(ValueError, match="not unitary"):
        import_circuit(text)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_import_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="'p' needs one finite angle"):
        import_circuit(f"qubit[1] q;\np({angle}) q[0];\n")


@pytest.mark.parametrize(
    "statement,message",
    [("p(nan) q[0];", "'p' needs one finite angle"),
     ("frob q[0];", "unknown gate name 'frob'"),
     ("swap q[0];", "'swap' needs 2 targets, got 1"),
     ("unitary { 1,0 1,0 0,0 1,0 } q[1];", "not unitary")],
    ids=["nan_angle", "unknown_mnemonic", "target_count", "non_unitary"],
)
def test_import_gate_errors_name_the_line(statement, message):
    text = f"qubit[2] q;\nh q[0];\n{statement}\n"
    with pytest.raises(ValueError, match=rf"^line 3: .*{message}"):
        import_circuit(text)


@pytest.mark.parametrize(
    "statement,message",
    [("p(abc) q[0];", "could not convert string to float: 'abc'"),
     ("unitary { 1 0,0 0,0 1,0 } q[0];", "payload entry '1' is not re,im$"),
     ("h q[5];", r"q\[5\] is outside the 2-qubit register"),
     ("qubit[0] q;", "the register needs at least one qubit$"),
     ("unitary { 1,0,0 0,0 0,0 1,0 } q[0];", "payload entry '1,0,0' is not re,im$")],
    ids=["bad_angle", "payload_token_without_comma", "qubit_out_of_range", "empty_register",
         "payload_token_with_two_commas"],
)
def test_import_statement_errors_name_the_line(statement, message):
    text = f"qubit[2] q;\nh q[0];\n{statement}\n"
    with pytest.raises(ValueError, match=rf"^line 3: {message}"):
        import_circuit(text)


@pytest.mark.parametrize(
    "statements",
    [["qubit[2] q;", "h q[0];", "qubit[8] q;", "h q[7];"],
     ["qubit[2] q;", "h q[1];", "qubit[1] q;"]],
    ids=["grow", "shrink"],
)
def test_import_rejects_second_declaration(statements):
    with pytest.raises(ValueError, match=r"^line 3: second qubit declaration; "
                                         r"the register is already declared as qubit\[2\] q"):
        import_circuit("\n".join(statements) + "\n")


def test_import_rejects_a_payload_on_a_named_gate():
    with pytest.raises(ValueError, match=r"^line 2: only 'unitary' carries a payload$"):
        import_circuit("qubit[1] q;\nh { 1,0 } q[0];\n")


@pytest.mark.parametrize("text", ["", "OPENQASM 3.0;\ninclude \"stdgates.inc\";\n// none\n"],
                         ids=["empty", "header_only"])
def test_import_needs_a_qubit_declaration(text):
    with pytest.raises(ValueError, match="^missing qubit declaration$"):
        import_circuit(text)


def test_import_ignores_comments_and_blanks():
    text = "qubit[1] q;\n\n// a comment\nh q[0]; // trailing\n"
    c = import_circuit(text)
    assert len(c.ops) == 1 and c.ops[0].name == "h"
