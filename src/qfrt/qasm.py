"""Circuit text export and import (an OpenQASM-3-style dialect).

Named gates use their standard mnemonics (``h``, ``x``, ``p(angle)``,
``swap``, ...); controls are written with the ``ctrl(k) @`` prefix, the
control qubits listed before the targets. Two nonstandard statements are
part of the dialect:

* the extra library gates ``r``, ``b`` and ``bdag``;
* ``unitary { re,im re,im ... } q[i], q[j];`` for dense payloads of at most
  two target qubits (row-major entries, 17 significant digits).

Matrix payloads wider than two qubits cannot be expressed; exporting such a
circuit fails with a diagnostic listing the offending ops.
"""
from __future__ import annotations

import re

import numpy as np

from .circuits import Circuit, GateOp
from .errors import ExportError

_HEADER = ['OPENQASM 3.0;', 'include "stdgates.inc";']

_STMT_RE = re.compile(
    r"^(?:ctrl(?:\((\d+)\))?\s*@\s*)?"  # optional control prefix
    r"([a-z]+)"                          # mnemonic
    r"(?:\(([^()]*)\))?"                 # optional parameter list
    r"(?:\s*\{([^{}]*)\})?"              # optional matrix payload
    r"\s*((?:q\[\d+\]\s*,?\s*)+);$"
)
_QUBIT_RE = re.compile(r"q\[(\d+)\]")
_DECL_RE = re.compile(r"^qubit\[(\d+)\]\s+q;$")


def export_circuit(c: Circuit) -> str:
    """Render a circuit in the text dialect."""
    wide = [
        (i, op) for i, op in enumerate(c.ops)
        if op.name == "unitary" and len(op.targets) > 2
    ]
    if wide:
        detail = "; ".join(
            f"op {i}: unitary on {len(op.targets)} qubits {op.targets}"
            for i, op in wide
        )
        raise ExportError(
            "matrix gates wider than 2 qubits cannot be exported: " + detail
        )
    lines = list(_HEADER)
    lines.append(f"qubit[{c.num_qubits}] q;")
    for op in c.ops:
        prefix = ""
        if len(op.controls) == 1:
            prefix = "ctrl @ "
        elif len(op.controls) > 1:
            prefix = f"ctrl({len(op.controls)}) @ "
        stmt = op.name
        if op.name == "p":
            stmt += f"({op.params[0]:.17g})"
        elif op.name == "unitary":
            entries = " ".join(
                f"{v.real:.17g},{v.imag:.17g}" for v in op.matrix.ravel()
            )
            stmt += " { " + entries + " }"
        qubits = ", ".join(f"q[{w}]" for w in (*op.controls, *op.targets))
        lines.append(f"{prefix}{stmt} {qubits};")
    return "\n".join(lines) + "\n"


def _parse_op(line: str, num_qubits: int | None) -> GateOp:
    m = _STMT_RE.match(line)
    if m is None:
        raise ValueError(f"cannot parse {line!r}")
    if num_qubits is None:
        raise ValueError("gate before the qubit declaration")
    ctrl_count, name, params_str, payload, qubit_list = m.groups()
    num_controls = 0
    if m.group(0).startswith("ctrl"):
        num_controls = int(ctrl_count) if ctrl_count else 1
    wires = [int(w) for w in _QUBIT_RE.findall(qubit_list)]
    if max(wires) >= num_qubits:
        raise ValueError(f"q[{max(wires)}] is outside the {num_qubits}-qubit register")
    controls = tuple(wires[:num_controls])
    targets = tuple(wires[num_controls:])
    params = ()
    if params_str is not None:
        params = tuple(float(tok) for tok in params_str.split(","))
    matrix = None
    if payload is not None:
        if name != "unitary":
            raise ValueError("only 'unitary' carries a payload")
        entries = payload.split()
        for tok in entries:
            if tok.count(",") != 1:
                raise ValueError(f"payload entry {tok!r} is not re,im")
        flat = np.array([complex(*map(float, tok.split(","))) for tok in entries])
        dim = 1 << len(targets)
        if flat.size != dim * dim:
            raise ValueError(f"payload has {flat.size} entries, expected {dim * dim}")
        matrix = flat.reshape(dim, dim)
    return GateOp(name, targets=targets, controls=controls, params=params, matrix=matrix)


def import_circuit(text: str) -> Circuit:
    """Parse the text dialect back into a circuit; every error in a statement
    is a ValueError that starts with ``line N:``."""
    num_qubits = None
    ops = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line or line.startswith(("OPENQASM", "include")):
            continue
        decl = _DECL_RE.match(line)
        if decl:
            if int(decl.group(1)) < 1:
                raise ValueError(f"line {lineno}: the register needs at least one qubit")
            if num_qubits is not None:
                raise ValueError(
                    f"line {lineno}: second qubit declaration; the register is "
                    f"already declared as qubit[{num_qubits}] q"
                )
            num_qubits = int(decl.group(1))
            continue
        try:
            ops.append(_parse_op(line, num_qubits))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if num_qubits is None:
        raise ValueError("missing qubit declaration")
    return Circuit(num_qubits, tuple(ops))
