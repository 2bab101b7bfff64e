"""Fractional powers of dyadic-order quantum transforms.

For a unitary U with U**(2**n) = I the package builds the interpolating
family FrU(alpha) = sum_k c_k(alpha) U**k both as a dense matrix and as an
ancilla circuit that applies it coherently and returns the ancillas to
|0...0>. Instantiated base operators: the Fourier transform (order 4), the
discrete Hartley transform, and the Type-I/IV cosine-sine blocks (all
involutions). A statevector simulator, circuit text export, and a
verification CLI round out the toolkit.
"""

from .base_transforms import (
    BaseTransform,
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
    make_transform,
    verify_order,
)
from .circuits import (
    Circuit,
    GateOp,
    circuit_unitary,
    increment_circuit,
    multiplexed_powers,
    phase_block,
    qct4_gate,
    qft_circuit,
)
from .errors import (
    DimensionError,
    ExportError,
    NotDyadicOrderError,
    QfrtError,
    QubitBudgetError,
)
from .fractional import (
    FractionalSpec,
    ShihCoefficients,
    build_qfrin_circuit,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
    shih_coefficients,
)
from .qasm import export_circuit, import_circuit
from .simulator import (
    TraceRecord,
    ancilla_restoration_probability,
    basis_state,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "BaseTransform",
    "Circuit",
    "DimensionError",
    "ExportError",
    "FractionalSpec",
    "GateOp",
    "NotDyadicOrderError",
    "QfrtError",
    "QubitBudgetError",
    "ShihCoefficients",
    "TraceRecord",
    "ancilla_restoration_probability",
    "basis_state",
    "build_qfrin_circuit",
    "build_qfru_circuit",
    "circuit_unitary",
    "cst1_transform",
    "cst4_transform",
    "export_circuit",
    "extract_data_block",
    "fourier_transform",
    "fractional_oracle",
    "hartley_transform",
    "import_circuit",
    "increment_circuit",
    "make_transform",
    "multiplexed_powers",
    "phase_block",
    "qct4_gate",
    "qft_circuit",
    "run",
    "shih_coefficients",
    "verify_order",
]
