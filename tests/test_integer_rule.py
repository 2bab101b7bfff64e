"""One integer rule, ``linalg.check_int``, for every size, wire, index and
exponent an entry point takes: a numpy integer is one, a float, a bool or a
string is not, and a value outside its range is refused too, each by a
``DimensionError`` that names the argument and shows its repr. Also what
``apply`` and ``power_sum`` accept, the one numeric-array rule,
``linalg.check_numbers``, and ``FractionalSpec``'s fields."""
import re

import numpy as np
import pytest

from helpers import random_state
from qfrt import linalg, qasm
from qfrt.base_transforms import (
    BaseTransform,
    cst1_transform,
    cst4_transform,
    fourier_transform,
    hartley_transform,
    make_transform,
)
from qfrt.circuits import (
    Circuit,
    GateOp,
    circuit_unitary,
    increment_circuit,
    phase_block,
    qct4_gate,
    qft_circuit,
)
from qfrt.errors import DimensionError, QfrtError
from qfrt.fractional import (
    FractionalSpec,
    build_qfru_circuit,
    column_blocks,
    extract_data_block,
    fractional_apply,
    fractional_oracle,
    shih_coefficients,
    unitarity_bound,
)
from qfrt.simulator import ancilla_restoration_probability, basis_state, format_state, run


class TestCheckInt:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3), np.uint16(3)])
    def test_returns_a_python_int(self, value):
        got = linalg.check_int("size", value, 1, 3)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize(
        "value,low,high,message",
        [(2.5, 1, None, "size must be an integer >= 1, got 2.5"),
         (True, 0, None, "size must be an integer >= 0, got True"),
         (np.bool_(False), None, None, "size must be an integer, got np.False_"),
         ("2", None, None, "size must be an integer, got '2'"),
         (None, 1, 4, "size must be an integer in 1..4, got None"),
         (0, 1, 4, "size must be an integer in 1..4, got 0"),
         (5, 1, 4, "size must be an integer in 1..4, got 5"),
         (-1, 0, None, "size must be an integer >= 0, got -1")],
    )
    def test_message_names_the_argument_and_its_bound(self, value, low, high, message):
        with pytest.raises(DimensionError) as info:
            linalg.check_int("size", value, low, high)
        assert str(info.value) == message
        assert isinstance(info.value, QfrtError) and isinstance(info.value, ValueError)


_EIGHT = np.eye(8)


# (id, call with the value under test, the argument's name in the message,
#  a good value, a value of the right type outside the range or None).
ENTRY_POINTS = [
    ("fourier_transform", fourier_transform, "q", 2, 0),
    ("hartley_transform", hartley_transform, "q", 2, -1),
    ("cst1_transform", cst1_transform, "n", 1, 0),
    ("cst4_transform", cst4_transform, "n", 1, 0),
    ("make_transform_fourier", lambda v: make_transform("fourier", v), "q", 1, 0),
    ("make_transform_cst4", lambda v: make_transform("cst4", v), "n", 1, 0),
    ("BaseTransform_data_qubits", lambda v: BaseTransform("t", v, 1, np.eye(2)),
     "'t': data_qubits", 1, 0),
    ("BaseTransform_order_exponent", lambda v: BaseTransform("t", 1, v, np.eye(2)),
     "'t': order_exponent", 1, 0),
    ("power", lambda v: fourier_transform(2).power(v), "power of 'fourier'", 1, 4),
    ("apply", lambda v: fourier_transform(2).apply(np.ones((4, 1), complex), v), "k", 1, None),
    ("GateOp_target", lambda v: GateOp("h", targets=(v,)), "targets[0]", 1, -1),
    ("GateOp_control", lambda v: GateOp("x", targets=(0,), controls=(2, v)),
     "controls[1]", 1, -2),
    ("GateOp_power", lambda v: GateOp("unitary", targets=(0, 1), power=(fourier_transform(2), v)),
     "power of 'fourier'", 1, 4),
    ("Circuit", Circuit, "num_qubits", 2, 0),
    ("phase_block", lambda v: phase_block(v, 0.3), "n", 2, 0),
    ("qft_circuit", qft_circuit, "n", 2, 0),
    ("increment_circuit", increment_circuit, "n", 2, 0),
    ("circuit_unitary", lambda v: circuit_unitary(qft_circuit(2), columns=v), "columns", 2, 5),
    ("basis_state_num_qubits", basis_state, "num_qubits", 2, -1),
    ("basis_state_index", lambda v: basis_state(2, v), "index", 1, 4),
    ("ancilla_restoration_probability",
     lambda v: ancilla_restoration_probability(basis_state(3), v), "num_ancillas", 1, 4),
    ("extract_data_block_num_ancillas", lambda v: extract_data_block(_EIGHT, v, 2),
     "num_ancillas", 1, -1),
    ("extract_data_block_data_qubits", lambda v: extract_data_block(_EIGHT, 1, v),
     "data_qubits", 2, -1),
    ("shih_coefficients", lambda v: shih_coefficients(v, 0.3), "order", 4, 1),
    ("column_blocks", column_blocks, "n", 4, 0),
    ("qct4_gate_level", lambda v: qct4_gate("l", v, 2), "j", 1, 3),
    ("qct4_gate_n", lambda v: qct4_gate("c", n=v), "n", 2, 0),
    ("matrix_power", lambda v: linalg.matrix_power(np.eye(2), v), "k", 2, None),
]


def _bad_values(good, out_of_range):
    """A float equal to the good value, one half past it, a bool, a string
    and, where the argument has a range, a value outside it."""
    bad = [float(good), good + 0.5, True, str(good)]
    return bad if out_of_range is None else bad + [out_of_range]


REJECTIONS = [
    pytest.param(call, name, bad, id=f"{entry}-{bad!r}")
    for entry, call, name, good, out_of_range in ENTRY_POINTS
    for bad in _bad_values(good, out_of_range)
]


@pytest.mark.parametrize("call,name,bad", REJECTIONS)
def test_entry_point_rejects_what_is_no_integer_in_its_range(call, name, bad):
    bound = r"(, got | >= -?\d+, got | in -?\d+\.\.\d+, got )"
    with pytest.raises(DimensionError,
                       match=re.escape(name) + " must be an integer" + bound
                       + re.escape(repr(bad)) + "$"):
        call(bad)


@pytest.mark.parametrize("call,good", [pytest.param(call, good, id=entry)
                                       for entry, call, _, good, _ in ENTRY_POINTS])
def test_entry_point_accepts_a_numpy_integer(call, good):
    assert call(np.int64(good)) is not None


@pytest.mark.parametrize(
    "call,name",
    [(lambda: fourier_transform(2).power(1.5), "power of 'fourier'"),
     (lambda: fourier_transform(2).apply(np.ones((4, 1), complex), 1.5), "k"),
     (lambda: basis_state(2, True), "index"),
     (lambda: fourier_transform(2.5), "q"),
     (lambda: cst4_transform(1.5), "n"),
     (lambda: qct4_gate("l", 1.5, 2), "j"),
     (lambda: shih_coefficients(4.0, 0.3), "order"),
     (lambda: extract_data_block(_EIGHT, 1.5, 1.5), "num_ancillas")],
    ids=["power", "apply", "basis_state", "fourier_transform", "cst4_transform", "qct4_gate",
         "shih_coefficients", "extract_data_block"],
)
def test_a_float_or_bool_is_never_read_as_an_integer(call, name):
    # Each of these once returned a wrong result or died inside numpy or <<.
    with pytest.raises(DimensionError, match=f"^{re.escape(name)} must be an integer"):
        call()


BUILDERS = [fourier_transform(3), hartley_transform(3), cst1_transform(2), cst4_transform(2)]


@pytest.mark.parametrize("t", BUILDERS, ids=[t.id for t in BUILDERS])
@pytest.mark.parametrize("shift", ["zero", "order", "minus_one", "minus_order_minus_one"])
def test_apply_reduces_any_exponent_mod_the_order(t, shift):
    k = {"zero": 0, "order": t.order, "minus_one": -1,
         "minus_order_minus_one": -t.order - 1}[shift]
    rng = np.random.default_rng(7)
    x = np.stack([random_state(t.data_qubits, rng) for _ in range(3)], axis=1)
    got = t.apply(x, k)
    assert got.shape == x.shape and got is not x
    assert linalg.max_norm_diff(got, t.power(k % t.order) @ x) <= 1e-12


@pytest.mark.parametrize("t", BUILDERS, ids=[t.id for t in BUILDERS])
def test_apply_reads_a_real_block_as_complex(t):
    # The real kernels read x's float64 view: a real x must be cast first.
    x = np.arange(2 << t.data_qubits).reshape(-1, 2) - 3.0
    assert linalg.max_norm_diff(t.apply(x, 1), t.dense @ x) <= 1e-12


@pytest.mark.parametrize("t", [fourier_transform(2), hartley_transform(2),
                               BaseTransform("hand", 2, 1, hartley_transform(2).dense)],
                         ids=["fourier", "hartley", "hand_built"])
@pytest.mark.parametrize("shape", [(3, 1), (8, 1), (4,), (1, 4, 1), "strings", "objects"])
def test_apply_takes_only_a_block_with_one_row_per_basis_state(t, shape):
    if isinstance(shape, str):  # numbers of the right shape, but not of a numeric dtype
        x = np.full((4, 1), "1") if shape == "strings" else np.ones((4, 1), object)
        for name, call in (("apply", lambda: t.apply(x, 1)),
                           ("apply_sum", lambda: t.apply_sum(np.ones(t.order), x))):
            with pytest.raises(QfrtError, match=rf"^'{t.id}': {name} needs a numeric block x, "
                                                rf"got dtype {re.escape(str(x.dtype))}$"):
                call()
        return
    with pytest.raises(DimensionError, match=rf"^'{t.id}': apply needs a \(4, cols\) block, "
                                             rf"got shape {re.escape(str(shape))}$"):
        t.apply(np.ones(shape, complex), 1)


@pytest.mark.parametrize("t", [fourier_transform(2), hartley_transform(2),
                               BaseTransform("hand", 2, 2, fourier_transform(2).dense)],
                         ids=["fourier", "hartley", "hand_built"])
@pytest.mark.parametrize("shape", ["one_short", "one_over", "a_column", "strings", "objects"])
def test_power_sum_takes_exactly_order_weights(t, shape):
    if shape in ("strings", "objects"):  # order entries, but not of a numeric dtype
        w = ["a"] * t.order if shape == "strings" else np.eye(t.order, dtype=object)[0]
        dtype = re.escape(str(np.asarray(w).dtype))
        for name, call in (("power_sum", lambda: t.power_sum(w)),
                           ("apply_sum", lambda: t.apply_sum(w, np.eye(4, 1)))):
            with pytest.raises(QfrtError, match=rf"^'{t.id}': {name} needs numeric weights, "
                                                rf"got dtype {dtype}$"):
                call()
        return
    shape = {"one_short": (t.order - 1,), "one_over": (t.order + 1,),
             "a_column": (t.order, 1)}[shape]
    with pytest.raises(DimensionError, match=rf"^'{t.id}': power_sum needs {t.order} weights, "
                                             rf"got shape {re.escape(str(shape))}$"):
        t.power_sum(np.ones(shape))


# (id, call with the array under test, the message before ", got dtype", its shape).
NUMERIC_ENTRY_POINTS = [
    ("kernel", lambda v: BaseTransform("bad", 1, 1, v),
     "'bad': kernel entries must be finite numbers", (2, 2)),
    ("power_sum", fourier_transform(1).power_sum,
     "'fourier': power_sum needs numeric weights", (4,)),
    ("apply", lambda v: fourier_transform(2).apply(v, 1),
     "'fourier': apply needs a numeric block x", (4, 1)),
    ("as_matrix", linalg.as_matrix, "matrix entries must be numbers", (2, 2)),
    ("GateOp", lambda v: GateOp("unitary", (0,), matrix=v), "matrix entries must be numbers",
     (2, 2)),
    ("unitarity_bound", lambda v: unitarity_bound(FractionalSpec(hartley_transform(1), 0.3), v),
     "matrix entries must be numbers", (2, 2)),
    ("format_matrix", linalg.format_matrix, "matrix entries must be numbers", (2, 2)),
    ("run", lambda v: run(qft_circuit(2), v), "run needs a numeric state", (4,)),
    ("format_state", format_state, "format_state needs a numeric state", (4,)),
    ("ancilla_restoration_probability", lambda v: ancilla_restoration_probability(v, 1),
     "ancilla_restoration_probability needs a numeric state", (4,)),
    ("extract_data_block", lambda v: extract_data_block(v, 1, 1),
     "extract_data_block needs a numeric matrix or block", (4, 4)),
]


def _not_numbers(kind, shape):
    """Strings, strings that read as numbers, or objects, the last one None."""
    if kind == "objects":
        a = np.ones(shape, dtype=object)
        a.flat[-1] = None
        return a
    return np.full(shape, "a" if kind == "strings" else "1")


@pytest.mark.parametrize("kind", ["strings", "numeric_strings", "objects"])
@pytest.mark.parametrize("call,message,shape",
                         [pytest.param(call, message, shape, id=entry)
                          for entry, call, message, shape in NUMERIC_ENTRY_POINTS])
def test_entry_point_refuses_an_array_that_is_not_numbers(call, message, shape, kind):
    # Once numeric strings went through, objects slipped past, and strings
    # failed with numpy's text, where they failed at all.
    value = _not_numbers(kind, shape)
    with pytest.raises(QfrtError, match=f"^{re.escape(message)}, got dtype "
                                        f"{re.escape(str(value.dtype))}$"):
        call(value)


#: (entry, call, message): one argument of the wrong kind per call.
WRONG_KIND = [
    ("import_circuit", lambda: qasm.import_circuit(123), "text must be a str, got int"),
    ("export_circuit", lambda: qasm.export_circuit("x"), "c must be a Circuit, got str"),
    ("circuit_ops", lambda: Circuit(2, None), "ops must be a Sequence, got NoneType"),
    ("circuit_marks", lambda: Circuit(2, (), None), "marks must be a Sequence, got NoneType"),
    ("one_element_mark", lambda: Circuit(1, (GateOp("h", (0,)),), (("psi0",),)),
     "marks[0] must be a (label, index) pair, got ('psi0',)"),
    ("mark_not_a_pair", lambda: Circuit(1, (), (("psi0", 0), 0)),
     "marks[1] must be a (label, index) pair, got 0"),
    ("run", lambda: run("x", basis_state(1)), "circuit must be a Circuit, got str"),
    ("circuit_unitary", lambda: circuit_unitary("x"), "c must be a Circuit, got str"),
    ("fractional_oracle", lambda: fractional_oracle("x"), "spec must be a FractionalSpec, got str"),
    ("fractional_apply", lambda: fractional_apply("x", np.eye(2)),
     "spec must be a FractionalSpec, got str"),
    ("unitarity_bound", lambda: unitarity_bound("x", np.eye(2)),
     "spec must be a FractionalSpec, got str"),
    ("build_qfru_circuit", lambda: build_qfru_circuit("x"),
     "spec must be a FractionalSpec, got str"),
    ("qct4_gate", lambda: qct4_gate(5), "name must be a str, got int"),
    ("gate_targets_none", lambda: GateOp("h", None), "targets must be a Sequence, got NoneType"),
    ("gate_targets_int", lambda: GateOp("h", 0), "targets must be a Sequence, got int"),
    ("gate_controls_int", lambda: GateOp("x", (0,), 1), "controls must be a Sequence, got int"),
    ("gate_params_float", lambda: GateOp("p", (0,), params=0.3),
     "params must be a Sequence, got float"),
    ("transform_id", lambda: BaseTransform(5, 1, 1, np.eye(2)), "id must be a str, got int"),
]


@pytest.mark.parametrize("call,message", [pytest.param(call, message, id=entry)
                                          for entry, call, message in WRONG_KIND])
def test_entry_point_names_an_argument_of_the_wrong_kind(call, message):
    # Each once failed inside the function, with an AttributeError, a
    # TypeError or a bare unpacking ValueError that named no argument.
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_check_numbers_returns_a_numeric_array_as_it_is():
    for value in (np.arange(3), np.ones(2, bool), np.eye(2, dtype=np.float32), [1j, 2]):
        got = linalg.check_numbers("x", value)
        assert got.dtype == np.asarray(value).dtype
        assert got is value or not isinstance(value, np.ndarray)


class TestFractionalSpecFields:
    def test_base_must_be_a_transform(self):
        with pytest.raises(ValueError, match="^base must be a BaseTransform, got ndarray$"):
            FractionalSpec(np.eye(4), 0.3)

    @pytest.mark.parametrize("alpha", ["0.3", 0.3j, None, [0.3], True, np.True_])
    def test_alpha_must_be_a_real_number(self, alpha):
        with pytest.raises(ValueError,
                           match=f"^alpha must be a real number, got {re.escape(repr(alpha))}$"):
            FractionalSpec(hartley_transform(1), alpha)

    @pytest.mark.parametrize("alpha", [np.float32(0.25), np.int64(3), 0.3, 2])
    def test_any_real_alpha_is_taken(self, alpha):
        assert FractionalSpec(hartley_transform(1), alpha).alpha == alpha

    @pytest.mark.parametrize("alpha", [float("inf"), float("-inf"), float("nan"),
                                       np.float64(np.inf)])
    def test_alpha_must_be_finite(self, alpha):
        message = f"^alpha must be finite, got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=message):
            FractionalSpec(hartley_transform(1), alpha)

    def test_shih_coefficients_check_alpha_too(self):
        with pytest.raises(ValueError, match="^alpha must be a real number, got '0.3'$"):
            shih_coefficients(4, "0.3")

    def test_phase_block_checks_alpha_too(self):
        # Once a TypeError, and a ValueError about "phase gate 'p'".
        with pytest.raises(ValueError, match="^alpha must be a real number, got 'a'$"):
            phase_block(2, "a")
        with pytest.raises(ValueError, match="^alpha must be finite, got inf$"):
            phase_block(2, float("inf"))
