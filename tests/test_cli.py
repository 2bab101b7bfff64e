import functools
import re
import tracemalloc

import numpy as np
import pytest

from helpers import closed_form, count_cached, count_calls, dft_matrix, parse_matrix
from qfrt import cli, fractional, linalg, simulator
from qfrt.base_transforms import (
    EIGEN_RESIDUE_TOL,
    GATE_TOL,
    BaseTransform,
    fourier_transform,
    hartley_transform,
    make_transform,
)
from qfrt.cli import main
from qfrt.circuits import Circuit, GateOp, circuit_unitary
from qfrt.fractional import (
    FractionalSpec,
    build_qfru_circuit,
    extract_data_block,
    fractional_oracle,
)
from qfrt.qasm import import_circuit


def read(path):
    return path.read_text(encoding="utf-8")


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def argparse_refuses(argv, capsys):
    """The last stderr line of an argv that argparse refuses with exit 2
    (``SystemExit``), having written nothing to stdout."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    return captured.err.splitlines()[-1]


class TestDump:
    def test_base_matrix(self, tmp_path, capsys):
        out = tmp_path / "dht.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "2",
                     "--out", str(out)]) == 0
        got = parse_matrix(read(out))
        expected = 0.5 * np.array(
            [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]
        )
        assert linalg.max_norm_diff(got, expected) <= 1e-14

    def test_fourier_two_qubits(self, tmp_path):
        out = tmp_path / "f2.txt"
        assert main(["dump", "--transform", "fourier", "--qubits", "2",
                     "--out", str(out)]) == 0
        expected = 0.5 * np.array(
            [[1, 1, 1, 1], [1, -1j, -1, 1j], [1, -1, 1, -1], [1, 1j, -1, -1j]]
        )
        assert linalg.max_norm_diff(parse_matrix(read(out)), expected) <= 1e-12

    def test_alpha_zero_oracle_is_identity(self, tmp_path):
        out = tmp_path / "id.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "2",
                     "--alpha", "0", "--out", str(out)]) == 0
        got = parse_matrix(read(out))
        assert linalg.max_norm_diff(got, np.eye(4)) <= 1e-13

    def test_circuit_unitary_payload(self, tmp_path):
        out = tmp_path / "u.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--circuit-unitary", "--out", str(out)]) == 0
        got = parse_matrix(read(out))
        assert got.shape == (4, 4)
        oracle = fractional_oracle(FractionalSpec(hartley_transform(1), 0.5))
        assert linalg.max_norm_diff(got[:2, :2], oracle) <= 1e-10

    def test_state_text(self, tmp_path):
        out = tmp_path / "state.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--format", "state-text",
                     "--out", str(out)]) == 0
        lines = read(out).strip().splitlines()
        assert all(len(ln.split()) == 2 for ln in lines)
        full_out = tmp_path / "state_full.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--format", "state-text", "--full",
                     "--out", str(full_out)]) == 0
        assert len(read(full_out).strip().splitlines()) == 4

    def test_cst4_selector_blocks(self, tmp_path):
        blocks = closed_form("cst4", 2)
        for selector, expected in (("cos", blocks[:4, :4]), ("sin", blocks[4:, 4:])):
            out = tmp_path / f"{selector}.txt"
            assert main(["dump", "--transform", "cst4", "--n", "2",
                         "--cst4-selector", selector, "--out", str(out)]) == 0
            assert linalg.max_norm_diff(parse_matrix(read(out)), expected) <= 1e-14

    @pytest.mark.parametrize("qubits,extra", [
        (8, []), (8, ["--alpha", "0.37"]),
        (6, ["--alpha", "0.37", "--circuit-unitary"]),  # 8 qubits with its 2 ancillas
    ], ids=["kernel", "alpha", "circuit-unitary"])
    def test_dump_holds_one_row_of_text_at_a_time(self, qubits, extra, tmp_path):
        # Each matrix is 256 x 256 complex, 1 MiB, and its text ~2.5 MB, so a
        # peak under 3x the matrix means the text is never held whole.
        out = tmp_path / "m.txt"
        tracemalloc.start()
        try:
            assert main(["dump", "--transform", "fourier", "--qubits", str(qubits), *extra,
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, cols = map(int, read(out).splitlines()[0].split())
        assert (rows, cols) == (256, 256)
        assert peak < 3 * rows * cols * 16

    def test_selector_needs_cst4(self, capsys):
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--cst4-selector", "cos"]) == 2
        assert "cst4" in capsys.readouterr().err

    def test_missing_size_flag(self, capsys):
        assert main(["dump", "--transform", "hartley"]) == 2
        assert "--qubits" in capsys.readouterr().err

    def test_unknown_transform_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["dump", "--transform", "dct2", "--qubits", "1"])

    def test_budget_exceeded(self, monkeypatch, capsys):
        monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
        assert main(["dump", "--transform", "hartley", "--qubits", "3",
                     "--alpha", "0.5", "--circuit-unitary"]) == 2
        assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "unitarity", "--transform", "fourier", "--qubits", "2",
         "--alpha", "nan"],
        ["dump", "--transform", "hartley", "--qubits", "1", "--alpha", "inf"],
        ["export", "--transform", "hartley", "--qubits", "1", "--alpha=-inf",
         "--kind", "qfrin"],
    ],
    ids=["verify_nan", "dump_inf", "export_qfrin_neg_inf"],
)
def test_non_finite_alpha_is_one_error_line(argv, capsys, recwarn):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --alpha must be finite, got ")
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "command",
    [["sweep"], ["verify", "--suite", "unitarity"]],
    ids=["sweep", "verify"],
)
@pytest.mark.parametrize(
    "alpha_range,reason",
    # At 1e16 the float spacing is 2, so START + 1 rounds back to START.
    [("0,inf,1", "finite"), ("nan,1,1", "finite"), ("0,1e12,1e-6", "rows"),
     ("1e16,1.0000000000000004e16,1", "float spacing")],
    ids=["inf_stop", "nan_start", "huge_count", "repeats"],
)
def test_bad_alpha_range_is_one_error_line(command, alpha_range, reason, capsys, recwarn):
    argv = command + ["--transform", "hartley", "--qubits", "1",
                      f"--alpha-range={alpha_range}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --alpha-range")
    assert reason in lines[0]
    assert len(recwarn) == 0


@pytest.mark.parametrize("alpha_range", ["0,1", "0,1,0.5,2", "0,x,1", ""],
                         ids=["two_fields", "four_fields", "not_a_number", "empty"])
def test_malformed_alpha_range_names_the_expected_form(alpha_range, capsys):
    assert main(["sweep", "--transform", "hartley", "--qubits", "1",
                 f"--alpha-range={alpha_range}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: bad --alpha-range {alpha_range!r}; expected START,STOP,STEP"]


@pytest.mark.parametrize("command", [["verify", "--suite", "unitarity"], ["sweep"]],
                         ids=["verify", "sweep"])
def test_empty_alpha_range_fails_verify(command, capsys):
    assert main(command + ["--transform", "fourier", "--qubits", "2",
                           "--alpha-range", "1,0,0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --alpha-range '1,0,0.5' gives no rows to {command[0]}"]


@pytest.mark.parametrize("command", [["verify", "--suite", "coefficients"], ["sweep"]],
                         ids=["verify", "sweep"])
@pytest.mark.parametrize("alpha_range,count", [
    # 367.0262 - 367 rounds to 0.0262000000000171, 131.00000000009 steps, so
    # the count is 132 and START + 131 STEP rounds to STOP.
    ("367,367.0262,0.0002", 131),
    # At 1e16 the float spacing is 2: START + 3 rounds up to STOP = START + 4.
    ("1e16,1.0000000000000004e16,3", 1)], ids=["decimal", "spacing"])
def test_alpha_range_values_stay_below_stop(command, alpha_range, count, capsys):
    assert main(command + ["--transform", "fourier", "--qubits", "1",
                           f"--alpha-range={alpha_range}"]) == 0
    alphas = [float(row.split(",")[0 if command[0] == "sweep" else 2])
              for row in capsys.readouterr().out.splitlines()[2:]]
    start, stop, _ = map(float, alpha_range.split(","))
    assert len(alphas) == count and alphas[0] == start and alphas[-1] < stop
    assert all(a < b for a, b in zip(alphas, alphas[1:]))


@pytest.mark.parametrize("command", [["verify", "--suite", "coefficients"], ["sweep"]],
                         ids=["verify", "sweep"])
def test_a_negative_alpha_range_start_needs_the_equals_form(command, capsys):
    # argparse reads a separate "-1,1,0.5" as a flag, not as the value.
    argv = command + ["--transform", "fourier", "--qubits", "1"]
    line = argparse_refuses(argv + ["--alpha-range", "-1,1,0.5"], capsys)
    assert line.endswith("error: argument --alpha-range: expected one argument")
    assert main(argv + ["--alpha-range=-1,1,0.5"]) == 0
    alphas = [row.split(",")[-4 if command[0] == "sweep" else 2]
              for row in capsys.readouterr().out.splitlines()[2:]]
    assert [float(a) for a in alphas] == [-1.0, -0.5, 0.0, 0.5]


@pytest.mark.parametrize("suite", ["additivity", "order"])
@pytest.mark.parametrize("flag", ["--alpha=0.5", "--alpha-range=0,1,0.5"])
def test_alpha_flags_rejected_by_alpha_free_suites(suite, flag, capsys):
    assert main(["verify", "--suite", suite, "--transform", "hartley",
                 "--qubits", "1", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag.split("=")[0]
    assert captured.err.splitlines() == [f"error: {name} does not apply to --suite {suite}"]


@pytest.mark.parametrize(
    "command,flag",
    [("sweep", "--alpha=3"), ("export", "--alpha-range=0,9,1"),
     ("dump", "--alpha-range=0,1,0.5")],
)
def test_alpha_flags_a_command_ignores_are_rejected(command, flag, capsys):
    # sweep declares only --alpha-range, dump and export only --alpha
    other = "--alpha=0.5" if command != "sweep" else "--alpha-range=0,1,0.5"
    line = argparse_refuses([command, "--transform", "hartley", "--qubits", "1", other, flag],
                            capsys)
    assert line == f"qfrt: error: unrecognized arguments: {flag}"


def test_verify_takes_alpha_or_alpha_range_not_both(capsys):
    line = argparse_refuses(["verify", "--suite", "unitarity", "--transform", "fourier",
                             "--qubits", "2", "--alpha", "0.3", "--alpha-range", "0,1,0.5"], capsys)
    assert line.endswith("error: argument --alpha-range: not allowed with argument --alpha")


@pytest.mark.parametrize(
    "command,flags",
    [("dump", {"--alpha"}), ("verify", {"--alpha", "--alpha-range"}),
     ("sweep", {"--alpha-range"}), ("export", {"--alpha"})],
    ids=["dump", "verify", "sweep", "export"],
)
def test_help_lists_the_alpha_flags_a_command_reads(command, flags, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert set(re.findall(r"--alpha[\w-]*", capsys.readouterr().out)) == flags


@pytest.mark.parametrize(
    "argv,message",
    [(["--transform", "cst4", "--n", "1", "--alpha", "0.5", "--cst4-selector", "cos"],
      "argument --cst4-selector: not allowed with argument --alpha"),
     (["--format", "state-text"], "--format state-text does not apply without --alpha"),
     (["--circuit-unitary"], "--circuit-unitary does not apply without --alpha"),
     (["--alpha", "0.5", "--circuit-unitary", "--format", "state-text"],
      "--circuit-unitary does not apply to --format state-text"),
     (["--alpha", "0.5", "--full"], "--full does not apply to --format matrix-text")],
    ids=["selector_with_alpha", "state_text_no_alpha", "circuit_unitary_no_alpha",
         "circuit_unitary_state_text", "full_matrix_text"],
)
def test_dump_flags_the_output_ignores_are_rejected(argv, message, capsys):
    if "--transform" not in argv:
        argv = ["--transform", "hartley", "--qubits", "1", *argv]
    if message.startswith("argument "):  # argparse's own error: one group holds both flags
        assert argparse_refuses(["dump", *argv], capsys) == f"qfrt dump: error: {message}"
        return
    assert main(["dump", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv,what",
    [(["dump", "--transform", "fourier", "--qubits", "6"], "fourier q=6"),
     (["verify", "--suite", "order", "--transform", "hartley", "--qubits", "6"], "hartley q=6")],
    ids=["dump_kernel", "verify_order"],
)
def test_kernel_only_commands_check_the_budget(argv, what, monkeypatch, capsys):
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, "3")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {what}: 6 qubits exceed the 3-qubit budget"]


def test_a_budget_error_names_the_ancillas(monkeypatch, capsys):
    # The kernel fits 13 qubits; its circuit needs 2 ancillas on top.
    monkeypatch.delenv(linalg.BUDGET_ENV_VAR, raising=False)
    assert main(["verify", "--suite", "unitarity", "--transform", "fourier", "--qubits", "13",
                 "--alpha", "0.3"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 'fourier': 2 ancilla + 13 data qubits: 15 qubits exceed the 14-qubit budget"]


@pytest.mark.parametrize(
    "argv,message",
    [(["dump", "--transform", "fourier", "--qubits", "0"], "--qubits must be >= 1, got 0"),
     (["dump", "--transform", "cst1", "--n", "0"], "--n must be >= 1, got 0"),
     (["verify", "--suite", "additivity", "--transform", "hartley", "--qubits", "1",
       "--seed", "-1"], "--seed must be >= 0, got -1"),
     (["dump", "--transform", "hartley", "--qubits", "1", "--n", "2"],
      "--n does not apply to --transform hartley"),
     (["sweep", "--transform", "fourier", "--qubits", "1", "--n", "1",
       "--alpha-range", "0,1,0.5"], "--n does not apply to --transform fourier"),
     (["verify", "--suite", "order", "--transform", "cst1", "--n", "1", "--qubits", "2"],
      "--qubits does not apply to --transform cst1"),
     (["export", "--transform", "cst4", "--n", "1", "--qubits", "2", "--alpha", "0.5"],
      "--qubits does not apply to --transform cst4")],
    ids=["qubits_zero", "n_zero", "negative_seed", "n_with_hartley", "n_with_fourier",
         "qubits_with_cst1", "qubits_with_cst4"],
)
def test_bad_size_or_seed_names_the_flag(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("raw", ["-3", "0", "abc", ""])
def test_bad_qubit_budget_is_one_error_line(raw, monkeypatch, capsys):
    monkeypatch.setenv(linalg.BUDGET_ENV_VAR, raw)
    assert main(["verify", "--suite", "equivalence", "--transform", "hartley",
                 "--qubits", "1", "--alpha", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: QFRT_MAX_QUBITS must be an integer >= 1, got {raw!r}"
    ]


class TestVerify:
    def test_equivalence_passes(self, tmp_path):
        out = tmp_path / "eq.csv"
        code = main(["verify", "--suite", "equivalence", "--transform", "hartley",
                     "--qubits", "3", "--alpha", "0.5", "--tol", "1e-10",
                     "--out", str(out)])
        assert code == 0
        rows = csv_rows(read(out))
        assert len(rows) == 1
        assert rows[0]["pass"] == "true"
        assert float(rows[0]["deviation"]) <= 1e-10

    def test_additivity_runs_25_pairs(self, tmp_path):
        out = tmp_path / "add.csv"
        assert main(["verify", "--suite", "additivity", "--transform", "fourier",
                     "--qubits", "2", "--out", str(out)]) == 0
        rows = csv_rows(read(out))
        assert len(rows) == 25
        assert all(r["pass"] == "true" for r in rows)

    @pytest.mark.parametrize("transform_id", ["fourier", "hartley"])
    def test_additivity_in_column_blocks(self, transform_id, monkeypatch, capsys):
        # Blocks of 3 columns of 16, the last one short: the CSV is the
        # unblocked one, byte for byte.
        args = ["verify", "--suite", "additivity", "--transform", transform_id,
                "--qubits", "4"]
        assert main(args) == 0
        whole = capsys.readouterr().out
        monkeypatch.setattr(fractional, "_COLUMN_BLOCK", 3 << 4)
        blocks = count_calls(monkeypatch, cli, "fractional_apply")
        assert main(args) == 0
        assert capsys.readouterr().out == whole
        assert len(blocks) == 25 * 6
        assert {args[1].shape for args in blocks} == {(16, 3), (16, 1)}

    def test_order_suite_reports_exponent(self, tmp_path):
        out = tmp_path / "order.csv"
        assert main(["verify", "--suite", "order", "--transform", "cst4",
                     "--n", "2", "--out", str(out)]) == 0
        rows = csv_rows(read(out))
        assert rows[0]["case_id"] == "exponent1"

    def test_order_suite_refuses_a_transform_above_its_declared_order(self, monkeypatch,
                                                                      capsys):
        # The 4-point DFT declared an involution: U**2 != I, so no row is written.
        bad = BaseTransform("bad", 2, 1, fourier_transform(2).dense)
        monkeypatch.setattr(cli, "make_transform", lambda *args: bad)
        assert main(["verify", "--suite", "order", "--transform", "fourier",
                     "--qubits", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: base 'bad' does not satisfy U**2 = I"]

    def test_unitarity_and_coefficients(self, tmp_path):
        for suite in ("unitarity", "coefficients"):
            out = tmp_path / f"{suite}.csv"
            assert main(["verify", "--suite", suite, "--transform", "hartley",
                         "--qubits", "2", "--out", str(out)]) == 0

    def test_restoration(self, tmp_path):
        out = tmp_path / "rest.csv"
        assert main(["verify", "--suite", "restoration", "--transform", "fourier",
                     "--qubits", "1", "--out", str(out)]) == 0
        assert all(r["pass"] == "true" for r in csv_rows(read(out)))

    def test_alpha_case_ids_repeat_the_alpha_column(self, capsys):
        # Alphas equal to four decimals once shared the case_id alpha0.0000.
        assert main(["verify", "--suite", "coefficients", "--transform", "fourier",
                     "--qubits", "1", "--alpha-range=0,0.00003,0.00001"]) == 0
        rows = csv_rows(capsys.readouterr().out)
        ids = [r["case_id"] for r in rows]
        assert len(set(ids)) == 3
        assert ids == ["alpha" + r["alpha"] for r in rows]

    def test_failing_row_sets_exit_status(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = main(["verify", "--suite", "equivalence", "--transform", "hartley",
                     "--qubits", "1", "--alpha", "0.5", "--tol", "1e-30",
                     "--out", str(out)])
        assert code == 1
        assert any(r["pass"] == "false" for r in csv_rows(read(out)))

    @pytest.mark.parametrize("transform_id,size", [
        ("fourier", 3), ("hartley", 3), ("cst1", 2), ("cst4", 2)])
    @pytest.mark.parametrize("chunk_columns", [0.5, 1, 3])
    def test_equivalence_chunks_match_the_dense_reference(self, transform_id, size,
                                                          chunk_columns, monkeypatch, capsys):
        spec = FractionalSpec(make_transform(transform_id, size), 0.37)
        dim, data = 1 << (spec.num_ancillas + spec.data_qubits), 1 << spec.data_qubits
        monkeypatch.setattr(fractional, "_COLUMN_BLOCK", int(chunk_columns * data))
        runs = count_calls(monkeypatch, simulator, "run")
        flag = "--qubits" if transform_id in ("fourier", "hartley") else "--n"
        assert main(["verify", "--suite", "equivalence", "--transform", transform_id,
                     flag, str(size), "--alpha", "0.37"]) == 0
        got = float(csv_rows(capsys.readouterr().out)[0]["deviation"])
        cols = circuit_unitary(build_qfru_circuit(spec), columns=data)
        block, leakage = extract_data_block(cols, spec.num_ancillas, spec.data_qubits)
        want = max(linalg.max_norm_diff(block, fractional_oracle(spec)), leakage)
        assert abs(got - want) <= 1e-13
        width = max(1, int(chunk_columns))
        assert [a[1].shape for a in runs] == [
            (dim, min(width, data - start)) for start in range(0, data, width)]

    def test_equivalence_blocks_hold_2_to_the_14_data_amplitudes(self, monkeypatch, capsys):
        # Hartley q=9: 512 columns in blocks of 2**14 // 2**9 = 32, each run
        # on the whole 10-qubit register.
        runs = count_calls(monkeypatch, simulator, "run")
        assert main(["verify", "--suite", "equivalence", "--transform", "hartley",
                     "--qubits", "9", "--alpha", "0.37"]) == 0
        assert [a[1].shape for a in runs] == [(1024, 32)] * 16

    def test_equivalence_sees_a_phase_in_a_later_chunk(self, monkeypatch, capsys):
        # A phase on the top data qubit moves only the upper half of the input
        # columns, which the first of the 3-column chunks does not hold.
        def perturbed(spec):
            c = build_qfru_circuit(spec)
            top = GateOp("p", targets=(spec.data_qubits - 1,), params=(1e-6,))
            return Circuit(c.num_qubits, (top,) + c.ops)

        monkeypatch.setattr(cli, "build_qfru_circuit", perturbed)
        monkeypatch.setattr(fractional, "_COLUMN_BLOCK", 3 << 3)
        assert main(["verify", "--suite", "equivalence", "--transform", "hartley",
                     "--qubits", "3", "--alpha", "0.37"]) == 1
        row = csv_rows(capsys.readouterr().out)[0]
        assert row["pass"] == "false" and float(row["deviation"]) > 1e-7

    @pytest.mark.parametrize("rows", ["ancilla", "data"])
    def test_equivalence_fails_a_nan_in_the_run_output(self, rows, monkeypatch, capsys):
        # One NaN in the output of the last of the 3, 3 and 2-column blocks,
        # in the ancilla rows (leakage) or the data rows (deviation): the row
        # fails rather than drop it.
        run = simulator.run

        def nan_run(circuit, state):
            final, records = run(circuit, state)
            if state.shape[1] == 2:
                final[-1 if rows == "ancilla" else 0, -1] = np.nan
            return final, records

        monkeypatch.setattr(simulator, "run", nan_run)
        monkeypatch.setattr(fractional, "_COLUMN_BLOCK", 3 << 3)
        assert main(["verify", "--suite", "equivalence", "--transform", "fourier",
                     "--qubits", "3", "--alpha", "0.37"]) == 1
        row = csv_rows(capsys.readouterr().out)[0]
        assert (row["pass"], row["deviation"]) == ("false", "nan")

    def test_additivity_fails_a_nan_in_the_last_block(self, monkeypatch, capsys):
        # One NaN in FrU(a) FrU(b) for the last of the 3, 3 and 2-column
        # blocks: every row fails rather than drop it.
        apply = cli.fractional_apply

        def nan_apply(spec, x):
            out = apply(spec, x)
            if x.shape[1] == 2:
                out[0, -1] = np.nan
            return out

        monkeypatch.setattr(cli, "fractional_apply", nan_apply)
        monkeypatch.setattr(fractional, "_COLUMN_BLOCK", 3 << 3)
        assert main(["verify", "--suite", "additivity", "--transform", "fourier",
                     "--qubits", "3"]) == 1
        rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 25
        assert {(r["pass"], r["deviation"]) for r in rows} == {("false", "nan")}

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "unitarity", "--alpha-range=-1,3,0.7"],
        ["sweep", "--alpha-range=-1,3,0.7"]], ids=["verify", "sweep"])
    def test_unitarity_forms_no_gram_product(self, command, monkeypatch, capsys):
        grams = count_calls(monkeypatch, linalg, "unitarity_dev")
        bounds = count_calls(monkeypatch, cli, "unitarity_bound")
        assert main(command + ["--transform", "cst1", "--n", "3"]) == 0
        assert (len(grams), len(bounds)) == (0, 6)

    @pytest.mark.parametrize("fault", ["scaled_row", "nearest_power"])
    def test_unitarity_row_fails_a_faulty_oracle(self, fault, monkeypatch, capsys):
        # A row scaled by 1 + 1e-6 is not unitary; U**round(alpha) is, so
        # only a check against FrU(alpha) itself fails it.
        def faulty(spec):
            if fault == "nearest_power":
                return spec.base.power(round(spec.alpha) % spec.order)
            m = fractional_oracle(spec)
            m[3] *= 1 + 1e-6
            return m

        monkeypatch.setattr(cli, "fractional_oracle", faulty)
        assert main(["verify", "--suite", "unitarity", "--transform", "fourier",
                     "--qubits", "3", "--alpha", "0.37"]) == 1
        row = csv_rows(capsys.readouterr().out)[0]
        assert row["pass"] == "false" and float(row["deviation"]) > 1e-8

    def test_tol_help_gives_the_default_tolerances(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
        gate, order = re.search(r"\(default (\S+); order suite (\S+)\)", text).groups()
        assert (float(gate), float(order)) == (GATE_TOL, EIGEN_RESIDUE_TOL)

    def test_tolerance_range_enforced(self, capsys):
        assert main(["verify", "--suite", "unitarity", "--transform", "hartley",
                     "--qubits", "1", "--tol", "0.5"]) == 2
        assert capsys.readouterr() == ("", "error: --tol must be in (0, 1e-2]\n")

    def test_seed_recorded_and_deterministic(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        args = ["verify", "--suite", "additivity", "--transform", "hartley",
                "--qubits", "2", "--seed", "3"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        main(["verify", "--suite", "additivity", "--transform", "hartley",
              "--qubits", "2", "--seed", "4", "--out", str(c)])
        assert read(a) == read(b)
        assert "seed=3" in read(a)
        assert read(a) != read(c)


class TestSweep:
    def test_integer_alphas_hit_integer_powers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--transform", "fourier", "--qubits", "1",
                     "--alpha-range", "0,4,0.5", "--out", str(out)]) == 0
        rows = csv_rows(read(out))
        assert len(rows) == 8
        for row in rows:
            alpha = float(row["alpha"])
            dist = float(row["nearest_power_dist"])
            assert abs(float(row["coeff_sq_sum"]) - 1.0) <= 1e-12
            assert float(row["unitarity_dev"]) <= 1e-10
            if alpha == int(alpha):
                assert dist <= 1e-10

    @staticmethod
    def _count_tables(monkeypatch):
        """Product tables made by one sweep."""
        tables = count_cached(monkeypatch, BaseTransform, "_products")
        assert main(["sweep", "--transform", "fourier", "--qubits", "2",
                     "--alpha-range", "0,4,0.5"]) == 0
        return len(tables)

    def test_one_power_table_per_row(self, monkeypatch, capsys):
        # The built-in Fourier oracle and the distance to the nearest integer
        # power are gathers of F's roots table, with no product table.
        assert self._count_tables(monkeypatch) == 0

    def test_hand_built_kernel_one_power_table_per_row(self, monkeypatch, capsys):
        # The DFT kernel without its permutation: every row's oracle and distance
        # to the nearest integer power read the one product table its
        # transform keeps.
        monkeypatch.setattr(cli, "make_transform",
                            lambda tid, size: BaseTransform(tid, size, 2, dft_matrix(1 << size)))
        assert self._count_tables(monkeypatch) == 1

    def test_one_coefficient_set_per_row(self, monkeypatch, capsys):
        # The row's weights feed both its oracle and its coeff_sq_sum.
        calls = []
        original = fractional.shih_coefficients
        for module in (cli, fractional):
            monkeypatch.setattr(module, "shih_coefficients",
                                lambda *a: calls.append(a) or original(*a))
        assert main(["sweep", "--transform", "fourier", "--qubits", "2",
                     "--alpha-range", "0,4,0.5"]) == 0
        assert len(calls) == 8

    @pytest.mark.parametrize("tid,size", [("fourier", 3), ("hartley", 3), ("cst1", 2), ("cst4", 2)])
    @pytest.mark.parametrize("alphas", ["-2.6,2.6,0.65", "-1000002.2,-999999,0.8",
                                        "1000000.3,1000004,0.9"], ids=["small", "-1e6", "1e6"])
    def test_distance_gathered_from_the_table(self, tid, size, alphas, tmp_path, monkeypatch):
        # The distance to U**k is gathered from the roots table, like the
        # oracle: no kernel is built, and it is the distance to U**k itself.
        made = []
        monkeypatch.setattr(cli, "make_transform",
                            lambda *a: made.append(make_transform(*a)) or made[-1])
        flag = "--qubits" if tid in ("fourier", "hartley") else "--n"
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--transform", tid, flag, str(size), f"--alpha-range={alphas}",
                     "--out", str(out)]) == 0
        (t,) = made
        assert "dense" not in vars(t)
        for row in csv_rows(read(out)):
            alpha = float(row["alpha"])
            k = int(round(alpha)) % t.order
            expected = linalg.max_norm_diff(fractional_oracle(FractionalSpec(t, alpha)),
                                            t.power(k))
            assert abs(float(row["nearest_power_dist"]) - expected) <= 1e-15

    def test_symmetric_about_half(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert main(["sweep", "--transform", "hartley", "--qubits", "2",
                     "--alpha-range", "0,1,0.25", "--out", str(out)]) == 0
        rows = {float(r["alpha"]): float(r["nearest_power_dist"])
                for r in csv_rows(read(out))}
        assert abs(rows[0.25] - rows[0.75]) <= 1e-10

    def test_empty_range(self, tmp_path, capsys):
        # A range with no rows is an error, as for verify, and writes nothing.
        out = tmp_path / "empty.csv"
        assert main(["sweep", "--transform", "hartley", "--qubits", "1",
                     "--alpha-range", "1,1,0.5", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: --alpha-range '1,1,0.5' gives no rows to sweep\n"

    def test_range_required(self, capsys):
        line = argparse_refuses(["sweep", "--transform", "hartley", "--qubits", "1"], capsys)
        assert line == "qfrt sweep: error: the following arguments are required: --alpha-range"

    def test_bad_step(self, capsys):
        assert main(["sweep", "--transform", "hartley", "--qubits", "1",
                     "--alpha-range", "0,1,-0.5"]) == 2


class TestExport:
    def test_qfrin_round_trip(self, tmp_path):
        out = tmp_path / "c.qasm"
        assert main(["export", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--out", str(out)]) == 0
        circuit = import_circuit(read(out))
        final, _ = simulator.run(circuit, simulator.basis_state(2, 1))
        oracle = fractional_oracle(FractionalSpec(hartley_transform(1), 0.5))
        assert np.max(np.abs(final[:2] - oracle[:, 1])) <= 1e-10

    def test_alpha_zero_qfru_exports_and_is_identity(self, tmp_path):
        out = tmp_path / "id.qasm"
        assert main(["export", "--transform", "fourier", "--qubits", "1",
                     "--alpha", "0", "--kind", "qfru", "--out", str(out)]) == 0
        circuit = import_circuit(read(out))
        final, _ = simulator.run(circuit, simulator.basis_state(circuit.num_qubits, 1))
        assert np.max(np.abs(final - simulator.basis_state(circuit.num_qubits, 1))) <= 1e-10

    def test_wide_payload_diagnostic(self, capsys):
        code = main(["export", "--transform", "cst1", "--n", "2",
                     "--alpha", "0.5", "--kind", "qfru"])
        assert code == 2
        assert "unitary on 3 qubits" in capsys.readouterr().err

    def test_qfrin_needs_involution(self, capsys):
        code = main(["export", "--transform", "fourier", "--qubits", "1",
                     "--alpha", "0.5", "--kind", "qfrin"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --kind qfrin does not apply to --transform fourier (order 4)\n")

    def test_dump_has_no_circuit_text_format(self, capsys):
        # export is the one way to write a circuit
        line = argparse_refuses(["dump", "--transform", "hartley", "--qubits", "1",
                                 "--alpha", "0.5", "--format", "circuit-text"], capsys)
        assert "invalid choice: 'circuit-text'" in line

    @pytest.mark.parametrize("size", [["hartley", "--qubits", "2"], ["cst4", "--n", "1"]],
                             ids=["hartley", "cst4"])
    def test_every_kind_exports_one_circuit_for_an_involution(self, size, monkeypatch, capsys):
        qfrin = count_calls(monkeypatch, cli, "build_qfrin_circuit")
        outs = []
        for kind in ("auto", "qfru", "qfrin"):
            assert main(["export", "--transform", *size, "--alpha", "1.3", "--kind", kind]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2] and outs[0].startswith("OPENQASM")
        assert len(qfrin) == 2  # auto and qfrin build through the involution check

    def test_alpha_required(self, capsys):
        line = argparse_refuses(["export", "--transform", "hartley", "--qubits", "1"], capsys)
        assert line == "qfrt export: error: the following arguments are required: --alpha"


@pytest.mark.parametrize("where", ["directory", "missing_directory", "empty"])
def test_unwritable_out_fails_before_any_transform_is_built(where, tmp_path, monkeypatch,
                                                            capsys):
    out = {"directory": str(tmp_path), "missing_directory": str(tmp_path / "missing" / "x.csv"),
           "empty": ""}[where]

    def refuse(*args):
        raise AssertionError("a transform was built")

    monkeypatch.setattr(cli, "make_transform", refuse)
    assert main(["verify", "--suite", "unitarity", "--transform", "fourier", "--qubits", "9",
                 "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --out {out!r} is not a file in an existing directory"]


def test_a_failed_write_is_one_error_line(tmp_path, monkeypatch, capsys):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)  # shadows the builtin in cli
    out = str(tmp_path / "x.csv")
    assert main(["dump", "--transform", "hartley", "--qubits", "1", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: [Errno 13] Permission denied: {out!r}"]


def test_stdout_output(capsys):
    assert main(["dump", "--transform", "hartley", "--qubits", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 2\n")


def test_two_runs_build_one_parser(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    built = count_calls(monkeypatch, cli, "make_parser")
    outs = []
    for _ in range(2):
        assert main(["dump", "--transform", "hartley", "--qubits", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert len(built) == 1
    assert outs[0] == outs[1] and outs[0].startswith("2 2\n")


def test_module_entry_point():
    import os
    import subprocess
    import sys

    import qfrt

    # The child finds qfrt where this process did, also when only pytest's
    # own pythonpath setting put src/ on sys.path.
    src = os.path.dirname(os.path.dirname(qfrt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qfrt.cli", "dump", "--transform", "fourier",
         "--qubits", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("2 2\n")
