import numpy as np
import pytest

from qfrt import linalg, simulator
from qfrt.base_transforms import dct4_matrix, dst4_matrix, hartley_transform
from qfrt.cli import main
from qfrt.fractional import FractionalSpec, fractional_oracle
from qfrt.qasm import import_circuit


def read(path):
    return path.read_text(encoding="utf-8")


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestDump:
    def test_base_matrix(self, tmp_path, capsys):
        out = tmp_path / "dht.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "2",
                     "--out", str(out)]) == 0
        got = linalg.parse_matrix(read(out))
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
        assert linalg.max_norm_diff(linalg.parse_matrix(read(out)), expected) <= 1e-12

    def test_alpha_zero_oracle_is_identity(self, tmp_path):
        out = tmp_path / "id.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "2",
                     "--alpha", "0", "--out", str(out)]) == 0
        got = linalg.parse_matrix(read(out))
        assert linalg.max_norm_diff(got, np.eye(4)) <= 1e-13

    def test_circuit_unitary_payload(self, tmp_path):
        out = tmp_path / "u.txt"
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--circuit-unitary", "--out", str(out)]) == 0
        got = linalg.parse_matrix(read(out))
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
        for selector, expected in (("cos", dct4_matrix(4)), ("sin", dst4_matrix(4))):
            out = tmp_path / f"{selector}.txt"
            assert main(["dump", "--transform", "cst4", "--n", "2",
                         "--cst4-selector", selector, "--out", str(out)]) == 0
            assert linalg.max_norm_diff(linalg.parse_matrix(read(out)), expected) <= 1e-14

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
    assert lines[0].startswith("error: alpha must be finite")
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "command",
    [["sweep"], ["verify", "--suite", "unitarity"]],
    ids=["sweep", "verify"],
)
@pytest.mark.parametrize(
    "alpha_range,reason",
    [("0,inf,1", "finite"), ("nan,1,1", "finite"), ("0,1e12,1e-6", "rows")],
    ids=["inf_stop", "nan_start", "huge_count"],
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

    def test_order_suite_reports_exponent(self, tmp_path):
        out = tmp_path / "order.csv"
        assert main(["verify", "--suite", "order", "--transform", "cst4",
                     "--n", "2", "--out", str(out)]) == 0
        rows = csv_rows(read(out))
        assert rows[0]["case_id"] == "exponent1"

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

    def test_failing_row_sets_exit_status(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = main(["verify", "--suite", "equivalence", "--transform", "hartley",
                     "--qubits", "1", "--alpha", "0.5", "--tol", "1e-30",
                     "--out", str(out)])
        assert code == 1
        assert any(r["pass"] == "false" for r in csv_rows(read(out)))

    def test_tolerance_range_enforced(self, capsys):
        assert main(["verify", "--suite", "unitarity", "--transform", "hartley",
                     "--qubits", "1", "--tol", "0.5"]) == 2

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

    def test_symmetric_about_half(self, tmp_path):
        out = tmp_path / "sym.csv"
        assert main(["sweep", "--transform", "hartley", "--qubits", "2",
                     "--alpha-range", "0,1,0.25", "--out", str(out)]) == 0
        rows = {float(r["alpha"]): float(r["nearest_power_dist"])
                for r in csv_rows(read(out))}
        assert abs(rows[0.25] - rows[0.75]) <= 1e-10

    def test_empty_range(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["sweep", "--transform", "hartley", "--qubits", "1",
                     "--alpha-range", "1,1,0.5", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[-1] == "alpha,coeff_sq_sum,unitarity_dev,nearest_power_dist"

    def test_range_required(self, capsys):
        assert main(["sweep", "--transform", "hartley", "--qubits", "1"]) == 2

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
        assert "involution" in capsys.readouterr().err

    def test_dump_circuit_text_matches_export(self, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        assert main(["dump", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--format", "circuit-text",
                     "--out", str(a)]) == 0
        assert main(["export", "--transform", "hartley", "--qubits", "1",
                     "--alpha", "0.5", "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_alpha_required(self, capsys):
        assert main(["export", "--transform", "hartley", "--qubits", "1"]) == 2


def test_stdout_output(capsys):
    assert main(["dump", "--transform", "hartley", "--qubits", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 2\n")


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "qfrt.cli", "dump", "--transform", "fourier",
         "--qubits", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("2 2\n")
