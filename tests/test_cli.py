"""End-to-end command-line tests driven through ``main(argv)``."""

from __future__ import annotations

import csv
import io
import subprocess
import sys

import pytest

from beliefmc import parse_problem
from beliefmc.cli import main

TWO_SSF = """\
frame: x1 x2 x3
source:
  0.6 {x1}
  0.4 *
source:
  0.5 {x2}
  0.5 *
"""

LOGIC_TEXT = """\
atoms: p q
source:
  0.7 [p]
  0.3 []
source:
  0.5 [!p q]
  0.5 []
"""

TOTAL_CONFLICT = """\
frame: x1 x2
source:
  1.0 {x1}
source:
  1.0 {x2}
"""

# Three sources whose outcome tables multiply out to far more than four
# distinct intersections, so a tiny entry cap trips immediately.
WIDE_FOLD = "frame: " + " ".join(f"x{i}" for i in range(1, 9)) + "\n" + "".join(
    "source:\n" + "".join(
        f"  0.25 {{{' '.join(f'x{i}' for i in range(1, 9) if i != drop)}}}\n"
        for drop in drops
    )
    for drops in ((1, 2, 3, 4), (5, 6, 7, 8), (1, 3, 5, 7))
)


@pytest.fixture()
def set_file(tmp_path):
    path = tmp_path / "pair.bel"
    path.write_text(TWO_SSF)
    return str(path)


@pytest.fixture()
def logic_file(tmp_path):
    path = tmp_path / "pair.lg"
    path.write_text(LOGIC_TEXT)
    return str(path)


def rows_of(output: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(output)))


class TestEstimate:
    def test_human_output(self, set_file, capsys):
        assert main(["estimate", "--problem", set_file, "--query", "{x1}"]) == 0
        out = capsys.readouterr().out
        assert "trials: 10000 (seed 0, workers 1)" in out
        assert "Bel({x1}) = " in out
        assert "3sd=[" in out

    def test_csv_schema_and_value(self, set_file, capsys):
        code = main([
            "estimate", "--problem", set_file, "--csv",
            "--query", "{x1}", "--query", "{x2}", "--trials", "20000",
        ])
        assert code == 0
        rows = rows_of(capsys.readouterr().out)
        assert [r["query"] for r in rows] == ["{x1}", "{x2}"]
        assert float(rows[0]["value"]) == pytest.approx(3 / 7, abs=0.02)
        assert float(rows[1]["value"]) == pytest.approx(2 / 7, abs=0.02)
        assert float(rows[0]["sd_bound"]) == pytest.approx(0.5 / 20000**0.5, abs=1e-6)
        assert float(rows[0]["kappa_hat"]) == pytest.approx(0.3, abs=0.03)
        lo, hi = float(rows[0]["ci_lo"]), float(rows[0]["ci_hi"])
        assert lo <= float(rows[0]["value"]) <= hi

    def test_accuracy_plans_trials(self, set_file, capsys):
        assert main([
            "estimate", "--problem", set_file, "--accuracy", "0.05",
        ]) == 0
        assert "trials: 900 " in capsys.readouterr().out

    def test_default_query_is_universe(self, set_file, capsys):
        assert main(["estimate", "--problem", set_file, "--trials", "50"]) == 0
        assert "Bel(*) = 1.000000" in capsys.readouterr().out

    def test_deterministic_across_runs(self, set_file, capsys):
        argv = ["estimate", "--problem", set_file, "--csv", "--query", "{x1}",
                "--seed", "9", "--workers", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_budget_rejected_on_set_problem(self, set_file, capsys):
        assert main([
            "estimate", "--problem", set_file, "--budget", "5",
        ]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_logic_flag_on_set_file(self, set_file, capsys):
        assert main(["estimate", "--problem", set_file, "--logic"]) == 2
        assert "set problem" in capsys.readouterr().err

    def test_zero_trials_rejected(self, set_file, capsys):
        assert main(["estimate", "--problem", set_file, "--trials", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["estimate", "--problem", str(tmp_path / "no.bel")]) == 2

    def test_parse_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.bel"
        bad.write_text("frame: a b\nsource:\n  0.5 {c}\n  0.5 *\n")
        assert main(["estimate", "--problem", str(bad)]) == 2
        assert "line 3, column 7" in capsys.readouterr().err


class TestLogicEstimate:
    def test_needs_query(self, logic_file, capsys):
        assert main(["estimate", "--problem", logic_file]) == 2
        assert "--query" in capsys.readouterr().err

    def test_csv_bounds(self, logic_file, capsys):
        code = main([
            "estimate", "--problem", logic_file, "--csv",
            "--query", "[p]", "--trials", "20000",
        ])
        assert code == 0
        row = rows_of(capsys.readouterr().out)[0]
        assert row["query"] == "[p]"
        assert float(row["lower"]) == float(row["upper"])
        assert float(row["lower"]) == pytest.approx(7 / 13, abs=0.02)
        assert row["timeouts"] == "0"

    def test_zero_budget_collapses_to_trivial_bounds(self, logic_file, capsys):
        code = main([
            "estimate", "--problem", logic_file, "--csv",
            "--query", "[p]", "--budget", "0", "--trials", "400",
        ])
        assert code == 0
        row = rows_of(capsys.readouterr().out)[0]
        assert float(row["lower"]) == 0.0
        assert float(row["upper"]) == 1.0
        assert row["timeouts"] == row["trials"]

    def test_human_output_shows_interval(self, logic_file, capsys):
        assert main([
            "estimate", "--problem", logic_file, "--query", "[q]",
            "--trials", "500", "--budget", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Bel([q]) in [" in out
        assert "timeouts=" in out


class TestExact:
    def test_worked_values(self, set_file, capsys):
        assert main(["exact", "--problem", set_file, "--query", "{x1}"]) == 0
        out = capsys.readouterr().out
        assert "conflict: 0.3000000" in out
        assert "Bel({x1}) = 0.4285714" in out

    def test_csv(self, set_file, capsys):
        assert main([
            "exact", "--problem", set_file, "--csv",
            "--query", "{x1}", "--query", "{x2}", "--query", "*",
        ]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert [r["belief"] for r in rows] == ["0.4285714", "0.2857143", "1.0000000"]
        assert rows[0]["conflict"] == "0.3000000"

    def test_logic_translation(self, logic_file, capsys):
        assert main([
            "exact", "--problem", logic_file, "--csv", "--query", "[p]", "--query", "[!p]",
        ]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert rows[0]["belief"] == f"{7 / 13:.7f}"
        assert rows[1]["belief"] == f"{3 / 13:.7f}"
        assert rows[0]["conflict"] == "0.3500000"

    def test_logic_needs_query(self, logic_file, capsys):
        assert main(["exact", "--problem", logic_file]) == 2

    def test_entry_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "wide.bel"
        path.write_text(WIDE_FOLD)
        assert main([
            "exact", "--problem", str(path), "--max-entries", "4",
        ]) == 4
        assert "error:" in capsys.readouterr().err

    def test_total_conflict_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tc.bel"
        path.write_text(TOTAL_CONFLICT)
        assert main(["exact", "--problem", str(path)]) == 3


class TestConflict:
    def test_mc(self, set_file, capsys):
        assert main(["conflict", "--problem", set_file, "--trials", "20000"]) == 0
        out = capsys.readouterr().out
        assert "kappa_hat = 0.3" in out  # 0.30xx at this trial count
        assert "draws/trial" in out

    def test_mc_csv(self, set_file, capsys):
        assert main([
            "conflict", "--problem", set_file, "--csv", "--trials", "5000",
        ]) == 0
        row = rows_of(capsys.readouterr().out)[0]
        assert row["mode"] == "mc"
        assert float(row["kappa"]) == pytest.approx(0.3, abs=0.03)
        assert float(row["draws_per_trial"]) == pytest.approx(1 / 0.7, abs=0.07)
        assert int(row["restarts"]) > 0

    def test_exact(self, set_file, capsys):
        assert main(["conflict", "--problem", set_file, "--exact"]) == 0
        assert "kappa = 0.3000000 (exact)" in capsys.readouterr().out

    def test_logic_modes_agree(self, logic_file, capsys):
        assert main(["conflict", "--problem", logic_file, "--exact"]) == 0
        exact_out = capsys.readouterr().out
        assert "0.3500000" in exact_out
        assert main([
            "conflict", "--problem", logic_file, "--csv", "--trials", "20000",
        ]) == 0
        row = rows_of(capsys.readouterr().out)[0]
        assert float(row["kappa"]) == pytest.approx(0.35, abs=0.03)

    def test_excessive_conflict_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tc.bel"
        path.write_text(TOTAL_CONFLICT)
        assert main([
            "conflict", "--problem", str(path), "--trials", "100",
            "--restart-cap", "50",
        ]) == 3
        assert "error:" in capsys.readouterr().err


class TestValidate:
    def test_ok(self, set_file, capsys):
        assert main(["validate", "--problem", set_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.bel"
        path.write_text("frame: a b\nsource:\n  0.6 {a}\n  0.5 {b}\n")
        assert main(["validate", "--problem", path.as_posix()]) == 2
        assert "sum to 1.1" in capsys.readouterr().out

    def test_logic_report(self, tmp_path, capsys):
        path = tmp_path / "bad.lg"
        path.write_text("atoms: p\nsource:\n  1.0 [p !p]\n")
        assert main(["validate", "--problem", str(path)]) == 2
        assert "contradictory term" in capsys.readouterr().out


class TestGenerate:
    def test_output_parses_and_is_seeded(self, capsys):
        argv = ["generate", "-m", "4", "-n", "6", "--seed", "5",
                "--probe-trials", "300"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert first.startswith("# generated: m=4 n=6")
        problem = parse_problem(first)
        assert len(problem.sources) == 4
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_write_to_file(self, tmp_path, capsys):
        out = tmp_path / "gen.bel"
        assert main([
            "generate", "-m", "3", "-n", "5", "-o", str(out),
            "--probe-trials", "200",
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        parse_problem(out.read_text())

    def test_target_conflict_reported(self, capsys):
        assert main([
            "generate", "-m", "6", "-n", "16", "--target-conflict", "0.4",
            "--probe-trials", "400", "--seed", "2",
        ]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert "kappa_hat=" in head

    def test_bad_shape(self, capsys):
        assert main(["generate", "-m", "0", "-n", "5"]) == 2


class TestBench:
    def test_tiny_grid_csv(self, capsys):
        assert main([
            "bench", "--sizes", "4,6", "--trials", "300", "--reps", "1",
            "--csv", "--seed", "1",
        ]) == 0
        captured = capsys.readouterr()
        rows = rows_of(captured.out)
        assert len(rows) == 4
        assert {(r["m"], r["n"]) for r in rows} == {
            ("4", "4"), ("4", "6"), ("6", "4"), ("6", "6"),
        }
        for r in rows:
            assert r["trials"] == "300"
            assert float(r["mc_wall_ms"]) > 0
            if r["exact_value"] != "capped" and not r["note"]:
                assert float(r["abs_error"]) <= 0.12
        assert "estimator wall time" in captured.err or "no exponent fit" in captured.err

    def test_rectangular_axes(self, capsys):
        assert main([
            "bench", "--source-counts", "3", "--element-counts", "4,5",
            "--trials", "200", "--reps", "1", "--csv",
        ]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert [(r["m"], r["n"]) for r in rows] == [("3", "4"), ("3", "5")]

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--sizes", "3,zap"]) == 2

    def test_zero_reps_rejected(self, capsys):
        assert main(["bench", "--sizes", "4", "--reps", "0"]) == 2
        assert "repetitions" in capsys.readouterr().err


def test_module_entry_point(set_file):
    proc = subprocess.run(
        [sys.executable, "-m", "beliefmc", "validate", "--problem", set_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
