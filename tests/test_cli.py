"""End-to-end command-line tests driven through ``main(argv)``."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from beliefmc import (
    ExcessiveConflictError,
    Frame,
    ResourceLimitError,
    TotalConflictError,
    exact,
    parse_problem,
)
from beliefmc.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH_DATA = SRC.parent / "perfbench" / "data"

# The benchmark's tolerance on exact answers: its own slack plus half a
# unit in the seventh printed decimal.
PRINTED_TOL = 1e-9 + 0.5e-7

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

# 300 simple supports on ten elements, source i certifying all but element
# i mod 10: a fold of 300 steps, each of at most 2**10 entries times two.
LONG_FOLD = "frame: " + " ".join(f"x{i}" for i in range(10)) + "\n" + "".join(
    f"source:\n  0.05 {{{' '.join(f'x{j}' for j in range(10) if j != i % 10)}}}\n  0.95 *\n"
    for i in range(300)
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


NO_CLAUSE = "a logic problem needs at least one --query clause"


class TestRefusals:
    @pytest.mark.parametrize(
        "file, argv, message",
        [
            # both logic commands refuse a missing clause in the same words
            *(
                ("logic_file", [command, "--logic"], NO_CLAUSE)
                for command in ("estimate", "exact")
            ),
            ("set_file", ["estimate", "--budget", "5"], "--budget applies only to logic problems"),
            ("set_file", ["conflict", "--time-cap", "1"], "--time-cap applies only with --exact"),
        ],
    )
    def test_one_error_line(self, request, capsys, file, argv, message):
        path = request.getfixturevalue(file)
        assert main([*argv, "--problem", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv", [["exact", "--logic", "--query", "[a0]"], ["conflict", "--exact", "--logic"]]
    )
    def test_translation_atom_cap(self, tmp_path, capsys, argv):
        # a valid 17-atom file: the assignment frame would have 2**17 elements
        path = tmp_path / "wide.lg"
        path.write_text(
            "atoms: " + " ".join(f"a{i}" for i in range(17)) + "\nsource:\n  1.0 []\n"
        )
        assert main([*argv, "--problem", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the 16-atom limit" in captured.err


class TestLogicEstimate:
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

    def test_clauses_in_one_call_print_their_single_rows(self, logic_file, capsys):
        common = [
            "estimate", "--problem", logic_file, "--csv", "--budget", "3",
            "--trials", "3000", "--seed", "9", "--workers", "2",
        ]
        assert main([*common, "--query", "[p]", "--query", "[q]"]) == 0
        both = capsys.readouterr().out.splitlines()
        singles = []
        for query in ("[p]", "[q]"):
            assert main([*common, "--query", query]) == 0
            singles.append(capsys.readouterr().out.splitlines())
        assert both == [singles[0][0], singles[0][1], singles[1][1]]
        for row in rows_of("\n".join(both)):
            assert 0 < int(row["timeouts"]) < 3000
            assert int(row["successes"]) > 0

    @pytest.mark.parametrize("command", ["estimate", "exact"])
    @pytest.mark.parametrize("queries", [["[zz]"], ["[p]", "[!q zz]"]])
    def test_undeclared_atom_in_query(self, logic_file, capsys, command, queries):
        # both commands refuse a clause over an atom the header does not
        # declare, as set queries refuse an unknown element
        args = [a for q in queries for a in ("--query", q)]
        assert main([command, "--logic", "--problem", logic_file, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1, column 1: unknown atom 'zz'\n"

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

    def test_logic_builds_one_frame(self, logic_file, capsys, monkeypatch):
        built = []
        post_init = Frame.__post_init__

        def counted(frame):
            built.append(frame)
            post_init(frame)

        monkeypatch.setattr(Frame, "__post_init__", counted)
        assert main([
            "exact", "--problem", logic_file, "--query", "[p]", "--query", "[!p q]",
        ]) == 0
        assert "Bel([p]) = 0.5384615" in capsys.readouterr().out
        assert len(built) == 1

    def test_entry_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "wide.bel"
        path.write_text(WIDE_FOLD)
        monkeypatch.setattr(exact, "MAX_ENTRIES", 4)
        assert main(["exact", "--problem", str(path)]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cap",
        [
            *(
                (command, cap)
                for command in (("exact",), ("conflict", "--exact"))
                for cap in (("--time-cap", "nan"), ("--time-cap", "-1"))
            ),
            # the cap is read only with --exact, so any value without it is refused
            *((("conflict",), ("--time-cap", t)) for t in ("nan", "-1", "1")),
        ],
    )
    def test_invalid_cap_exit_code(self, set_file, capsys, command, cap):
        assert main([*command, "--problem", set_file, *cap]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("exact",), ("conflict", "--exact")])
    def test_zero_time_cap_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "long.bel"
        path.write_text(LONG_FOLD)
        assert main([*command, "--problem", str(path), "--time-cap", "0"]) == 4
        assert "step 0: wall-clock cap exceeded" in capsys.readouterr().err

    def test_total_conflict_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tc.bel"
        path.write_text(TOTAL_CONFLICT)
        assert main(["exact", "--problem", str(path)]) == 3


L10A40 = str(BENCH_DATA / "l10a40.bel")
TIME_CAP_ERROR = "error: time cap must be >= 0, got -1.0"


@pytest.mark.parametrize(
    "argv, code, last_line",
    [
        # both exact requests trip the one entry cap under one label, on a
        # fold over sets and on a fold over term codes
        *(
            (argv, 4, f"error: exact fold step {step}: intermediate table exceeded 50 entries")
            for argv, step in (
                (["exact", "--problem", "LONG"], 5),
                (["conflict", "--exact", "--problem", "LONG"], 5),
                (["exact", "--logic", "--problem", L10A40, "--query", "[a1 a6]"], 8),
                (["conflict", "--exact", "--logic", "--problem", L10A40], 8),
            )
        ),
        # neither request takes an entry-cap option
        *(
            (
                [*command, "--problem", "LONG", "--max-entries", "4"], 2,
                "beliefmc: error: unrecognized arguments: --max-entries 4",
            )
            for command in (["exact"], ["conflict", "--exact"])
        ),
        # one time-cap rule, one message
        (["exact", "--problem", "LONG", "--time-cap", "-1"], 2, TIME_CAP_ERROR),
        (["bench", "--sizes", "3", "--exact-cap", "-1"], 2, TIME_CAP_ERROR),
    ],
)
def test_one_cap_contract(tmp_path, capsys, monkeypatch, argv, code, last_line):
    path = tmp_path / "long.bel"
    path.write_text(LONG_FOLD)
    monkeypatch.setattr(exact, "MAX_ENTRIES", 50)
    try:
        got = main([str(path) if a == "LONG" else a for a in argv])
    except SystemExit as e:  # argparse refuses an unknown option itself
        got = e.code
    assert got == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert captured.err.splitlines()[-1] == last_line


def bench_fixture(name: str) -> dict:
    manifest = json.loads((BENCH_DATA / "fixtures.json").read_text())
    return next(fx for fx in manifest["fixtures"] if fx["name"] == name)


@pytest.mark.parametrize(
    "name", ["b14x20", "b16x26", "b18x32", "l10a40", "l10a50", "l12a50", "l12a60"]
)
def test_exact_answers_match_benchmark_references(name, capsys):
    fx = bench_fixture(name)
    mode = ["--logic"] if "atoms" in fx else []
    path = str(BENCH_DATA / fx["file"])
    ref = fx["reference"]
    queries = [a for q in fx["queries"] for a in ("--query", q)]
    assert main(["exact", *mode, "--problem", path, *queries, "--csv"]) == 0
    rows = rows_of(capsys.readouterr().out)
    assert [r["query"] for r in rows] == fx["queries"]
    assert len(rows) == len(ref["exact"])
    for row, want in zip(rows, ref["exact"]):
        assert float(row["belief"]) == pytest.approx(want, abs=PRINTED_TOL), row["query"]
        assert float(row["conflict"]) == pytest.approx(ref["conflict"], abs=PRINTED_TOL)
    assert main(["conflict", "--exact", "--problem", path, "--csv"]) == 0
    (row,) = rows_of(capsys.readouterr().out)
    assert row["mode"] == "exact"
    want = ref.get("conflict_enum", ref["conflict"])
    assert float(row["kappa"]) == pytest.approx(want, abs=PRINTED_TOL)


def test_exact_conflict_beyond_joint_outcome_counts(capsys):
    # s40x40 has 2**40 joint outcomes; the pruned fold answers it
    fx = bench_fixture("s40x40")
    path = str(BENCH_DATA / fx["file"])
    assert main(["conflict", "--exact", "--problem", path, "--csv"]) == 0
    (row,) = rows_of(capsys.readouterr().out)
    # the fixture's kappa (0.4963) is the tuner's 2000-trial probe estimate,
    # not this exact value
    assert float(row["kappa"]) == pytest.approx(0.4929792, abs=PRINTED_TOL)


#: ``estimate --logic --budget B --accuracy 0.03 --csv`` rows of the
#: ``logic-budget`` fixtures, by ``(fixture, workers, seed)``, recorded with
#: the per-draw logic kernel.
LOGIC_BUDGET_ROWS = {
    ("l10a40", 1, 1): (
        "[a1 a6],0.820800,0.935600,0.010000,2500,2052,287,2474",
        "[!a5 a8],0.056400,0.178400,0.010000,2500,141,305,2474",
    ),
    ("l10a40", 1, 2): (
        "[a1 a6],0.823200,0.932800,0.010000,2500,2058,274,2458",
        "[!a5 a8],0.068400,0.185200,0.010000,2500,171,292,2458",
    ),
    ("l10a40", 2, 1): (
        "[a1 a6],0.833200,0.934400,0.010000,2500,2083,253,2362",
        "[!a5 a8],0.058000,0.164800,0.010000,2500,145,267,2362",
    ),
    ("l10a40", 2, 2): (
        "[a1 a6],0.818800,0.932400,0.010000,2500,2047,284,2515",
        "[!a5 a8],0.064000,0.186800,0.010000,2500,160,307,2515",
    ),
    ("l10a50", 1, 1): (
        "[!a3 a8],0.045600,0.151600,0.010000,2500,114,265,5667",
        "[!a4 a8],0.069600,0.175600,0.010000,2500,174,265,5667",
    ),
    ("l10a50", 1, 2): (
        "[!a3 a8],0.042000,0.153200,0.010000,2500,105,278,5710",
        "[!a4 a8],0.063200,0.174400,0.010000,2500,158,278,5710",
    ),
    ("l10a50", 2, 1): (
        "[!a3 a8],0.046400,0.152800,0.010000,2500,116,266,5596",
        "[!a4 a8],0.072000,0.177600,0.010000,2500,180,264,5596",
    ),
    ("l10a50", 2, 2): (
        "[!a3 a8],0.046400,0.164000,0.010000,2500,116,294,5899",
        "[!a4 a8],0.060800,0.178000,0.010000,2500,152,293,5899",
    ),
    ("l12a50", 1, 1): (
        "[a1 a2],0.829200,0.942400,0.010000,2500,2073,283,3712",
        "[!a5 !a6],0.060000,0.178800,0.010000,2500,150,297,3712",
    ),
    ("l12a50", 1, 2): (
        "[a1 a2],0.834000,0.946000,0.010000,2500,2085,280,3733",
        "[!a5 !a6],0.068400,0.184400,0.010000,2500,171,290,3733",
    ),
    ("l12a50", 2, 1): (
        "[a1 a2],0.835200,0.946800,0.010000,2500,2088,279,3620",
        "[!a5 !a6],0.064000,0.182000,0.010000,2500,160,295,3620",
    ),
    ("l12a50", 2, 2): (
        "[a1 a2],0.831200,0.954400,0.010000,2500,2078,308,3899",
        "[!a5 !a6],0.064000,0.192400,0.010000,2500,160,321,3899",
    ),
    ("l12a60", 1, 1): (
        "[a2 a3],0.850800,0.936800,0.010000,2500,2127,215,14358",
        "[!a10 !a2],0.058400,0.147200,0.010000,2500,146,222,14358",
    ),
    ("l12a60", 1, 2): (
        "[a2 a3],0.839600,0.927200,0.010000,2500,2099,219,14351",
        "[!a10 !a2],0.056800,0.145600,0.010000,2500,142,222,14351",
    ),
    ("l12a60", 2, 1): (
        "[a2 a3],0.858800,0.941200,0.010000,2500,2147,206,14086",
        "[!a10 !a2],0.062000,0.146000,0.010000,2500,155,210,14086",
    ),
    ("l12a60", 2, 2): (
        "[a2 a3],0.829600,0.922000,0.010000,2500,2074,231,14702",
        "[!a10 !a2],0.060000,0.154400,0.010000,2500,150,236,14702",
    ),
}


@pytest.mark.parametrize("name", ["l10a40", "l10a50", "l12a50", "l12a60"])
def test_budgeted_logic_estimates_match_pinned_rows(name, capsys):
    # byte-identical CSV on the benchmark's own problems, budgets and clauses
    fx = bench_fixture(name)
    queries = [a for q in fx["queries"] for a in ("--query", q)]
    for workers in (1, 2):
        for seed in (1, 2):
            assert main([
                "estimate", "--logic", "--problem", str(BENCH_DATA / fx["file"]), *queries,
                "--budget", str(fx["budget"]), "--accuracy", "0.03",
                "--workers", str(workers), "--seed", str(seed), "--csv",
            ]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == "query,lower,upper,sd_bound,trials,successes,timeouts,restarts"
            assert tuple(lines[1:]) == LOGIC_BUDGET_ROWS[(name, workers, seed)], (workers, seed)


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

    def test_logic_without_literals_has_no_conflict(self, tmp_path, capsys):
        path = tmp_path / "empty.lg"
        path.write_text("atoms: p\nsource:\n  0.6 []\n  0.4 []\nsource:\n  1.0 []\n")
        assert main([
            "conflict", "--logic", "--problem", str(path), "--csv", "--trials", "700",
        ]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "mc,0.000000,1.0000,700,0"

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

    def test_zero_exact_cap_caps_every_cell(self, capsys):
        # the estimator alone, timed per cell, as for large frames
        assert main([
            "bench", "--sizes", "8", "--reps", "1", "--trials", "50",
            "--exact-cap", "0", "--csv",
        ]) == 0
        rows = rows_of(capsys.readouterr().out)
        assert rows and all(r["exact_wall_ms"] == "capped" for r in rows)
        assert all(float(r["mc_wall_ms"]) > 0 for r in rows)

    @pytest.mark.parametrize("sizes", ["3,zap", "0", ""], ids=["not-a-number", "zero", "empty"])
    def test_bad_sizes(self, capsys, sizes):
        assert main(["bench", "--sizes", sizes]) == 2
        assert f"bad size list {sizes!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("arg, value, message", [
        ("--exact-cap", "nan", "time cap must be >= 0, got nan"),
        ("--exact-cap", "-1", "time cap must be >= 0, got -1.0"),
        ("--trials", "0", "trials must be >= 1, got 0"),
        ("--workers", "0", "worker_count must be >= 1, got 0"),
    ])
    def test_invalid_exact_cap_rejected(self, capsys, monkeypatch, arg, value, message):
        # refused before any cell is tuned, with the texts the later checks give
        import beliefmc.bench as bench

        monkeypatch.setattr(bench, "tune_focus_density", None)
        assert main(["bench", "--sizes", "3", "--trials", "50", "--reps", "1", arg, value]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["1.5", "-3", "1", "nan"])
    def test_target_conflict_outside_unit_interval_rejected(self, capsys, monkeypatch, target):
        # refused before any cell is tuned, as `generate` refuses it
        import beliefmc.bench as bench

        monkeypatch.setattr(bench, "tune_focus_density", None)
        assert main(["bench", "--sizes", "3", "--target-conflict", target]) == 2
        assert f"target conflict {float(target)!r} outside [0, 1)" in capsys.readouterr().err

    def test_zero_reps_rejected(self, capsys):
        assert main(["bench", "--sizes", "4", "--reps", "0"]) == 2
        assert "repetitions" in capsys.readouterr().err

    @pytest.mark.parametrize("step_s, folds", [(0.001, 3), (1.0, 1)])
    def test_a_slow_exact_fold_is_timed_once(self, monkeypatch, step_s, folds):
        # every clock reading is step_s after the last, so every timed run
        # takes step_s; a first fold of 1 s or more is not repeated
        import beliefmc.bench as bench

        clock = itertools.count(0.0, step_s)
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
        calls = []
        combine = bench.combine_all
        monkeypatch.setattr(bench, "combine_all", lambda *a, **k: calls.append(a) or combine(*a, **k))
        report = bench.run_bench([2], [4], trials=50, repetitions=3)
        assert len(calls) == folds
        assert report.cells[0].exact_wall_ms == pytest.approx(step_s * 1e3)


    def test_text_table(self, monkeypatch, capsys):
        # one cell of each kind: capped, restart cap exhausted, total
        # conflict and plain
        import beliefmc.bench as bench

        estimate, combine = bench.estimate, bench.combine_all

        def estimate_or_trip(problem, *args, **kwargs):
            if problem.frame.size == 5:
                raise ExcessiveConflictError("restart cap exhausted", 0.97)
            return estimate(problem, *args, **kwargs)

        def combine_or_trip(problem, *args, **kwargs):
            if problem.frame.size == 4:
                raise ResourceLimitError("exact fold step 0: wall-clock cap exceeded")
            if problem.frame.size == 6:
                raise TotalConflictError("exact fold: total conflict, combination undefined")
            return combine(problem, *args, **kwargs)

        monkeypatch.setattr(bench, "estimate", estimate_or_trip)
        monkeypatch.setattr(bench, "combine_all", combine_or_trip)
        assert main([
            "bench", "--source-counts", "3", "--element-counts", "4,5,6,7",
            "--reps", "1", "--trials", "50",
        ]) == 0
        head, *rows, summary = capsys.readouterr().out.splitlines()
        assert head.split() == [
            "m", "n", "kappa", "draws", "mc_ms", "exact_ms", "mc_value", "exact", "abs_err",
        ]
        cells = [row.split() for row in rows]
        assert [c[:2] for c in cells] == [["3", "4"], ["3", "5"], ["3", "6"], ["3", "7"]]
        assert cells[0][5:] == ["capped", cells[0][6], "-", "-"]
        assert cells[1][2:] == [
            "0.970", "nan", "nan", "-", "nan", "-", "-", "[restart", "cap", "exhausted]",
        ]
        assert cells[2][5] == "-" and cells[2][7:] == ["-", "-", "[total", "conflict]"]
        assert float(cells[3][5]) > 0 and len(cells[3]) == 9
        assert abs(float(cells[3][6]) - float(cells[3][7])) == pytest.approx(float(cells[3][8]), abs=2e-4)
        assert summary.startswith("estimator wall time ~ (m*n)^")

    def test_restart_cap_cell_is_kept_and_skipped_by_the_fit(self, monkeypatch):
        import beliefmc.bench as bench

        estimate = bench.estimate

        def estimate_or_trip(problem, *args, **kwargs):
            if problem.frame.size == 5:
                raise ExcessiveConflictError("restart cap exhausted", 0.97)
            return estimate(problem, *args, **kwargs)

        monkeypatch.setattr(bench, "estimate", estimate_or_trip)
        report = bench.run_bench([3], [4, 5, 6], trials=50, repetitions=1)
        tripped = report.cells[1]
        assert tripped.note == "restart cap exhausted" and tripped.kappa_hat == 0.97
        assert math.isnan(tripped.mc_wall_ms) and tripped.exact_value is None
        assert not tripped.exact_capped
        kept = (report.cells[0], report.cells[2])
        assert report.time_exponent == bench.fit_time_exponent(
            [12.0, 18.0], [c.mc_wall_ms for c in kept]
        )


def test_module_entry_point(set_file):
    # the child imports the same checkout's package, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "beliefmc", "validate", "--problem", set_file],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"


def test_only_bench_imports_the_bench_module():
    # the benchmark's tracer needs logic loaded by every command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, beliefmc.cli; "
        "print(*(m in sys.modules for m in ('beliefmc.bench', 'beliefmc.logic')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.split() == ["False", "True"]
