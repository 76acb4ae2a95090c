"""Validation runs once per request, and every entry point still checks
what it is given."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefmc import (
    EvidenceProblem,
    Frame,
    InvalidProblemError,
    Literal,
    LogicProblem,
    LogicSource,
    SourceModel,
    TermSet,
    TrialEngineConfig,
    combine_all,
    conflict_exact,
    estimate,
    exact_belief_enumeration,
    logic_estimate,
    parse_clause,
    parse_problem,
    translate_to_set_problem,
    validate_logic_problem,
    validate_problem,
)
from beliefmc.cli import main
from beliefmc.logic import validate_logic_sources

VALIDATORS = (
    "validate_problem",
    "require_valid",
    "validate_logic_problem",
    "validate_logic_sources",
)

SET_TEXT = """\
frame: x1 x2 x3
source:
  0.6 {x1}
  0.4 *
source:
  0.5 {x1 x2}
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

# Probabilities sum to 1.1: parses, fails validation.
BAD_SET_TEXT = "frame: x1 x2\nsource:\n  0.6 {x1}\n  0.5 *\n"


@pytest.fixture()
def validate_calls(monkeypatch):
    """The names of the top-level validate calls made while the test runs.

    Each of the four validate functions is wrapped in every ``beliefmc``
    module that holds it; a call made inside another validate call is part
    of that call and is not counted.
    """
    calls: list[str] = []
    depth = []
    wrappers = {}
    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "beliefmc" or n.startswith("beliefmc."))
    ]
    for m in modules:
        for name in VALIDATORS:
            fn = getattr(m, name, None)
            if fn is None:
                continue
            if fn not in wrappers:

                def counted(*args, _fn=fn, _name=name, **kwargs):
                    if not depth:
                        calls.append(_name)
                    depth.append(_name)
                    try:
                        return _fn(*args, **kwargs)
                    finally:
                        depth.pop()

                wrappers[fn] = counted
            monkeypatch.setattr(m, name, wrappers[fn])
    return calls


@pytest.fixture()
def set_file(tmp_path):
    path = tmp_path / "pair.bel"
    path.write_text(SET_TEXT)
    return str(path)


@pytest.fixture()
def logic_file(tmp_path):
    path = tmp_path / "pair.lg"
    path.write_text(LOGIC_TEXT)
    return str(path)


class TestOneValidationPerRequest:
    @pytest.mark.parametrize(
        "file, args",
        [
            ("set_file", ["estimate", "--trials", "300", "--query", "{x1}"]),
            ("set_file", ["exact", "--query", "{x1}", "--query", "{x2 x3}"]),
            ("set_file", ["conflict", "--exact"]),
            ("set_file", ["conflict", "--trials", "300"]),
            ("logic_file", ["estimate", "--trials", "300", "--query", "[p]", "--budget", "3"]),
            ("logic_file", ["exact", "--query", "[p]", "--query", "[!p q]"]),
            ("logic_file", ["conflict", "--exact"]),
            ("logic_file", ["conflict", "--trials", "300"]),
        ],
    )
    def test_cli_request(self, file, args, request, validate_calls, capsys):
        path = request.getfixturevalue(file)
        assert main([*args, "--problem", path]) == 0
        assert len(validate_calls) == 1, validate_calls

    def test_validate_command(self, set_file, validate_calls, capsys):
        assert main(["validate", "--problem", set_file]) == 0
        assert validate_calls == ["require_valid"]

    def test_invalid_file_is_reported_once(self, tmp_path, validate_calls, capsys):
        path = tmp_path / "bad.bel"
        path.write_text(BAD_SET_TEXT)
        assert main(["estimate", "--problem", str(path)]) == 2
        assert "sum to 1.1" in capsys.readouterr().err
        assert len(validate_calls) == 1

    def test_api_reuses_the_parse_check(self, validate_calls):
        problem = parse_problem(SET_TEXT)
        frame = problem.frame
        cfg = TrialEngineConfig(trials=200, seed=1)
        estimate(problem, [frame.universe()], cfg)
        combine_all(problem)
        exact_belief_enumeration(problem, frame.singleton("x1"))
        conflict_exact(problem)
        logic = parse_problem(LOGIC_TEXT)
        logic_estimate(logic.sources, parse_clause("[p]"), cfg)
        combine_all(translate_to_set_problem(logic))
        assert validate_calls == ["require_valid", "validate_logic_problem"]

    def test_hand_built_problem_is_checked_on_first_use_only(self, validate_calls):
        frame = Frame(("a", "b"))
        problem = EvidenceProblem(
            frame, (SourceModel(frame, ((0.5, frame.singleton("a")), (0.5, frame.universe()))),)
        )
        cfg = TrialEngineConfig(trials=100)
        estimate(problem, [frame.universe()], cfg)
        estimate(problem, [frame.universe()], cfg)
        combine_all(problem)
        assert validate_calls == ["require_valid"]

    def test_mark_takes_no_part_in_equality(self):
        parsed = parse_problem(SET_TEXT)
        fresh = EvidenceProblem(parsed.frame, parsed.sources)
        assert parsed._valid and not fresh._valid
        assert parsed == fresh and hash(parsed) == hash(fresh)
        assert validate_problem(fresh) == [] and fresh._valid


def _bad_set_problem() -> EvidenceProblem:
    frame = Frame(("x1", "x2"))
    source = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
    return EvidenceProblem(frame, (source,))


def _bad_logic_problem() -> LogicProblem:
    source = LogicSource(((0.6, TermSet.of("p")), (0.5, TermSet())))
    return LogicProblem(("p", "q"), (source,))


SET_ENTRY_POINTS = {
    "estimate": lambda p: estimate(p, [p.frame.universe()], TrialEngineConfig(trials=10)),
    "combine_all": combine_all,
    "exact_belief_enumeration": lambda p: exact_belief_enumeration(p, p.frame.universe()),
    "conflict_exact": conflict_exact,
}

LOGIC_ENTRY_POINTS = {
    "logic_estimate": lambda p: logic_estimate(
        p.sources, parse_clause("[p]"), TrialEngineConfig(trials=10)
    ),
    "translate_to_set_problem": translate_to_set_problem,
}


class TestEntryPointsCheck:
    @pytest.mark.parametrize("entry", sorted(SET_ENTRY_POINTS))
    def test_set_entry_point(self, entry):
        problem = _bad_set_problem()
        for _ in range(2):  # a failed check leaves the problem unmarked
            with pytest.raises(InvalidProblemError, match="sum to 1.1"):
                SET_ENTRY_POINTS[entry](problem)

    @pytest.mark.parametrize("entry", sorted(LOGIC_ENTRY_POINTS))
    def test_logic_entry_point(self, entry):
        problem = _bad_logic_problem()
        for _ in range(2):
            with pytest.raises(InvalidProblemError, match="sum to 1.1"):
                LOGIC_ENTRY_POINTS[entry](problem)

    def test_unknown_atom_is_checked_by_translation(self):
        # Valid sources, but the term names an undeclared atom: the source
        # checks pass, the problem check does not.
        source = LogicSource(((1.0, TermSet.of("r")),))
        problem = LogicProblem(("p",), (source,))
        logic_estimate(problem.sources, parse_clause("[r]"), TrialEngineConfig(trials=10))
        with pytest.raises(InvalidProblemError, match="unknown atom 'r'"):
            translate_to_set_problem(problem)

    def test_no_sources(self):
        with pytest.raises(InvalidProblemError, match="no sources"):
            logic_estimate((), parse_clause("[p]"), TrialEngineConfig(trials=10))


@st.composite
def logic_problems(draw) -> LogicProblem:
    """Random logic problems over declared atoms with normalised
    probabilities; some terms hold an atom with both signs."""
    k = draw(st.integers(1, 4))
    atoms = tuple(f"a{i}" for i in range(k))
    sources = []
    for _ in range(draw(st.integers(1, 4))):
        weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        total = math.fsum(weights)
        outcomes = []
        for w in weights:
            picked = draw(st.lists(st.tuples(st.sampled_from(atoms), st.booleans()), max_size=3))
            outcomes.append((w / total, TermSet(tuple(Literal(a, s) for a, s in picked))))
        sources.append(LogicSource(tuple(outcomes)))
    return LogicProblem(atoms, tuple(sources))


@given(logic_problems())
@settings(max_examples=100, deadline=None)
def test_valid_logic_problems_translate_to_valid_set_problems(problem):
    assume(validate_logic_problem(problem) == [])
    translated = translate_to_set_problem(problem)
    assert translated._valid
    # validate_problem runs every check whatever the mark says
    assert validate_problem(translated) == []


@given(
    st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-1.0, 2.0)), max_size=4),
        max_size=3,
    )
)
@settings(max_examples=200, deadline=None)
def test_both_problem_kinds_report_the_shared_rules_alike(probabilities):
    # targets that break no rule of their own kind (the whole frame, the
    # empty term), so each report holds only the rules the kinds share
    frame = Frame(("x",))
    set_problem = EvidenceProblem(
        frame, tuple(SourceModel(frame, tuple((p, frame.universe()) for p in ps)) for ps in probabilities)
    )
    logic_sources = tuple(LogicSource(tuple((p, TermSet()) for p in ps)) for ps in probabilities)
    report = validate_problem(set_problem)
    assert report == validate_logic_sources(logic_sources)
    assert bool(report) != set_problem._valid
