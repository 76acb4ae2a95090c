"""Problem text format: parsing, rendering, generation and tuning."""

from __future__ import annotations

import pytest

from beliefmc import (
    EvidenceProblem,
    Frame,
    InvalidProblemError,
    LogicProblem,
    ParseError,
    TermSet,
    conflict_exact,
    generate_problem,
    parse_clause,
    parse_problem,
    parse_query,
    render_problem,
    simple_support,
    tune_focus_density,
)
from conftest import random_logic_problem, random_problem

TWO_SSF = """\
# the worked pair
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


class TestParse:
    def test_set_problem(self):
        problem = parse_problem(TWO_SSF)
        assert isinstance(problem, EvidenceProblem)
        assert problem.frame.elements == ("x1", "x2", "x3")
        assert len(problem.sources) == 2
        s0 = problem.sources[0]
        assert s0.outcomes[0] == (0.6, problem.frame.singleton("x1"))
        assert s0.outcomes[1] == (0.4, problem.frame.universe())

    def test_logic_problem(self):
        problem = parse_problem(LOGIC_TEXT)
        assert isinstance(problem, LogicProblem)
        assert problem.atoms == ("p", "q")
        assert problem.sources[0].outcomes[0][1] == TermSet.of("p")
        assert problem.sources[1].outcomes[0][1] == TermSet.of("!p", "q")
        assert problem.sources[0].outcomes[1][1].is_empty

    def test_comments_and_blank_lines_ignored(self):
        text = "\n\n# lead\nframe: a b # trailing\n\nsource:\n 1.0 * # note\n"
        problem = parse_problem(text)
        assert problem.frame.elements == ("a", "b")

    def test_empty_set_and_universe_tokens(self):
        frame = parse_problem(TWO_SSF).frame
        assert parse_query(frame, "*").is_full
        assert parse_query(frame, "{}").is_empty
        assert tuple(parse_query(frame, "{x1 x3}")) == ("x1", "x3")

    def test_clause_parse(self):
        c = parse_clause("[!q p]")
        assert str(c) == "[p !q]"  # literals sort by atom
        with pytest.raises(ParseError):
            parse_clause("[]")
        with pytest.raises(ParseError):
            parse_clause("p")

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("source:\n 1.0 *\n")
        assert exc.value.line == 1

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_problem("")
        with pytest.raises(ParseError):
            parse_problem("# only a comment\n")

    def test_outcome_before_source(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("frame: a\n0.5 {a}\n")
        assert exc.value.line == 2
        assert "outside a source block" in str(exc.value)

    def test_bad_probability(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("frame: a\nsource:\n oops {a}\n")
        assert exc.value.line == 3
        assert "bad probability" in str(exc.value)

    def test_unknown_element_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_problem("frame: a b\nsource:\n  0.5 {c}\n  0.5 *\n")
        assert (exc.value.line, exc.value.column) == (3, 7)

    def test_unclosed_set(self):
        with pytest.raises(ParseError, match="closing"):
            parse_problem("frame: a\nsource:\n 1.0 {a\n")

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="second"):
            parse_problem("frame: a\nframe: b\nsource:\n 1.0 *\n")

    def test_duplicate_frame_label(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_problem("frame: a a\nsource:\n 1.0 *\n")

    def test_missing_target(self):
        with pytest.raises(ParseError, match="target"):
            parse_problem("frame: a\nsource:\n 1.0\n")

    def test_bad_literal(self):
        with pytest.raises(ParseError, match="bad literal"):
            parse_problem("atoms: p\nsource:\n 1.0 [!!p]\n")

    def test_set_expr_in_logic_problem(self):
        with pytest.raises(ParseError, match="term"):
            parse_problem("atoms: p\nsource:\n 1.0 {p}\n")

    def test_validation_failures_raise(self):
        bad_sum = "frame: a\nsource:\n 0.6 {a}\n 0.5 *\n"
        with pytest.raises(InvalidProblemError) as e:
            parse_problem(bad_sum)
        assert e.value.violations == ["source 0: probabilities sum to 1.1"]

    def test_unknown_atom_is_validation_not_syntax(self):
        text = "atoms: p\nsource:\n 1.0 [q]\n"
        with pytest.raises(InvalidProblemError, match="unknown atom"):
            parse_problem(text)


class TestRender:
    def test_golden_set_problem(self, two_ssf_problem):
        assert render_problem(two_ssf_problem) == (
            "frame: x1 x2 x3\n"
            "source:\n"
            "  0.6 {x1}\n"
            "  0.4 *\n"
            "source:\n"
            "  0.5 {x2}\n"
            "  0.5 *\n"
        )

    def test_roundtrip_equality(self, two_ssf_problem):
        assert parse_problem(render_problem(two_ssf_problem)) == two_ssf_problem
        logic = parse_problem(LOGIC_TEXT)
        assert parse_problem(render_problem(logic)) == logic

    def test_roundtrip_random_problems(self):
        for seed in range(20):
            problem = random_problem(seed)
            assert parse_problem(render_problem(problem)) == problem
        for seed in range(20):
            lp = random_logic_problem(seed)
            assert parse_problem(render_problem(lp)) == lp

    def test_probabilities_roundtrip_exactly(self):
        frame = Frame(("x1", "x2"))
        weight = 0.123456789012345678
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.singleton("x1"), weight),)
        )
        parsed = parse_problem(render_problem(problem))
        assert parsed.sources[0].outcomes[0][0] == problem.sources[0].outcomes[0][0]

    def test_unrenderable_label_rejected(self):
        frame = Frame(("a b",))
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.universe(), 1.0),)
        )
        with pytest.raises(ValueError, match="not renderable"):
            render_problem(problem)


class TestGenerate:
    def test_shape_and_determinism(self):
        g1 = generate_problem(5, 8, seed=7)
        g2 = generate_problem(5, 8, seed=7)
        assert g1.problem == g2.problem
        assert g1.conflict_estimate == g2.conflict_estimate
        assert len(g1.problem.sources) == 5
        assert g1.problem.frame.size == 8
        universe = g1.problem.frame.universe()
        for s in g1.problem.sources:
            (w, focus), rest = s.outcomes
            assert rest == (1.0 - w, universe)
            assert 0.4 <= w <= 0.9

    def test_seeds_differ(self):
        assert generate_problem(5, 8, seed=1).problem != generate_problem(5, 8, seed=2).problem

    def test_source_streams_are_independent_of_count(self):
        few = generate_problem(3, 8, seed=9).problem
        many = generate_problem(6, 8, seed=9).problem
        assert few.sources == many.sources[:3]

    def test_full_density_gives_vacuous_foci(self):
        g = generate_problem(4, 6, focus_density=1.0, seed=0)
        for s in g.problem.sources:
            assert all(t.is_full for _, t in s.outcomes)
        assert g.conflict_estimate == 0.0

    def test_probe_that_trips_the_restart_cap_reports_its_conflict(self):
        # certain singleton foci on a wide frame: nearly every draw
        # conflicts, so the probe blows the restart cap and its conflict
        # estimate is taken from the error
        g = generate_problem(5, 50, weight_range=(1.0, 1.0), focus_density=0.005)
        assert all(len(t) == 1 for s in g.problem.sources for _, t in s.outcomes)
        assert g.conflict_estimate > 0.99

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            generate_problem(0, 5)
        with pytest.raises(ValueError):
            generate_problem(5, 5, weight_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            generate_problem(5, 5, focus_density=0.0)

    def test_roundtrips_through_text(self):
        g = generate_problem(6, 10, seed=3)
        assert parse_problem(render_problem(g.problem)) == g.problem


class TestTuneFocusDensity:
    def test_reaches_target_on_fine_grained_frame(self):
        # Density only moves conflict in steps (each frame element toggles
        # into a focus at its own threshold), so target a frame large
        # enough that those steps are small.
        g = tune_focus_density(10, 40, target_conflict=0.5, seed=3)
        assert g.conflict_estimate == pytest.approx(0.5, abs=0.1)

    def test_returns_closest_probe_when_target_unreachable(self):
        # On a coarse cell the conflict curve can jump right over the
        # target; the tuner still hands back the nearest draw it saw.
        g = tune_focus_density(8, 16, target_conflict=0.5, seed=11)
        lo = generate_problem(
            8, 16, weight_range=g.weight_range, focus_density=g.focus_density, seed=11
        )
        assert g.conflict_estimate == lo.conflict_estimate

    @pytest.mark.parametrize("m, n", [(10, 15), (10, 20), (12, 24)])
    def test_exact_conflict_lands_on_target(self, m, n):
        # the weight-scale stage moves the conflict smoothly, so the exact
        # conflict, not only the probe's estimate, lands near the target
        for seed in (1, 2, 3):
            g = tune_focus_density(m, n, target_conflict=0.5, seed=seed)
            assert conflict_exact(g.problem) == pytest.approx(0.5, abs=0.03), seed

    def test_objective_guard(self):
        with pytest.raises(ValueError):
            tune_focus_density(4, 4, target_conflict=1.0)

    def test_probe_budget_respected(self, monkeypatch):
        import beliefmc.problem_io as pio

        calls = 0
        real = pio.generate_problem

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(pio, "generate_problem", counting)
        monkeypatch.setattr(pio, "_DENSITY_PROBES", 12)
        monkeypatch.setattr(pio, "_SCALE_PROBES", 5)
        pio.tune_focus_density(5, 8, target_conflict=0.4, seed=2)
        assert calls == 12 + 5
        # two sources of weight at most 0.9 conflict at most 0.81, so no
        # density probe reaches the target and the weight-scale stage is
        # skipped
        calls = 0
        pio.tune_focus_density(2, 8, target_conflict=0.95, seed=2)
        assert calls == 12
        # a conflict equal to the target reaches it: one source never
        # conflicts, so every probe reads 0.0 and both stages run
        calls = 0
        pio.tune_focus_density(1, 8, target_conflict=0.0, seed=2)
        assert calls == 12 + 5


# (text, (line, column, message)) for every ParseError branch of
# parse_problem.  No message echoes whitespace from its input, so the
# variants below keep every expected triple.
PARSE_ERRORS = [
    ("", (1, 1, "expected a 'frame:' or 'atoms:' header")),
    ("# only a comment\n\n", (1, 1, "expected a 'frame:' or 'atoms:' header")),
    ("0.5 {a}\n", (1, 1, "expected a 'frame:' or 'atoms:' header")),
    ("  source:\n 1.0 *\n", (1, 3, "'source:' before a 'frame:' or 'atoms:' header")),
    ("frame: a\n  frame: b\n", (2, 3, "unexpected second 'frame:' header")),
    ("frame: a\nsource:\n 1.0 *\natoms: p\n", (4, 1, "unexpected second 'atoms:' header")),
    (" frame: a {b}\n", (1, 2, "bad name '{b}' in 'frame:' header")),
    ("atoms: p !q\n", (1, 1, "bad name '!q' in 'atoms:' header")),
    ("frame:\nsource:\n 1.0 *\n", (1, 1, "frame needs at least one element")),
    ("frame: a b a\n", (1, 1, "duplicate element label: 'a'")),
    ("frame: a\n source: x\n", (2, 2, "unexpected text after 'source:'")),
    ("frame: a\n  0.5 {a}\n", (2, 3, "outcome line outside a source block")),
    ("frame: a\nsource:\n oops {a}\n", (3, 2, "bad probability 'oops'")),
    ("frame: a\nsource:\n  1.0\n", (3, 3, "outcome needs a target after the probability")),
    ("frame: a\nsource:\n 1.0 a\n", (3, 6, "expected a set like {x1 x2} or *, got 'a'")),
    ("atoms: p\nsource:\n 1.0 {p}\n", (3, 6, "expected a term like [p !q], got '{p}'")),
    ("frame: a\nsource:\n 1.0   {a\n", (3, 8, "expected '}' closing the set")),
    ("atoms: p\nsource:\n 1.0 [p\n", (3, 6, "expected ']' closing the term")),
    ("frame: a b\nsource:\n  0.5 {a c d}\n  0.5 *\n", (3, 7, "unknown element 'c'")),
    ("frame: a b\nsource:\n 0.5 {b}\n 0.5 {a zz}\n", (4, 6, "unknown element 'zz'")),
    ("atoms: p q\nsource:\n 1.0 [p !!q]\n", (3, 6, "bad literal: '!!q'")),
    # Line structure is checked on the whole file before any frame or
    # target, so a later structural error wins over an earlier target one.
    ("frame: a\nsource:\n 1.0 {b}\nsource: x\n", (4, 1, "unexpected text after 'source:'")),
    ("frame: a a\nsource:\n 1.0 {b}\n nan? *\n", (4, 2, "bad probability 'nan?'")),
    ("frame: a a\nsource:\n 1.0 {b}\n", (1, 1, "duplicate element label: 'a'")),
    # the target's first character also occurs inside the probability
    ("frame: e\nsource:\n 1e0 e\n", (3, 6, "expected a set like {x1 x2} or *, got 'e'")),
]


def _with_comments(text: str) -> str:
    return "".join(line + " # note\n" for line in text.splitlines())


PARSE_VARIANTS = {
    "plain": lambda text: text,
    "comments": _with_comments,
    "tabs": lambda text: text.replace(" ", "\t"),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


class TestParseErrorPositions:
    @pytest.mark.parametrize("variant", sorted(PARSE_VARIANTS))
    @pytest.mark.parametrize("text, want", PARSE_ERRORS)
    def test_parse_problem(self, text, want, variant):
        with pytest.raises(ParseError) as exc:
            parse_problem(PARSE_VARIANTS[variant](text))
        line, column, message = want
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value) == f"line {line}, column {column}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1", "expected a set like {x1 x2} or *, got 'x1'"),
            ("{x1", "expected '}' closing the set"),
            ("{x1 zz x9}", "unknown element 'zz'"),
        ],
    )
    def test_parse_query(self, text, message):
        frame = Frame(("x1", "x2"))
        with pytest.raises(ParseError) as exc:
            parse_query(frame, text)
        assert str(exc.value) == f"line 1, column 1: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p", "expected a term like [p !q], got 'p'"),
            ("[p", "expected ']' closing the term"),
            ("[p !!q]", "bad literal: '!!q'"),
            ("[]", "clause query needs at least one literal"),
        ],
    )
    def test_parse_clause(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_clause(text)
        assert str(exc.value) == f"line 1, column 1: {message}"
