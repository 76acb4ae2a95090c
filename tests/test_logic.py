"""Term-set evidence: entailment, budgeted estimation, exact translation."""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import given, settings

from beliefmc import (
    AssignmentSpace,
    ClauseQuery,
    ExcessiveConflictError,
    FrameTooLargeError,
    InvalidProblemError,
    Literal,
    LogicProblem,
    LogicSource,
    TermSet,
    TrialEngineConfig,
    entails,
    exact_belief_enumeration,
    is_contradictory,
    logic_estimate,
    render_problem,
    translate_to_set_problem,
    validate_logic_problem,
)
from beliefmc.cli import main
from beliefmc.logic import _kernel_logic, _logic_plans
from beliefmc.mc import DEFAULT_RESTART_CAP
from beliefmc.problem_io import parse_clause
from conftest import (
    CountingRandom,
    logic_problem_to_pairs,
    oracle_logic_bel,
    random_clause,
    random_logic_problem,
    satisfiable_by_bruteforce,
    term_sets,
)


@pytest.fixture
def worked_logic_problem() -> LogicProblem:
    """Two sources: 0.7 on [p], 0.5 on [!p q].

    Only the (p, !p q) joint outcome is contradictory, so the conflict is
    0.35 and Bel([p]) = 0.7*0.5 / 0.65 = 7/13 = 0.538461..., while
    Bel([!p]) = 0.3*0.5 / 0.65 = 3/13 = 0.230769...
    """
    return LogicProblem(
        ("p", "q"),
        (
            LogicSource(((0.7, TermSet.of("p")), (0.3, TermSet()))),
            LogicSource(((0.5, TermSet.of("!p", "q")), (0.5, TermSet()))),
        ),
    )


def _stream_problems() -> dict[str, tuple[LogicProblem, tuple[int, ...]]]:
    """Problems with two tight step budgets each: two-, three- and
    four-outcome sources with empty terms, a certain empty source, clashes
    on the 2nd and 3rd literal of ``[a1 a10 a2]``, and atoms whose string
    order differs from their declaration order."""
    t = TermSet.of
    crafted = LogicProblem(
        ("a1", "a2", "a10", "b", "c"),
        (
            LogicSource(((0.3, t("!a2")), (0.7, t()))),
            LogicSource(((0.35, t("!a10")), (0.25, t("a1")), (0.4, t()))),
            LogicSource(((0.5, t("a1", "a10", "a2")), (0.5, t()))),
            LogicSource(
                ((0.2, t("!a1", "b")), (0.3, t("b", "c")), (0.1, t("!c")), (0.4, t()))
            ),
            LogicSource(((1.0, t()),)),
        ),
    )
    return {
        "crafted": (crafted, (4, 7)),
        # atoms a0..a10, outcomes per source 3,1,3,4,2,3, conflict about 0.78
        "random": (
            random_logic_problem(
                31, max_atoms=12, max_sources=6, max_outcomes=4, max_term=3
            ),
            (12, 24),
        ),
    }


#: Clauses of every stream problem: positive and negative literals, an atom
#: in no source (``zz``) and a tautology.
STREAM_CLAUSES = ("[a1]", "[!a2 c]", "[zz]", "[!a10 !b]", "[a2 zz !c]", "[a1 !a1]")


def _stream_runs() -> dict:
    """Draw-stream fingerprints: ``(successes, timeouts, restarts)`` of
    every clause at budgets ``None``, 0 and the two tight ones, at 1 and 2
    workers, plus the Monte-Carlo CSV line of ``beliefmc conflict``."""
    out = {}
    for label, (problem, tight) in _stream_problems().items():
        for text in STREAM_CLAUSES:
            clause = parse_clause(text)
            for workers in (1, 2):
                cfg = TrialEngineConfig(trials=2000, seed=17, worker_count=workers)
                for budget in (None, 0, *tight):
                    r = logic_estimate(problem.sources, clause, cfg, step_budget=budget)
                    out[(label, text, budget, workers)] = (
                        r.successes, r.timeouts, r.restarts,
                    )
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "problem.bel")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_problem(problem))
            for workers in (1, 2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([
                        "conflict", "--logic", "--problem", path, "--csv",
                        "--trials", "3000", "--seed", "4", "--workers", str(workers),
                    ])
                out[(label, "conflict", workers)] = (code, buf.getvalue().splitlines()[-1])
    return out


#: Recorded from the dict-merge logic kernel that preceded the bitmask
#: kernel; any change to the draw discipline or to the step metering shows
#: up here.
PINNED_STREAMS = {
    ("crafted", "[a1]", None, 1): (841, 0, 1010),
    ("crafted", "[a1]", 0, 1): (0, 2000, 1010),
    ("crafted", "[a1]", 4, 1): (284, 964, 1010),
    ("crafted", "[a1]", 7, 1): (639, 397, 1010),
    ("crafted", "[a1]", None, 2): (849, 0, 1029),
    ("crafted", "[a1]", 0, 2): (0, 2000, 1029),
    ("crafted", "[a1]", 4, 2): (278, 977, 1029),
    ("crafted", "[a1]", 7, 2): (626, 416, 1029),
    ("crafted", "[!a2 c]", None, 1): (977, 0, 1010),
    ("crafted", "[!a2 c]", 0, 1): (0, 2000, 1010),
    ("crafted", "[!a2 c]", 4, 1): (305, 1283, 1010),
    ("crafted", "[!a2 c]", 7, 1): (674, 517, 1010),
    ("crafted", "[!a2 c]", None, 2): (971, 0, 1029),
    ("crafted", "[!a2 c]", 0, 2): (0, 2000, 1029),
    ("crafted", "[!a2 c]", 4, 2): (305, 1292, 1029),
    ("crafted", "[!a2 c]", 7, 2): (656, 557, 1029),
    ("crafted", "[zz]", None, 1): (0, 0, 1010),
    ("crafted", "[zz]", 0, 1): (0, 2000, 1010),
    ("crafted", "[zz]", 4, 1): (0, 964, 1010),
    ("crafted", "[zz]", 7, 1): (0, 397, 1010),
    ("crafted", "[zz]", None, 2): (0, 0, 1029),
    ("crafted", "[zz]", 0, 2): (0, 2000, 1029),
    ("crafted", "[zz]", 4, 2): (0, 977, 1029),
    ("crafted", "[zz]", 7, 2): (0, 416, 1029),
    ("crafted", "[!a10 !b]", None, 1): (506, 0, 1010),
    ("crafted", "[!a10 !b]", 0, 1): (0, 2000, 1010),
    ("crafted", "[!a10 !b]", 4, 1): (306, 1237, 1010),
    ("crafted", "[!a10 !b]", 7, 1): (410, 509, 1010),
    ("crafted", "[!a10 !b]", None, 2): (514, 0, 1029),
    ("crafted", "[!a10 !b]", 0, 2): (0, 2000, 1029),
    ("crafted", "[!a10 !b]", 4, 2): (316, 1238, 1029),
    ("crafted", "[!a10 !b]", 7, 2): (414, 553, 1029),
    ("crafted", "[a2 zz !c]", None, 1): (690, 0, 1010),
    ("crafted", "[a2 zz !c]", 0, 1): (0, 2000, 1010),
    ("crafted", "[a2 zz !c]", 4, 1): (181, 1505, 1010),
    ("crafted", "[a2 zz !c]", 7, 1): (505, 551, 1010),
    ("crafted", "[a2 zz !c]", None, 2): (696, 0, 1029),
    ("crafted", "[a2 zz !c]", 0, 2): (0, 2000, 1029),
    ("crafted", "[a2 zz !c]", 4, 2): (180, 1506, 1029),
    ("crafted", "[a2 zz !c]", 7, 2): (486, 581, 1029),
    ("crafted", "[a1 !a1]", None, 1): (2000, 0, 1010),
    ("crafted", "[a1 !a1]", 0, 1): (112, 1888, 1010),
    ("crafted", "[a1 !a1]", 4, 1): (1254, 746, 1010),
    ("crafted", "[a1 !a1]", 7, 1): (1697, 303, 1010),
    ("crafted", "[a1 !a1]", None, 2): (2000, 0, 1029),
    ("crafted", "[a1 !a1]", 0, 2): (109, 1891, 1029),
    ("crafted", "[a1 !a1]", 4, 2): (1233, 767, 1029),
    ("crafted", "[a1 !a1]", 7, 2): (1677, 323, 1029),
    ("crafted", "conflict", 1): (0, "mc,0.353030,1.5457,3000,1637"),
    ("crafted", "conflict", 2): (0, "mc,0.347258,1.5320,3000,1596"),
    ("random", "[a1]", None, 1): (1511, 0, 6942),
    ("random", "[a1]", 0, 1): (0, 2000, 6942),
    ("random", "[a1]", 12, 1): (400, 1469, 6942),
    ("random", "[a1]", 24, 1): (771, 972, 6942),
    ("random", "[a1]", None, 2): (1487, 0, 7125),
    ("random", "[a1]", 0, 2): (0, 2000, 7125),
    ("random", "[a1]", 12, 2): (382, 1486, 7125),
    ("random", "[a1]", 24, 2): (761, 969, 7125),
    ("random", "[!a2 c]", None, 1): (709, 0, 6942),
    ("random", "[!a2 c]", 0, 1): (0, 2000, 6942),
    ("random", "[!a2 c]", 12, 1): (170, 1508, 6942),
    ("random", "[!a2 c]", 24, 1): (348, 996, 6942),
    ("random", "[!a2 c]", None, 2): (704, 0, 7125),
    ("random", "[!a2 c]", 0, 2): (0, 2000, 7125),
    ("random", "[!a2 c]", 12, 2): (177, 1525, 7125),
    ("random", "[!a2 c]", 24, 2): (357, 988, 7125),
    ("random", "[zz]", None, 1): (0, 0, 6942),
    ("random", "[zz]", 0, 1): (0, 2000, 6942),
    ("random", "[zz]", 12, 1): (0, 1469, 6942),
    ("random", "[zz]", 24, 1): (0, 972, 6942),
    ("random", "[zz]", None, 2): (0, 0, 7125),
    ("random", "[zz]", 0, 2): (0, 2000, 7125),
    ("random", "[zz]", 12, 2): (0, 1486, 7125),
    ("random", "[zz]", 24, 2): (0, 969, 7125),
    ("random", "[!a10 !b]", None, 1): (288, 0, 6942),
    ("random", "[!a10 !b]", 0, 1): (0, 2000, 6942),
    ("random", "[!a10 !b]", 12, 1): (69, 1540, 6942),
    ("random", "[!a10 !b]", 24, 1): (142, 1003, 6942),
    ("random", "[!a10 !b]", None, 2): (264, 0, 7125),
    ("random", "[!a10 !b]", 0, 2): (0, 2000, 7125),
    ("random", "[!a10 !b]", 12, 2): (58, 1558, 7125),
    ("random", "[!a10 !b]", 24, 2): (130, 991, 7125),
    ("random", "[a2 zz !c]", None, 1): (0, 0, 6942),
    ("random", "[a2 zz !c]", 0, 1): (0, 2000, 6942),
    ("random", "[a2 zz !c]", 12, 1): (0, 1640, 6942),
    ("random", "[a2 zz !c]", 24, 1): (0, 1040, 6942),
    ("random", "[a2 zz !c]", None, 2): (0, 0, 7125),
    ("random", "[a2 zz !c]", 0, 2): (0, 2000, 7125),
    ("random", "[a2 zz !c]", 12, 2): (0, 1651, 7125),
    ("random", "[a2 zz !c]", 24, 2): (0, 1032, 7125),
    ("random", "[a1 !a1]", None, 1): (2000, 0, 6942),
    ("random", "[a1 !a1]", 0, 1): (0, 2000, 6942),
    ("random", "[a1 !a1]", 12, 1): (573, 1427, 6942),
    ("random", "[a1 !a1]", 24, 1): (1059, 941, 6942),
    ("random", "[a1 !a1]", None, 2): (2000, 0, 7125),
    ("random", "[a1 !a1]", 0, 2): (0, 2000, 7125),
    ("random", "[a1 !a1]", 12, 2): (555, 1445, 7125),
    ("random", "[a1 !a1]", 24, 2): (1052, 948, 7125),
    ("random", "conflict", 1): (0, "mc,0.775969,4.4637,3000,10391"),
    ("random", "conflict", 2): (0, "mc,0.777613,4.4967,3000,10490"),
}


class TestDrawStream:
    def test_pinned_streams(self):
        assert _stream_runs() == PINNED_STREAMS

    def test_one_draw_per_source_per_attempt(self):
        problem, _ = _stream_problems()["random"]
        m = len(problem.sources)
        for text in ("[a1]", "[a1 !a1]"):
            clause = parse_clause(text)
            plans, masks = _logic_plans(problem.sources, clause)
            for budget in (None, 0, 12):
                rng = CountingRandom(3)
                _, _, restarts = _kernel_logic(
                    plans, masks, 500, rng, DEFAULT_RESTART_CAP, budget
                )
                assert restarts > 0
                assert rng.calls == m * (500 + restarts)


class TestLiteralsAndTerms:
    def test_literal_parse_and_render(self):
        assert Literal.parse("p") == Literal("p", True)
        assert Literal.parse("!p") == Literal("p", False)
        assert str(~Literal("p")) == "!p"
        for bad in ("", "!", "!!p", "p q", "p#"):
            with pytest.raises(ValueError):
                Literal.parse(bad)

    def test_term_canonicalization(self):
        assert TermSet.of("q", "p", "q") == TermSet.of("p", "q")
        assert str(TermSet.of("q", "!p")) == "[!p q]"
        assert str(TermSet()) == "[]"

    def test_clause_needs_literals(self):
        with pytest.raises(ValueError):
            ClauseQuery(())

    def test_tautology_detection(self):
        assert ClauseQuery.of("p", "!p").is_tautology
        assert not ClauseQuery.of("p", "q").is_tautology


class TestIsContradictory:
    def test_examples(self):
        assert is_contradictory(TermSet.of("p", "!p"))
        assert not is_contradictory(TermSet.of("p", "q"))
        assert not is_contradictory(TermSet())
        assert not is_contradictory(TermSet.of("p", "!q"))

    @given(term_sets())
    @settings(max_examples=150)
    def test_agrees_with_satisfiability(self, term):
        # a conjunction of literals is unsatisfiable iff it is contradictory
        assert is_contradictory(term) == (not satisfiable_by_bruteforce(term))


class TestEntails:
    def test_examples(self):
        assert entails(TermSet.of("p", "q"), ClauseQuery.of("p", "r"))
        assert not entails(TermSet.of("q"), ClauseQuery.of("p", "r"))
        assert entails(TermSet.of("!p"), ClauseQuery.of("!p"))
        assert not entails(TermSet.of("p"), ClauseQuery.of("!p"))

    def test_tautologies_always_entailed(self):
        assert entails(TermSet(), ClauseQuery.of("z", "!z"))
        assert entails(TermSet.of("q"), ClauseQuery.of("p", "!p"))

    def test_contradictory_term_rejected(self):
        with pytest.raises(ValueError):
            entails(TermSet.of("p", "!p"), ClauseQuery.of("p"))

    def test_matches_semantic_entailment_bruteforce(self):
        # check syntactic entailment == truth in all models, over all small
        # consistent terms and clauses on three atoms
        atoms = ("a", "b", "c")
        import itertools

        literals = [Literal(a, s) for a in atoms for s in (True, False)]
        terms = []
        for r in range(0, 3):
            for combo in itertools.combinations(literals, r):
                t = TermSet(combo)
                if not is_contradictory(t):
                    terms.append(t)
        clauses = [
            ClauseQuery(c)
            for r in (1, 2)
            for c in itertools.combinations(literals, r)
        ]

        def models(term):
            for bits in range(8):
                model = {a: bool(bits >> i & 1) for i, a in enumerate(atoms)}
                if all(model[l.atom] == l.positive for l in term):
                    yield model

        for t in terms:
            for c in clauses:
                semantic = all(
                    any(model[l.atom] == l.positive for l in c.literals)
                    for model in models(t)
                )
                assert entails(t, c) == semantic, f"{t} vs {c}"


class TestValidate:
    def test_well_formed(self, worked_logic_problem):
        assert validate_logic_problem(worked_logic_problem) == []

    def test_contradictory_outcome(self):
        p = LogicProblem(
            ("p",), (LogicSource(((1.0, TermSet.of("p", "!p")),)),)
        )
        assert validate_logic_problem(p) == ["source 0 outcome 0: contradictory term"]

    def test_bad_sum_and_unknown_atom(self):
        p = LogicProblem(
            ("p",),
            (LogicSource(((0.6, TermSet.of("p")), (0.5, TermSet.of("q")))),),
        )
        report = validate_logic_problem(p)
        assert "source 0: probabilities sum to 1.1" in report
        assert "source 0 outcome 1: unknown atom 'q'" in report

    def test_duplicate_atom(self):
        p = LogicProblem(("p", "p"), (LogicSource(((1.0, TermSet()),)),))
        assert "duplicate atom 'p'" in validate_logic_problem(p)


class TestLogicEstimate:
    def test_worked_example(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=100_000, seed=3)
        r = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("p"), cfg)
        assert r.lower == r.upper  # no budget, no timeouts
        assert abs(r.lower - 7.0 / 13.0) <= 3.0 * r.sd_bound
        r2 = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("!p"), cfg)
        assert abs(r2.lower - 3.0 / 13.0) <= 3.0 * r2.sd_bound

    def test_tautology_is_exactly_one(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=2000, seed=0)
        r = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("p", "!p"), cfg)
        assert r.lower == 1.0 and r.upper == 1.0 and r.timeouts == 0

    def test_restart_rate_matches_conflict(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=100_000, seed=5)
        r = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("q"), cfg)
        kappa = r.restarts / (r.restarts + r.trials)
        assert kappa == pytest.approx(0.35, abs=0.01)

    def test_matches_oracle_on_random_problems(self):
        for seed in range(12):
            problem = random_logic_problem(seed, max_atoms=5, max_sources=4)
            clause = random_clause(seed, problem.atoms)
            exact, _ = oracle_logic_bel(
                logic_problem_to_pairs(problem),
                frozenset((l.atom, l.positive) for l in clause.literals),
                clause.is_tautology,
            )
            cfg = TrialEngineConfig(trials=20_000, seed=seed)
            r = logic_estimate(problem.sources, clause, cfg)
            assert abs(r.lower - exact) <= 4.0 * r.sd_bound, f"seed {seed}"

    def test_invalid_sources_rejected(self):
        bad = LogicSource(((0.6, TermSet.of("p")), (0.5, TermSet())))
        with pytest.raises(InvalidProblemError):
            logic_estimate((bad,), ClauseQuery.of("p"), TrialEngineConfig(trials=10))

    def test_excessive_conflict(self):
        sources = (
            LogicSource(((1.0, TermSet.of("p")),)),
            LogicSource(((1.0, TermSet.of("!p")),)),
        )
        with pytest.raises(ExcessiveConflictError):
            logic_estimate(
                sources, ClauseQuery.of("p"),
                TrialEngineConfig(trials=5, restart_cap=50),
            )

    def test_determinism_across_workers(self, worked_logic_problem):
        for workers in (1, 3):
            cfg = TrialEngineConfig(trials=30_000, seed=17, worker_count=workers)
            runs = [
                logic_estimate(worked_logic_problem.sources, ClauseQuery.of("p"), cfg)
                for _ in range(2)
            ]
            assert runs[0] == runs[1]


class TestStepBudget:
    def test_budget_zero_times_everything_out(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=1000, seed=0)
        r = logic_estimate(
            worked_logic_problem.sources, ClauseQuery.of("p"), cfg, step_budget=0
        )
        assert r.timeouts == r.trials
        assert r.lower == 0.0 and r.upper == 1.0

    def test_generous_budget_changes_nothing(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=5000, seed=1)
        free = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("p"), cfg)
        budgeted = logic_estimate(
            worked_logic_problem.sources, ClauseQuery.of("p"), cfg, step_budget=10_000
        )
        assert (budgeted.lower, budgeted.upper, budgeted.timeouts) == (
            free.lower, free.upper, 0,
        )

    def test_bounds_bracket_and_tighten_with_budget(self, worked_logic_problem):
        cfg = TrialEngineConfig(trials=20_000, seed=2)
        free = logic_estimate(worked_logic_problem.sources, ClauseQuery.of("p"), cfg)
        prev_timeouts = cfg.trials + 1
        for budget in (1, 2, 4, 8, 16):
            r = logic_estimate(
                worked_logic_problem.sources, ClauseQuery.of("p"), cfg,
                step_budget=budget,
            )
            assert r.lower <= free.lower
            assert r.upper >= free.upper
            assert r.lower <= r.upper
            # a bigger budget can only convert timeouts into scored trials
            assert r.timeouts <= prev_timeouts
            prev_timeouts = r.timeouts
            assert r.successes + r.timeouts >= free.successes

    def test_budget_never_perturbs_the_stream(self, worked_logic_problem):
        # restart counts are a pure function of the draws, budget or not
        cfg = TrialEngineConfig(trials=10_000, seed=3)
        rs = {
            logic_estimate(
                worked_logic_problem.sources, ClauseQuery.of("p"), cfg,
                step_budget=b,
            ).restarts
            for b in (None, 1, 3, 7, 1000)
        }
        assert len(rs) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_clash_costs_literals_up_to_the_kth(self, k):
        # Attempts that clash cost 1 for [!x] plus k for [a b d e] up to its
        # k-th literal x; [c f] is drawn but not merged.  The attempt that
        # survives costs 1 + 0 + 2, and the clause [zz] misses at 1.
        x = "abde"[k - 1]
        sources = (
            LogicSource(((1.0, TermSet.of("!" + x)),)),
            LogicSource(((0.5, TermSet.of("a", "b", "d", "e")), (0.5, TermSet()))),
            LogicSource(((1.0, TermSet.of("c", "f")),)),
        )
        clause = ClauseQuery.of("zz")
        most_restarts = 0
        for seed in range(8):
            cfg = TrialEngineConfig(trials=1, seed=seed)
            restarts = logic_estimate(sources, clause, cfg).restarts
            most_restarts = max(most_restarts, restarts)
            ops = restarts * (1 + k) + 3 + 1
            assert logic_estimate(sources, clause, cfg, ops - 1).timeouts == 1
            assert logic_estimate(sources, clause, cfg, ops).timeouts == 0
        assert most_restarts >= 2

    @pytest.mark.parametrize(
        "text, clause_ops, hit",
        [
            ("!d zz", 1, True),     # hit on the 1st of 2 literals
            ("a f zz", 2, True),    # hit on the 2nd of 3
            ("a b c zz", 3, True),  # hit on the 3rd of 4
            ("!a !b zz", 3, False),  # miss: every literal
            ("d !d", 0, True),      # tautology: no test
        ],
    )
    def test_clause_costs_literals_up_to_the_first_hit(self, text, clause_ops, hit):
        # certain sources merge [!d] and [c f] for 3 operations every trial
        sources = (
            LogicSource(((1.0, TermSet.of("!d")),)),
            LogicSource(((1.0, TermSet.of("c", "f")),)),
        )
        clause = ClauseQuery.of(*text.split())
        cfg = TrialEngineConfig(trials=5, seed=0)
        ops = 3 + clause_ops
        tight = logic_estimate(sources, clause, cfg, ops - 1)
        assert (tight.successes, tight.timeouts) == (0, 5)
        enough = logic_estimate(sources, clause, cfg, ops)
        assert (enough.successes, enough.timeouts) == (5 if hit else 0, 0)

    def test_negative_budget_rejected(self, worked_logic_problem):
        with pytest.raises(ValueError):
            logic_estimate(
                worked_logic_problem.sources, ClauseQuery.of("p"),
                TrialEngineConfig(trials=10), step_budget=-1,
            )


class TestTranslation:
    def test_single_atom_problem(self):
        problem = LogicProblem(
            ("p",), (LogicSource(((0.8, TermSet.of("p")), (0.2, TermSet()))),)
        )
        sp = translate_to_set_problem(problem)
        assert sp.frame.elements == ("0", "1")
        (o1, o2) = sp.sources[0].outcomes
        assert o1[1].labels() == ("1",)
        assert o2[1].is_full

    def test_assignment_space_labels(self):
        space = AssignmentSpace(("p", "q"))
        assert space.frame.elements == ("00", "10", "01", "11")
        # character i of a label is the truth value of atom i
        focal = space.term_focal(TermSet.of("p", "!q"))
        assert focal.labels() == ("10",)
        clause = space.clause_focal(ClauseQuery.of("p", "q"))
        assert set(clause.labels()) == {"10", "01", "11"}

    def test_empty_term_maps_to_frame(self):
        space = AssignmentSpace(("p", "q"))
        assert space.term_focal(TermSet()).is_full

    def test_tautology_maps_to_frame(self):
        space = AssignmentSpace(("p",))
        assert space.clause_focal(ClauseQuery.of("p", "!p")).is_full

    def test_worked_example_matches_exact(self, worked_logic_problem):
        sp = translate_to_set_problem(worked_logic_problem)
        space = AssignmentSpace(worked_logic_problem.atoms)
        bel, conflict = exact_belief_enumeration(sp, space.clause_focal(ClauseQuery.of("p")))
        assert bel == pytest.approx(7.0 / 13.0, abs=1e-12)
        assert conflict == pytest.approx(0.35, abs=1e-12)

    def test_translation_matches_logic_oracle_on_random_problems(self):
        for seed in range(10):
            problem = random_logic_problem(seed + 50, max_atoms=4, max_sources=4)
            clause = random_clause(seed + 50, problem.atoms)
            space = AssignmentSpace(problem.atoms)
            sp = translate_to_set_problem(problem)
            bel, _ = exact_belief_enumeration(sp, space.clause_focal(clause))
            oracle, _ = oracle_logic_bel(
                logic_problem_to_pairs(problem),
                frozenset((l.atom, l.positive) for l in clause.literals),
                clause.is_tautology,
            )
            assert bel == pytest.approx(oracle, abs=1e-9), f"seed {seed}"

    def test_atom_width_guard(self):
        atoms = tuple(f"a{i}" for i in range(17))
        problem = LogicProblem(atoms, (LogicSource(((1.0, TermSet()),)),))
        with pytest.raises(FrameTooLargeError):
            translate_to_set_problem(problem)

    def test_invalid_problem_rejected(self):
        problem = LogicProblem(("p",), (LogicSource(((1.0, TermSet.of("q")),)),))
        with pytest.raises(InvalidProblemError):
            translate_to_set_problem(problem)
