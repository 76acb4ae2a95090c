"""Term-set evidence: entailment, budgeted estimation, exact translation."""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings

from beliefmc import (
    AssignmentSpace,
    ClauseBatchEstimate,
    ClauseQuery,
    ExcessiveConflictError,
    FrameTooLargeError,
    InvalidProblemError,
    Literal,
    LogicProblem,
    LogicSource,
    TermSet,
    TrialEngineConfig,
    exact_belief_enumeration,
    is_contradictory,
    logic_estimate,
    render_problem,
    translate_to_set_problem,
    validate_logic_problem,
)
from beliefmc.cli import main
from beliefmc import mc
from beliefmc.logic import _logic_plan, _logic_score, lits
from beliefmc.mc import DEFAULT_RESTART_CAP, derive_stream_seed
from beliefmc.problem_io import parse_clause
from conftest import (
    assert_no_children,
    check_forked_trips,
    entails,
    fork_worker_counts,
    in_thread,
    needs_fork,
    logic_problem_to_pairs,
    oracle_logic_bel,
    per_draw_kernel_logic,
    per_draw_logic_plans,
    random_clause,
    random_logic_problem,
    record_blocks,
    run_outcome,
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

    def test_one_draw_per_source_per_attempt(self, monkeypatch):
        # every trial count from 1 to 60 over blocks of 7 attempts: each run
        # counts the attempts of one random() call per source per attempt up
        # to the one that accepts its last trial or trips the cap, so a
        # block's cut is right wherever it falls
        problem, _ = _stream_problems()["random"]
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * len(problem.sources) * 7)
        outcomes = []
        for text in ("[a1]", "[a1 !a1]"):
            clauses = [parse_clause(text)]
            plan = _logic_plan(problem.sources, clauses)
            plans, masks = per_draw_logic_plans(problem.sources, *clauses)
            for cap in (3, DEFAULT_RESTART_CAP):
                for budget in (None, 0, 12):
                    for trials in range(1, 61):
                        def block():
                            successes, timeouts = [0], [0]
                            score = _logic_score(plan, budget, successes, timeouts)
                            restarts = mc._run_blocks(plan, score, trials, random.Random(3), cap)
                            return successes, timeouts, restarts

                        outcome = run_outcome(block)
                        assert outcome == run_outcome(lambda: per_draw_kernel_logic(
                            plans, masks, trials, random.Random(3), cap, budget
                        )), (text, cap, budget, trials)
                        outcomes.append(outcome)
        assert any(o[0] == "error" for o in outcomes)
        assert any(o[0] != "error" and o[2] > 0 for o in outcomes)


class TestClauseBatch:
    """Every clause of one call is scored on one trial stream, and each
    clause's result equals its single-clause call."""

    def test_batch_matches_single_clause_calls(self):
        clauses = [parse_clause(text) for text in STREAM_CLAUSES]
        for problem, tight in _stream_problems().values():
            for workers in (1, 2):
                cfg = TrialEngineConfig(trials=2000, seed=17, worker_count=workers)
                for budget in (None, 0, *tight):
                    batch = logic_estimate(problem.sources, clauses, cfg, budget)
                    assert isinstance(batch, ClauseBatchEstimate)
                    assert len(batch.estimates) == len(clauses)
                    for clause, got in zip(clauses, batch.estimates):
                        alone = logic_estimate(problem.sources, clause, cfg, budget)
                        assert got == alone
                    assert batch.trials == cfg.trials
                    assert batch.restarts == batch.estimates[0].restarts
                    assert batch.timeouts == sum(e.timeouts for e in batch.estimates)

    def test_timeouts_are_per_trial_and_clause(self):
        # certain sources merge [!d] and [c f] for 3 operations every trial;
        # [!a !b zz] misses after 3 more, [!d zz] hits at its 1st literal,
        # and the first clause's test does not count against the second
        sources = (
            LogicSource(((1.0, TermSet.of("!d")),)),
            LogicSource(((1.0, TermSet.of("c", "f")),)),
        )
        clauses = (ClauseQuery.of("!a", "!b", "zz"), ClauseQuery.of("!d", "zz"))
        cfg = TrialEngineConfig(trials=5, seed=0)
        batch = logic_estimate(sources, clauses, cfg, step_budget=4)
        assert [(e.successes, e.timeouts) for e in batch.estimates] == [(0, 5), (5, 0)]
        assert batch.timeouts == 5

    def test_clause_less_call_counts_the_same_restarts(self):
        for problem, _ in _stream_problems().values():
            for workers in (1, 2):
                cfg = TrialEngineConfig(trials=2000, seed=5, worker_count=workers)
                bare = logic_estimate(problem.sources, (), cfg)
                alone = logic_estimate(problem.sources, ClauseQuery.of("a1"), cfg)
                assert (bare.trials, bare.timeouts, bare.estimates) == (2000, 0, ())
                assert bare.restarts == alone.restarts > 0

    def test_one_draw_per_source_per_attempt_with_three_clauses(self):
        problem, _ = _stream_problems()["random"]
        queries = [parse_clause(text) for text in ("[a1]", "[!a2 c]", "[a1 !a1]")]
        plan = _logic_plan(problem.sources, queries)
        assert len(plan.clauses) == 3
        plans, masks = per_draw_logic_plans(problem.sources, *queries)
        for budget in (None, 0, 12):
            successes, timeouts = [0] * 3, [0] * 3
            score = _logic_score(plan, budget, successes, timeouts)
            restarts = mc._run_blocks(plan, score, 500, random.Random(3), DEFAULT_RESTART_CAP)
            # every trial scores or times out on the tautology
            assert successes[2] + timeouts[2] == 500
            assert restarts > 0
            assert (successes, timeouts, restarts) == per_draw_kernel_logic(
                plans, masks, 500, random.Random(3), DEFAULT_RESTART_CAP, budget
            )

    def test_restart_cap_error_matches_single_clause(self):
        sources = (
            LogicSource(((1.0, TermSet.of("p")),)),
            LogicSource(((1.0, TermSet.of("!p")),)),
        )
        cfg = TrialEngineConfig(trials=5, restart_cap=50)
        with pytest.raises(ExcessiveConflictError) as alone:
            logic_estimate(sources, ClauseQuery.of("p"), cfg)
        for clauses in ((), (ClauseQuery.of("p"), ClauseQuery.of("q", "!p"))):
            with pytest.raises(ExcessiveConflictError) as batch:
                logic_estimate(sources, clauses, cfg)
            assert str(batch.value) == str(alone.value)


def _wide_problem() -> LogicProblem:
    """Twenty-eight sources certify the same ten-literal term, so one
    attempt can spend up to 283 literal operations, more than one byte
    holds.  ``[!a9]`` from the first source makes each of those terms clash
    at its tenth literal, and ``[a10 a11]`` comes last."""
    long_term = TermSet(lits(*(f"a{i}" for i in range(10))))
    return LogicProblem(
        tuple(f"a{i}" for i in range(12)),
        (
            LogicSource(((0.03, TermSet.of("!a9")), (0.97, TermSet()))),
            *[LogicSource(((0.9, long_term), (0.1, TermSet()))) for _ in range(28)],
            LogicSource(((0.5, TermSet.of("a10", "a11")), (0.5, TermSet()))),
        ),
    )


#: Clauses of the wide problem: a hit at the first literal, a clause longer
#: than every term that can only hit at its last literal, and a tautology.
WIDE_CLAUSES = (
    "[a10]",
    "[!a0 !a1 !a2 !a3 !a4 !a5 !a6 !a7 !a8 !a9 !a10 a11]",
    "[a0 !a0]",
)


def _block_cases() -> list[tuple[str, LogicProblem, list[ClauseQuery], tuple]]:
    """``(label, problem, clauses, budgets)``: the stream problems, the wide
    problem and random problems, each with budgets ``None``, 0, tight ones
    and a generous one; every random problem also gets a clause over every
    atom, longer than its terms."""
    cases = [
        (label, problem, [parse_clause(text) for text in STREAM_CLAUSES], (None, 0, *tight, 500))
        for label, (problem, tight) in _stream_problems().items()
    ]
    cases.append(
        ("wide", _wide_problem(), [parse_clause(t) for t in WIDE_CLAUSES], (None, 0, 255, 270, 600))
    )
    # no source certifies a literal: every trial merges nothing
    empty = LogicSource(((0.4, TermSet()), (0.6, TermSet())))
    cases.append(
        ("empty", LogicProblem(("p",), (empty, empty)), [ClauseQuery.of("p")], (None, 0, 1))
    )
    for seed in range(8):
        problem = random_logic_problem(
            seed + 100, max_atoms=6, max_sources=6, max_outcomes=4, max_term=4
        )
        everything = ClauseQuery(lits(*(f"!{a}" for a in problem.atoms)))
        clauses = [random_clause(seed + 100 + k, problem.atoms) for k in range(2)]
        cases.append((f"random-{seed}", problem, [*clauses, everything], (None, 0, 3, 7, 100)))
    return cases


def _many_source_problem() -> LogicProblem:
    """600 sources over eight atoms: each certifies nothing but for a small
    mass on up to two terms of one or two literals, so an attempt merges a
    few terms and about half the attempts clash."""
    rng = random.Random(derive_stream_seed(0, "test-many-logic-sources"))
    atoms = tuple(f"a{i}" for i in range(8))
    sources = []
    for _ in range(600):
        probs = [rng.uniform(0.002, 0.01) for _ in range(rng.choice((0, 1, 1, 2)))]
        outcomes = [
            (p, TermSet(tuple(
                Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, rng.randint(1, 2))
            )))
            for p in probs
        ]
        outcomes.append((1.0 - math.fsum(probs), TermSet()))
        sources.append(LogicSource(tuple(outcomes)))
    return LogicProblem(atoms, tuple(sources))


def _per_draw_logic(sources, clauses, cfg: TrialEngineConfig, budget) -> tuple:
    """``(successes, timeouts, restarts)`` of the per-draw logic kernel over
    the same worker shares and substreams as :func:`logic_estimate`."""
    plans, masks = per_draw_logic_plans(sources, *clauses)
    successes, timeouts, restarts = [0] * len(clauses), [0] * len(clauses), 0
    for w, share in enumerate(mc._split_trials(cfg.trials, cfg.worker_count)):
        s, t, r = per_draw_kernel_logic(
            plans, masks, share, mc.worker_rng(cfg.seed, w), cfg.restart_cap, budget
        )
        successes = [a + b for a, b in zip(successes, s)]
        timeouts = [a + b for a, b in zip(timeouts, t)]
        restarts += r
    return successes, timeouts, restarts


class TestBlockKernel:
    """The block logic kernel against the per-draw kernel it replaced."""

    CASES = _block_cases()

    def test_covers_wide_counters_and_cap_trips(self):
        wide = _logic_plan(_wide_problem().sources, [parse_clause(t) for t in WIDE_CLAUSES])
        assert wide.width > 8  # counts take two bytes per attempt
        trips = 0
        for _, problem, clauses, _ in self.CASES:
            cfg = TrialEngineConfig(trials=300, seed=3, restart_cap=3)
            trips += run_outcome(lambda: _per_draw_logic(problem.sources, clauses, cfg, None))[0] == "error"
        assert 0 < trips < len(self.CASES)

    @pytest.mark.parametrize("block_attempts", [None, 1, 4])
    def test_matches_per_draw_kernel(self, monkeypatch, block_attempts):
        # blocks of 1 attempt, and of 4 attempts below the caps, carry
        # restart runs and a trial's metered operations across blocks;
        # errors match in message and conflict estimate
        for label, problem, clauses, budgets in self.CASES:
            if block_attempts is not None:
                monkeypatch.setattr(
                    mc, "_BLOCK_BYTES", 8 * len(problem.sources) * block_attempts
                )
            for workers in (1, 2):
                for cap in (3, 25, DEFAULT_RESTART_CAP):
                    cfg = TrialEngineConfig(
                        trials=300 if block_attempts is None else 100,
                        seed=cap,
                        restart_cap=cap,
                        worker_count=workers,
                    )
                    for budget in budgets:
                        def block():
                            batch = logic_estimate(problem.sources, clauses, cfg, budget)
                            return (
                                [e.successes for e in batch.estimates],
                                [e.timeouts for e in batch.estimates],
                                batch.restarts,
                            )

                        assert run_outcome(block) == run_outcome(
                            lambda: _per_draw_logic(problem.sources, clauses, cfg, budget)
                        ), (label, workers, cap, budget)
                    bare = run_outcome(lambda: logic_estimate(problem.sources, (), cfg).restarts)
                    alone = run_outcome(lambda: _per_draw_logic(problem.sources, (), cfg, None)[2])
                    assert bare == alone, (label, workers, cap)

    def test_default_budget_across_blocks_matches_per_draw_kernel(self, monkeypatch):
        # at the default budget every share that ends takes at least 3
        # blocks, so restart runs and a trial's metered operations cross
        # blocks, and cap 5 trips in a later block of a share
        problem = _many_source_problem()
        clauses = [parse_clause(t) for t in ("[a0]", "[!a1 a2]", "[a3 !a4 a5 !a6 a7]")]
        drawn = record_blocks(monkeypatch)
        trips = []
        for workers in (1, 2):
            for cap in (5, DEFAULT_RESTART_CAP):
                cfg = TrialEngineConfig(trials=400, seed=0, restart_cap=cap, worker_count=workers)
                for budget in (None, 0, 6, 20):
                    drawn.clear()

                    def block():
                        batch = logic_estimate(problem.sources, clauses, cfg, budget)
                        return (
                            [e.successes for e in batch.estimates],
                            [e.timeouts for e in batch.estimates],
                            batch.restarts,
                        )

                    outcome = run_outcome(block)
                    assert outcome == run_outcome(
                        lambda: _per_draw_logic(problem.sources, clauses, cfg, budget)
                    ), (workers, cap, budget)
                    if outcome[0] == "error":
                        trips.append(drawn.count(drawn[-1]))
                    else:
                        assert len(set(drawn)) == workers
                        assert min(map(drawn.count, drawn)) >= 3
        assert trips and min(trips) >= 2

    @pytest.mark.parametrize("chunk_bytes", [8, 24, None])
    def test_small_blocks_match_per_draw_kernel(self, monkeypatch, chunk_bytes):
        # a full run and a tripped cap, with blocks of 7 attempts drawn in
        # chunks of 1 or 3 uniforms or of the default size
        if chunk_bytes is not None:
            monkeypatch.setattr(mc, "_CHUNK_BYTES", chunk_bytes)
        for label, problem, clauses, budgets in self.CASES:
            monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * len(problem.sources) * 7)
            plans, masks = per_draw_logic_plans(problem.sources, *clauses)
            for cap in (3, 200):
                for budget in budgets[:3]:
                    def share():
                        plan = _logic_plan(problem.sources, clauses)
                        successes, timeouts = [0] * len(clauses), [0] * len(clauses)
                        score = _logic_score(plan, budget, successes, timeouts)
                        restarts = mc._run_blocks(plan, score, 300, random.Random(cap), cap)
                        return successes, timeouts, restarts

                    block = run_outcome(share)
                    per_draw = run_outcome(lambda: per_draw_kernel_logic(
                        plans, masks, 300, random.Random(cap), cap, budget
                    ))
                    assert block == per_draw, (label, cap, budget)


    @pytest.mark.parametrize("block_attempts", [None, 3])
    def test_one_scorer_counts_as_a_fresh_scorer_per_share(self, monkeypatch, block_attempts):
        # mc._run runs every share through one scorer; summing a fresh
        # scorer per share gives the same metered counts, so no trial's
        # merge cost crosses a share boundary (blocks of 3 attempts carry
        # it across blocks inside a share)
        clauses = [parse_clause(text) for text in STREAM_CLAUSES]
        n = len(clauses)
        for label, (problem, tight) in _stream_problems().items():
            if block_attempts is not None:
                monkeypatch.setattr(
                    mc, "_BLOCK_BYTES", 8 * len(problem.sources) * block_attempts
                )
            plan = _logic_plan(problem.sources, clauses)
            for workers in (1, 2, 3):
                cfg = TrialEngineConfig(trials=300, seed=23, worker_count=workers)
                for budget in (None, 0, *tight):
                    batch = logic_estimate(problem.sources, clauses, cfg, budget)
                    successes, timeouts, restarts = [0] * n, [0] * n, 0
                    for w, share in enumerate(mc._split_trials(cfg.trials, workers)):
                        s, t = [0] * n, [0] * n
                        restarts += mc._run_blocks(
                            plan, _logic_score(plan, budget, s, t), share,
                            mc.worker_rng(cfg.seed, w), cfg.restart_cap,
                        )
                        successes = [a + b for a, b in zip(successes, s)]
                        timeouts = [a + b for a, b in zip(timeouts, t)]
                    assert (
                        [e.successes for e in batch.estimates],
                        [e.timeouts for e in batch.estimates],
                        batch.restarts,
                    ) == (successes, timeouts, restarts), (label, workers, budget)


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


class TestForkedShares:
    """Shares run in forked children give the in-thread counts and errors."""

    def test_counts_match_in_thread(self, forks):
        problem = random_logic_problem(7)  # some conflict, some timeouts at budget 3
        clauses = [random_clause(s, problem.atoms) for s in (1, 2, 3)]
        for workers in fork_worker_counts():
            for budget in (None, 3):
                cfg = TrialEngineConfig(trials=3000, seed=11, worker_count=workers)

                def run():
                    return logic_estimate(problem.sources, clauses, cfg, step_budget=budget)

                forks.clear()
                got = run()
                assert len(forks) == min(workers, mc._usable_cpus()) - 1
                assert got == in_thread(run)
                assert_no_children()
                assert got.restarts and (got.timeouts or budget is None)

    @needs_fork
    def test_a_cap_trip_raises_the_in_thread_error(self, forks):
        # nine attempts in ten clash, with a budget that carries merge
        # costs across blocks
        sources = (
            LogicSource(((0.9, TermSet.of("p", "q")), (0.1, TermSet()))),
            LogicSource(((1.0, TermSet.of("!p")),)),
        )
        clauses = [ClauseQuery.of("q"), ClauseQuery.of("!p")]
        plan = _logic_plan(sources, clauses)

        def run_at(cfg):
            return logic_estimate(sources, clauses, cfg, step_budget=4)

        check_forked_trips(run_at, plan, lambda: _logic_score(plan, 4, [0, 0], [0, 0]))
        assert forks


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
        assert tuple(o1[1]) == ("1",)
        assert o2[1].is_full

    def test_assignment_space_labels(self):
        space = AssignmentSpace(("p", "q"))
        assert space.frame.elements == ("00", "10", "01", "11")
        # character i of a label is the truth value of atom i
        focal = space.term_focal(TermSet.of("p", "!q"))
        assert tuple(focal) == ("10",)
        clause = space.clause_focal(ClauseQuery.of("p", "q"))
        assert set(clause) == {"10", "01", "11"}

    def test_labels_spell_each_atom_in_order(self):
        # character i of label a is bit i of a
        for k in range(1, 13):
            space = AssignmentSpace(tuple(f"a{i}" for i in range(k)))
            assert space.frame.elements == tuple(
                "".join("1" if a >> i & 1 else "0" for i in range(k))
                for a in range(1 << k)
            ), k

    def test_literal_bits_match_bruteforce(self):
        for k in range(1, 13):
            space = AssignmentSpace(tuple(f"a{i}" for i in range(k)))
            for i, atom in enumerate(space.atoms):
                truths = sum(1 << a for a in range(1 << k) if a >> i & 1)
                assert space.literal_bits(Literal(atom)) == truths, (k, i)
                assert space.literal_bits(Literal(atom, False)) == (
                    space.frame.full_bits ^ truths
                ), (k, i)

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
