"""Trial engine: planning, sampling, kernels, determinism, worker substreams."""

from __future__ import annotations

import math
import os
import random
import threading
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import pytest

from beliefmc import (
    EvidenceProblem,
    ExcessiveConflictError,
    FocalSet,
    FrameMismatchError,
    Frame,
    InvalidProblemError,
    SourceModel,
    TrialEngineConfig,
    bel_from_mass,
    estimate,
    exact_belief_enumeration,
    logic_estimate,
    plan_trials,
    sd_bound,
    simple_support,
)
from beliefmc import conflict_exact, mc
from beliefmc.mc import (
    DEFAULT_RESTART_CAP,
    _set_plan,
    _word53,
    derive_stream_seed,
    worker_rng,
)
from beliefmc.problem_io import parse_problem
from conftest import (
    conflict_and_draws,
    draw_plan,
    per_draw_kernel_set,
    per_draw_plans,
    random_clause,
    random_logic_problem,
    random_problem,
    run_outcome,
    random_ssf_problem,
    record_blocks,
    subset,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


class TestPlanning:
    def test_planned_trial_counts(self):
        assert plan_trials(0.05) == 900
        assert plan_trials(0.1) == 225
        assert plan_trials(1.0) == 3

    def test_rule_is_tight(self):
        # one fewer trial would violate the three-sigma requirement
        for k in (0.05, 0.1, 0.03, 0.017):
            n = plan_trials(k)
            assert 3.0 * sd_bound(n) <= k + 1e-12
            if n > 1:
                assert 3.0 * sd_bound(n - 1) > k

    def test_accuracy_guard(self):
        with pytest.raises(ValueError):
            plan_trials(0.0)
        with pytest.raises(ValueError):
            plan_trials(-0.2)
        with pytest.raises(ValueError):
            plan_trials(1.5)

    def test_sd_bound_values(self):
        assert sd_bound(1000) == pytest.approx(0.0158113883, abs=1e-9)
        assert sd_bound(1000) < 0.016
        assert sd_bound(900) == pytest.approx(1.0 / 60.0)

    def test_config_guards(self):
        with pytest.raises(ValueError):
            TrialEngineConfig(trials=0)
        with pytest.raises(ValueError):
            TrialEngineConfig(trials=10, restart_cap=0)
        with pytest.raises(ValueError):
            TrialEngineConfig(trials=10, worker_count=0)


def _pick(plan: tuple, u: float):
    """The item a kernel picks for uniform ``u`` under a :func:`draw_plan`."""
    thr, lo, hi, cum, items = plan
    if cum is None:
        return lo if u < thr else hi
    return items[bisect_right(cum, u)]


def _index_plan(s: SourceModel) -> tuple:
    """A source's draw plan over its outcome indices."""
    return draw_plan(s.cumulative, tuple(range(len(s.outcomes))))


class TestSampleSource:
    """How a kernel maps one uniform to a source's outcome."""

    def test_certain_source(self):
        frame = Frame(("x1", "x2"))
        plan = _index_plan(SourceModel(frame, ((1.0, frame.singleton("x1")),)))
        rng = random.Random(0)
        assert all(_pick(plan, rng.random()) == 0 for _ in range(50))

    def test_frequencies_match_probabilities(self):
        frame = Frame(("x1", "x2", "x3"))
        s = SourceModel(
            frame,
            ((0.2, frame.singleton("x1")), (0.3, frame.singleton("x2")),
             (0.5, frame.universe())),
        )
        plan = _index_plan(s)
        rng = random.Random(7)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[_pick(plan, rng.random())] += 1
        for count, p in zip(counts, (0.2, 0.3, 0.5)):
            assert count / n == pytest.approx(p, abs=0.01)

    def test_draw_rule_matches_kernel_plan_at_boundaries(self):
        # the draw plan picks the outcome that bisecting the cumulative
        # table picks, for uniforms on and around every boundary
        frame = Frame(("x1", "x2", "x3"))
        sources = [
            SourceModel(frame, ((1.0, frame.universe()),)),
            simple_support(frame, frame.singleton("x1"), 0.6),
            SourceModel(
                frame,
                ((0.2, frame.singleton("x1")), (0.3, frame.singleton("x2")),
                 (0.5, frame.universe())),
            ),
        ]
        for s in sources:
            cum = s.cumulative
            plan = _index_plan(s)
            us = {0.0, 1.0 - 2.0**-53}
            for c in cum:
                us.update({math.nextafter(c, 0.0), c})
            for u in sorted(u for u in us if u < 1.0):
                assert _pick(plan, u) == bisect_right(cum, u), (cum, u)

    def test_block_kernel_picks_outcomes_at_boundaries(self):
        # the block kernel reads a uniform's 53 bits from its two words and
        # picks the outcome bisecting the cumulative table picks, for
        # uniforms on and around every boundary, one unit of the second byte
        # away and one of the top byte below, with random low bits below the
        # 53 that random() keeps
        frame = Frame(("x1", "x2", "x3", "x4"))
        source = SourceModel(
            frame,
            tuple(zip((0.2, 0.3, 0.1, 0.4), (frame.singleton(x) for x in frame.elements))),
        )
        cum = source.cumulative
        xs = {0, 2**53 - 1}
        for c in cum:
            limit = math.ceil(c * 2**53)
            xs.update(
                x
                for x in (limit - 1, limit, limit + 1, limit - 2**37, limit + 2**37, limit - 2**45)
                if 0 <= x < 2**53
            )
        xs = sorted(xs)
        junk = random.Random(5)
        raw = b"".join(
            ((x >> 26) << 5 | junk.getrandbits(5)).to_bytes(4, "little")
            + ((x & (2**26 - 1)) << 6 | junk.getrandbits(6)).to_bytes(4, "little")
            for x in xs
        )
        assert [_word53(raw, d) for d in range(len(xs))] == xs
        # query k holds the targets of outcomes 0..k, so it scores exactly
        # the attempts whose uniform falls below cum[k]
        queries = [FocalSet(frame, (2 << k) - 1) for k in range(len(cum))]
        plan = _set_plan(EvidenceProblem(frame, (source,)), queries)
        below = mc._below(plan.cuts, raw, len(xs), 1)
        slots = [below[hi] ^ below[lo] for hi, lo in plan.outs]
        accepted, hits = mc._block(plan, slots, below[1])
        assert accepted == (1 << len(xs)) - 1
        for k, hit in enumerate(hits):
            for a, x in enumerate(xs):
                assert (hit >> a & 1) == (bisect_right(cum, x / 2**53) <= k), (k, x)

    def test_block_words_decode_to_random(self):
        # getrandbits(64 * k) returns the 2k words of k random() calls,
        # first word least significant, so draw d is words 2d and 2d + 1
        k = 10_000
        for seed in (0, 1, 17, 2**40 + 3):
            raw = random.Random(seed).getrandbits(64 * k).to_bytes(8 * k, "little")
            ref = random.Random(seed)
            assert [_word53(raw, d) for d in range(k)] == [
                int(ref.random() * 2**53) for _ in range(k)
            ], seed


class TestRunTrial:
    """Single-trial contracts, checked through :func:`estimate`."""

    def test_vacuous_always_succeeds_on_universe(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.singleton("x1"), 0.5),)
        )
        r = estimate(problem, [frame.universe()], TrialEngineConfig(trials=100))[0]
        assert (r.successes, r.restarts) == (100, 0)

    def test_success_frequency_matches_exact(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        cfg = TrialEngineConfig(trials=100_000, seed=11)
        r = estimate(two_ssf_problem, [b], cfg)[0]
        assert r.value == pytest.approx(float(Fraction(3, 7)), abs=0.005)

    def test_restart_rate_matches_conflict(self, two_ssf_problem):
        universe = two_ssf_problem.frame.universe()
        r = estimate(
            two_ssf_problem, [universe], TrialEngineConfig(trials=50_000, seed=3)
        )[0]
        assert r.conflict_estimate == pytest.approx(0.3, abs=0.01)

    def test_deterministic_conflict_blows_cap(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 1.0),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )
        cfg = TrialEngineConfig(trials=10, restart_cap=64)
        with pytest.raises(ExcessiveConflictError) as exc:
            estimate(problem, [frame.universe()], cfg)
        assert exc.value.conflict_estimate == pytest.approx(1.0)

    def test_frame_mismatch(self, two_ssf_problem):
        with pytest.raises(FrameMismatchError):
            estimate(
                two_ssf_problem,
                [Frame(("z",)).universe()],
                TrialEngineConfig(trials=10),
            )

    def test_inactive_sources_leave_universe(self):
        # near-zero weights: the intersection stays the whole frame, so any
        # proper subset query scores 0
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 1e-12),
                simple_support(frame, frame.singleton("x2"), 1e-12),
            ),
        )
        cfg = TrialEngineConfig(trials=200, seed=8)
        r = estimate(problem, [frame.singleton("x1")], cfg)[0]
        assert (r.successes, r.restarts) == (0, 0)


def _stream_problems() -> dict[str, EvidenceProblem]:
    """Simple-support, multi-outcome and certain-source problems."""
    frame = Frame(("x1", "x2", "x3"))
    x1 = simple_support(frame, frame.singleton("x1"), 0.6)
    x2 = simple_support(frame, frame.singleton("x2"), 0.5)
    # simple support with the vacuous outcome listed first
    swapped = SourceModel(
        frame, ((0.5, frame.universe()), (0.5, frame.singleton("x2")))
    )
    return {
        "ssf-pair": EvidenceProblem(frame, (x1, x2)),
        "ssf-swapped": EvidenceProblem(frame, (x1, swapped)),
        "ssf-certain": random_ssf_problem(2),  # outcomes per source 1,2,2,2,1,2
        "general": random_problem(3),  # outcomes per source 2,3,4,2
        "general-certain": random_problem(2),  # outcomes per source 1,1,4
    }


def _stream_runs() -> dict:
    """Draw-stream fingerprints at 1 and 2 workers: ``(successes, restarts)``
    of each query alone, ``(successes..., restarts)`` of all queries in one
    batch, and the conflict estimate."""
    out = {}
    for label, problem in _stream_problems().items():
        full = problem.frame.full_bits
        queries = [FocalSet(problem.frame, b) for b in (1, 3, full ^ 1, full & ~8)]
        for workers in (1, 2):
            cfg = TrialEngineConfig(trials=2000, seed=17, worker_count=workers)
            for q in queries:
                r = estimate(problem, [q], cfg)[0]
                out[(label, q.bits, workers)] = (r.successes, r.restarts)
            res = estimate(problem, queries, cfg)
            out[(label, "batch", workers)] = (
                *(r.successes for r in res), res[0].restarts
            )
            out[(label, "conflict", workers)] = conflict_and_draws(problem, cfg)
    return out


#: Recorded from the element-scan and batch kernels that preceded the single
#: set-trial kernel; any change to the draw discipline (one uniform per
#: source per attempt, in source order) shows up here.
PINNED_STREAMS = {
    ("ssf-pair", 1, 1): (851, 809),
    ("ssf-pair", 3, 1): (1421, 809),
    ("ssf-pair", 6, 1): (570, 809),
    ("ssf-pair", 7, 1): (2000, 809),
    ("ssf-pair", "batch", 1): (851, 1421, 570, 2000, 809),
    ("ssf-pair", "conflict", 1): (0.28800284798860804, 1.4045),
    ("ssf-pair", 1, 2): (809, 826),
    ("ssf-pair", 3, 2): (1424, 826),
    ("ssf-pair", 6, 2): (615, 826),
    ("ssf-pair", 7, 2): (2000, 826),
    ("ssf-pair", "batch", 2): (809, 1424, 615, 2000, 826),
    ("ssf-pair", "conflict", 2): (0.2922859164897382, 1.413),
    ("ssf-swapped", 1, 1): (827, 876),
    ("ssf-swapped", 3, 1): (1416, 876),
    ("ssf-swapped", 6, 1): (589, 876),
    ("ssf-swapped", 7, 1): (2000, 876),
    ("ssf-swapped", "batch", 1): (827, 1416, 589, 2000, 876),
    ("ssf-swapped", "conflict", 1): (0.3045897079276773, 1.438),
    ("ssf-swapped", 1, 2): (809, 802),
    ("ssf-swapped", 3, 2): (1390, 802),
    ("ssf-swapped", 6, 2): (581, 802),
    ("ssf-swapped", 7, 2): (2000, 802),
    ("ssf-swapped", "batch", 2): (809, 1390, 581, 2000, 802),
    ("ssf-swapped", "conflict", 2): (0.2862241256245539, 1.401),
    ("ssf-certain", 1, 1): (36, 3368),
    ("ssf-certain", 3, 1): (2000, 3368),
    ("ssf-certain", 2, 1): (1941, 3368),
    ("ssf-certain", "batch", 1): (36, 2000, 1941, 2000, 3368),
    ("ssf-certain", "conflict", 1): (0.6274217585692996, 2.684),
    ("ssf-certain", 1, 2): (39, 3470),
    ("ssf-certain", 3, 2): (2000, 3470),
    ("ssf-certain", 2, 2): (1943, 3470),
    ("ssf-certain", "batch", 2): (39, 2000, 1943, 2000, 3470),
    ("ssf-certain", "conflict", 2): (0.6343692870201096, 2.735),
    ("general", 1, 1): (202, 2270),
    ("general", 3, 1): (202, 2270),
    ("general", 126, 1): (1798, 2270),
    ("general", 119, 1): (1815, 2270),
    ("general", "batch", 1): (202, 202, 1798, 1815, 2270),
    ("general", "conflict", 1): (0.531615925058548, 2.135),
    ("general", 1, 2): (196, 2429),
    ("general", 3, 2): (196, 2429),
    ("general", 126, 2): (1804, 2429),
    ("general", 119, 2): (1804, 2429),
    ("general", "batch", 2): (196, 196, 1804, 1804, 2429),
    ("general", "conflict", 2): (0.5484307970196433, 2.2145),
    ("general-certain", 1, 1): (0, 350),
    ("general-certain", 3, 1): (0, 350),
    ("general-certain", 126, 1): (2000, 350),
    ("general-certain", 119, 1): (1001, 350),
    ("general-certain", "batch", 1): (0, 0, 2000, 1001, 350),
    ("general-certain", "conflict", 1): (0.14893617021276595, 1.175),
    ("general-certain", 1, 2): (0, 351),
    ("general-certain", 3, 2): (0, 351),
    ("general-certain", 126, 2): (2000, 351),
    ("general-certain", 119, 2): (983, 351),
    ("general-certain", "batch", 2): (0, 0, 2000, 983, 351),
    ("general-certain", "conflict", 2): (0.14929817099106762, 1.1755),
}


class TestDrawStream:
    def test_pinned_streams(self):
        assert _stream_runs() == PINNED_STREAMS

    def test_one_draw_per_source_per_attempt(self, monkeypatch):
        # every trial count from 1 to 60 over blocks of 7 attempts: each run
        # counts the attempts of one random() call per source per attempt up
        # to the one that accepts its last trial or trips the cap, so a
        # block's cut is right wherever it falls
        outcomes = []
        for label, problem in _stream_problems().items():
            monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * len(problem.sources) * 7)
            full = problem.frame.full_bits
            queries = [FocalSet(problem.frame, b) for b in (1, 3)]
            plan = _set_plan(problem, queries)
            plans = per_draw_plans(problem)
            for cap in (3, DEFAULT_RESTART_CAP):
                for trials in range(1, 61):
                    def block():
                        successes = [0, 0]
                        score = mc._set_score(plan, successes)
                        return successes, mc._run_blocks(plan, score, trials, random.Random(3), cap)

                    outcome = run_outcome(block)
                    assert outcome == run_outcome(lambda: per_draw_kernel_set(
                        plans, full, [~q.bits for q in queries], trials, random.Random(3), cap
                    )), (label, cap, trials)
                    outcomes.append(outcome)
            assert any(o[0] != "error" and o[1] > 0 for o in outcomes), label
        assert any(o[0] == "error" for o in outcomes)


class TestEstimate:
    def test_universe_and_empty_queries_are_exact(self, two_ssf_problem):
        frame = two_ssf_problem.frame
        cfg = TrialEngineConfig(trials=500, seed=0)
        res = estimate(two_ssf_problem, [frame.universe(), FocalSet(frame, 0)], cfg)
        assert res[0].value == 1.0
        assert res[1].value == 0.0

    def test_worked_example_single_query(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        cfg = TrialEngineConfig(trials=100_000, seed=1)
        r = estimate(two_ssf_problem, [b], cfg)[0]
        exact = float(Fraction(3, 7))
        assert abs(r.value - exact) <= 3.0 * r.sd_bound
        assert r.trials == 100_000
        assert r.successes == round(r.value * r.trials)
        assert r.interval[0] <= exact <= r.interval[1]

    def test_batch_matches_singletons_exactly(self, two_ssf_problem):
        frame = two_ssf_problem.frame
        b1, b2 = frame.singleton("x1"), frame.singleton("x2")
        cfg = TrialEngineConfig(trials=30_000, seed=5)
        single1 = estimate(two_ssf_problem, [b1], cfg)[0]
        single2 = estimate(two_ssf_problem, [b2], cfg)[0]
        batch = estimate(two_ssf_problem, [b1, b2], cfg)
        assert batch[0].successes == single1.successes
        assert batch[1].successes == single2.successes
        assert batch[0].restarts == single1.restarts

    def test_against_exact_on_general_source(self):
        frame = Frame(("x1", "x2", "x3", "x4"))
        s1 = SourceModel(
            frame,
            ((0.5, subset(frame, ["x1", "x2"])), (0.2, subset(frame, ["x2", "x3"])),
             (0.3, frame.universe())),
        )
        s2 = simple_support(frame, subset(frame, ["x2", "x4"]), 0.55)
        problem = EvidenceProblem(frame, (s1, s2))
        b = subset(frame, ["x2", "x3", "x4"])
        exact, _ = exact_belief_enumeration(problem, b)
        cfg = TrialEngineConfig(trials=50_000, seed=9)
        r = estimate(problem, [b], cfg)[0]
        assert abs(r.value - exact) <= 3.0 * r.sd_bound

    def test_invalid_problem_rejected(self):
        frame = Frame(("x1", "x2"))
        bad = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
        with pytest.raises(InvalidProblemError):
            estimate(
                EvidenceProblem(frame, (bad,)),
                [frame.universe()],
                TrialEngineConfig(trials=10),
            )

    def test_query_frame_mismatch(self, two_ssf_problem):
        other = Frame(("z1", "z2"))
        with pytest.raises(FrameMismatchError):
            estimate(
                two_ssf_problem,
                [other.universe()],
                TrialEngineConfig(trials=10),
            )

    def test_empty_batch_rejected(self, two_ssf_problem):
        with pytest.raises(ValueError, match="^query batch is empty$"):
            estimate(two_ssf_problem, [], TrialEngineConfig(trials=10))

    def test_mixed_frame_batch_rejected(self):
        frame = Frame(("a",))
        problem = EvidenceProblem(frame, (simple_support(frame, frame.universe(), 1.0),))
        with pytest.raises(FrameMismatchError, match="^query set from a different frame$"):
            estimate(
                problem, [frame.universe(), Frame(("b",)).universe()],
                TrialEngineConfig(trials=10),
            )

    def test_block_budget_leaves_results_bit_identical(self, monkeypatch):
        # The block size changes how many attempts one getrandbits call
        # covers, never a count or an error.  The conflicting pair rejects
        # nine attempts in ten, so with blocks of 4 attempts (below the cap
        # of 25) its rejection runs fill whole blocks and carry over.
        problem = random_problem(3)
        full = problem.frame.full_bits
        queries = [FocalSet(problem.frame, b) for b in (1, 3, full ^ 1, full & ~8)]
        frame = Frame(("x1", "x2"))
        conflicting = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 0.9),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )

        def runs():
            out = [
                estimate(problem, queries, TrialEngineConfig(
                    trials=3000, seed=11, worker_count=workers))
                for workers in (1, 2)
            ]
            for cap in (25, 200):
                cfg = TrialEngineConfig(trials=300, seed=2, restart_cap=cap)
                try:
                    out.append(conflict_and_draws(conflicting, cfg))
                except ExcessiveConflictError as e:
                    out.append((str(e), e.conflict_estimate))
            return out

        default = runs()
        assert isinstance(default[2][0], str)  # cap 25 trips
        assert isinstance(default[3][0], float)  # cap 200 does not
        for budget in (1, 8 * 2 * 4):
            monkeypatch.setattr(mc, "_BLOCK_BYTES", budget)
            assert runs() == default, budget


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        for workers in (1, 4):
            cfg = TrialEngineConfig(trials=20_000, seed=123, worker_count=workers)
            runs = [
                estimate(two_ssf_problem, [b], cfg)[0] for _ in range(3)
            ]
            assert len({(r.successes, r.restarts) for r in runs}) == 1

    def test_worker_counts_give_different_streams(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        r1 = estimate(
            two_ssf_problem, [b],
            TrialEngineConfig(trials=20_000, seed=123, worker_count=1),
        )[0]
        r4 = estimate(
            two_ssf_problem, [b],
            TrialEngineConfig(trials=20_000, seed=123, worker_count=4),
        )[0]
        # both valid estimates; streams differ but stay within noise of exact
        exact = float(Fraction(3, 7))
        assert abs(r1.value - exact) <= 3.0 * r1.sd_bound
        assert abs(r4.value - exact) <= 3.0 * r4.sd_bound

    def test_stream_seed_derivation_is_stable(self):
        assert derive_stream_seed(0, "worker", 0) == derive_stream_seed(0, "worker", 0)
        assert derive_stream_seed(0, "worker", 0) != derive_stream_seed(0, "worker", 1)
        assert derive_stream_seed(0, "worker", 0) != derive_stream_seed(1, "worker", 0)
        assert derive_stream_seed(0, "a", 0) != derive_stream_seed(0, "b", 0)
        # survives re-derivation from already-derived 64-bit seeds
        derive_stream_seed(derive_stream_seed(3, "worker", 1), "probe", 2)

    def test_worker_rng_streams_differ(self):
        a = worker_rng(7, 0)
        b = worker_rng(7, 1)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_shares_run_in_the_calling_thread(self, two_ssf_problem, monkeypatch):
        # more shares than cores, with no thread able to start: every
        # estimator returns the counts of an unpatched run
        cfg = TrialEngineConfig(trials=200, seed=4, worker_count=(os.cpu_count() or 1) + 2)
        queries = [two_ssf_problem.frame.singleton("x1")]
        logic = random_logic_problem(3)
        clauses = [random_clause(5, logic.atoms)]

        def runs():
            sets = estimate(two_ssf_problem, queries, cfg)[0]
            bounded = logic_estimate(logic.sources, clauses, cfg, step_budget=4)
            return (
                (sets.successes, sets.restarts),
                conflict_and_draws(two_ssf_problem, cfg),
                [(e.successes, e.timeouts, e.restarts) for e in bounded.estimates],
            )

        unpatched = runs()

        def refuse(thread):
            raise RuntimeError("no thread may start")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert runs() == unpatched

    def test_more_workers_than_trials(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=3, seed=0, worker_count=8)
        r = estimate(
            two_ssf_problem, [two_ssf_problem.frame.universe()], cfg
        )[0]
        assert r.value == 1.0 and r.trials == 3

    def test_workers_past_the_trial_count_cost_nothing(self, two_ssf_problem):
        # only the first `trials` workers get a share, and no entry is
        # built for the rest
        queries = [two_ssf_problem.frame.singleton("x1")]
        few = estimate(two_ssf_problem, queries, TrialEngineConfig(trials=10, worker_count=10))
        tracemalloc.start()
        try:
            many = estimate(
                two_ssf_problem, queries, TrialEngineConfig(trials=10, worker_count=10**6)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert many == few
        assert peak < 2**20

    @pytest.mark.parametrize("name", ["s40x40", "s120x40"])
    def test_a_share_holds_one_buffer(self, name):
        # two shares of 1000 trials, each over several blocks, hold one
        # block buffer at a time; a first run builds the problem's cached
        # tables, which the bound leaves out
        problem = parse_problem((BENCH_DATA / f"{name}.bel").read_text())
        queries = [problem.frame.universe()]
        estimate(problem, queries, TrialEngineConfig(trials=1))
        cfg = TrialEngineConfig(trials=2000, seed=1, worker_count=2)
        tracemalloc.start()
        try:
            estimate(problem, queries, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mc._BLOCK_BYTES + 128 * 1024


class TestConflictEstimate:
    def test_worked_example(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=100_000, seed=2)
        kappa, loops = conflict_and_draws(two_ssf_problem, cfg)
        assert kappa == pytest.approx(0.3, abs=0.01)
        assert loops == pytest.approx(1.0 / (1.0 - kappa), abs=1e-12)

    def test_vacuous_problem(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.singleton("x1"), 0.7),)
        )
        kappa, loops = conflict_and_draws(problem, TrialEngineConfig(trials=1000, seed=0))
        assert kappa == 0.0 and loops == 1.0

    def test_half_conflict_costs_two_draws(self):
        # kappa is exactly 0.5: the first source certifies {x1} half the
        # time, the second always certifies {x2}
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 0.5),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )
        cfg = TrialEngineConfig(trials=100_000, seed=4)
        kappa, loops = conflict_and_draws(problem, cfg)
        assert kappa == pytest.approx(0.5, abs=0.01)
        assert loops == pytest.approx(2.0, rel=0.05)


def _block_test_problem(seed: int) -> EvidenceProblem:
    """A random problem mixing certain sources, simple supports and 3-4
    outcome sources, some of whose cumulative tables reach 1.0 before the
    last entry."""
    rng = random.Random(derive_stream_seed(seed, "test-block"))
    frame = Frame(tuple(f"e{j}" for j in range(rng.randint(2, 7))))

    def target() -> FocalSet:
        if rng.random() < 0.25:
            return frame.universe()
        bits = 0
        while not bits:
            bits = rng.getrandbits(frame.size)
            if rng.random() < 0.5:
                bits |= rng.getrandbits(frame.size)
        return FocalSet(frame, bits)

    sources = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("certain", "support", "multi", "rounded"))
        if kind == "certain":
            probs = [1.0]
        elif kind == "support":
            probs = [rng.uniform(0.1, 0.9)]
            probs.append(1.0 - probs[0])
        elif kind == "multi":
            probs = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(3, 4))]
            probs = [p / math.fsum(probs) for p in probs]
        else:
            # dyadic masses summing to 1, then a last outcome of 1e-18: the
            # cumulative table is exactly 1.0 before its last entry
            probs = rng.choice(([0.25, 0.75], [0.5, 0.25, 0.25])) + [1e-18]
        sources.append(SourceModel(frame, tuple((p, target()) for p in probs)))
    return EvidenceProblem(frame, tuple(sources))


def _many_source_problem() -> EvidenceProblem:
    """600 sources over six elements: each certifies the whole frame but
    for a small mass on up to two random subsets, so an attempt draws a
    few subsets and about three in ten attempts conflict."""
    rng = random.Random(derive_stream_seed(0, "test-many-sources"))
    frame = Frame(tuple(f"e{j}" for j in range(6)))

    def target() -> FocalSet:
        bits = 0
        while not bits:
            bits = rng.getrandbits(frame.size)
            if rng.random() < 0.5:
                bits |= rng.getrandbits(frame.size)
        return FocalSet(frame, bits)

    sources = []
    for _ in range(600):
        probs = [rng.uniform(0.002, 0.01) for _ in range(rng.choice((0, 1, 1, 2)))]
        outcomes = [(p, target()) for p in probs]
        outcomes.append((1.0 - math.fsum(probs), frame.universe()))
        sources.append(SourceModel(frame, tuple(outcomes)))
    return EvidenceProblem(frame, tuple(sources))


def _per_draw_estimate(problem, queries, cfg) -> tuple:
    """``(successes per query, restarts)`` of the per-draw kernel over the
    same worker shares and substreams as :func:`estimate`."""
    plans = per_draw_plans(problem)
    full = problem.frame.full_bits
    not_qs = [~q.bits for q in queries]
    successes, restarts = [0] * len(queries), 0
    for w, share in enumerate(mc._split_trials(cfg.trials, cfg.worker_count)):
        s, r = per_draw_kernel_set(
            plans, full, not_qs, share, worker_rng(cfg.seed, w), cfg.restart_cap
        )
        successes = [a + b for a, b in zip(successes, s)]
        restarts += r
    return successes, restarts


class TestBlockKernel:
    """The block kernel against the per-draw kernel it replaced."""

    PROBLEMS = [_block_test_problem(seed) for seed in range(40)]

    def test_covers_rounded_and_certain_sources(self):
        cums = [s.cumulative for p in self.PROBLEMS for s in p.sources]
        assert any(len(c) == 1 for c in cums)
        assert any(len(c) >= 3 and c[-2] == 1.0 for c in cums)
        assert any(len(c) == 4 and c[-2] < 1.0 for c in cums)

    @pytest.mark.parametrize("block_attempts", [None, 5])
    def test_matches_per_draw_kernel(self, monkeypatch, block_attempts):
        # caps below and above a block's attempt count, at 1 and 2 workers;
        # errors match in message and conflict estimate
        for problem in self.PROBLEMS:
            m = len(problem.sources)
            if block_attempts is not None:
                monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * m * block_attempts)
            per_block = mc._BLOCK_BYTES // (8 * m)
            full = problem.frame.full_bits
            queries = [
                FocalSet(problem.frame, b) for b in (full, 1, full ^ 1, full & 0b1011)
            ]
            for cap in (3, 40, per_block + 7):
                for workers in (1, 2):
                    cfg = TrialEngineConfig(
                        trials=400, seed=cap, restart_cap=cap, worker_count=workers
                    )

                    def block():
                        res = estimate(problem, queries, cfg)
                        return [r.successes for r in res], res[0].restarts

                    def per_draw():
                        return _per_draw_estimate(problem, queries, cfg)

                    assert run_outcome(block) == run_outcome(per_draw), (problem, cap, workers)

    def test_default_budget_across_blocks_matches_per_draw_kernel(self, monkeypatch):
        # at the default budget every share that ends takes at least 3
        # blocks, and cap 3 trips in a later block of a share
        problem = _many_source_problem()
        full = problem.frame.full_bits
        queries = [FocalSet(problem.frame, b) for b in (full, 1, full ^ 1, full & 0b1011)]
        drawn = record_blocks(monkeypatch)
        trips = []
        for workers in (1, 2):
            for cap in (3, DEFAULT_RESTART_CAP):
                cfg = TrialEngineConfig(trials=400, seed=2, restart_cap=cap, worker_count=workers)
                drawn.clear()

                def block():
                    res = estimate(problem, queries, cfg)
                    return [r.successes for r in res], res[0].restarts

                outcome = run_outcome(block)
                assert outcome == run_outcome(
                    lambda: _per_draw_estimate(problem, queries, cfg)
                ), (workers, cap)
                if outcome[0] == "error":
                    trips.append(drawn.count(drawn[-1]))
                else:
                    assert len(set(drawn)) == workers
                    assert min(map(drawn.count, drawn)) >= 3
        assert trips and min(trips) >= 2

    def test_small_blocks_match_per_draw_kernel(self, monkeypatch):
        # a full run and a tripped cap, with blocks of 64 uniforms
        monkeypatch.setattr(mc, "_BLOCK_BYTES", 8 * 64)
        for problem in self.PROBLEMS:
            full = problem.frame.full_bits
            queries = [FocalSet(problem.frame, b) for b in (full, full ^ 1)]
            for cap in (3, 200):
                def share():
                    plan = _set_plan(problem, queries)
                    successes = [0] * len(queries)
                    score = mc._set_score(plan, successes)
                    restarts = mc._run_blocks(plan, score, 300, random.Random(cap), cap)
                    return successes, restarts

                block = run_outcome(share)
                per_draw = run_outcome(lambda: per_draw_kernel_set(
                    per_draw_plans(problem), full, [~q.bits for q in queries],
                    300, random.Random(cap), cap,
                ))
                assert block == per_draw, (problem, cap)

    @pytest.mark.parametrize("chunk_bytes", [8, 24])
    def test_small_chunks_match_per_draw_kernel(self, monkeypatch, chunk_bytes):
        # blocks drawn in chunks of 1 or 3 uniforms
        monkeypatch.setattr(mc, "_CHUNK_BYTES", chunk_bytes)
        self.test_small_blocks_match_per_draw_kernel(monkeypatch)


class TestRestartLaw:
    """Restarts over N trials are a sum of N geometric counts: mean
    ``N * kappa / (1 - kappa)``, variance ``N * kappa / (1 - kappa)**2``."""

    @staticmethod
    def _problems() -> list[tuple[str, EvidenceProblem]]:
        out = [
            (name, parse_problem((BENCH_DATA / f"{name}.bel").read_text()))
            for name in ("b14x20", "b16x26")
        ]
        out += [(f"random-{seed}", random_problem(seed)) for seed in range(8)]
        out += [(f"ssf-{seed}", random_ssf_problem(seed)) for seed in range(4)]
        return out

    def test_restarts_within_three_sd_of_exactconflict_and_draws(self):
        n = 20_000
        for name, problem in self._problems():
            kappa = conflict_exact(problem)
            cfg = TrialEngineConfig(trials=n, seed=29)
            restarts = estimate(problem, [problem.frame.universe()], cfg)[0].restarts
            mean = n * kappa / (1.0 - kappa)
            sd = math.sqrt(n * kappa) / (1.0 - kappa)
            assert abs(restarts - mean) <= 3.0 * sd + 1e-9, (name, kappa, restarts, mean, sd)
