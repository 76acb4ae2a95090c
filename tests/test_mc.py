"""Trial engine: planning, sampling, kernels, determinism, worker substreams."""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from beliefmc import (
    EvidenceProblem,
    ExcessiveConflictError,
    FocalSet,
    FrameMismatchError,
    Frame,
    InvalidProblemError,
    QueryBatch,
    SourceModel,
    TrialEngineConfig,
    bel_from_mass,
    combine_all,
    conflict_estimate,
    estimate,
    exact_belief_enumeration,
    plan_trials,
    sample_source,
    sd_bound,
    simple_support,
    subset_frequency_scan,
)
from beliefmc import mc
from beliefmc.mc import (
    DEFAULT_RESTART_CAP,
    _draw_plan,
    _kernel_set,
    _source_plans,
    derive_stream_seed,
    worker_rng,
)
from conftest import CountingRandom, ScriptedRandom, random_problem, random_ssf_problem


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


class TestSampleSource:
    def test_certain_source(self):
        frame = Frame(("x1", "x2"))
        s = SourceModel(frame, ((1.0, frame.singleton("x1")),))
        rng = random.Random(0)
        assert all(sample_source(s, rng) == 0 for _ in range(50))

    def test_frequencies_match_probabilities(self):
        frame = Frame(("x1", "x2", "x3"))
        s = SourceModel(
            frame,
            ((0.2, frame.singleton("x1")), (0.3, frame.singleton("x2")),
             (0.5, frame.universe())),
        )
        rng = random.Random(7)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[sample_source(s, rng)] += 1
        for count, p in zip(counts, (0.2, 0.3, 0.5)):
            assert count / n == pytest.approx(p, abs=0.01)

    def test_deterministic_for_fixed_seed(self):
        frame = Frame(("x1", "x2"))
        s = simple_support(frame, frame.singleton("x1"), 0.6)
        seq1 = [sample_source(s, random.Random(42)) for _ in range(1)]
        a = random.Random(5)
        b = random.Random(5)
        assert [sample_source(s, a) for _ in range(100)] == [
            sample_source(s, b) for _ in range(100)
        ]

    def test_draw_rule_matches_kernel_plan_at_boundaries(self):
        # sample_source and the kernels' draw plan pick the same outcome
        # for uniforms on and around every cumulative boundary
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
            thr, lo, hi, plan_cum, items = _draw_plan(cum, tuple(range(len(cum))))
            us = {0.0, 1.0 - 2.0**-53}
            for c in cum:
                us.update({math.nextafter(c, 0.0), c})
            for u in sorted(u for u in us if u < 1.0):
                if plan_cum is None:
                    expected = lo if u < thr else hi
                else:
                    expected = items[bisect_right(plan_cum, u)]
                assert sample_source(s, ScriptedRandom([u])) == expected, (cum, u)


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
    batch, the conflict estimate, and the top surviving intersections as
    ``(bits, frequency)``."""
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
            out[(label, "conflict", workers)] = conflict_estimate(problem, cfg)
            out[(label, "scan", workers)] = [
                (fs.bits, freq) for fs, freq in subset_frequency_scan(problem, cfg, 4)
            ]
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
    ("ssf-pair", "scan", 1): [(1, 0.4255), (7, 0.2895), (2, 0.285)],
    ("ssf-pair", 1, 2): (809, 826),
    ("ssf-pair", 3, 2): (1424, 826),
    ("ssf-pair", 6, 2): (615, 826),
    ("ssf-pair", 7, 2): (2000, 826),
    ("ssf-pair", "batch", 2): (809, 1424, 615, 2000, 826),
    ("ssf-pair", "conflict", 2): (0.2922859164897382, 1.413),
    ("ssf-pair", "scan", 2): [(1, 0.4045), (2, 0.3075), (7, 0.288)],
    ("ssf-swapped", 1, 1): (827, 876),
    ("ssf-swapped", 3, 1): (1416, 876),
    ("ssf-swapped", 6, 1): (589, 876),
    ("ssf-swapped", 7, 1): (2000, 876),
    ("ssf-swapped", "batch", 1): (827, 1416, 589, 2000, 876),
    ("ssf-swapped", "conflict", 1): (0.3045897079276773, 1.438),
    ("ssf-swapped", "scan", 1): [(1, 0.4135), (2, 0.2945), (7, 0.292)],
    ("ssf-swapped", 1, 2): (809, 802),
    ("ssf-swapped", 3, 2): (1390, 802),
    ("ssf-swapped", 6, 2): (581, 802),
    ("ssf-swapped", 7, 2): (2000, 802),
    ("ssf-swapped", "batch", 2): (809, 1390, 581, 2000, 802),
    ("ssf-swapped", "conflict", 2): (0.2862241256245539, 1.401),
    ("ssf-swapped", "scan", 2): [(1, 0.4045), (7, 0.305), (2, 0.2905)],
    ("ssf-certain", 1, 1): (36, 3368),
    ("ssf-certain", 3, 1): (2000, 3368),
    ("ssf-certain", 2, 1): (1941, 3368),
    ("ssf-certain", "batch", 1): (36, 2000, 1941, 2000, 3368),
    ("ssf-certain", "conflict", 1): (0.6274217585692996, 2.684),
    ("ssf-certain", "scan", 1): [(2, 0.9705), (1, 0.018), (3, 0.0115)],
    ("ssf-certain", 1, 2): (39, 3470),
    ("ssf-certain", 3, 2): (2000, 3470),
    ("ssf-certain", 2, 2): (1943, 3470),
    ("ssf-certain", "batch", 2): (39, 2000, 1943, 2000, 3470),
    ("ssf-certain", "conflict", 2): (0.6343692870201096, 2.735),
    ("ssf-certain", "scan", 2): [(2, 0.9715), (1, 0.0195), (3, 0.009)],
    ("general", 1, 1): (202, 2270),
    ("general", 3, 1): (202, 2270),
    ("general", 126, 1): (1798, 2270),
    ("general", 119, 1): (1815, 2270),
    ("general", "batch", 1): (202, 202, 1798, 1815, 2270),
    ("general", "conflict", 1): (0.531615925058548, 2.135),
    ("general", "scan", 1): [(64, 0.292), (16, 0.2475), (80, 0.2145), (1, 0.101)],
    ("general", 1, 2): (196, 2429),
    ("general", 3, 2): (196, 2429),
    ("general", 126, 2): (1804, 2429),
    ("general", 119, 2): (1804, 2429),
    ("general", "batch", 2): (196, 196, 1804, 1804, 2429),
    ("general", "conflict", 2): (0.5484307970196433, 2.2145),
    ("general", "scan", 2): [(64, 0.299), (16, 0.237), (80, 0.2175), (1, 0.098)],
    ("general-certain", 1, 1): (0, 350),
    ("general-certain", 3, 1): (0, 350),
    ("general-certain", 126, 1): (2000, 350),
    ("general-certain", 119, 1): (1001, 350),
    ("general-certain", "batch", 1): (0, 0, 2000, 1001, 350),
    ("general-certain", "conflict", 1): (0.14893617021276595, 1.175),
    ("general-certain", "scan", 1): [(66, 0.5005), (74, 0.4995)],
    ("general-certain", 1, 2): (0, 351),
    ("general-certain", 3, 2): (0, 351),
    ("general-certain", 126, 2): (2000, 351),
    ("general-certain", 119, 2): (983, 351),
    ("general-certain", "batch", 2): (0, 0, 2000, 983, 351),
    ("general-certain", "conflict", 2): (0.14929817099106762, 1.1755),
    ("general-certain", "scan", 2): [(74, 0.5085), (66, 0.4915)],
}


class TestDrawStream:
    def test_pinned_streams(self):
        assert _stream_runs() == PINNED_STREAMS

    def test_one_draw_per_source_per_attempt(self):
        for label, problem in _stream_problems().items():
            plans = _source_plans(problem)
            full = problem.frame.full_bits
            rng = CountingRandom(3)
            _, restarts = _kernel_set(
                plans, full, [~1, ~3], 500, rng, DEFAULT_RESTART_CAP
            )
            assert restarts > 0, label
            assert rng.calls == len(problem.sources) * (500 + restarts), label


class TestEstimate:
    def test_universe_and_empty_queries_are_exact(self, two_ssf_problem):
        frame = two_ssf_problem.frame
        cfg = TrialEngineConfig(trials=500, seed=0)
        res = estimate(two_ssf_problem, QueryBatch((frame.universe(), frame.empty())), cfg)
        assert res[0].value == 1.0
        assert res[1].value == 0.0

    def test_worked_example_single_query(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        cfg = TrialEngineConfig(trials=100_000, seed=1)
        r = estimate(two_ssf_problem, QueryBatch((b,)), cfg)[0]
        exact = float(Fraction(3, 7))
        assert abs(r.value - exact) <= 3.0 * r.sd_bound
        assert r.trials == 100_000
        assert r.successes == round(r.value * r.trials)
        assert r.interval[0] <= exact <= r.interval[1]

    def test_batch_matches_singletons_exactly(self, two_ssf_problem):
        frame = two_ssf_problem.frame
        b1, b2 = frame.singleton("x1"), frame.singleton("x2")
        cfg = TrialEngineConfig(trials=30_000, seed=5)
        single1 = estimate(two_ssf_problem, QueryBatch((b1,)), cfg)[0]
        single2 = estimate(two_ssf_problem, QueryBatch((b2,)), cfg)[0]
        batch = estimate(two_ssf_problem, QueryBatch((b1, b2)), cfg)
        assert batch[0].successes == single1.successes
        assert batch[1].successes == single2.successes
        assert batch[0].restarts == single1.restarts

    def test_against_exact_on_general_source(self):
        frame = Frame(("x1", "x2", "x3", "x4"))
        s1 = SourceModel(
            frame,
            ((0.5, frame.subset(["x1", "x2"])), (0.2, frame.subset(["x2", "x3"])),
             (0.3, frame.universe())),
        )
        s2 = simple_support(frame, frame.subset(["x2", "x4"]), 0.55)
        problem = EvidenceProblem(frame, (s1, s2))
        b = frame.subset(["x2", "x3", "x4"])
        exact, _ = exact_belief_enumeration(problem, b)
        cfg = TrialEngineConfig(trials=50_000, seed=9)
        r = estimate(problem, QueryBatch((b,)), cfg)[0]
        assert abs(r.value - exact) <= 3.0 * r.sd_bound

    def test_invalid_problem_rejected(self):
        frame = Frame(("x1", "x2"))
        bad = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
        with pytest.raises(InvalidProblemError):
            estimate(
                EvidenceProblem(frame, (bad,)),
                QueryBatch((frame.universe(),)),
                TrialEngineConfig(trials=10),
            )

    def test_query_frame_mismatch(self, two_ssf_problem):
        other = Frame(("z1", "z2"))
        with pytest.raises(FrameMismatchError):
            estimate(
                two_ssf_problem,
                QueryBatch((other.universe(),)),
                TrialEngineConfig(trials=10),
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            QueryBatch(())

    def test_mixed_frame_batch_rejected(self):
        with pytest.raises(FrameMismatchError):
            QueryBatch((Frame(("a",)).universe(), Frame(("b",)).universe()))


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        for workers in (1, 4):
            cfg = TrialEngineConfig(trials=20_000, seed=123, worker_count=workers)
            runs = [
                estimate(two_ssf_problem, QueryBatch((b,)), cfg)[0] for _ in range(3)
            ]
            assert len({(r.successes, r.restarts) for r in runs}) == 1

    def test_worker_counts_give_different_streams(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        r1 = estimate(
            two_ssf_problem, QueryBatch((b,)),
            TrialEngineConfig(trials=20_000, seed=123, worker_count=1),
        )[0]
        r4 = estimate(
            two_ssf_problem, QueryBatch((b,)),
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

    def test_thread_pool_capped_at_core_count(self, two_ssf_problem, monkeypatch):
        cores = os.cpu_count() or 1
        sizes = []
        real_pool = mc.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", recording_pool)
        cfg = TrialEngineConfig(trials=200, seed=4, worker_count=cores + 2)
        r = estimate(
            two_ssf_problem, QueryBatch((two_ssf_problem.frame.universe(),)), cfg
        )[0]
        assert r.trials == 200
        assert sizes and all(n <= cores for n in sizes)

    def test_more_workers_than_trials(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=3, seed=0, worker_count=8)
        r = estimate(
            two_ssf_problem, QueryBatch((two_ssf_problem.frame.universe(),)), cfg
        )[0]
        assert r.value == 1.0 and r.trials == 3


class TestConflictEstimate:
    def test_worked_example(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=100_000, seed=2)
        kappa, loops = conflict_estimate(two_ssf_problem, cfg)
        assert kappa == pytest.approx(0.3, abs=0.01)
        assert loops == pytest.approx(1.0 / (1.0 - kappa), abs=1e-12)

    def test_vacuous_problem(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.singleton("x1"), 0.7),)
        )
        kappa, loops = conflict_estimate(problem, TrialEngineConfig(trials=1000, seed=0))
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
        kappa, loops = conflict_estimate(problem, cfg)
        assert kappa == pytest.approx(0.5, abs=0.01)
        assert loops == pytest.approx(2.0, rel=0.05)


class TestSubsetFrequencyScan:
    def test_certain_problem(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame, (SourceModel(frame, ((1.0, frame.singleton("x1")),)),)
        )
        top = subset_frequency_scan(problem, TrialEngineConfig(trials=1000, seed=0))
        assert top == [(frame.singleton("x1"), 1.0)]

    def test_frequencies_estimate_combined_mass(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=100_000, seed=6)
        top = subset_frequency_scan(two_ssf_problem, cfg, max_report=5)
        combined = combine_all(two_ssf_problem).combined
        assert len(top) == 3
        for fs, freq in top:
            assert freq == pytest.approx(combined.mass(fs), abs=0.01)

    def test_report_cap_and_order(self, two_ssf_problem):
        cfg = TrialEngineConfig(trials=20_000, seed=6)
        top = subset_frequency_scan(two_ssf_problem, cfg, max_report=2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_workers_merge_additively(self, two_ssf_problem):
        cfg1 = TrialEngineConfig(trials=30_000, seed=3, worker_count=1)
        cfg4 = TrialEngineConfig(trials=30_000, seed=3, worker_count=4)
        top1 = dict(subset_frequency_scan(two_ssf_problem, cfg1))
        top4 = dict(subset_frequency_scan(two_ssf_problem, cfg4))
        assert set(top1) == set(top4)
        for fs in top1:
            assert top1[fs] == pytest.approx(top4[fs], abs=0.02)
