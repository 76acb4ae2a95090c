"""Orthogonal-sum combination: worked values, algebraic laws, oracle parity."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from beliefmc import exact
from beliefmc import (
    EvidenceProblem,
    FocalSet,
    Frame,
    FrameMismatchError,
    InvalidProblemError,
    MassFunction,
    ResourceLimitError,
    TotalConflictError,
    bel_from_mass,
    combine_all,
    combine_pair,
    conflict_exact,
    exact_belief_enumeration,
    mass_from_source,
    simple_support,
)
from conftest import (
    framed_mass_pair,
    framed_mass_triple,
    mass_to_label_entries,
    oracle_bel,
    oracle_combined_mass,
    oracle_problem_bel,
    problem_to_label_sources,
    random_problem,
)


def approx_entries(a: MassFunction, b: MassFunction, tol: float = 1e-9) -> None:
    assert a.frame == b.frame
    for bits in set(a.by_bits) | set(b.by_bits):
        assert a.by_bits.get(bits, 0.0) == pytest.approx(
            b.by_bits.get(bits, 0.0), abs=tol
        ), f"entry {bits:#x}"


class TestCombinePair:
    def test_worked_example(self, two_ssf_problem):
        m1, m2 = (mass_from_source(s) for s in two_ssf_problem.sources)
        result = combine_pair(m1, m2)
        frame = two_ssf_problem.frame
        assert result.conflict == pytest.approx(0.3, abs=1e-9)
        assert result.combined.mass(frame.singleton("x1")) == pytest.approx(
            float(Fraction(3, 7)), abs=1e-9
        )
        assert result.combined.mass(frame.singleton("x2")) == pytest.approx(
            float(Fraction(2, 7)), abs=1e-9
        )
        assert result.combined.mass(frame.universe()) == pytest.approx(
            float(Fraction(2, 7)), abs=1e-9
        )

    def test_vacuous_is_identity(self):
        frame = Frame(("x1", "x2", "x3"))
        m = MassFunction(frame, {0b011: 0.5, 0b100: 0.2, 0b111: 0.3})
        vacuous = MassFunction(frame, {frame.universe(): 1.0})
        result = combine_pair(m, vacuous)
        assert result.conflict == 0.0
        approx_entries(result.combined, m)

    def test_shared_focus_reinforces(self):
        frame = Frame(("x1", "x2"))
        s = frame.singleton("x1")
        m1 = mass_from_source(simple_support(frame, s, 0.5))
        m2 = mass_from_source(simple_support(frame, s, 0.5))
        result = combine_pair(m1, m2)
        assert result.conflict == 0.0
        assert result.combined.mass(s) == pytest.approx(0.75, abs=1e-12)

    def test_total_conflict_raises(self):
        frame = Frame(("x1", "x2"))
        m1 = MassFunction(frame, {frame.singleton("x1"): 1.0})
        m2 = MassFunction(frame, {frame.singleton("x2"): 1.0})
        with pytest.raises(TotalConflictError):
            combine_pair(m1, m2)

    def test_frame_mismatch(self):
        m1 = MassFunction(Frame(("x1",)), {0b1: 1.0})
        m2 = MassFunction(Frame(("y1",)), {0b1: 1.0})
        with pytest.raises(FrameMismatchError):
            combine_pair(m1, m2)

    @given(framed_mass_pair())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, fmp):
        _, m1, m2 = fmp
        try:
            r12 = combine_pair(m1, m2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                combine_pair(m2, m1)
            return
        r21 = combine_pair(m2, m1)
        assert r12.conflict == pytest.approx(r21.conflict, abs=1e-9)
        approx_entries(r12.combined, r21.combined)

    @given(framed_mass_triple())
    @settings(max_examples=60, deadline=None)
    def test_associative(self, fmt):
        _, m1, m2, m3 = fmt
        try:
            left = combine_pair(combine_pair(m1, m2).combined, m3).combined
            right = combine_pair(m1, combine_pair(m2, m3).combined).combined
        except TotalConflictError:
            return
        approx_entries(left, right)

    @given(framed_mass_pair())
    @settings(max_examples=60, deadline=None)
    def test_matches_label_oracle(self, fmp):
        frame, m1, m2 = fmp
        sources = [
            [(v, frozenset(fs.labels())) for fs, v in m.items()] for m in (m1, m2)
        ]
        oracle_mass, oracle_conflict = oracle_combined_mass(sources)
        if oracle_mass is None:
            with pytest.raises(TotalConflictError):
                combine_pair(m1, m2)
            return
        result = combine_pair(m1, m2)
        assert result.conflict == pytest.approx(oracle_conflict, abs=1e-9)
        got = mass_to_label_entries(result.combined)
        for key in set(got) | set(oracle_mass):
            assert got.get(key, 0.0) == pytest.approx(oracle_mass.get(key, 0.0), abs=1e-9)


class TestCombineAll:
    def test_single_source(self, two_ssf_problem):
        problem = EvidenceProblem(two_ssf_problem.frame, two_ssf_problem.sources[:1])
        result = combine_all(problem)
        assert result.conflict == 0.0
        approx_entries(result.combined, mass_from_source(problem.sources[0]))

    def test_two_sources_match_pairwise(self, two_ssf_problem):
        folded = combine_all(two_ssf_problem)
        paired = combine_pair(*(mass_from_source(s) for s in two_ssf_problem.sources))
        assert folded.conflict == pytest.approx(paired.conflict, abs=1e-12)
        approx_entries(folded.combined, paired.combined)

    def test_conflict_accumulates_across_fold(self):
        # three pairwise-overlapping sources with a conflicting third
        frame = Frame(("x1", "x2", "x3"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.subset(["x1", "x2"]), 0.8),
                simple_support(frame, frame.subset(["x2", "x3"]), 0.7),
                simple_support(frame, frame.singleton("x1"), 0.5),
            ),
        )
        assert combine_all(problem).conflict == pytest.approx(
            conflict_exact(problem), abs=1e-9
        )

    def test_matches_enumeration_on_random_problems(self):
        for seed in range(25):
            problem = random_problem(seed, max_sources=4, max_outcomes=3, max_elements=6)
            result = combine_all(problem)
            oracle_mass, oracle_conflict = oracle_combined_mass(
                problem_to_label_sources(problem)
            )
            assert oracle_mass is not None
            assert result.conflict == pytest.approx(oracle_conflict, abs=1e-9)
            got = mass_to_label_entries(result.combined)
            for key in set(got) | set(oracle_mass):
                assert got.get(key, 0.0) == pytest.approx(
                    oracle_mass.get(key, 0.0), abs=1e-9
                ), f"seed {seed}"

    def test_invalid_problem_rejected(self):
        frame = Frame(("x1", "x2"))
        from beliefmc import SourceModel

        bad = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
        with pytest.raises(InvalidProblemError):
            combine_all(EvidenceProblem(frame, (bad,)))

    def test_entry_cap_names_the_step(self):
        frame = Frame(tuple(f"e{i}" for i in range(8)))
        sources = tuple(
            simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << i)), 0.5)
            for i in range(8)
        )
        with pytest.raises(ResourceLimitError, match="combine step"):
            combine_all(EvidenceProblem(frame, sources), max_entries=4)

    def test_deadline_cap(self, two_ssf_problem):
        # a generous deadline does not interfere
        result = combine_all(two_ssf_problem, deadline_s=10.0)
        assert result.conflict == pytest.approx(0.3, abs=1e-9)

    def test_total_conflict(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 1.0),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )
        with pytest.raises(TotalConflictError):
            combine_all(problem)


class TestEnumeration:
    def test_worked_example(self, two_ssf_problem):
        b = two_ssf_problem.frame.singleton("x1")
        bel, conflict = exact_belief_enumeration(two_ssf_problem, b)
        assert bel == pytest.approx(float(Fraction(3, 7)), abs=1e-12)
        assert conflict == pytest.approx(0.3, abs=1e-12)

    def test_universe_query_is_one(self, two_ssf_problem):
        bel, _ = exact_belief_enumeration(
            two_ssf_problem, two_ssf_problem.frame.universe()
        )
        assert bel == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_mass_fold(self):
        for seed in range(15):
            problem = random_problem(seed + 100, max_sources=4, max_outcomes=3, max_elements=6)
            combined = combine_all(problem).combined
            frame = problem.frame
            for bits in (0b1, 0b11, frame.full_bits >> 1):
                b = FocalSet(frame, bits & frame.full_bits)
                bel, _ = exact_belief_enumeration(problem, b)
                assert bel == pytest.approx(
                    bel_from_mass(combined, b), abs=1e-9
                ), f"seed {seed}"

    def test_outcome_cap(self):
        frame = Frame(("x1", "x2"))
        source = simple_support(frame, frame.singleton("x1"), 0.5)
        problem = EvidenceProblem(frame, (source,) * 30)
        with pytest.raises(ResourceLimitError):
            exact_belief_enumeration(problem, frame.universe(), max_outcomes=1000)

    def test_total_conflict(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 1.0),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )
        with pytest.raises(TotalConflictError):
            exact_belief_enumeration(problem, frame.universe())

    def test_identical_sources_merge_into_two_entries(self):
        # 2**21 joint outcomes, under the outcome cap; the sweep merges them
        # into {focus, universe} at every step, so it takes microseconds
        # where visiting each joint outcome takes seconds.
        frame = Frame(("x1", "x2", "x3"))
        focus = frame.subset(["x1", "x2"])
        s = 0.3
        problem = EvidenceProblem(frame, (simple_support(frame, focus, s),) * 21)
        start = time.perf_counter()
        bel, conflict = exact_belief_enumeration(problem, focus)
        elapsed = time.perf_counter() - start
        assert bel == pytest.approx(1.0 - (1.0 - s) ** 21, abs=1e-12)
        assert conflict == 0.0
        assert elapsed < 0.25

    def test_matches_oracle_on_random_problems(self):
        for seed in range(30):
            problem = random_problem(seed + 300, max_sources=5, max_outcomes=4, max_elements=6)
            frame = problem.frame
            for bits in (0b1, 0b101, frame.full_bits >> 1, frame.full_bits):
                b = FocalSet(frame, bits & frame.full_bits)
                want_bel, want_conflict = oracle_problem_bel(problem, b)
                bel, conflict = exact_belief_enumeration(problem, b)
                assert bel == pytest.approx(want_bel, abs=1e-9), f"seed {seed}"
                assert conflict == pytest.approx(want_conflict, abs=1e-9), f"seed {seed}"

    def test_table_cap_names_the_step(self, monkeypatch):
        frame = Frame(tuple(f"e{i}" for i in range(8)))
        sources = tuple(
            simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << i)), 0.5)
            for i in range(8)
        )
        problem = EvidenceProblem(frame, sources)
        monkeypatch.setattr(exact, "DEFAULT_MAX_ENTRIES", 4)
        with pytest.raises(ResourceLimitError, match="exact enumeration step"):
            exact_belief_enumeration(problem, frame.universe())
        with pytest.raises(ResourceLimitError, match="exact enumeration step"):
            conflict_exact(problem)


class TestConflictExact:
    def test_worked_example(self, two_ssf_problem):
        assert conflict_exact(two_ssf_problem) == pytest.approx(0.3, abs=1e-12)

    def test_vacuous_problem(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame, (simple_support(frame, frame.singleton("x1"), 0.6),)
        )
        assert conflict_exact(problem) == 0.0

    def test_total_conflict_is_one(self):
        frame = Frame(("x1", "x2"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, frame.singleton("x1"), 1.0),
                simple_support(frame, frame.singleton("x2"), 1.0),
            ),
        )
        assert conflict_exact(problem) == pytest.approx(1.0)

    def test_matches_oracle(self):
        for seed in range(20):
            problem = random_problem(seed + 200, max_sources=4, max_outcomes=3, max_elements=6)
            _, oracle_conflict = oracle_problem_bel(problem, problem.frame.universe())
            assert conflict_exact(problem) == pytest.approx(oracle_conflict, abs=1e-9)
