"""Frames, focal sets, mass functions, sources and the point-value operators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefmc import evidence
from beliefmc import (
    EvidenceProblem,
    FocalSet,
    Frame,
    FrameMismatchError,
    InvalidProblemError,
    MassFunction,
    SourceModel,
    bel_from_mass,
    mass_from_source,
    simple_support,
    validate_problem,
)
from conftest import (
    complement,
    focal_sets,
    frames,
    intersects,
    issubset,
    mass,
    mass_functions,
    mass_to_label_entries,
    oracle_bel,
    subset,
)


class TestFrame:
    def test_indexing_follows_declaration_order(self):
        frame = Frame(("a", "b", "c"))
        assert frame.size == 3
        assert [frame.index(x) for x in "abc"] == [0, 1, 2]
        assert frame.full_bits == 0b111
        assert "b" in frame and "z" not in frame

    def test_rejects_duplicates_and_empties(self):
        with pytest.raises(ValueError):
            Frame(("a", "a"))
        with pytest.raises(ValueError):
            Frame(("a", ""))
        with pytest.raises(ValueError):
            Frame(())

    def test_value_equality(self):
        assert Frame(("a", "b")) == Frame(("a", "b"))
        assert Frame(("a", "b")) != Frame(("b", "a"))

    def test_wide_frame_bitmasks(self):
        frame = Frame(tuple(f"e{i}" for i in range(1200)))
        top = frame.singleton("e1199")
        assert top.bits == 1 << 1199
        assert issubset(top, frame.universe())


class TestFocalSet:
    def test_construction_and_membership(self):
        frame = Frame(("x1", "x2", "x3"))
        s = subset(frame, ["x1", "x3"])
        assert s.bits == 0b101
        assert "x1" in s and "x2" not in s
        assert tuple(s) == ("x1", "x3")
        assert len(s) == 2

    def test_bits_guard(self):
        frame = Frame(("x1",))
        with pytest.raises(ValueError):
            FocalSet(frame, 0b10)

    def test_set_algebra(self):
        frame = Frame(("x1", "x2", "x3"))
        a = subset(frame, ["x1", "x2"])
        b = subset(frame, ["x2", "x3"])
        assert (a & b) == frame.singleton("x2")
        assert (a | b) == frame.universe()
        assert complement(a) == frame.singleton("x3")
        assert issubset(frame.singleton("x2"), b)
        assert intersects(a, b)
        assert not intersects(frame.singleton("x1"), b)

    def test_frame_mismatch(self):
        a = Frame(("x1", "x2")).singleton("x1")
        b = Frame(("y1", "y2")).singleton("y1")
        with pytest.raises(FrameMismatchError):
            a & b

    def test_rendering(self):
        frame = Frame(("x1", "x2"))
        assert str(frame.universe()) == "*"
        assert str(FocalSet(frame, 0)) == "{}"
        assert str(frame.singleton("x2")) == "{x2}"


class TestMassFunction:
    def test_rejects_empty_set_mass(self):
        frame = Frame(("x1", "x2"))
        with pytest.raises(ValueError):
            MassFunction(frame, {0: 1.0})

    def test_rejects_nonpositive_mass(self):
        frame = Frame(("x1", "x2"))
        with pytest.raises(ValueError):
            MassFunction(frame, {1: 1.2, 2: -0.2})

    def test_rejects_bad_total(self):
        frame = Frame(("x1", "x2"))
        with pytest.raises(ValueError):
            MassFunction(frame, {1: 0.6, 2: 0.5})

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({1: float("nan"), 2: 1.0}, "non-positive mass nan on {x1}"),
            ({1: 0.5, 2: 0.0, 4: 0.5}, "non-positive mass 0.0 on {x2}"),
            ({1: 0.5, 8: 0.25, 4: 0.25}, "bits 0x8 outside the frame"),
            ({-1: 1.0}, "bits -0x1 outside the frame"),
            ({2: 0.5, 0: 0.5}, "mass on the empty set is not allowed"),
        ],
    )
    def test_int_keyed_rejection_names_the_entry(self, entries, message):
        frame = Frame(("x1", "x2", "x3"))
        with pytest.raises(ValueError) as err:
            MassFunction(frame, entries)
        assert type(err.value) is ValueError
        assert str(err.value) == message

    def test_accepts_total_within_tolerance(self):
        frame = Frame(("x1", "x2"))
        m = MassFunction(frame, {1: 0.6, 2: 0.4 + 5e-10})
        assert math.isclose(math.fsum(m.by_bits.values()), 1.0, abs_tol=1e-15)

    def test_focal_set_and_bits_keys_merge(self):
        frame = Frame(("x1", "x2"))
        m = MassFunction(frame, {frame.singleton("x1"): 0.3, 0b01: 0.3, 0b10: 0.4})
        assert mass(m, frame.singleton("x1")) == pytest.approx(0.6)

    def test_dust_is_dropped_and_renormalized(self):
        frame = Frame(("x1", "x2"))
        m = MassFunction(frame, {1: 1.0 - 1e-13, 2: 1e-13})
        assert list(m.by_bits) == [1]
        assert m.by_bits[1] == 1.0

    @given(mass_functions())
    def test_normalization_invariant(self, m):
        total = math.fsum(m.by_bits.values())
        assert abs(total - 1.0) < 1e-12
        assert all(v > 0 for v in m.by_bits.values())
        assert 0 not in m.by_bits


class TestBelPl:
    """Belief from a mass function.  Plausibility is ``1 - Bel`` of the
    complement and has no function of its own."""

    def test_worked_example(self):
        frame = Frame(("x1", "x2", "x3"))
        m = MassFunction(
            frame,
            {
                frame.singleton("x1"): 3 / 7,
                frame.singleton("x2"): 2 / 7,
                frame.universe(): 2 / 7,
            },
        )
        b = frame.singleton("x1")
        assert bel_from_mass(m, b) == pytest.approx(3 / 7, abs=1e-12)
        # cross-check against the label-set oracle
        entries = mass_to_label_entries(m)
        assert bel_from_mass(m, b) == pytest.approx(
            oracle_bel(entries, frozenset(["x1"])), abs=1e-12
        )

    def test_trivial_queries(self):
        frame = Frame(("x1", "x2"))
        m = MassFunction(frame, {1: 0.5, 3: 0.5})
        assert bel_from_mass(m, frame.universe()) == pytest.approx(1.0)
        assert bel_from_mass(m, FocalSet(frame, 0)) == 0.0

    @given(mass_functions())
    @settings(max_examples=60)
    def test_matches_oracle_on_every_subset(self, m):
        entries = mass_to_label_entries(m)
        frame = m.frame
        for bits in range(frame.full_bits + 1):
            b = FocalSet(frame, bits)
            lb = frozenset(b)
            assert bel_from_mass(m, b) == pytest.approx(oracle_bel(entries, lb), abs=1e-12)

    @given(mass_functions())
    @settings(max_examples=60)
    def test_duality_and_monotonicity(self, m):
        frame = m.frame
        for bits in range(frame.full_bits + 1):
            b = FocalSet(frame, bits)
            # belief in b leaves at most the rest for its complement
            assert bel_from_mass(m, b) + bel_from_mass(m, complement(b)) <= 1.0 + 1e-12
            # supersets can only gain belief
            wider = FocalSet(frame, bits | (bits << 1) & frame.full_bits)
            if issubset(b, wider):
                assert bel_from_mass(m, b) <= bel_from_mass(m, wider) + 1e-12

    def test_query_sequence_matches_one_query_at_a_time(self, monkeypatch):
        # Frames of 1-40 elements put sequences of 0-20 queries on both
        # sides of the route choice: one pass, or one scan per query.
        routes = set()
        passes = []
        one_pass = evidence._masses_within

        def spy(*args):
            passes.append(args)
            return one_pass(*args)

        monkeypatch.setattr(evidence, "_masses_within", spy)

        @st.composite
        def queries(draw, frame):
            pool = [FocalSet(frame, 0), frame.universe()]
            pool += draw(st.lists(focal_sets(frame), max_size=6))
            return draw(st.lists(st.sampled_from(pool), max_size=20))

        @st.composite
        def cases(draw):
            frame = draw(frames(40))
            return draw(mass_functions(frame, max_entries=30)), draw(queries(frame))

        def spread(n, count):
            """Up to 12 random entries and ``count`` random queries on an
            ``n``-element frame."""
            frame = Frame(tuple(f"e{i}" for i in range(n)))
            rng = random.Random(n * 1000 + count)
            bits = {rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(12)}
            queries = [FocalSet(frame, rng.getrandbits(n) | rng.getrandbits(n)) for _ in range(count)]
            return MassFunction(frame, {b: 1 / len(bits) for b in bits}), queries

        @given(cases())
        @settings(max_examples=150, deadline=None)
        @example(spread(1, 4))  # one pass, one byte
        @example(spread(40, 1))  # one scan
        @example(spread(64, 18))  # one pass, keys filling a machine word
        @example(spread(65, 40))  # scans, keys wider than a machine word
        @example(spread(3, 70))  # one pass, signatures wider than a machine word
        def check(case):
            m, qs = case
            seen = len(passes)
            got = bel_from_mass(m, qs)
            routes.add("pass" if len(passes) > seen else "scan")
            assert isinstance(got, list)
            # Both routes fsum the same values, so they agree exactly.
            assert got == [bel_from_mass(m, q) for q in qs]

        check()
        assert routes == {"pass", "scan"}

    def test_query_sequence_rejects_a_foreign_query(self):
        frame = Frame(("x1", "x2", "x3"))
        m = MassFunction(frame, {1: 0.5, 7: 0.5})
        foreign = Frame(("y1",)).universe()
        with pytest.raises(FrameMismatchError) as one:
            bel_from_mass(m, foreign)
        for qs in ([frame.universe(), foreign], [frame.universe()] * 5 + [foreign]):
            with pytest.raises(FrameMismatchError) as many:
                bel_from_mass(m, qs)
            assert str(many.value) == str(one.value)
        assert type(bel_from_mass(m, frame.universe())) is float


class TestSimpleSupport:
    def test_builds_two_outcomes(self):
        frame = Frame(("x1", "x2"))
        s = simple_support(frame, frame.singleton("x1"), 0.6)
        assert s.outcomes[0] == (0.6, frame.singleton("x1"))
        assert s.outcomes[1][0] == pytest.approx(0.4)
        assert s.outcomes[1][1].is_full

    def test_weight_one_collapses(self):
        frame = Frame(("x1", "x2"))
        s = simple_support(frame, frame.singleton("x1"), 1.0)
        assert s.outcomes == ((1.0, frame.singleton("x1")),)

    def test_weight_and_focus_guards(self):
        frame = Frame(("x1", "x2"))
        with pytest.raises(ValueError):
            simple_support(frame, frame.singleton("x1"), 0.0)
        with pytest.raises(ValueError):
            simple_support(frame, frame.singleton("x1"), 1.5)
        with pytest.raises(ValueError):
            simple_support(frame, FocalSet(frame, 0), 0.5)

class TestMassFromSource:
    def test_simple_support_mass(self):
        frame = Frame(("x1", "x2", "x3"))
        m = mass_from_source(simple_support(frame, frame.singleton("x1"), 0.6))
        assert mass(m, frame.singleton("x1")) == pytest.approx(0.6)
        assert mass(m, frame.universe()) == pytest.approx(0.4)

    def test_duplicate_targets_merge(self):
        frame = Frame(("x1", "x2"))
        s = SourceModel(
            frame,
            ((0.25, frame.singleton("x1")), (0.35, frame.singleton("x1")),
             (0.4, frame.universe())),
        )
        m = mass_from_source(s)
        assert mass(m, frame.singleton("x1")) == pytest.approx(0.6)

    def test_certain_source(self):
        frame = Frame(("x1", "x2"))
        m = mass_from_source(SourceModel(frame, ((1.0, frame.singleton("x2")),)))
        assert m.by_bits == {frame.singleton("x2").bits: 1.0}

    def test_refusals(self):
        frame = Frame(("x1", "x2"))
        x1 = frame.singleton("x1")
        with pytest.raises(InvalidProblemError) as e:
            mass_from_source(SourceModel(frame, ((1.0, x1), (0.0, frame.universe()))))
        assert e.value.violations == ["outcome 1: probability 0 not positive"]
        with pytest.raises(FrameMismatchError, match="outcome target from a different frame"):
            mass_from_source(SourceModel(frame, ((1.0, FocalSet(Frame(("y",)), 1)),)))
        with pytest.raises(InvalidProblemError) as e:
            mass_from_source(SourceModel(frame, ((0.5, x1), (0.5, FocalSet(frame, 0)))))
        assert e.value.violations == ["outcome 1: empty target"]


class TestValidateProblem:
    def test_well_formed(self, two_ssf_problem):
        assert validate_problem(two_ssf_problem) == []

    def test_bad_probability_sum(self):
        frame = Frame(("x1", "x2"))
        s = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
        report = validate_problem(EvidenceProblem(frame, (s,)))
        assert report == ["source 0: probabilities sum to 1.1"]

    def test_empty_target(self):
        frame = Frame(("x1", "x2"))
        ok = SourceModel(frame, ((1.0, frame.universe()),))
        bad = SourceModel(frame, ((1.0, FocalSet(frame, 0)),))
        report = validate_problem(EvidenceProblem(frame, (ok, bad)))
        assert report == ["source 1 outcome 0: empty target"]

    def test_multiple_violations_reported_in_order(self):
        frame = Frame(("x1", "x2"))
        bad = SourceModel(frame, ((0.6, FocalSet(frame, 0)), (0.5, frame.universe())))
        report = validate_problem(EvidenceProblem(frame, (bad,)))
        assert report == [
            "source 0 outcome 0: empty target",
            "source 0: probabilities sum to 1.1",
        ]

    def test_frame_mismatch_and_no_sources(self):
        frame = Frame(("x1", "x2"))
        other = Frame(("y1",))
        s = SourceModel(other, ((1.0, other.universe()),))
        assert validate_problem(EvidenceProblem(frame, (s,))) == ["source 0: frame mismatch"]
        assert validate_problem(EvidenceProblem(frame, ())) == ["problem has no sources"]

    def test_nonpositive_probability(self):
        frame = Frame(("x1", "x2"))
        s = SourceModel(frame, ((1.0, frame.universe()), (0.0, frame.singleton("x1"))))
        report = validate_problem(EvidenceProblem(frame, (s,)))
        assert "source 0 outcome 1: probability 0 not positive" in report
