"""Orthogonal-sum combination: worked values, algebraic laws, oracle parity."""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefmc import evidence, exact
from beliefmc import (
    EvidenceProblem,
    FocalSet,
    Frame,
    FrameMismatchError,
    InvalidProblemError,
    MassFunction,
    ResourceLimitError,
    SourceModel,
    TotalConflictError,
    bel_from_mass,
    combine_all,
    conflict_exact,
    exact_belief_enumeration,
    mass_from_source,
    parse_problem,
    parse_query,
    simple_support,
)
from beliefmc.evidence import MASS_DUST
from conftest import (
    combine_masses,
    framed_mass_pair,
    framed_mass_triple,
    mass,
    mass_to_label_entries,
    oracle_bel,
    oracle_combined_mass,
    oracle_problem_bel,
    problem_to_label_sources,
    random_problem,
    subset,
)


BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def assert_fold_finish_matches_constructor(problem: EvidenceProblem) -> MassFunction:
    """``combine_all``'s mass function equals the public constructor's
    normalization of the fold's table divided by its total, to 1e-15 per
    entry, with the same entries kept."""
    acc, total, _, codes = exact._fold(problem, 0)
    acc = exact._by_sets(acc, codes)
    want = MassFunction(problem.frame, {b: v / total for b, v in acc.items()}).by_bits
    got = combine_all(problem).combined
    assert got.by_bits.keys() == want.keys()
    assert max(abs(got.by_bits[b] - v) for b, v in want.items()) <= 1e-15
    return got


def reread_fold(problem: EvidenceProblem) -> dict[int, float]:
    """The combined table, divided by its total, of a reference fold that
    sums its table after every step and lets the product loop OR it."""
    sources = sorted(problem.sources, key=lambda s: len(set(s.target_bits)))
    acc, total = {problem.frame.full_bits: 1.0}, 1.0
    for s in sources:
        table = {b: v / total for b, v in mass_from_source(s).by_bits.items()}
        acc, _ = exact._combine_bits(acc, table)
        total = math.fsum(acc.values())
    return {b: v / total for b, v in acc.items()}


def step_conflicts(problem: EvidenceProblem, monkeypatch) -> list[float]:
    """The conflict of each step of ``combine_all``'s fold."""
    conflicts = []
    combine_bits = exact._combine_bits

    def spy(*args, **kwargs):
        table, conflict = combine_bits(*args, **kwargs)
        conflicts.append(conflict)
        return table, conflict

    with monkeypatch.context() as m:
        m.setattr(exact, "_combine_bits", spy)
        combine_all(problem)
    return conflicts


def held_problem(seed: int, shared: int, lossy: bool) -> EvidenceProblem:
    """Random problem whose outcomes all hold the elements of ``shared``,
    after (with ``lossy``) two simple supports on ``{e0}`` and ``{e1}``
    that fold first and conflict; every later step is lossless."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    frame = Frame(tuple(f"e{j}" for j in range(n)))
    sources = []
    if lossy:
        sources = [simple_support(frame, FocalSet(frame, 1 << j), rng.uniform(0.2, 0.8))
                   for j in (0, 1)]
    low = shared.bit_length()
    for _ in range(rng.randint(2, 4)):
        # distinct targets, so a source folds after the simple supports
        targets = rng.sample(range(1 << n - low), rng.randint(2, 4))
        weights = [rng.uniform(0.05, 1.0) for _ in targets]
        total = math.fsum(weights)
        sources.append(SourceModel(frame, tuple(
            (w / total, FocalSet(frame, b << low | shared)) for w, b in zip(weights, targets)
        )))
    return EvidenceProblem(frame, tuple(sources))


def complement_supports(n: int) -> EvidenceProblem:
    """n simple-support sources, source i certifying the frame without
    element i: the fold's table doubles at every step."""
    frame = Frame(tuple(f"e{i}" for i in range(n)))
    return EvidenceProblem(
        frame,
        tuple(
            simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << i)), 0.5)
            for i in range(n)
        ),
    )


#: The views of the fold that take ``deadline_s``.
DEADLINE_VIEWS = {"combine_all": combine_all, "conflict_exact": conflict_exact}


def staged_problem(seed: int) -> EvidenceProblem:
    """Random problem in which each element has a last source that may
    remove it (none for some elements): every outcome of a later source
    holds it, so the pruned sweep fixes elements part way through."""
    for attempt in itertools.count():
        rng = random.Random(seed * 1000 + attempt)
        n = rng.randint(2, 6)
        m = rng.randint(1, 5)
        frame = Frame(tuple(f"e{j}" for j in range(n)))
        last = [rng.randint(-1, m - 1) for _ in range(n)]
        sources = []
        for i in range(m):
            fixed = sum(1 << j for j in range(n) if last[j] < i)
            k = rng.randint(1, 4)
            weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
            total = math.fsum(weights)
            outcomes = []
            for w in weights:
                bits = fixed | rng.getrandbits(n)
                outcomes.append((w / total, FocalSet(frame, bits or frame.full_bits)))
            sources.append(SourceModel(frame, tuple(outcomes)))
        problem = EvidenceProblem(frame, tuple(sources))
        if oracle_combined_mass(problem_to_label_sources(problem))[0] is not None:
            return problem


def approx_entries(a: MassFunction, b: MassFunction, tol: float = 1e-9) -> None:
    assert a.frame == b.frame
    for bits in set(a.by_bits) | set(b.by_bits):
        assert a.by_bits.get(bits, 0.0) == pytest.approx(
            b.by_bits.get(bits, 0.0), abs=tol
        ), f"entry {bits:#x}"


class TestCombinePair:
    """Dempster's rule on two (and three) sources, through the fold."""

    def test_worked_example(self, two_ssf_problem):
        result = combine_all(two_ssf_problem)
        frame = two_ssf_problem.frame
        assert result.conflict == pytest.approx(0.3, abs=1e-9)
        assert mass(result.combined, frame.singleton("x1")) == pytest.approx(
            float(Fraction(3, 7)), abs=1e-9
        )
        assert mass(result.combined, frame.singleton("x2")) == pytest.approx(
            float(Fraction(2, 7)), abs=1e-9
        )
        assert mass(result.combined, frame.universe()) == pytest.approx(
            float(Fraction(2, 7)), abs=1e-9
        )

    def test_vacuous_is_identity(self):
        frame = Frame(("x1", "x2", "x3"))
        m = MassFunction(frame, {0b011: 0.5, 0b100: 0.2, 0b111: 0.3})
        vacuous = MassFunction(frame, {frame.universe(): 1.0})
        for result in (combine_masses(m, vacuous), combine_masses(vacuous, m)):
            assert result.conflict == 0.0
            approx_entries(result.combined, m)

    def test_shared_focus_reinforces(self):
        frame = Frame(("x1", "x2"))
        s = frame.singleton("x1")
        source = simple_support(frame, s, 0.5)
        result = combine_all(EvidenceProblem(frame, (source, source)))
        assert result.conflict == 0.0
        assert mass(result.combined, s) == pytest.approx(0.75, abs=1e-12)

    def test_total_conflict_raises(self):
        frame = Frame(("x1", "x2"))
        m1 = MassFunction(frame, {frame.singleton("x1"): 1.0})
        m2 = MassFunction(frame, {frame.singleton("x2"): 1.0})
        with pytest.raises(TotalConflictError):
            combine_masses(m1, m2)

    def test_frame_mismatch(self):
        # a source over another frame is a validation failure of the problem
        m1 = MassFunction(Frame(("x1",)), {0b1: 1.0})
        m2 = MassFunction(Frame(("y1",)), {0b1: 1.0})
        with pytest.raises(InvalidProblemError, match="source 1: frame mismatch"):
            combine_masses(m1, m2)

    @given(framed_mass_pair())
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, fmp):
        _, m1, m2 = fmp
        try:
            r12 = combine_masses(m1, m2)
        except TotalConflictError:
            with pytest.raises(TotalConflictError):
                combine_masses(m2, m1)
            return
        r21 = combine_masses(m2, m1)
        assert r12.conflict == pytest.approx(r21.conflict, abs=1e-9)
        approx_entries(r12.combined, r21.combined)

    @given(framed_mass_triple())
    @settings(max_examples=60, deadline=None)
    def test_associative(self, fmt):
        _, m1, m2, m3 = fmt
        try:
            left = combine_masses(combine_masses(m1, m2).combined, m3).combined
            right = combine_masses(m1, combine_masses(m2, m3).combined).combined
            folded = combine_masses(m1, m2, m3).combined
        except TotalConflictError:
            return
        approx_entries(left, right)
        approx_entries(folded, left)

    @given(framed_mass_pair())
    @settings(max_examples=60, deadline=None)
    def test_matches_label_oracle(self, fmp):
        frame, m1, m2 = fmp
        sources = [
            [(v, frozenset(fs)) for fs, v in m.items()] for m in (m1, m2)
        ]
        oracle_mass, oracle_conflict = oracle_combined_mass(sources)
        if oracle_mass is None:
            with pytest.raises(TotalConflictError):
                combine_masses(m1, m2)
            return
        result = combine_masses(m1, m2)
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
        paired, conflict = oracle_combined_mass(problem_to_label_sources(two_ssf_problem))
        assert folded.conflict == pytest.approx(conflict, abs=1e-12)
        got = mass_to_label_entries(folded.combined)
        assert set(got) == set(paired)
        for key, v in paired.items():
            assert got[key] == pytest.approx(v, abs=1e-12)

    def test_conflict_accumulates_across_fold(self):
        # three pairwise-overlapping sources with a conflicting third
        frame = Frame(("x1", "x2", "x3"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, subset(frame, ["x1", "x2"]), 0.8),
                simple_support(frame, subset(frame, ["x2", "x3"]), 0.7),
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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_source_order_does_not_change_the_fold(self, data):
        problem = random_problem(
            data.draw(st.integers(0, 10**6)), max_sources=5, max_outcomes=4, max_elements=6
        )
        order = data.draw(st.permutations(problem.sources))
        permuted = EvidenceProblem(problem.frame, tuple(order))
        want = combine_all(problem)
        got = combine_all(permuted)
        assert set(got.combined.by_bits) == set(want.combined.by_bits)
        for bits, v in want.combined.by_bits.items():
            assert got.combined.by_bits[bits] == pytest.approx(v, abs=1e-12)
        assert got.conflict == pytest.approx(want.conflict, abs=1e-12)
        # the pruned views prune in fold order, which the permutation changes
        b = FocalSet(problem.frame, data.draw(st.integers(0, problem.frame.full_bits)))
        assert exact_belief_enumeration(permuted, b) == pytest.approx(
            exact_belief_enumeration(problem, b), abs=1e-12
        )
        assert conflict_exact(permuted) == pytest.approx(conflict_exact(problem), abs=1e-12)

    @pytest.mark.parametrize("name", ["b14x20", "b16x26", "b18x32"])
    def test_fold_finish_matches_constructor_on_benchmark_problems(self, name):
        assert_fold_finish_matches_constructor(
            parse_problem((BENCH_DATA / f"{name}.bel").read_text())
        )

    @pytest.mark.parametrize("name", ["b14x20", "b16x26", "b18x32"])
    def test_benchmark_queries_score_alike_in_one_pass(self, name, monkeypatch):
        # Up to 38,832 entries: one pass over the table gives each query
        # the same correctly rounded sum as its own scan.
        manifest = json.loads((BENCH_DATA / "fixtures.json").read_text())
        fx = next(f for f in manifest["fixtures"] if f["name"] == name)
        problem = parse_problem((BENCH_DATA / fx["file"]).read_text())
        queries = [parse_query(problem.frame, q) for q in fx["queries"]]
        m = combine_all(problem).combined
        passes = []
        one_pass = evidence._masses_within

        def spy(*args):
            passes.append(args)
            return one_pass(*args)

        monkeypatch.setattr(evidence, "_masses_within", spy)
        assert bel_from_mass(m, queries) == [bel_from_mass(m, q) for q in queries]
        assert len(passes) == 1

    @pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy-first"])
    def test_lossless_steps_carry_total_and_cover(self, lossy, monkeypatch):
        # With ``lossy``, step 1 sends mass to conflict; every other step is
        # lossless, so the fold sums and ORs its table only after step 1,
        # ends on a total of 1.0, and keeps the keys and their order.
        for seed in range(12):
            problem = held_problem(seed, 0b11 if lossy else 0b1, lossy)
            conflicts = step_conflicts(problem, monkeypatch)
            assert [i for i, c in enumerate(conflicts) if c] == ([1] if lossy else [])
            assert exact._fold(problem, 0)[1] == 1.0
            got = assert_fold_finish_matches_constructor(problem)
            want = reread_fold(problem)
            assert list(got.by_bits) == list(want)
            assert max(abs(got.by_bits[b] - v) for b, v in want.items()) <= 1e-15
            oracle_mass, oracle_conflict = oracle_combined_mass(
                problem_to_label_sources(problem)
            )
            got_mass = mass_to_label_entries(got)
            assert got_mass.keys() == oracle_mass.keys()
            for a, v in oracle_mass.items():
                assert got_mass[a] == pytest.approx(v, abs=1e-12)
            assert combine_all(problem).conflict == pytest.approx(oracle_conflict, abs=1e-12)

    def test_lossless_fold_reads_no_running_table(self, monkeypatch):
        # Every outcome of b18x32 holds one shared element, so no step loses
        # mass: the fold sums and ORs nothing wider than a source's table,
        # and the mass function keeps the fold's own table.
        problem = parse_problem((BENCH_DATA / "b18x32.bel").read_text())
        widest = max(len(s.target_bits) for s in problem.sources)
        reads = []
        real_reduce, real_fsum, real_fold = exact.reduce, math.fsum, exact._fold

        def reduce_spy(fn, xs, *init):
            xs = list(xs)
            reads.append(len(xs))
            return real_reduce(fn, xs, *init)

        def fsum_spy(xs):
            xs = list(xs)
            reads.append(len(xs))
            return real_fsum(xs)

        folds = []

        def fold_spy(*args, **kwargs):
            folds.append(real_fold(*args, **kwargs))
            return folds[-1]

        monkeypatch.setattr(exact, "reduce", reduce_spy)
        monkeypatch.setattr(exact, "math", SimpleNamespace(fsum=fsum_spy))
        monkeypatch.setattr(exact, "_fold", fold_spy)
        combined = combine_all(problem).combined
        assert reads and max(reads) <= widest
        ((table, total, _, codes),) = folds
        assert codes is None and total == 1.0
        assert combined.by_bits is table and len(table) == 38_832

    def test_fold_finish_matches_constructor_on_random_problems(self):
        for seed in range(40):
            assert_fold_finish_matches_constructor(
                random_problem(seed, max_sources=5, max_outcomes=4, max_elements=8)
            )

    def test_fold_finish_drops_dust(self):
        # {y} = {x y} & {y z} gets 1e-7 * 1e-7 = 1e-14, below MASS_DUST
        frame = Frame(("x", "y", "z"))
        problem = EvidenceProblem(
            frame,
            (
                simple_support(frame, subset(frame, "xy"), 1e-7),
                simple_support(frame, subset(frame, "yz"), 1e-7),
            ),
        )
        acc, total, _, _ = exact._fold(problem, 0)
        assert acc[0b010] / total < MASS_DUST
        got = assert_fold_finish_matches_constructor(problem).by_bits
        assert 0b010 not in got and len(got) == len(acc) - 1
        assert math.fsum(got.values()) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_problem_rejected(self):
        frame = Frame(("x1", "x2"))
        from beliefmc import SourceModel

        bad = SourceModel(frame, ((0.6, frame.singleton("x1")), (0.5, frame.universe())))
        with pytest.raises(InvalidProblemError):
            combine_all(EvidenceProblem(frame, (bad,)))

    def test_entry_cap_names_the_step(self, monkeypatch):
        frame = Frame(tuple(f"e{i}" for i in range(8)))
        sources = tuple(
            simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << i)), 0.5)
            for i in range(8)
        )
        monkeypatch.setattr(exact, "MAX_ENTRIES", 4)
        with pytest.raises(ResourceLimitError, match="exact fold step"):
            combine_all(EvidenceProblem(frame, sources))

    def test_deadline_cap(self, two_ssf_problem):
        # a generous deadline does not interfere
        result = combine_all(two_ssf_problem, deadline_s=10.0)
        assert result.conflict == pytest.approx(0.3, abs=1e-9)

    def test_expired_deadline_trips(self):
        # step i multiplies 2**i entries by 2 outcomes: 2**17 - 4 products
        # in all, more than _DEADLINE_STRIDE; a 0 s cap trips at step 0
        problem = complement_supports(16)
        assert sum(2 ** (i + 1) for i in range(1, 16)) > exact._DEADLINE_STRIDE
        with pytest.raises(ResourceLimitError, match=r"exact fold step \d+: wall-clock cap"):
            combine_all(problem, deadline_s=0.0)

    @pytest.mark.parametrize("view", sorted(DEADLINE_VIEWS))
    def test_zero_deadline_trips_a_fold_of_short_steps(self, view):
        # 3000 steps of at most 2**10 entries times 2 outcomes, each far
        # under _DEADLINE_STRIDE products: the deadline is checked at the
        # start of every step, so a 0 s cap trips at step 0
        frame = Frame(tuple(f"e{i}" for i in range(10)))
        problem = EvidenceProblem(
            frame,
            tuple(
                simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << (i % 10))), 0.01)
                for i in range(3000)
            ),
        )
        assert 2 * 2**10 < exact._DEADLINE_STRIDE
        with pytest.raises(ResourceLimitError, match="step 0: wall-clock cap exceeded"):
            DEADLINE_VIEWS[view](problem, deadline_s=0.0)

    def test_deadline_checked_inside_a_step(self, monkeypatch):
        # With a stride of 4, step 0's 10 products (the vacuous table times
        # one 10-outcome source) check the deadline before products 1, 5
        # and 9; a clock that passes the deadline after the first check
        # trips the second, inside the step.
        frame = Frame(("a", "b", "c", "d"))
        source = SourceModel(frame, tuple((0.1, FocalSet(frame, b)) for b in range(1, 11)))
        clock = iter([0.0, 0.0, 2.0])
        monkeypatch.setattr(exact, "_DEADLINE_STRIDE", 4)
        monkeypatch.setattr(exact, "time", SimpleNamespace(monotonic=clock.__next__))
        with pytest.raises(ResourceLimitError, match="exact fold step 0: wall-clock cap"):
            combine_all(EvidenceProblem(frame, (source,)), deadline_s=1.0)
        assert next(clock, None) is None

    @pytest.mark.parametrize(
        "view, caps",
        [
            (view, {"deadline_s": d})
            for view in sorted(DEADLINE_VIEWS)
            for d in (math.nan, -1.0)
        ],
    )
    def test_invalid_caps_rejected(self, two_ssf_problem, view, caps):
        # a NaN or negative deadline would never trip on a fold this short
        with pytest.raises(ValueError):
            DEADLINE_VIEWS[view](two_ssf_problem, **caps)

    def test_entry_cap_inside_a_pass_names_the_step(self, monkeypatch):
        # At step 7 the covering outcome copies the 128-entry table and the
        # other outcome's pass adds 128 new entries; with a stride of 4 the
        # cap of 130 is consulted, and trips, a few products into that pass.
        monkeypatch.setattr(exact, "_DEADLINE_STRIDE", 4)
        monkeypatch.setattr(exact, "MAX_ENTRIES", 130)
        problem = complement_supports(8)
        with pytest.raises(
            ResourceLimitError,
            match="exact fold step 7: intermediate table exceeded 130 entries",
        ):
            combine_all(problem)

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


@st.composite
def product_tables(draw):
    """Two raw outcome lists of normalized masses over one frame, with
    duplicate ``*`` outcomes, covering outcomes, and (sometimes) foci on
    disjoint halves of the frame so that every pair conflicts."""
    n = draw(st.integers(1, 6))
    full = (1 << n) - 1
    split = draw(st.integers(1, n))
    disjoint = split < n and draw(st.booleans())

    def outcomes(bits):
        raw = draw(st.lists(st.tuples(bits, st.floats(0.01, 1.0)), min_size=1, max_size=4))
        if not disjoint:
            raw += [(full, draw(st.floats(0.01, 1.0)))] * draw(st.integers(0, 3))
        total = math.fsum(v for _, v in raw)
        return [(b, v / total) for b, v in raw]

    if disjoint:
        low = st.integers(1, (1 << split) - 1)
        high = st.integers(1, (1 << (n - split)) - 1).map(lambda b: b << split)
        return outcomes(low), outcomes(high)
    every = st.integers(1, full)
    return outcomes(every), outcomes(every)


def merged(raw):
    table = {}
    for b, v in raw:
        table[b] = table.get(b, 0.0) + v
    return table


def naive_product(raw1, raw2):
    """Every outcome pair of the raw lists, one at a time."""
    terms: dict[int, list[float]] = {}
    for b1, v1 in raw1:
        for b2, v2 in raw2:
            terms.setdefault(b1 & b2, []).append(v1 * v2)
    table = {b: math.fsum(ws) for b, ws in terms.items() if b}
    return table, math.fsum(terms.get(0, []))


class TestProductLoop:
    @given(product_tables())
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_double_loop(self, raws):
        raw1, raw2 = raws
        want, want_conflict = naive_product(raw1, raw2)
        for first, second in ((raw1, raw2), (raw2, raw1)):
            table, conflict = exact._combine_bits(merged(first), merged(second))
            assert set(table) == set(want)
            for bits, v in want.items():
                assert table[bits] == pytest.approx(v, abs=1e-12), f"entry {bits:#x}"
            assert conflict == pytest.approx(want_conflict, abs=1e-15)

    def test_all_conflict_pair(self):
        table, conflict = exact._combine_bits({0b01: 0.25, 0b11: 0.75}, {0b100: 1.0})
        assert table == {}
        assert conflict == 1.0


class TestEnumeration:
    def test_frame_mismatch(self, two_ssf_problem):
        with pytest.raises(FrameMismatchError, match="query set from a different frame"):
            exact_belief_enumeration(two_ssf_problem, Frame(("x1", "x2")).universe())

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
        # 2**21 joint outcomes; the sweep merges them into {focus,
        # universe} at every step, so it takes microseconds where visiting
        # each joint outcome takes seconds.
        frame = Frame(("x1", "x2", "x3"))
        focus = subset(frame, ["x1", "x2"])
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
        problem = complement_supports(8)
        frame = problem.frame
        twice = EvidenceProblem(frame, problem.sources * 2)
        want = oracle_problem_bel(problem, frame.universe())[1]
        monkeypatch.setattr(exact, "MAX_ENTRIES", 4)
        # the universe query has nothing outside it, so nothing is pruned
        with pytest.raises(ResourceLimitError, match="exact fold step"):
            exact_belief_enumeration(problem, frame.universe())
        # twice over, no element is fixed before the last eight steps, so
        # the table doubles past the cap before any pruning
        with pytest.raises(ResourceLimitError, match="exact fold step"):
            conflict_exact(twice)
        # once over, element i is fixed after source i, its only remover:
        # every entry still holding it is pruned and the table stays small
        assert conflict_exact(problem) == pytest.approx(want, abs=1e-12)

    def test_unremovable_element_ends_the_sweep(self, monkeypatch):
        # element "k" is in every outcome, so no joint draw is empty and the
        # first table entry is pruned before any product runs
        frame = Frame(tuple(f"e{i}" for i in range(8)) + ("k",))
        problem = EvidenceProblem(
            frame,
            tuple(
                simple_support(frame, FocalSet(frame, frame.full_bits ^ (1 << i)), 0.5)
                for i in range(8)
            ),
        )
        monkeypatch.setattr(exact, "MAX_ENTRIES", 1)
        assert conflict_exact(problem) == 0.0

    def test_pruned_sweep_matches_oracle(self):
        for seed in range(40):
            problem = staged_problem(seed)
            frame = problem.frame
            want_conflict = oracle_problem_bel(problem, frame.universe())[1]
            assert conflict_exact(problem) == pytest.approx(
                want_conflict, abs=1e-12
            ), f"seed {seed}"
            for bits in (0b1, 0b101, 0b110, frame.full_bits >> 1, frame.full_bits):
                b = FocalSet(frame, bits & frame.full_bits)
                want_bel, _ = oracle_problem_bel(problem, b)
                bel, conflict = exact_belief_enumeration(problem, b)
                assert bel == pytest.approx(want_bel, abs=1e-12), f"seed {seed}"
                assert conflict == pytest.approx(want_conflict, abs=1e-12), f"seed {seed}"


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

    def test_routes_share_one_total_conflict_rule(self):
        # Every step keeps more than CONFLICT_TOL of its mass, but the
        # overall survival is about 1e-17: both belief views refuse, and
        # the conflict stays within [0, 1].
        frame = Frame(tuple(f"e{i}" for i in range(5)))
        sources = [simple_support(frame, frame.singleton("e0"), 1 - 1e-4)]
        for i in range(1, 5):
            focus = ((1 - 1e-4, frame.singleton(f"e{i}")),)
            spread = tuple((1e-4 / i, frame.singleton(f"e{j}")) for j in range(i))
            sources.append(SourceModel(frame, focus + spread))
        problem = EvidenceProblem(frame, tuple(sources))
        with pytest.raises(TotalConflictError):
            combine_all(problem)
        with pytest.raises(TotalConflictError):
            exact_belief_enumeration(problem, frame.universe())
        assert 0.0 <= conflict_exact(problem) <= 1.0

    def test_matches_oracle(self):
        for seed in range(20):
            problem = random_problem(seed + 200, max_sources=4, max_outcomes=3, max_elements=6)
            _, oracle_conflict = oracle_problem_bel(problem, problem.frame.universe())
            assert conflict_exact(problem) == pytest.approx(oracle_conflict, abs=1e-9)
