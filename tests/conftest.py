"""Shared test helpers: label-set oracles and random problem builders.

The oracles work on plain frozensets of labels and enumerate joint outcomes
with itertools, sharing no code with the bitmask implementation, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import strategies as st

from beliefmc import (
    CombinationResult,
    EvidenceProblem,
    FocalSet,
    Frame,
    LogicProblem,
    LogicSource,
    MassFunction,
    SourceModel,
    TermSet,
    TrialEngineConfig,
    combine_all,
    is_contradictory,
    logic_estimate,
    simple_support,
)
from beliefmc.mc import derive_stream_seed
from beliefmc.logic import Literal

class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``random()`` calls."""

    calls = 0

    def random(self) -> float:
        self.calls += 1
        return super().random()


def combine_masses(*masses: MassFunction) -> CombinationResult:
    """``combine_all`` over one source per mass function, whose outcomes are
    that function's focal sets."""
    sources = tuple(
        SourceModel(m.frame, tuple((v, fs) for fs, v in m.items())) for m in masses
    )
    return combine_all(EvidenceProblem(masses[0].frame, sources))


# ---------------------------------------------------------------- oracles


def subset(frame: Frame, labels) -> FocalSet:
    """The focal set of ``labels`` over ``frame``."""
    return FocalSet(frame, sum(1 << frame.index(label) for label in set(labels)))


def complement(fs: FocalSet) -> FocalSet:
    return subset(fs.frame, set(fs.frame.elements) - set(fs))


def issubset(a: FocalSet, b: FocalSet) -> bool:
    return set(a) <= set(b)


def intersects(a: FocalSet, b: FocalSet) -> bool:
    return bool(set(a) & set(b))


def mass(m: MassFunction, fs: FocalSet) -> float:
    """The mass ``m`` puts on exactly ``fs``."""
    assert fs.frame == m.frame
    return mass_to_label_entries(m).get(frozenset(fs), 0.0)


def entails(term: TermSet, clause) -> bool:
    """Does the trial kernel score ``clause`` on a certain draw of
    ``term``?  Raises ``ValueError`` on a contradictory term, which no
    source may certify."""
    if is_contradictory(term):
        raise ValueError(f"term {term} is contradictory")
    source = LogicSource(((1.0, term),))
    return logic_estimate((source,), clause, TrialEngineConfig(trials=1)).successes == 1


def oracle_bel(entries: dict[frozenset, float], b: frozenset) -> float:
    return math.fsum(v for a, v in entries.items() if a <= b)


def oracle_combined_mass(
    sources: list[list[tuple[float, frozenset]]],
) -> tuple[dict[frozenset, float] | None, float]:
    """Combined mass by brute-force joint enumeration.

    Returns ``(mass, conflict)``; mass is ``None`` on total conflict.
    """
    norm = []
    for outs in sources:
        total = math.fsum(p for p, _ in outs)
        norm.append([(p / total, t) for p, t in outs])
    combined: dict[frozenset, float] = {}
    empty = 0.0
    for combo in itertools.product(*norm):
        prob = math.prod(p for p, _ in combo)
        inter = frozenset.intersection(*(t for _, t in combo))
        if inter:
            combined[inter] = combined.get(inter, 0.0) + prob
        else:
            empty += prob
    if 1.0 - empty <= 1e-12:
        return None, 1.0
    return {a: v / (1.0 - empty) for a, v in combined.items()}, empty


def problem_to_label_sources(problem: EvidenceProblem) -> list[list[tuple[float, frozenset]]]:
    return [
        [(p, frozenset(t)) for p, t in s.outcomes]
        for s in problem.sources
    ]


def mass_to_label_entries(m: MassFunction) -> dict[frozenset, float]:
    return {frozenset(fs): v for fs, v in m.items()}


def oracle_problem_bel(problem: EvidenceProblem, b: FocalSet) -> tuple[float, float]:
    """(combined belief, conflict) via the label-set oracle."""
    mass, empty = oracle_combined_mass(problem_to_label_sources(problem))
    assert mass is not None, "oracle hit total conflict"
    return oracle_bel(mass, frozenset(b)), empty


LitPair = tuple[str, bool]


def oracle_logic_bel(
    sources: list[list[tuple[float, frozenset[LitPair]]]],
    clause: frozenset[LitPair],
    tautology: bool,
) -> tuple[float, float]:
    """(combined belief of the clause, conflict) over term-set sources."""
    norm = []
    for outs in sources:
        total = math.fsum(p for p, _ in outs)
        norm.append([(p / total, t) for p, t in outs])
    hit = 0.0
    empty = 0.0
    for combo in itertools.product(*norm):
        prob = math.prod(p for p, _ in combo)
        merged: set[LitPair] = set()
        for _, term in combo:
            merged |= term
        if any((a, not s) in merged for a, s in merged):
            empty += prob
        elif tautology or merged & clause:
            hit += prob
    survival = 1.0 - empty
    assert survival > 1e-12, "oracle hit total conflict"
    return hit / survival, empty


def logic_problem_to_pairs(problem: LogicProblem) -> list[list[tuple[float, frozenset[LitPair]]]]:
    return [
        [(p, frozenset((l.atom, l.positive) for l in t)) for p, t in s.outcomes]
        for s in problem.sources
    ]


def satisfiable_by_bruteforce(term: TermSet) -> bool:
    atoms = sorted(term.atoms())
    for bits in range(1 << len(atoms)):
        model = {a: bool(bits >> i & 1) for i, a in enumerate(atoms)}
        if all(model[l.atom] == l.positive for l in term):
            return True
    return False


# ------------------------------------------------- random problem builders


def random_problem(
    seed: int,
    *,
    max_sources: int = 6,
    max_outcomes: int = 4,
    max_elements: int = 8,
) -> EvidenceProblem:
    """Random general problem, regenerated until not totally conflicting."""
    for attempt in itertools.count():
        rng = random.Random(derive_stream_seed(seed, "test-problem", attempt))
        n = rng.randint(2, max_elements)
        m = rng.randint(1, max_sources)
        frame = Frame(tuple(f"e{j}" for j in range(n)))
        sources = []
        for _ in range(m):
            k = rng.randint(1, max_outcomes)
            weights = [rng.uniform(0.05, 1.0) for _ in range(k)]
            total = math.fsum(weights)
            outcomes = []
            for w in weights:
                if rng.random() < 0.25:
                    bits = frame.full_bits
                else:
                    bits = 0
                    while not bits:
                        bits = rng.getrandbits(n)
                outcomes.append((w / total, FocalSet(frame, bits)))
            sources.append(SourceModel(frame, tuple(outcomes)))
        problem = EvidenceProblem(frame, tuple(sources))
        mass, _ = oracle_combined_mass(problem_to_label_sources(problem))
        if mass is not None:
            return problem


def random_ssf_problem(
    seed: int, *, max_sources: int = 6, max_elements: int = 8
) -> EvidenceProblem:
    for attempt in itertools.count():
        rng = random.Random(derive_stream_seed(seed, "test-ssf", attempt))
        n = rng.randint(2, max_elements)
        m = rng.randint(1, max_sources)
        frame = Frame(tuple(f"e{j}" for j in range(n)))
        sources = []
        for _ in range(m):
            bits = 0
            while not bits:
                bits = rng.getrandbits(n)
            sources.append(
                simple_support(frame, FocalSet(frame, bits), rng.uniform(0.2, 0.95))
            )
        problem = EvidenceProblem(frame, tuple(sources))
        mass, _ = oracle_combined_mass(problem_to_label_sources(problem))
        if mass is not None:
            return problem


def random_logic_problem(
    seed: int,
    *,
    max_atoms: int = 6,
    max_sources: int = 5,
    max_outcomes: int = 3,
    max_term: int = 3,
) -> LogicProblem:
    """Random logic problem whose joint enumeration is not totally
    conflicting (empty terms are sprinkled in to keep it that way)."""
    for attempt in itertools.count():
        rng = random.Random(derive_stream_seed(seed, "test-logic", attempt))
        k = rng.randint(1, max_atoms)
        atoms = tuple(f"a{i}" for i in range(k))
        m = rng.randint(1, max_sources)
        sources = []
        for _ in range(m):
            count = rng.randint(1, max_outcomes)
            weights = [rng.uniform(0.1, 1.0) for _ in range(count)]
            total = math.fsum(weights)
            outcomes = []
            for w in weights:
                if rng.random() < 0.3:
                    term = TermSet()
                else:
                    picked = rng.sample(atoms, rng.randint(1, min(max_term, k)))
                    term = TermSet(
                        tuple(Literal(a, rng.random() < 0.5) for a in picked)
                    )
                outcomes.append((w / total, term))
            sources.append(LogicSource(tuple(outcomes)))
        problem = LogicProblem(atoms, tuple(sources))
        sat = True
        try:
            oracle_logic_bel(
                logic_problem_to_pairs(problem), frozenset(), True
            )
        except AssertionError:
            sat = False
        if sat:
            return problem


def random_clause(seed: int, atoms: tuple[str, ...], max_len: int = 3):
    from beliefmc import ClauseQuery

    rng = random.Random(derive_stream_seed(seed, "test-clause"))
    picked = rng.sample(atoms, rng.randint(1, min(max_len, len(atoms))))
    return ClauseQuery(tuple(Literal(a, rng.random() < 0.5) for a in picked))


# ---------------------------------------------------- hypothesis strategies


@st.composite
def frames(draw, max_elements: int = 6) -> Frame:
    n = draw(st.integers(min_value=1, max_value=max_elements))
    return Frame(tuple(f"e{j}" for j in range(n)))


@st.composite
def focal_sets(draw, frame: Frame) -> FocalSet:
    bits = draw(st.integers(min_value=0, max_value=frame.full_bits))
    return FocalSet(frame, bits)


@st.composite
def mass_functions(draw, frame: Frame | None = None, max_entries: int = 5) -> MassFunction:
    if frame is None:
        frame = draw(frames())
    count = draw(st.integers(min_value=1, max_value=min(max_entries, frame.full_bits)))
    bits = draw(
        st.lists(
            st.integers(min_value=1, max_value=frame.full_bits),
            min_size=count, max_size=count, unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    total = math.fsum(weights)
    return MassFunction(frame, {b: w / total for b, w in zip(bits, weights)})


@st.composite
def framed_mass_pair(draw, max_elements: int = 6):
    frame = draw(frames(max_elements))
    return frame, draw(mass_functions(frame)), draw(mass_functions(frame))


@st.composite
def framed_mass_triple(draw, max_elements: int = 6):
    frame = draw(frames(max_elements))
    return (
        frame,
        draw(mass_functions(frame)),
        draw(mass_functions(frame)),
        draw(mass_functions(frame)),
    )


@st.composite
def term_sets(draw, max_atoms: int = 6, max_len: int = 5) -> TermSet:
    atoms = [f"a{i}" for i in range(max_atoms)]
    lits = draw(
        st.lists(
            st.tuples(st.sampled_from(atoms), st.booleans()),
            max_size=max_len,
        )
    )
    return TermSet(tuple(Literal(a, s) for a, s in lits))


@pytest.fixture
def two_ssf_problem() -> EvidenceProblem:
    """The worked pair: 0.6 on {x1} and 0.5 on {x2} over a 3-element frame.

    Combined: conflict 0.3, Bel({x1}) = 3/7, Bel({x2}) = 2/7, Pl({x1}) = 5/7.
    """
    frame = Frame(("x1", "x2", "x3"))
    return EvidenceProblem(
        frame,
        (
            simple_support(frame, frame.singleton("x1"), 0.6),
            simple_support(frame, frame.singleton("x2"), 0.5),
        ),
    )
