"""Shared test helpers: label-set oracles and random problem builders.

The oracles work on plain frozensets of labels and enumerate joint outcomes
with itertools, sharing no code with the bitmask implementation, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from bisect import bisect_right
from typing import Sequence

import pytest
from hypothesis import strategies as st

from beliefmc import (
    CombinationResult,
    EvidenceProblem,
    ExcessiveConflictError,
    FocalSet,
    Frame,
    LogicProblem,
    LogicSource,
    MassFunction,
    SourceModel,
    TermSet,
    TrialEngineConfig,
    combine_all,
    estimate,
    is_contradictory,
    logic_estimate,
    simple_support,
)
from beliefmc import mc
from beliefmc.evidence import _cumulative
from beliefmc.mc import _cap_error, derive_stream_seed
from beliefmc.logic import ClauseQuery, Literal


def combine_masses(*masses: MassFunction) -> CombinationResult:
    """``combine_all`` over one source per mass function, whose outcomes are
    that function's focal sets."""
    sources = tuple(
        SourceModel(m.frame, tuple((v, fs) for fs, v in m.items())) for m in masses
    )
    return combine_all(EvidenceProblem(masses[0].frame, sources))


# ------------------------------------------------------ per-draw kernels
#
# The set- and logic-trial kernels as they ran before the block kernels
# replaced them: one ``random()`` call per source per attempt, kept as the
# references the block kernels must match draw for draw, count for count
# and error for error.


def draw_plan(cum: tuple[float, ...], items: tuple) -> tuple:
    """How the kernel draws one source: ``(threshold, lo, hi, cum, items)``.

    A uniform ``u`` picks ``items[bisect_right(cum, u)]``.  One- and
    two-outcome sources get ``cum=None`` and pick the same item by a single
    comparison, ``lo if u < threshold else hi``; larger sources bisect
    ``cum``.
    """
    if len(cum) > 2:
        return (0.0, None, None, cum, items)
    return (cum[0], items[0], items[-1], None, items)


#: Distinct intersections the per-draw kernel tallies before it scores them.
_TALLY_LIMIT = 4096


def per_draw_plans(problem: EvidenceProblem) -> list[tuple]:
    """One draw plan per source, over its target masks."""
    return [draw_plan(s.cumulative, s.target_bits) for s in problem.sources]


def _score_tally(
    tally: dict[int, int], not_queries: Sequence[int], successes: list[int]
) -> None:
    """Add the tallied intersections to the per-query successes, then empty
    the tally."""
    for qi, nq in enumerate(not_queries):
        successes[qi] += sum(c for g, c in tally.items() if not g & nq)
    tally.clear()


def per_draw_kernel_set(
    plans,
    full: int,
    not_queries: Sequence[int],
    trials: int,
    rng: random.Random,
    cap: int,
) -> tuple[list[int], int]:
    """The per-draw set-trial kernel: intersect the drawn masks inline and
    score the surviving intersection against every query; returns
    ``(successes per query, restarts)``."""
    rand = rng.random
    limit = _TALLY_LIMIT
    successes = [0] * len(not_queries)
    tally: dict[int, int] = {}
    restarts = 0
    for t in range(trials):
        trial_restarts = 0
        while True:
            g = full
            for thr, lo, hi, cum, masks in plans:
                if cum is None:
                    g &= lo if rand() < thr else hi
                else:
                    g &= masks[bisect_right(cum, rand())]
            if g:
                break
            restarts += 1
            trial_restarts += 1
            if trial_restarts > cap:
                raise _cap_error(restarts, t, cap)
        tally[g] = tally.get(g, 0) + 1
        if len(tally) >= limit:
            _score_tally(tally, not_queries, successes)
    _score_tally(tally, not_queries, successes)
    return successes, restarts


def term_masks(
    literals: tuple[Literal, ...], bit: dict[str, int]
) -> tuple[int, int, int, int]:
    """``(pos, neg, literal_count, pos | neg)`` of a set of literals over
    the atom bits ``bit``."""
    pos = neg = 0
    for l in literals:
        if l.positive:
            pos |= bit[l.atom]
        else:
            neg |= bit[l.atom]
    return pos, neg, len(literals), pos | neg


def per_draw_logic_plans(
    sources: Sequence[LogicSource], *queries: ClauseQuery
) -> tuple[list, tuple[tuple[int, int, int, int] | None, ...]]:
    """The kernel's tables: one :func:`draw_plan` per source
    over the :func:`term_masks` of its terms (``None`` for an empty term,
    which merges nothing and costs nothing), and one clause mask per query
    (``None`` for a tautology).

    The kernel maps one uniform per source per attempt through these plans,
    except after a clash: the lost attempt's remaining uniforms are drawn
    but not mapped to outcomes.  Atom bits follow sorted atom names over the sources and every clause,
    so bit order is literal order.
    """
    atoms = {l.atom for s in sources for _, t in s.outcomes for l in t}
    atoms.update(l.atom for q in queries for l in q.literals)
    bit = {a: 1 << i for i, a in enumerate(sorted(atoms))}
    plans = [
        draw_plan(
            _cumulative([p for p, _ in source.outcomes]),
            tuple(
                term_masks(t.literals, bit) if t.literals else None
                for _, t in source.outcomes
            ),
        )
        for source in sources
    ]
    clauses = tuple(
        None if q.is_tautology else term_masks(q.literals, bit) for q in queries
    )
    return plans, clauses


def per_draw_kernel_logic(
    plans,
    clauses: Sequence[tuple[int, int, int, int] | None],
    trials: int,
    rng: random.Random,
    cap: int,
    budget: int | None,
) -> tuple[list[int], list[int], int]:
    """The logic-trial kernel; returns ``(successes per clause, timeouts per
    clause, restarts)``.

    An attempt ORs the drawn terms into a partial assignment held as
    positive and negative atom bits ``(P, N)`` and restarts when a term
    contradicts it.  Every clause is scored on the same accepted
    assignment; ``clauses`` holds the :func:`term_masks` of each query, or
    ``None`` for a tautology.  An empty term (``None`` in the plans) costs
    its draw and nothing else.  Once a term clashes, the attempt is lost:
    its remaining sources each still draw their one uniform, in source
    order, but the uniforms are not mapped to outcomes.

    Step accounting, in literal operations: a merged term costs its literal
    count; a contradicting term costs its literals up to and including the
    first clash (the lowest bit of the clash mask, since atom bits follow
    literal order), and the attempt's later terms are not merged;
    a clause test costs its literals up to and including the first hit, or
    all of them.  A trial's merge cost is shared by its clauses, and each
    clause adds only its own test, so the budget applies per (trial,
    clause): one trial can time out on one clause and score on another.
    The count is a pure function of the draws, so the budget never perturbs
    the stream.
    """
    rand = rng.random
    successes = [0] * len(clauses)
    timeouts = [0] * len(clauses)
    restarts = 0
    for t in range(trials):
        trial_restarts = 0
        ops = 0
        while True:
            P = N = 0
            draws = iter(plans)
            for thr, lo, hi, cum, outs in draws:
                if cum is None:
                    term = lo if rand() < thr else hi
                else:
                    term = outs[bisect_right(cum, rand())]
                if term is None:
                    continue
                pos, neg, count, mask = term
                clash = P & neg | N & pos
                if clash:
                    ops += (mask & (clash ^ (clash - 1))).bit_count()
                    for _ in draws:  # one uniform per source per attempt
                        rand()
                    break
                P |= pos
                N |= neg
                ops += count
            else:
                break
            restarts += 1
            trial_restarts += 1
            if trial_restarts > cap:
                raise _cap_error(restarts, t, cap)
        for i, clause in enumerate(clauses):
            if clause is None:
                hit, cost = 1, ops
            else:
                cpos, cneg, clen, cmask = clause
                hit = P & cpos | N & cneg
                cost = ops + ((cmask & (hit ^ (hit - 1))).bit_count() if hit else clen)
            if budget is not None and cost > budget:
                timeouts[i] += 1
            elif hit:
                successes[i] += 1
    return successes, timeouts, restarts


def run_outcome(run) -> tuple:
    """A run's result, or its cap error's message and conflict estimate, so
    a kernel and its per-draw reference compare alike either way."""
    try:
        return run()
    except ExcessiveConflictError as e:
        return ("error", str(e), e.conflict_estimate)


def record_blocks(monkeypatch) -> list:
    """Patch the block driver's draw to append each block's generator to
    the returned list, one entry per block, so a test can count the blocks
    each share took (each share has its own generator).  Draws made in a
    forked child would not reach the list, so the shares stay in-thread."""
    drawn = []
    draw = mc._draw
    monkeypatch.setattr(mc, "_FORK_WORK", float("inf"))

    def counted(rng, uniforms, raw):
        drawn.append(rng)
        draw(rng, uniforms, raw)

    monkeypatch.setattr(mc, "_draw", counted)
    return drawn


@pytest.fixture
def forks(monkeypatch) -> list:
    """Let every request with several shares fork (:data:`mc._FORK_WORK`
    is 0), and return the list of the children's pids, which the caller
    may clear between requests."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(mc, "_FORK_WORK", 0)
    monkeypatch.setattr(os, "fork", counted)
    return made


needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or mc._usable_cpus() < 2, reason="forks only with 2 usable CPUs"
)


def fork_worker_counts() -> list[int]:
    """2 and 3 workers, and one more worker than usable CPUs."""
    return sorted({2, 3, mc._usable_cpus() + 1})


def in_thread(run):
    """``run()`` with every share run in the calling thread."""
    saved = mc._FORK_WORK
    mc._FORK_WORK = float("inf")
    try:
        return run()
    finally:
        mc._FORK_WORK = saved


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tripping_shares(plan, score_of, cfg: TrialEngineConfig) -> list[int]:
    """The shares of ``cfg`` that trip the restart cap, each run alone on
    its own substream through a new scorer ``score_of()``."""
    trips = []
    for w, share in enumerate(mc._split_trials(cfg.trials, cfg.worker_count)):
        try:
            mc._run_blocks(plan, score_of(), share, mc.worker_rng(cfg.seed, w), cfg.restart_cap)
        except ExcessiveConflictError:
            trips.append(w)
    return trips


def check_forked_trips(run_at, plan, score_of) -> None:
    """For each fork worker count and seed, ``run_at(cfg)`` returns or
    raises in forked processes as in-thread and leaves no child, until
    seeds have shown each case: the lowest tripping share in a child with
    the caller's shares clean, the same with one of the caller's shares
    tripping too, and the lowest in the caller's share 0."""
    cpus = mc._usable_cpus()
    seen = set()
    for workers in fork_worker_counts():
        procs = min(workers, cpus)
        for seed in range(200):
            cfg = TrialEngineConfig(
                trials=100 * workers, seed=seed, restart_cap=40, worker_count=workers
            )
            got = run_outcome(lambda: run_at(cfg))
            assert got == run_outcome(lambda: in_thread(lambda: run_at(cfg))), (workers, seed)
            assert_no_children()
            trips = tripping_shares(plan, score_of, cfg)
            assert (type(got) is tuple and got[0] == "error") == bool(trips)
            if trips:
                seen.add((trips[0] % procs == 0, any(w % procs == 0 for w in trips)))
            if len(seen) == 3:
                break
    assert seen >= {(False, False), (False, True), (True, True)}, seen


def conflict_and_draws(problem: EvidenceProblem, cfg: TrialEngineConfig) -> tuple[float, float]:
    """``(kappa_hat, draws_per_trial)`` from the restarts of ``estimate`` on
    the universe query."""
    r = estimate(problem, [problem.frame.universe()], cfg)[0]
    return r.conflict_estimate, (r.restarts + r.trials) / r.trials


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
