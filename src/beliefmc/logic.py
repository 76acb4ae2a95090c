"""Trial-sampled belief over a literal-conjunction evidence language.

Sources certify conjunctions of literals (term sets); queries are clauses
(disjunctions of literals).  A trial draws one term per source and merges
them into a partial assignment, restarting on a contradiction; a clause is
entailed when the merged term contains one of its literals.  For this
fragment that syntactic check coincides with semantic entailment.  Every
clause of a call is scored on the same trial stream, so an extra clause
costs a mask test per trial, not another stream.

Merging and entailment cost is metered in literal operations.  An optional
step budget applies per (trial, clause) to the trial's merge cost plus that
clause's test cost; a pair that exceeds it is a timeout, which scores 0
toward the clause's lower bound and 1 toward its upper bound.  The metering
never changes what is sampled, so tightening the budget only moves scores
between the bounds.

The trial kernel holds terms as positive and negative bitmasks over the
atoms in sorted name order, so bit order is literal order.  A merge is an
OR, a contradiction is a non-zero AND against the opposite sign, and each
clause test is one mask test; the exact step count comes from counting term
and clause literals up to the lowest clashing or hitting bit.  Most draws
merge nothing, so they cost little: an empty term is ``None`` and costs
its draw and an ``is None`` test, and after a clash the attempt's remaining
uniforms are drawn without being mapped to outcomes.  Trials are
split into per-worker substreams and run by the set problems' worker runner,
``mc._run_workers``.

Problems over few atoms translate exactly to set problems over the frame of
truth assignments, which connects this estimator to the exact combiners.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import FrameTooLargeError, InvalidProblemError
from .evidence import (
    EvidenceProblem,
    FocalSet,
    Frame,
    MASS_TOL,
    SourceModel,
    _cumulative,
)
from .mc import (
    TrialEngineConfig,
    _cap_error,
    _draw_plan,
    _run_workers,
    sd_bound,
)

#: Widest assignment frame the exact translation will build (2**16 elements).
MAX_TRANSLATE_ATOMS = 16


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its negation."""

    atom: str
    positive: bool = True

    def __invert__(self) -> Literal:
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "!" + self.atom

    @classmethod
    def parse(cls, text: str) -> Literal:
        """Parse ``"p"`` or ``"!p"``."""
        body = text[1:] if text.startswith("!") else text
        if not body or body.startswith("!") or any(c in body for c in "{}[]#* \t"):
            raise ValueError(f"bad literal: {text!r}")
        return cls(body, not text.startswith("!"))


def lits(*texts: str) -> tuple[Literal, ...]:
    """Shorthand: ``lits("p", "!q")``."""
    return tuple(Literal.parse(t) for t in texts)


def _has_both_signs(literals: tuple[Literal, ...]) -> bool:
    """True when some atom appears both plain and negated."""
    signs: dict[str, bool] = {}
    for l in literals:
        if signs.get(l.atom, l.positive) != l.positive:
            return True
        signs[l.atom] = l.positive
    return False


@dataclass(frozen=True)
class TermSet:
    """A conjunction of literals, canonicalized to a sorted, deduplicated
    tuple so equal terms compare and render identically."""

    literals: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(sorted(set(self.literals))))

    @classmethod
    def of(cls, *texts: str) -> TermSet:
        return cls(lits(*texts))

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def atoms(self) -> set[str]:
        return {l.atom for l in self.literals}

    def __contains__(self, lit: object) -> bool:
        return lit in self.literals

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __str__(self) -> str:
        return "[" + " ".join(str(l) for l in self.literals) + "]"


@dataclass(frozen=True)
class ClauseQuery:
    """A disjunction of literals; must be non-empty."""

    literals: tuple[Literal, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(sorted(set(self.literals))))
        if not self.literals:
            raise ValueError("clause query needs at least one literal")

    @classmethod
    def of(cls, *texts: str) -> ClauseQuery:
        return cls(lits(*texts))

    @cached_property
    def is_tautology(self) -> bool:
        return _has_both_signs(self.literals)

    def __str__(self) -> str:
        return "[" + " ".join(str(l) for l in self.literals) + "]"


@dataclass(frozen=True)
class LogicSource:
    """One evidence source whose outcomes certify term sets."""

    outcomes: tuple[tuple[float, TermSet], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outcomes", tuple((float(p), t) for p, t in self.outcomes)
        )


@dataclass(frozen=True)
class LogicProblem:
    """Declared atom universe plus the sources over it."""

    atoms: tuple[str, ...]
    sources: tuple[LogicSource, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "sources", tuple(self.sources))


@dataclass(frozen=True)
class BoundedEstimate:
    """Lower/upper belief bounds from a budgeted run.

    Without a budget (or when nothing times out) the two bounds coincide at
    the plain estimate.
    """

    lower: float
    upper: float
    trials: int
    successes: int
    timeouts: int
    restarts: int
    sd_bound: float


@dataclass(frozen=True)
class ClauseBatchEstimate:
    """The clauses of one :func:`logic_estimate` call, scored on one trial
    stream: ``estimates`` holds one :class:`BoundedEstimate` per clause,
    in query order; ``timeouts`` is their total."""

    trials: int
    restarts: int
    timeouts: int
    estimates: tuple[BoundedEstimate, ...]


def is_contradictory(term: TermSet) -> bool:
    """True when the term contains an atom with both signs."""
    return _has_both_signs(term.literals)


def validate_logic_sources(sources: Sequence[LogicSource]) -> list[str]:
    """Structural checks shared by every logic entry point."""
    report: list[str] = []
    if not sources:
        report.append("problem has no sources")
    for i, source in enumerate(sources):
        if not source.outcomes:
            report.append(f"source {i}: no outcomes")
            continue
        for k, (p, t) in enumerate(source.outcomes):
            if not p > 0.0:
                report.append(f"source {i} outcome {k}: probability {p:g} not positive")
            if is_contradictory(t):
                report.append(f"source {i} outcome {k}: contradictory term")
        total = math.fsum(p for p, _ in source.outcomes)
        if abs(total - 1.0) > MASS_TOL:
            report.append(f"source {i}: probabilities sum to {total:g}")
    return report


def validate_logic_problem(problem: LogicProblem) -> list[str]:
    """Source checks plus the declared-atom discipline."""
    report: list[str] = []
    seen: set[str] = set()
    for atom in problem.atoms:
        if not atom:
            report.append("empty atom name")
        elif atom in seen:
            report.append(f"duplicate atom {atom!r}")
        seen.add(atom)
    report.extend(validate_logic_sources(problem.sources))
    for i, source in enumerate(problem.sources):
        for k, (_, t) in enumerate(source.outcomes):
            for atom in sorted(t.atoms() - seen):
                report.append(f"source {i} outcome {k}: unknown atom {atom!r}")
    return report


def _term_masks(
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


def _logic_plans(
    sources: Sequence[LogicSource], *queries: ClauseQuery
) -> tuple[list, tuple[tuple[int, int, int, int] | None, ...]]:
    """The kernel's tables: one :func:`~beliefmc.mc._draw_plan` per source
    over the :func:`_term_masks` of its terms (``None`` for an empty term,
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
        _draw_plan(
            _cumulative([p for p, _ in source.outcomes]),
            tuple(
                _term_masks(t.literals, bit) if t.literals else None
                for _, t in source.outcomes
            ),
        )
        for source in sources
    ]
    clauses = tuple(
        None if q.is_tautology else _term_masks(q.literals, bit) for q in queries
    )
    return plans, clauses


def _kernel_logic(
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
    assignment; ``clauses`` holds the :func:`_term_masks` of each query, or
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


def logic_estimate(
    sources: Sequence[LogicSource],
    query: ClauseQuery | Sequence[ClauseQuery],
    cfg: TrialEngineConfig,
    step_budget: int | None = None,
) -> BoundedEstimate | ClauseBatchEstimate:
    """Estimate the combined belief that the sources force each query.

    ``query`` is one clause, which returns its :class:`BoundedEstimate`, or
    a sequence of clauses (possibly empty), which returns one
    :class:`ClauseBatchEstimate`.  Every clause is scored on one trial
    stream, so a clause's result does not depend on the others in the
    call.  ``step_budget`` caps the literal operations any one trial may
    spend on one clause; over-budget (trial, clause) pairs count toward
    that clause's ``timeouts`` and widen its bounds.  Trials are split
    across per-worker substreams and run by the same worker runner as the
    set-problem estimator.
    """
    single = isinstance(query, ClauseQuery)
    queries = (query,) if single else tuple(query)
    report = validate_logic_sources(sources)
    if report:
        raise InvalidProblemError(report)
    if step_budget is not None and step_budget < 0:
        raise ValueError(f"step budget must be >= 0, got {step_budget}")
    plans, clauses = _logic_plans(sources, *queries)

    def job(share, rng):
        return _kernel_logic(plans, clauses, share, rng, cfg.restart_cap, step_budget)

    parts = _run_workers(cfg, job)
    restarts = sum(p[2] for p in parts)
    estimates = []
    for i in range(len(clauses)):
        successes = sum(p[0][i] for p in parts)
        timeouts = sum(p[1][i] for p in parts)
        estimates.append(
            BoundedEstimate(
                lower=successes / cfg.trials,
                upper=(successes + timeouts) / cfg.trials,
                trials=cfg.trials,
                successes=successes,
                timeouts=timeouts,
                restarts=restarts,
                sd_bound=sd_bound(cfg.trials),
            )
        )
    batch = ClauseBatchEstimate(
        trials=cfg.trials,
        restarts=restarts,
        timeouts=sum(e.timeouts for e in estimates),
        estimates=tuple(estimates),
    )
    return batch.estimates[0] if single else batch


@dataclass(frozen=True)
class AssignmentSpace:
    """The frame of truth assignments over an atom tuple.

    Element ``a`` is the assignment whose bit ``i`` (and character ``i`` of
    its label) gives the truth value of atom ``i``.
    """

    atoms: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) > MAX_TRANSLATE_ATOMS:
            raise FrameTooLargeError(
                f"assignment frame over {len(self.atoms)} atoms exceeds the "
                f"{MAX_TRANSLATE_ATOMS}-atom limit"
            )
        if len(set(self.atoms)) != len(self.atoms) or not self.atoms:
            raise ValueError("atoms must be non-empty and unique")

    @cached_property
    def frame(self) -> Frame:
        k = len(self.atoms)
        return Frame(tuple(format(a, f"0{k}b")[::-1] for a in range(1 << k)))

    @cached_property
    def _true_bits(self) -> dict[str, int]:
        """Per atom, the assignments that make it true: for atom ``i``, a
        block of ``2**i`` set bits above ``2**i`` clear ones, repeated with
        period ``2**(i + 1)`` by doubling up to the frame's ``2**k`` bits."""
        size = 1 << len(self.atoms)
        out = {}
        for i, atom in enumerate(self.atoms):
            half = 1 << i
            bits = ((1 << half) - 1) << half
            period = half << 1
            while period < size:
                bits |= bits << period
                period <<= 1
            out[atom] = bits
        return out

    def literal_bits(self, lit: Literal) -> int:
        """The assignments satisfying ``lit``, as a mask over the frame's
        ``2**k`` elements; it does not build the frame."""
        bits = self._true_bits[lit.atom]
        return bits if lit.positive else bits ^ ((1 << (1 << len(self.atoms))) - 1)

    def term_focal(self, term: TermSet) -> FocalSet:
        """Assignments satisfying a conjunction (the frame for an empty term)."""
        bits = self.frame.full_bits
        for l in term.literals:
            bits &= self.literal_bits(l)
        return FocalSet(self.frame, bits)

    def clause_focal(self, clause: ClauseQuery) -> FocalSet:
        """Assignments satisfying a disjunction."""
        bits = 0
        for l in clause.literals:
            bits |= self.literal_bits(l)
        return FocalSet(self.frame, bits)


def translate_to_set_problem(problem: LogicProblem) -> EvidenceProblem:
    """Recast a logic problem over the assignment frame.

    Each term maps to the set of assignments satisfying it, so combined
    belief in any clause's satisfying set equals the logic-side belief.
    Guarded by :data:`MAX_TRANSLATE_ATOMS` since the frame doubles per atom.
    """
    report = validate_logic_problem(problem)
    if report:
        raise InvalidProblemError(report)
    space = AssignmentSpace(problem.atoms)
    sources = tuple(
        SourceModel(
            space.frame,
            tuple((p, space.term_focal(t)) for p, t in source.outcomes),
        )
        for source in problem.sources
    )
    return EvidenceProblem(space.frame, sources)
