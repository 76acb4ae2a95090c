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

The trial kernel is a plan and a block scorer on the set problems' runner
(``mc._run``).  Its block driver draws one uniform per source per attempt,
a block of attempts at a time, and hands the scorer one bitmask over the
block's attempts per non-empty term.  Literals follow the atoms in sorted name
order, so literal order is bit order.  A walk over the terms in source
order gives each literal the mask of the attempts whose merged term holds
it: an attempt is rejected when a term it draws holds the negation of a
literal it already holds, and an accepted attempt hits a clause when it
holds one of the clause's literals.  With a budget, the same walk counts
each attempt's literal operations up to its first clash in bit-sliced
counters, and each clause's test up to its first hit, so the step counts
are exact.  The runner splits the trials into per-worker substreams, all
through one scorer that adds into the call's counts, and runs large
requests' shares in forked processes (:func:`mc._run`).

Problems over few atoms translate exactly to set problems over the frame of
truth assignments, which connects this estimator to the exact combiners.
A term maps to a subcube of that frame, so the exact fold keys its tables
by term code (:class:`~beliefmc.exact._TermCodes`) on every translated
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, compress
from operator import add, gt, or_, sub
from typing import Iterator, Sequence

from .errors import FrameTooLargeError, InvalidProblemError
from .evidence import (
    EvidenceProblem,
    FocalSet,
    Frame,
    SourceModel,
    _cumulative,
    _source_report,
)
from .exact import _cube
from .mc import TrialEngineConfig, _add_hits, _byte_lanes, _cuts, _element_bytes, _run, sd_bound

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

    #: Set on the instance when :func:`validate_logic_sources` passes it
    #: (its checks look at one source at a time); not a field.
    _valid = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outcomes", tuple((float(p), t) for p, t in self.outcomes)
        )


@dataclass(frozen=True)
class LogicProblem:
    """Declared atom universe plus the sources over it."""

    atoms: tuple[str, ...]
    sources: tuple[LogicSource, ...]

    #: Set on the instance when :func:`validate_logic_problem` reports
    #: nothing; not a field.
    _valid = False

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
    """Structural checks shared by every logic entry point: the rules every
    problem kind's sources share (:func:`~beliefmc.evidence._source_report`),
    and no term holds an atom with both signs.

    Each check looks at one source, so a clean report marks every source
    as validated, and :func:`logic_estimate` does not check marked sources
    again.  Sources from ``parse_problem`` are marked while the file is
    parsed.
    """
    report = _source_report(
        sources, lambda t: "contradictory term" if is_contradictory(t) else None
    )
    if not report:
        for source in sources:
            object.__setattr__(source, "_valid", True)
    return report


def validate_logic_problem(problem: LogicProblem) -> list[str]:
    """Source checks plus the declared-atom discipline.

    A clean report marks the problem as validated, so
    :func:`translate_to_set_problem` does not check it again.
    """
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
    if not report:
        object.__setattr__(problem, "_valid", True)
    return report


@dataclass(frozen=True)
class _LogicPlan:
    """What the logic-trial kernel needs of the sources and clauses.

    Literal ``2 * t`` is atom ``t`` and ``2 * t + 1`` its negation, over the
    atoms of the sources and clauses in sorted name order, so literal order
    is bit order and ``l ^ 1`` is the negation of ``l``.  Each non-empty
    term of a source outcome gets a slot, source by source; ``cuts`` and
    ``outs`` are the block front end's (:func:`mc._cuts`) over those slots.
    ``terms[j]`` lists slot ``j``'s literals in order, ``literal_count``
    is twice the atom count, and ``clauses[q]`` lists query ``q``'s
    literals in order, or is ``None`` for a tautology.  ``width`` is the
    bit length of the most literal operations one attempt can spend.
    """

    source_count: int
    cuts: tuple[tuple[int, int, int, bytes], ...]
    outs: tuple[tuple[int, int], ...]
    terms: tuple[tuple[int, ...], ...]
    literal_count: int
    clauses: tuple[tuple[int, ...] | None, ...]
    width: int


def _logic_plan(sources: Sequence[LogicSource], queries: Sequence[ClauseQuery]) -> _LogicPlan:
    """Build the :class:`_LogicPlan` once per call; worker shares share it."""
    atoms = {l.atom for s in sources for _, t in s.outcomes for l in t}
    atoms.update(l.atom for q in queries for l in q.literals)
    index = {a: 2 * i for i, a in enumerate(sorted(atoms))}

    def literals(ls: Sequence[Literal]) -> tuple[int, ...]:
        return tuple(sorted(index[l.atom] + (not l.positive) for l in ls))

    picks = [[k for k, (_, t) in enumerate(s.outcomes) if t.literals] for s in sources]
    cuts, outs = _cuts([_cumulative([p for p, _ in s.outcomes]) for s in sources], picks)
    return _LogicPlan(
        source_count=len(sources),
        cuts=cuts,
        outs=outs,
        terms=tuple(literals(t.literals) for s in sources for _, t in s.outcomes if t.literals),
        literal_count=2 * len(atoms),
        clauses=tuple(None if q.is_tautology else literals(q.literals) for q in queries),
        width=sum(max(len(t.literals) for _, t in s.outcomes) for s in sources).bit_length(),
    )


def _lane_values(slices: Sequence[int], size: int) -> Sequence[int]:
    """Per attempt ``a < size``, the count whose bit ``b`` is bit ``a`` of
    ``slices[b]``: eight slices at a time become one byte per attempt
    (:func:`mc._byte_lanes`), and wider counts join their bytes."""
    lanes = _byte_lanes(slices, size)
    if len(lanes) <= 1:
        return lanes[0] if lanes else bytes(size)
    return [sum(v << 8 * g for g, v in enumerate(vs)) for vs in zip(*lanes)]


def _logic_score(
    plan: _LogicPlan, budget: int | None, successes: list[int], timeouts: list[int]
):
    """The logic kernel's block scorer (:func:`mc._run_blocks`): adds each
    clause's scored trials to ``successes`` and its timeouts to
    ``timeouts``.

    Every mask holds one bit per attempt of a block.  The kernel walks the
    term slots in source order with ``alive``, the attempts that have not
    clashed yet; ``held[l]`` gathers the attempts that draw a term with
    literal ``l``, and an attempt is rejected when a term it draws holds
    the negation of a literal it already holds.  An accepted attempt hits
    a clause when it holds one of its literals (every accepted attempt hits
    a tautology).

    Step accounting, in literal operations, as one attempt merging its
    terms in source order: a merged term costs its literal count; a
    contradicting term costs its literals up to and including the first
    clash, in literal order, and the attempt's later terms are not merged;
    a clause test costs its literals up to and including the first hit, or
    all of them.  With a budget, the walk also adds one to a bit-sliced
    counter (bit ``b`` of every attempt's count in slice ``b``) for each
    literal an attempt tests.  A trial's merge cost, its
    rejected attempts included, is shared by its clauses, and each clause
    adds only its own test, so the budget applies per (trial, clause): one
    trial can time out on one clause and score on another.  The count is a
    pure function of the draws, so the budget never perturbs the stream.
    The merge cost of a trial still open at a block's end carries into the
    next block, and is 0 when a share ends (:func:`mc._run`).
    """
    clauses = plan.clauses
    metered = budget is not None and bool(clauses)
    carry = 0  # the current trial's operations in earlier blocks

    def score(drawn: list[int], every: int, size: int):
        # ``held`` only grows from slots of earlier sources, and attempts
        # that clash are dropped from ``alive``, so what a dead attempt
        # holds is never read
        held = [0] * plan.literal_count
        ops = [0] * plan.width
        alive = every
        for s, term in zip(drawn, plan.terms):
            run = s & alive
            for l in term:
                if not run:
                    break
                if metered:
                    x = run  # add one to every attempt of run
                    b = 0
                    while x:
                        c = ops[b]
                        ops[b] = c ^ x
                        x &= c
                        b += 1
                clash = run & held[l ^ 1]
                if clash:
                    run ^= clash
                    alive ^= clash
            for l in term:
                held[l] |= s
        accepted = alive
        hits = []
        costs = []  # per clause, its test cost per attempt in bit slices
        for clause in clauses:
            if clause is None:
                hits.append(accepted)
                costs.append([])
                continue
            rest = accepted  # attempts no literal hit yet
            cost = [0] * len(clause).bit_length()
            for j, l in enumerate(clause, 1):
                first = rest & held[l]
                if first:
                    rest ^= first
                    for b in range(j.bit_length()):
                        if j >> b & 1:
                            cost[b] |= first
            for b in range(len(cost)):
                if len(clause) >> b & 1:
                    cost[b] |= rest
            hits.append(accepted ^ rest)
            costs.append(cost)

        def tally(cut: int) -> None:
            if not metered:
                _add_hits(successes, hits, cut)
                return
            # each accepted attempt ends a trial, whose merge cost runs from
            # the attempt after the previous trial's, carried across blocks
            nonlocal carry
            merge = _lane_values(ops, size)
            ends = list(accumulate(merge[:cut]))  # merge cost up to each attempt
            at = list(compress(range(cut), _element_bytes(accepted & ((1 << cut) - 1), cut)))
            closed = list(map(ends.__getitem__, at))
            spent = list(map(sub, closed, [-carry, *closed[:-1]]))
            carry = ends[-1] - closed[-1] if closed else carry + ends[-1]
            for qi, (cost, hit) in enumerate(zip(costs, hits)):
                test = _lane_values(cost, size)
                over = bytes(map(budget.__lt__, map(add, spent, map(test.__getitem__, at))))
                timeouts[qi] += over.count(1)
                scored = map(_element_bytes(hit, size).__getitem__, at)
                successes[qi] += sum(map(gt, scored, over))

        return accepted, tally

    return score


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
    across per-worker substreams and run by the set-problem estimator's
    runner (:func:`mc._run`).  Sources that ``validate_logic_sources`` has not
    passed yet are checked first.
    """
    single = isinstance(query, ClauseQuery)
    queries = (query,) if single else tuple(query)
    if not (sources and all(s._valid for s in sources)):
        report = validate_logic_sources(sources)
        if report:
            raise InvalidProblemError(report)
    if step_budget is not None and step_budget < 0:
        raise ValueError(f"step budget must be >= 0, got {step_budget}")
    plan = _logic_plan(sources, queries)
    successes = [0] * len(queries)
    timeouts = [0] * len(queries)
    score = _logic_score(plan, step_budget, successes, timeouts)
    restarts = _run(cfg, plan, score, successes, timeouts)
    estimates = tuple(
        BoundedEstimate(
            lower=s / cfg.trials,
            upper=(s + t) / cfg.trials,
            trials=cfg.trials,
            successes=s,
            timeouts=t,
            restarts=restarts,
            sd_bound=sd_bound(cfg.trials),
        )
        for s, t in zip(successes, timeouts)
    )
    if single:
        return estimates[0]
    return ClauseBatchEstimate(
        trials=cfg.trials, restarts=restarts, timeouts=sum(timeouts), estimates=estimates
    )


@dataclass(frozen=True)
class AssignmentSpace:
    """The frame of truth assignments over an atom tuple.

    Element ``a`` is the assignment whose bit ``i`` (and character ``i`` of
    its label) gives the truth value of atom ``i``.  A consistent term maps
    to a subcube of this frame (:meth:`term_focal`), so the exact fold of a
    translated problem keys its tables by term code
    (:class:`~beliefmc.exact._TermCodes`).  Clause masks come from
    :meth:`clause_bits`, which does not build the frame, so a caller that
    holds a translated problem's frame builds no second one.
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
        """Per atom, the assignments that make it true: for atom ``i``, the
        subcube free in every other atom, shifted to set bit ``i``."""
        k = len(self.atoms)
        return {a: _cube(((1 << k) - 1) ^ 1 << i) << (1 << i) for i, a in enumerate(self.atoms)}

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

    def clause_bits(self, clause: ClauseQuery) -> int:
        """The assignments satisfying a disjunction, as a mask like
        :meth:`literal_bits`; it does not build the frame."""
        return reduce(or_, map(self.literal_bits, clause.literals))

    def clause_focal(self, clause: ClauseQuery) -> FocalSet:
        """Assignments satisfying a disjunction."""
        return FocalSet(self.frame, self.clause_bits(clause))


def translate_to_set_problem(problem: LogicProblem) -> EvidenceProblem:
    """Recast a logic problem over the assignment frame.

    Each term maps to the set of assignments satisfying it, so combined
    belief in any clause's satisfying set equals the logic-side belief.
    Guarded by :data:`MAX_TRANSLATE_ATOMS` since the frame doubles per atom.
    A problem that ``validate_logic_problem`` has not passed yet is checked
    first.  The result is valid by construction (a consistent term over
    declared atoms holds in some assignment), so it is returned marked as
    validated and the exact fold does not check it again.  Its focal sets
    are subcubes, so the fold keys them by term code; the same frame and
    sources built directly fold the same way.
    """
    if not problem._valid:
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
    translated = EvidenceProblem(space.frame, sources)
    object.__setattr__(translated, "_valid", True)
    return translated
