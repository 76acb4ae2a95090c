"""Problem-file parsing, rendering and random problem generation.

The text format, one directive per line, ``#`` starting a comment::

    # set problem: a frame and two-outcome sources
    frame: x1 x2 x3
    source:
      0.6 {x1 x2}
      0.4 *

    # logic problem: an atom universe and term-set sources
    atoms: p q
    source:
      0.7 [p !q]
      0.3 []

``*`` is the whole frame, ``{a b}`` a subset by element labels, ``[p !q]``
a conjunction of literals (``!`` negates) and ``[]`` the empty conjunction.
Rendering writes probabilities with ``repr``, so a rendered problem parses
back to an equal value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce
from itertools import repeat
from operator import lshift, or_

from .errors import ExcessiveConflictError, InvalidProblemError, ParseError
from .evidence import (
    EvidenceProblem,
    FocalSet,
    Frame,
    SourceModel,
    require_valid,
    simple_support,
)
from .logic import (
    ClauseQuery,
    Literal,
    LogicProblem,
    LogicSource,
    TermSet,
    validate_logic_problem,
)
from .mc import TrialEngineConfig, derive_stream_seed, estimate

_SPECIALS = set("{}[]#*!")


def _renderable(token: str) -> bool:
    return bool(token) and not any(c.isspace() or c in _SPECIALS for c in token)


def _col(raw: str, first: str) -> int:
    """The 1-based column of a line's first token."""
    return raw.index(first) + 1


def _set_target(frame: Frame, expr: str) -> FocalSet:
    """The subset ``expr`` names (``{x1 x2}``, ``{}`` or ``*``); raises
    ``ValueError`` with the parse error's message."""
    expr = expr.strip()
    if expr == "*":
        return frame.universe()
    if not expr.startswith("{"):
        raise ValueError(f"expected a set like {{x1 x2}} or *, got {expr!r}")
    if not expr.endswith("}"):
        raise ValueError("expected '}' closing the set")
    labels = expr[1:-1].split()
    try:
        bits = reduce(or_, map(lshift, repeat(1), map(frame._index.__getitem__, labels)), 0)
    except KeyError:
        unknown = next(label for label in labels if label not in frame)
        raise ValueError(f"unknown element {unknown!r}") from None
    return FocalSet(frame, bits)


def _term_literals(expr: str) -> tuple[Literal, ...]:
    """The literals of the conjunction ``expr`` (``[p !q]``, ``[]``); raises
    ``ValueError`` with the parse error's message."""
    expr = expr.strip()
    if not expr.startswith("["):
        raise ValueError(f"expected a term like [p !q], got {expr!r}")
    if not expr.endswith("]"):
        raise ValueError("expected ']' closing the term")
    return tuple(map(Literal.parse, expr[1:-1].split()))


def _term_target(expr: str) -> TermSet:
    return TermSet(_term_literals(expr))


def parse_problem(text: str) -> EvidenceProblem | LogicProblem:
    """Parse and check a problem file.

    Syntax trouble raises :class:`ParseError` with a 1-based line and
    column.  Line structure (headers, ``source:`` lines, probabilities,
    missing targets) is checked on the whole file first, then the frame
    and the targets, so the first structural error wins over an earlier
    bad target.  A problem that parses is then validated
    (:func:`~beliefmc.evidence.validate_problem` or
    :func:`~beliefmc.logic.validate_logic_problem`): violations raise
    :class:`InvalidProblemError` listing every one, and the problem
    returned is marked as validated, so the entry points that take it do
    not check it again.

    The file is read in one pass over its lines.  A target's text is parsed
    once per call, however many outcome lines repeat it, and an error's
    column is worked out only when the error is raised.
    """
    header: str | None = None  # "frame:" or "atoms:"
    frame: Frame | None = None
    blocks: list[list[tuple[float, FocalSet | TermSet]]] = []
    block: list[tuple[float, FocalSet | TermSet]] | None = None
    targets: dict[str, FocalSet | TermSet] = {}  # target text -> parsed target
    pending: ParseError | None = None  # the first frame or target error
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        parts = (raw if cut < 0 else raw[:cut]).split(None, 1)
        if not parts:
            continue
        first = parts[0]
        if first == "frame:" or first == "atoms:":
            if header is not None:
                raise ParseError(lineno, _col(raw, first), f"unexpected second {first!r} header")
            names = parts[1].split() if len(parts) > 1 else []
            if not _SPECIALS.isdisjoint(parts[-1]):
                name = next(name for name in names if not _renderable(name))
                raise ParseError(lineno, _col(raw, first), f"bad name {name!r} in {first!r} header")
            header = first
            if first == "frame:":
                try:
                    frame = Frame(tuple(names))
                except ValueError as e:
                    pending = ParseError(lineno, _col(raw, first), str(e))
                parse = partial(_set_target, frame)
            else:
                atoms = tuple(names)
                parse = _term_target
        elif first == "source:":
            if header is None:
                raise ParseError(
                    lineno, _col(raw, first), "'source:' before a 'frame:' or 'atoms:' header"
                )
            if len(parts) > 1:
                raise ParseError(lineno, _col(raw, first), "unexpected text after 'source:'")
            block = []
            blocks.append(block)
        else:
            if header is None:
                raise ParseError(lineno, _col(raw, first), "expected a 'frame:' or 'atoms:' header")
            if block is None:
                raise ParseError(lineno, _col(raw, first), "outcome line outside a source block")
            try:
                prob = float(first)
            except ValueError:
                raise ParseError(lineno, _col(raw, first), f"bad probability {first!r}") from None
            if len(parts) == 1:
                raise ParseError(
                    lineno, _col(raw, first), "outcome needs a target after the probability"
                )
            if pending is not None:
                continue
            expr = parts[1].rstrip()
            target = targets.get(expr)
            if target is None:
                try:
                    target = targets[expr] = parse(expr)
                except ValueError as e:
                    # the column of the target's first character, searched
                    # for from the end of the probability
                    column = raw.index(expr[0], raw.index(first) + len(first)) + 1
                    pending = ParseError(lineno, column, str(e))
                    continue
            block.append((prob, target))

    if header is None:
        raise ParseError(1, 1, "expected a 'frame:' or 'atoms:' header")
    if pending is not None:
        raise pending
    if header == "frame:":
        problem = EvidenceProblem(frame, tuple(SourceModel(frame, tuple(b)) for b in blocks))
        require_valid(problem)
        return problem
    logic = LogicProblem(atoms, tuple(LogicSource(tuple(b)) for b in blocks))
    report = validate_logic_problem(logic)
    if report:
        raise InvalidProblemError(report)
    return logic


def parse_query(frame: Frame, text: str) -> FocalSet:
    """Parse a query set expression (``{x1 x2}``, ``{}`` or ``*``)."""
    try:
        return _set_target(frame, text)
    except ValueError as e:
        raise ParseError(1, 1, str(e)) from None


def parse_clause(text: str) -> ClauseQuery:
    """Parse a clause query expression (``[p !q]``)."""
    try:
        literals = _term_literals(text)
    except ValueError as e:
        raise ParseError(1, 1, str(e)) from None
    if not literals:
        raise ParseError(1, 1, "clause query needs at least one literal")
    return ClauseQuery(literals)


def render_problem(problem: EvidenceProblem | LogicProblem) -> str:
    """Render a problem so that parsing the result gives back an equal value.

    Labels and atoms must be plain tokens (no whitespace or punctuation that
    the parser claims); anything else raises ``ValueError``.
    """
    lines: list[str] = []
    if isinstance(problem, EvidenceProblem):
        for label in problem.frame.elements:
            if not _renderable(label):
                raise ValueError(f"element label {label!r} is not renderable")
        lines.append("frame: " + " ".join(problem.frame.elements))
    else:
        for atom in problem.atoms:
            if not _renderable(atom):
                raise ValueError(f"atom {atom!r} is not renderable")
        lines.append("atoms: " + " ".join(problem.atoms))
    for source in problem.sources:
        lines.append("source:")
        for p, t in source.outcomes:
            lines.append(f"  {p!r} {t}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GeneratedProblem:
    """A generated problem plus the measured conflict of its draw."""

    problem: EvidenceProblem
    conflict_estimate: float
    focus_density: float
    weight_range: tuple[float, float]
    seed: int


def generate_problem(
    source_count: int,
    element_count: int,
    *,
    weight_range: tuple[float, float] = (0.4, 0.9),
    focus_density: float = 0.5,
    seed: int = 0,
    probe_trials: int = 2000,
) -> GeneratedProblem:
    """Generate a random simple-support problem and probe its conflict.

    Each source draws its weight uniformly from ``weight_range`` and its
    focus by including each element with probability ``focus_density``
    (an empty draw falls back to one uniformly chosen element, so very
    sparse densities degrade to singleton foci instead of spinning).
    Every source consumes an independent
    substream derived from the seed, so source ``i`` is the same no matter
    how many sources are requested.  The reported conflict estimate comes
    from a short probe run on its own substream.
    """
    if source_count < 1 or element_count < 1:
        raise ValueError("need at least one source and one element")
    lo, hi = weight_range
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError(f"weight range {weight_range!r} outside (0, 1]")
    if not 0.0 < focus_density <= 1.0:
        raise ValueError(f"focus density {focus_density!r} outside (0, 1]")
    frame = Frame(tuple(f"x{j + 1}" for j in range(element_count)))
    sources = []
    for i in range(source_count):
        rng = random.Random(derive_stream_seed(seed, "gen-source", i))
        weight = lo + (hi - lo) * rng.random()
        bits = 0
        for j in range(element_count):
            if rng.random() < focus_density:
                bits |= 1 << j
        if not bits:
            bits = 1 << rng.randrange(element_count)
        sources.append(simple_support(frame, FocalSet(frame, bits), weight))
    problem = EvidenceProblem(frame, tuple(sources))
    probe_cfg = TrialEngineConfig(
        trials=probe_trials,
        seed=derive_stream_seed(seed, "gen-probe"),
        restart_cap=1000,
    )
    try:
        kappa = estimate(problem, (frame.universe(),), probe_cfg)[0].conflict_estimate
    except ExcessiveConflictError as e:
        kappa = e.conflict_estimate
    return GeneratedProblem(problem, kappa, focus_density, (lo, hi), seed)


#: Probe counts of :func:`tune_focus_density`'s density stage and its
#: weight-scale stage, and the weight-scale search interval.
_DENSITY_PROBES = 14
_SCALE_PROBES = 12
_SCALE_RANGE = (0.05, 1.0)


def tune_focus_density(
    source_count: int,
    element_count: int,
    *,
    target_conflict: float = 0.5,
    weight_range: tuple[float, float] = (0.4, 0.9),
    seed: int = 0,
    probe_trials: int = 2000,
) -> GeneratedProblem:
    """Tune a generated problem toward a target conflict level.

    Conflict falls as foci get denser (they overlap more), but density
    alone moves it in coarse steps on small frames (a single shared focus
    element can zero it).  So the tuner first bisects the focus density in
    :data:`_DENSITY_PROBES` probes, moving denser while the conflict is at
    or above the target, which leaves the densest probed level still at or
    above it.  At that density it then bisects a factor in
    :data:`_SCALE_RANGE` that scales both ends of ``weight_range``, which
    moves the conflict smoothly, in :data:`_SCALE_PROBES` probes.  It
    returns the probe whose measured conflict came closest to the target,
    the earliest on a tie; when no density probe reaches the target, the
    weight-scale stage is skipped.
    """
    if not 0.0 <= target_conflict < 1.0:
        raise ValueError(f"target conflict {target_conflict!r} outside [0, 1)")
    w_lo, w_hi = weight_range
    probes: list[GeneratedProblem] = []

    def probe(density: float, scale: float = 1.0) -> float:
        probes.append(
            generate_problem(
                source_count,
                element_count,
                weight_range=(w_lo * scale, w_hi * scale),
                focus_density=density,
                seed=seed,
                probe_trials=probe_trials,
            )
        )
        return probes[-1].conflict_estimate

    lo, hi = 0.005, 0.995
    dense_side: float | None = None
    for _ in range(_DENSITY_PROBES):
        mid = (lo + hi) / 2.0
        if probe(mid) >= target_conflict:
            lo = dense_side = mid
        else:
            hi = mid
    if dense_side is not None:
        s_lo, s_hi = _SCALE_RANGE
        for _ in range(_SCALE_PROBES):
            scale = (s_lo + s_hi) / 2.0
            if probe(dense_side, scale) > target_conflict:
                s_hi = scale
            else:
                s_lo = scale
    return min(probes, key=lambda g: abs(g.conflict_estimate - target_conflict))
