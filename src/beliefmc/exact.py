"""Exact combination of evidence by the orthogonal-sum rule.

One fold (:func:`_fold`) serves every exact answer.  It multiplies the
sources' focal-set tables into one intersection table, smallest table
first, through a product loop (:func:`_combine_bits`) that makes one pass
over the big table per outcome of the small one.  Before each step it drops
the entries that hold an element outside the scored set that no later
source can remove (the projection step of local propagation), and it stops
when nothing is left.  The fold never visits joint outcomes, so its work is
bounded by what its table holds: an entry cap, and a wall-clock deadline
where a view takes one.  The public functions are three views of it:

* :func:`combine_all` prunes nothing and returns the combined mass function;
* :func:`exact_belief_enumeration` prunes against a query's complement and
  returns the belief in the query;
* :func:`conflict_exact` prunes against the whole frame and returns the
  conflict.

The fold has two key encodings.  Its tables are keyed by focal-set bitmask,
except where it prunes nothing and the problem is a translated logic
problem (:func:`~beliefmc.logic.translate_to_set_problem`): then they are
keyed by term code, a few bits per atom instead of one per truth
assignment, and the final codes are expanded to their assignment sets.  The
two encodings give the same table, in the same order, and the same
conflict.

All three read the conflict as one minus the fold's survival, and both
belief views raise ``TotalConflictError`` when that survival is at most
:data:`CONFLICT_TOL`.  The two enumeration views hold the table to
:data:`DEFAULT_MAX_ENTRIES` entries.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import and_, or_
from typing import Callable

from .errors import (
    FrameMismatchError,
    ResourceLimitError,
    TotalConflictError,
)
from .evidence import (
    EvidenceProblem,
    FocalSet,
    MassFunction,
    _mass_within,
    mass_from_source,
    require_valid,
)

#: Combination is undefined when the surviving mass drops to this level.
CONFLICT_TOL = 1e-12

#: Default cap on intermediate mass-table size during a fold.
DEFAULT_MAX_ENTRIES = 1 << 20

# How many products to run between deadline checks inside a fold step.
_DEADLINE_STRIDE = 1 << 15


@dataclass(frozen=True)
class CombinationResult:
    """A combined mass function plus the conflict mass renormalized away."""

    combined: MassFunction
    conflict: float


def _combine_bits(
    d1: dict[int, float],
    d2: dict[int, float],
    *,
    max_entries: int | None = None,
    deadline: float | None = None,
    step: str = "combine",
    clash: Callable[[int], int] | None = None,
) -> tuple[dict[int, float], float]:
    """Orthogonal sum on raw ``key -> mass`` tables.

    Keys merge by AND.  They are set bitmasks, where an empty intersection
    is a conflict, or with ``clash`` term codes
    (:meth:`~beliefmc.logic._TermCodes.need`), where a merge is a conflict
    when the key of the bigger table lacks a bit of ``clash(b1)`` for the
    outcome ``b1`` of the smaller one.  Returns the unnormalized table of
    merged keys and the conflict mass.  Caps raise ``ResourceLimitError``
    naming ``step``.

    Each outcome of the smaller table makes one pass over the bigger one.
    An outcome whose bits cover every key of the bigger table yields a
    scaled copy of it, so covering outcomes run first and the first of them
    builds the table at C speed.  Conflicting products collect under key 0,
    popped as the conflict at the end.  Passes run in chunks that end at
    every ``_DEADLINE_STRIDE``-th product: the entry cap is consulted after
    every chunk, the deadline before the first product and before each
    chunk that starts a stride, so every call checks it at least once.
    """
    small, big = (d1, d2) if len(d1) <= len(d2) else (d2, d1)
    cover = reduce(or_, big, 0)
    outer = sorted(small.items(), key=lambda item: item[0] & cover != cover)
    out: dict[int, float] = {}
    get = out.get
    done = 0
    for b1, v1 in outer:
        fresh = not out and b1 & cover == cover
        rows = zip(big, map(v1.__mul__, big.values()) if fresh else big.values())
        if clash is not None:
            need = clash(b1)
        left = len(big)
        while left:
            if not done and deadline is not None and time.monotonic() >= deadline:
                raise ResourceLimitError(f"{step}: wall-clock cap exceeded")
            n = min(left, _DEADLINE_STRIDE - done)
            chunk = islice(rows, n)
            if fresh:
                out.update(chunk)
            elif clash is None:
                for b2, v2 in chunk:
                    inter = b1 & b2
                    out[inter] = get(inter, 0.0) + v1 * v2
            else:
                for b2, v2 in chunk:
                    inter = b1 & b2 if b2 & need == need else 0
                    out[inter] = get(inter, 0.0) + v1 * v2
            left -= n
            done = (done + n) % _DEADLINE_STRIDE
            if max_entries is not None and len(out) - (0 in out) > max_entries:
                raise ResourceLimitError(
                    f"{step}: intermediate table exceeded {max_entries} entries"
                )
    return out, out.pop(0, 0.0)


def _fold(
    problem: EvidenceProblem,
    outside: int,
    label: str,
    *,
    max_entries: int,
    deadline_s: float | None = None,
) -> tuple[dict[int, float], float, float]:
    """Fold every source's table into one ``{non-empty intersection bits:
    mass}`` table; return ``(table, total, survival)``.

    ``survival`` is the probability that a joint draw is not contradictory,
    so the conflict is ``1 - survival``, and ``total`` is the table's mass
    plus the pruned mass (below), in the table's units: ``table[b] / total``
    is the combined mass of ``b``.

    Sources fold in ascending order of their merged table sizes, ties in
    problem order, starting from the vacuous table ``{frame: 1}``; step i
    (``"{label} step {i}"`` in cap errors) multiplies in the i-th source in
    that order.  A step costs the running table's size times the source's
    table size, and a source of k entries can multiply the running table
    by up to k, so the small sources go first.  Each source's table is
    divided by the running total, so the running table stays near 1 and is
    never rescaled itself.

    Before step i, every entry holding an element of ``outside`` that every
    outcome of source i and of each later source holds is dropped: it ends
    non-empty and outside the scored set (the complement of ``outside``),
    so it adds to the survival and to nothing else, and its mass is carried
    as one scalar.  The fold stops once the table is empty.  ``outside=0``
    prunes nothing.

    With ``outside=0`` on a problem that carries term codes (a translated
    logic problem), the tables are keyed by code
    (:class:`~beliefmc.logic._TermCodes`): the fold starts from the empty
    term's code, and the final codes are expanded to their assignment sets
    in insertion order.  Consistent codes and their sets correspond one to
    one, merges to intersections and clashes to empty intersections, so
    the steps, table sizes, products and sums are those of the fold over
    the sets, and so is the returned table.

    ``max_entries`` caps every table the fold holds, and ``deadline_s``
    bounds the whole fold in wall-clock seconds, checked at least once per
    step.  Raises ``ValueError`` when ``max_entries`` is below 1 or
    ``deadline_s`` is negative or NaN.  A problem that ``validate_problem``
    has not passed yet is checked next
    (:func:`~beliefmc.evidence.require_valid`).
    """
    if max_entries < 1:
        raise ValueError(f"max entries must be >= 1, got {max_entries}")
    if deadline_s is not None and not deadline_s >= 0.0:
        raise ValueError(f"time cap must be >= 0, got {deadline_s}")
    deadline = None if deadline_s is None else time.monotonic() + deadline_s
    if not problem._valid:
        require_valid(problem)
    sources = sorted(problem.sources, key=lambda s: len(set(s.target_bits)))
    # held[i]: the elements every outcome of source i and of each later
    # source holds, in fold order; it only grows with i.
    held = [problem.frame.full_bits]
    for s in reversed(sources):
        held.append(held[-1] & reduce(and_, s.target_bits))
    held.reverse()
    codes = None if outside else problem._term_codes
    if codes is None:
        tables = (mass_from_source(s).by_bits for s in sources)
        acc: dict[int, float] = {problem.frame.full_bits: 1.0}
        clash = None
    else:
        # a source's code table has one entry per distinct target set, so
        # the stable sort keeps the set fold's order
        tables = sorted(codes.tables, key=len)
        acc = {codes.top: 1.0}
        clash = codes.need
    total = survival = 1.0
    gone = 0.0
    dropped = 0
    for i, by_bits in enumerate(tables):
        dead = outside & held[i]
        if dead != dropped:
            dropped = dead
            gone += math.fsum([v for b, v in acc.items() if b & dead])
            acc = {b: v for b, v in acc.items() if not b & dead}
        if not acc:
            break
        table = {b: v / total for b, v in by_bits.items()}
        acc, conflict = _combine_bits(
            acc, table, max_entries=max_entries, deadline=deadline,
            step=f"{label} step {i}", clash=clash,
        )
        gone /= total
        total = math.fsum(acc.values()) + gone
        survival *= total / (total + conflict)
    if codes is not None:
        acc = codes.expand(acc)
    return acc, total, survival


def combine_all(
    problem: EvidenceProblem,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    deadline_s: float | None = None,
) -> CombinationResult:
    """Fold all source mass functions into one combined mass function.

    The fold's table is divided by its total once, and entries that end
    below :data:`~beliefmc.evidence.MASS_DUST` are dropped as the
    ``MassFunction`` constructor drops them; the constructor's checks are
    not run again on a table the fold built.  ``conflict`` in the result is
    the overall conflict of the joint problem.
    ``max_entries`` and ``deadline_s`` are the fold's caps (see
    :func:`_fold`, which also raises their ``ValueError``).  A translated
    logic problem is folded over its term codes, to the table the fold over
    its assignment sets would give.  Raises
    ``TotalConflictError`` when the survival is at most
    :data:`CONFLICT_TOL`.  Cap errors name ``combine step i``, counted in
    fold order.
    """
    acc, total, survival = _fold(
        problem, 0, "combine", max_entries=max_entries, deadline_s=deadline_s
    )
    if survival <= CONFLICT_TOL:
        raise TotalConflictError("combine: total conflict, combination undefined")
    return CombinationResult(
        MassFunction._from_table(problem.frame, acc, total), 1.0 - survival
    )


def exact_belief_enumeration(
    problem: EvidenceProblem, b: FocalSet
) -> tuple[float, float]:
    """Exact combined belief in ``b`` plus the conflict mass, by the fold
    pruned against ``b``'s complement.

    Raises ``ResourceLimitError`` when the table exceeds
    :data:`DEFAULT_MAX_ENTRIES` entries, and ``TotalConflictError`` when
    the survival is at most :data:`CONFLICT_TOL`."""
    if b.frame != problem.frame:
        raise FrameMismatchError("query set from a different frame")
    outside = problem.frame.full_bits ^ b.bits
    acc, total, survival = _fold(
        problem, outside, "exact enumeration", max_entries=DEFAULT_MAX_ENTRIES
    )
    if survival <= CONFLICT_TOL:
        raise TotalConflictError("exact enumeration: total conflict, combination undefined")
    return _mass_within(acc, outside) / total, 1.0 - survival


def conflict_exact(
    problem: EvidenceProblem, *, deadline_s: float | None = None
) -> float:
    """Exact conflict mass: probability that a joint draw is contradictory,
    by the fold pruned against the whole frame.

    Raises ``ResourceLimitError`` when the table exceeds
    :data:`DEFAULT_MAX_ENTRIES` entries or the fold outlasts ``deadline_s``
    seconds, and ``ValueError`` for a negative or NaN ``deadline_s``."""
    _, _, survival = _fold(
        problem, problem.frame.full_bits, "exact enumeration",
        max_entries=DEFAULT_MAX_ENTRIES, deadline_s=deadline_s,
    )
    return 1.0 - survival
