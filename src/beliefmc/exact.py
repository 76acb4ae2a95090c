"""Exact combination of evidence by the orthogonal-sum rule.

Two routes with very different cost profiles:

* mass-space folding (:func:`combine_all`) multiplies focal-set tables
  pairwise; the table can grow toward ``2**n`` entries, so the fold takes an
  entry cap and an optional wall-clock deadline.  The product loop
  (:func:`_combine_bits`) makes one pass over the big table per outcome of
  the small one; an outcome that covers the big table's union makes a
  scaled copy of it without intersecting.  The fold takes the sources in
  ascending order of their table sizes, rescales each source's small table
  by the running total instead of the big table, and normalizes once at
  the end;
* joint-outcome enumeration (:func:`exact_belief_enumeration`) sweeps the
  sources once for a single query, merging joint outcomes that reach the
  same intersection, through the same product loop as the fold.  It drops
  an intersection as soon as it holds an element outside the query that
  no later source can remove (the projection step of local propagation),
  and stops when nothing is left.  It is capped by the joint outcome count
  (``max_outcomes``) and by the table entry cap
  :data:`DEFAULT_MAX_ENTRIES`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import and_, or_

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

#: Default cap on the joint outcome count for direct enumeration.
DEFAULT_MAX_OUTCOMES = 10**7

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
) -> tuple[dict[int, float], float]:
    """Orthogonal sum on raw ``bits -> mass`` tables.

    Returns the unnormalized intersection table and the conflict mass
    (weight of empty intersections).  Caps raise ``ResourceLimitError``
    naming ``step``.

    Each outcome of the smaller table makes one pass over the bigger one.
    An outcome whose bits cover every key of the bigger table yields a
    scaled copy of it, so covering outcomes run first and the first of them
    builds the table at C speed.  Empty intersections collect under key 0,
    popped as the conflict at the end.  Passes run in chunks that end at
    every ``_DEADLINE_STRIDE``-th product: the entry cap is consulted after
    every chunk, the deadline at each of those stride boundaries.
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
        left = len(big)
        while left:
            n = min(left, _DEADLINE_STRIDE - done)
            chunk = islice(rows, n)
            if fresh:
                out.update(chunk)
            else:
                for b2, v2 in chunk:
                    inter = b1 & b2
                    out[inter] = get(inter, 0.0) + v1 * v2
            left -= n
            done += n
            if max_entries is not None and len(out) - (0 in out) > max_entries:
                raise ResourceLimitError(
                    f"{step}: intermediate table exceeded {max_entries} entries"
                )
            if done == _DEADLINE_STRIDE:
                done = 0
                if deadline is not None and time.monotonic() > deadline:
                    raise ResourceLimitError(f"{step}: wall-clock cap exceeded")
    return out, out.pop(0, 0.0)


def _surviving(table: dict[int, float], conflict: float, step: str) -> float:
    """Mass left in ``table``; raises ``TotalConflictError`` when it is a
    negligible share of the product's total."""
    remaining = math.fsum(table.values())
    if remaining / (remaining + conflict) <= CONFLICT_TOL:
        raise TotalConflictError(f"{step}: total conflict, combination undefined")
    return remaining


def combine_all(
    problem: EvidenceProblem,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    deadline_s: float | None = None,
) -> CombinationResult:
    """Fold all source mass functions into one combined mass function.

    ``conflict`` in the result is the overall conflict of the joint problem:
    one minus the product of per-step survival weights.  ``deadline_s``
    bounds the whole fold in wall-clock seconds.  Raises ``ValueError``
    when ``max_entries`` is below 1 or ``deadline_s`` is negative or NaN.

    Sources fold in ascending order of their merged table sizes, ties in
    problem order, and ``combine step i`` names the i-th fold step in that
    order.  A step costs the running table's size times the source's table
    size, and a source of k entries can multiply the running table by up to
    k, so the small sources go first and the big ones meet the smallest
    running tables they can.

    The running table is left unnormalized: each source's small table is
    divided by the running table's total instead, and the combined table is
    divided once at the end.
    """
    if max_entries < 1:
        raise ValueError(f"max entries must be >= 1, got {max_entries}")
    if deadline_s is not None and not deadline_s >= 0.0:
        raise ValueError(f"time cap must be >= 0, got {deadline_s}")
    require_valid(problem)
    deadline = None if deadline_s is None else time.monotonic() + deadline_s
    masses = sorted(map(mass_from_source, problem.sources), key=len)
    acc = masses[0].by_bits
    remaining = 1.0
    survival = 1.0
    for i, nxt in enumerate(masses[1:], start=1):
        step = f"combine step {i}"
        scaled = {b: v / remaining for b, v in nxt.by_bits.items()}
        acc, conflict = _combine_bits(
            acc, scaled, max_entries=max_entries, deadline=deadline, step=step
        )
        remaining = _surviving(acc, conflict, step)
        survival *= remaining / (remaining + conflict)
    # Rebinding frees the unnormalized table before the constructor copies
    # the normalized one, so two big tables are alive at the peak, not three.
    acc = {b: v / remaining for b, v in acc.items()}
    return CombinationResult(MassFunction(problem.frame, acc), 1.0 - survival)


def _enumerate(
    problem: EvidenceProblem, max_outcomes: int, outside: int
) -> tuple[dict[int, float], float]:
    """Sweep the sources once, merging joint outcomes that reach the same
    intersection; return the final ``{non-empty intersection bits:
    probability}`` table, less entries pruned as below, and P[empty], with
    per-source probabilities renormalized exactly.  The caller validates
    the problem.

    The running ``{intersection bits: probability}`` table multiplies into
    each source's ``{target bits: p/total}`` table through the fold's
    product loop, so the work is ``sum_i |table_i| * |outcomes_i|`` rather
    than the joint outcome count.  The joint outcome count is still capped
    at ``max_outcomes``, and the table at ``DEFAULT_MAX_ENTRIES``.

    ``outside`` is the mask the caller scores against: the query's
    complement for a belief, the whole frame for the conflict.  Before step
    i, every entry holding an element of ``outside`` that every outcome of
    source i and of each later source holds is dropped: it ends non-empty
    and not inside the query, so neither P[empty] nor the mass within the
    query changes.  The sweep stops once the table is empty.
    """
    joint = 1
    for s in problem.sources:
        joint *= len(s.outcomes)
        if joint > max_outcomes:
            raise ResourceLimitError(
                f"exact enumeration: joint outcome space exceeds {max_outcomes}"
            )
    full = problem.frame.full_bits
    # held[i]: the elements every outcome of source i and of each later
    # source holds; it only grows with i.
    held = [full]
    for s in reversed(problem.sources):
        held.append(held[-1] & reduce(and_, s.target_bits))
    held.reverse()
    acc: dict[int, float] = {full: 1.0}
    empty_p = 0.0
    dropped = 0
    for i, s in enumerate(problem.sources):
        dead = outside & held[i]
        if dead != dropped:
            dropped = dead
            acc = {b: v for b, v in acc.items() if not b & dead}
        if not acc:
            break
        total = math.fsum(p for p, _ in s.outcomes)
        table: dict[int, float] = {}
        for p, t in s.outcomes:
            table[t.bits] = table.get(t.bits, 0.0) + p / total
        # An empty intersection stays empty whatever the later sources
        # draw, and their probabilities sum to 1, so it is final here.
        acc, conflict = _combine_bits(
            acc, table, max_entries=DEFAULT_MAX_ENTRIES,
            step=f"exact enumeration step {i}",
        )
        empty_p += conflict
    return acc, empty_p


def exact_belief_enumeration(
    problem: EvidenceProblem,
    b: FocalSet,
    *,
    max_outcomes: int = DEFAULT_MAX_OUTCOMES,
) -> tuple[float, float]:
    """Exact combined belief in ``b`` plus the conflict mass, by joint
    outcome enumeration: sweeps the sources, merging equal intersections.

    Raises ``ResourceLimitError`` when the joint outcome count exceeds
    ``max_outcomes`` or the intersection table exceeds
    :data:`DEFAULT_MAX_ENTRIES` entries."""
    require_valid(problem)
    if b.frame != problem.frame:
        raise FrameMismatchError("query set from a different frame")
    outside = problem.frame.full_bits ^ b.bits
    acc, empty_p = _enumerate(problem, max_outcomes, outside)
    inside_p = _mass_within(acc, outside)
    survival = 1.0 - empty_p
    if survival <= CONFLICT_TOL:
        raise TotalConflictError("exact enumeration: total conflict, combination undefined")
    return inside_p / survival, empty_p


def conflict_exact(
    problem: EvidenceProblem, *, max_outcomes: int = DEFAULT_MAX_OUTCOMES
) -> float:
    """Exact conflict mass: probability that a joint draw is contradictory."""
    require_valid(problem)
    _, empty_p = _enumerate(problem, max_outcomes, problem.frame.full_bits)
    return empty_p
