"""Exact combination of evidence by the orthogonal-sum rule.

One fold (:func:`_fold`) serves every exact answer.  It multiplies the
sources' focal-set tables into one intersection table, smallest table
first, through a product loop (:func:`_combine_bits`) that makes one pass
over the big table per outcome of the small one.  Before each step it drops
the entries that hold an element outside the scored set that no later
source can remove (the projection step of local propagation), and it stops
when nothing is left.  The fold never visits joint outcomes, so its work is
bounded by what its table holds: every view holds it to :data:`MAX_ENTRIES`
entries, and two take a wall-clock deadline.  The public functions are
three views of it:

* :func:`combine_all` prunes nothing and returns the combined mass function;
* :func:`exact_belief_enumeration` prunes against a query's complement and
  returns the belief in the query;
* :func:`conflict_exact` prunes against the whole frame and returns the
  conflict.

The fold reads its key encoding off its input.  When the frame has
``2**k`` elements (``k >= 1``) and every focal set is a subcube of the
hypercube of element indices, as on every translated logic problem
(:func:`~beliefmc.logic.translate_to_set_problem`), the tables are keyed by
term code (:class:`_TermCodes`), ``2k`` bits per subcube instead of
``2**k``; an entry is expanded to its set only where pruning tests it and
at the end.  Every other problem folds focal-set bitmasks.  The two
encodings give the same table, in the same order, the same conflict and
the same cap errors, in all three views.

All three read the conflict as one minus the fold's survival, and both
belief views raise ``TotalConflictError`` when that survival is at most
:data:`CONFLICT_TOL`.  Every view reports its cap errors as ``exact fold
step i``, counted in fold order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import compress, islice
from operator import and_, not_, or_
from typing import Callable, Sequence

from .errors import (
    FrameMismatchError,
    ResourceLimitError,
    TotalConflictError,
)
from .evidence import (
    EvidenceProblem,
    FocalSet,
    MassFunction,
    SourceModel,
    _mass_within,
    mass_from_source,
    require_valid,
)

#: Combination is undefined when the surviving mass drops to this level.
CONFLICT_TOL = 1e-12

#: Cap on intermediate mass-table size during a fold, read at every call.
MAX_ENTRIES = 1 << 20

# How many products to run between deadline checks inside a fold step.
_DEADLINE_STRIDE = 1 << 15


@dataclass(frozen=True)
class CombinationResult:
    """A combined mass function plus the conflict mass renormalized away."""

    combined: MassFunction
    conflict: float


def _cube(free: int) -> int:
    """The elements whose index is a submask of ``free``, as a mask: the
    subcube through element 0 that is free in the dimensions set in
    ``free``, built by doubling along each of them."""
    bits = 1
    while free:
        low = free & -free
        bits |= bits << low
        free ^= low
    return bits


class _TermCodes:
    """Term codes for the subcubes of a ``2**k``-element frame.

    Element ``a`` is the vertex ``a`` of the ``k``-dimensional hypercube:
    bit ``i`` of its index is its coordinate in dimension ``i`` (on a
    translated logic problem, the truth value of atom ``i``).  A subcube
    fixes some dimensions, and its lowest and highest elements ``lo`` and
    ``hi`` hold the fixed values with the free dimensions at 0 and at 1.
    Its code is ``hi | (lo ^ low) << k``, where ``low = 2**k - 1``: bit
    ``i`` says "dimension ``i`` may be 1" and bit ``k + i`` "may be 0", so
    the whole frame, ``top``, has all ``2k`` bits set.  AND merges two
    codes into the code of their intersection, or clears both bits of a
    dimension where the intersection is empty (a clash).  Consistent codes
    and non-empty subcubes correspond one to one.

    ``of`` maps each focal set the fold reads, as a mask, to its code.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.low = (1 << k) - 1
        self.top = (1 << 2 * k) - 1
        self.of: dict[int, int] = {}
        # one subcube through element 0 per set of free dimensions; it is
        # no wider than the sets it expands to
        self._cubes: dict[int, int] = {}

    @classmethod
    def derive(cls, size: int, sources: Sequence[SourceModel]) -> _TermCodes | None:
        """The codes of the sources' focal sets over a frame of ``size``
        elements, or ``None`` when ``size`` is not ``2**k`` with ``k >= 1``
        (at ``k = 0`` the one code is 0, the fold's conflict key) or a
        focal set is not a subcube.

        A set whose lowest and highest elements are ``lo`` and ``hi`` is a
        subcube exactly when it equals :meth:`subcube` of the code they
        give (which is some other set when that code is not consistent),
        so one compare decides each set, and the first set that fails ends
        the derivation."""
        k = size.bit_length() - 1
        if k < 1 or size != 1 << k:
            return None
        codes = cls(k)
        of = codes.of
        for s in sources:
            for bits in s.target_bits:
                if bits not in of:
                    lo = (bits & -bits).bit_length() - 1
                    hi = bits.bit_length() - 1
                    code = hi | (lo ^ codes.low) << k
                    if codes.subcube(code) != bits:
                        return None
                    of[bits] = code
        return codes

    def need(self, code: int) -> int:
        """The bits a code must keep to merge with ``code`` without a
        clash: for each dimension, the bit opposite the one ``code``
        clears."""
        cleared = self.top ^ code
        return (cleared & self.low) << self.k | cleared >> self.k

    def subcube(self, code: int) -> int:
        """The elements of a consistent code's subcube, as a mask."""
        hi = code & self.low
        lo = self.low ^ code >> self.k
        cube = self._cubes.get(hi ^ lo)
        if cube is None:
            cube = self._cubes[hi ^ lo] = _cube(hi ^ lo)
        return cube << lo


def _deadline(cap_s: float | None) -> float | None:
    """The ``time.monotonic()`` reading ``cap_s`` seconds from now, or
    ``None`` without a cap.  Raises ``ValueError`` for a negative or NaN
    cap."""
    if cap_s is None:
        return None
    if not cap_s >= 0.0:
        raise ValueError(f"time cap must be >= 0, got {cap_s}")
    return time.monotonic() + cap_s


def _combine_bits(
    d1: dict[int, float],
    d2: dict[int, float],
    *,
    deadline: float | None = None,
    step: int = 0,
    clash: Callable[[int], int] | None = None,
) -> tuple[dict[int, float], float]:
    """Orthogonal sum on raw ``key -> mass`` tables.

    Keys merge by AND.  They are set bitmasks, where an empty intersection
    is a conflict, or with ``clash`` term codes (:meth:`_TermCodes.need`),
    where a merge is a conflict when the key of the bigger table lacks a
    bit of ``clash(b1)`` for the outcome ``b1`` of the smaller one.  Returns
    the unnormalized table of merged keys and the conflict mass.  The table
    is held to :data:`MAX_ENTRIES` entries; caps raise
    ``ResourceLimitError`` naming ``exact fold step {step}``.

    Each outcome of the smaller table makes one pass over the bigger one.
    An outcome whose bits cover every key of the bigger table yields a
    scaled copy of it, so covering outcomes run first and the first of them
    builds the table at C speed.  Conflicting products collect under key 0,
    popped as the conflict at the end.  Passes run in chunks that end at
    every ``_DEADLINE_STRIDE``-th product: the entry cap is consulted after
    every chunk, the deadline before the first product and before each
    chunk that starts a stride, so every call checks it at least once.
    """
    cap = MAX_ENTRIES
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
                raise ResourceLimitError(f"exact fold step {step}: wall-clock cap exceeded")
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
            if len(out) - (0 in out) > cap:
                raise ResourceLimitError(
                    f"exact fold step {step}: intermediate table exceeded {cap} entries"
                )
    return out, out.pop(0, 0.0)


def _fold(
    problem: EvidenceProblem, outside: int, *, deadline_s: float | None = None
) -> tuple[dict[int, float], float, float, _TermCodes | None]:
    """Fold every source's table into one ``{non-empty intersection key:
    mass}`` table; return ``(table, total, survival, codes)``.

    ``survival`` is the probability that a joint draw is not contradictory,
    so the conflict is ``1 - survival``, and ``total`` is the table's mass
    plus the pruned mass (below), in the table's units: ``table[b] / total``
    is the combined mass of ``b``.

    Sources fold in ascending order of their merged table sizes, ties in
    problem order, starting from the vacuous table ``{frame: 1}``; step i
    (``exact fold step i`` in cap errors) multiplies in the i-th source in
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

    The keys are term codes when :meth:`_TermCodes.derive` finds one for
    every focal set, which it returns as ``codes``, and set bitmasks
    otherwise, with ``codes`` ``None``.  With codes, each source's table is
    rekeyed entry by entry, the fold starts from the whole frame's code,
    and an entry is expanded to its set where pruning tests it; the views
    that read the table's sets expand it with :func:`_by_sets`.  Codes and
    their sets correspond one to one, merges to intersections and clashes
    to empty intersections, so the steps, table sizes, products and sums
    are those of the fold over the sets, and so is the expanded table.

    :data:`MAX_ENTRIES` caps every table the fold holds, and
    ``deadline_s`` bounds the whole fold in wall-clock seconds, checked at
    least once per step (:func:`_deadline` refuses a negative or NaN one
    with ``ValueError``).  A problem that ``validate_problem`` has not
    passed yet is checked next (:func:`~beliefmc.evidence.require_valid`).
    """
    deadline = _deadline(deadline_s)
    if not problem._valid:
        require_valid(problem)
    sources = sorted(problem.sources, key=lambda s: len(set(s.target_bits)))
    # held[i]: the elements every outcome of source i and of each later
    # source holds, in fold order; it only grows with i.
    held = [problem.frame.full_bits]
    for s in reversed(sources):
        held.append(held[-1] & reduce(and_, s.target_bits))
    held.reverse()
    tables = (mass_from_source(s).by_bits for s in sources)
    acc = {problem.frame.full_bits: 1.0}
    codes = _TermCodes.derive(problem.frame.size, sources)
    if codes is not None:
        tables = ({codes.of[b]: v for b, v in t.items()} for t in tables)
        acc = {codes.top: 1.0}
    total = survival = 1.0
    gone = 0.0
    dropped = 0
    for i, by_key in enumerate(tables):
        dead = outside & held[i]
        if dead != dropped:
            dropped = dead
            keys = acc if codes is None else map(codes.subcube, acc)
            keep = [not b & dead for b in keys]
            gone += math.fsum(compress(acc.values(), map(not_, keep)))
            acc = dict(compress(acc.items(), keep))
        if not acc:
            break
        table = {b: v / total for b, v in by_key.items()}
        acc, conflict = _combine_bits(
            acc, table, deadline=deadline, step=i,
            clash=None if codes is None else codes.need,
        )
        gone /= total
        total = math.fsum(acc.values()) + gone
        survival *= total / (total + conflict)
    return acc, total, survival, codes


def _by_sets(acc: dict[int, float], codes: _TermCodes | None) -> dict[int, float]:
    """A table from :func:`_fold` keyed by set bitmasks, its entries in
    insertion order."""
    return acc if codes is None else {codes.subcube(c): v for c, v in acc.items()}


def combine_all(
    problem: EvidenceProblem, *, deadline_s: float | None = None
) -> CombinationResult:
    """Fold all source mass functions into one combined mass function.

    The fold's table is divided by its total once, and entries that end
    below :data:`~beliefmc.evidence.MASS_DUST` are dropped as the
    ``MassFunction`` constructor drops them; the constructor's checks are
    not run again on a table the fold built.  ``conflict`` in the result is
    the overall conflict of the joint problem.  ``deadline_s`` is the
    fold's wall-clock cap (see :func:`_fold`).  A problem whose frame has
    ``2**k`` elements and whose focal sets are all subcubes, such as a
    translated logic problem, is folded over term codes, to the table the
    fold over its sets would give.  Raises ``ResourceLimitError`` when a
    cap trips, and ``TotalConflictError`` when the survival is at most
    :data:`CONFLICT_TOL`.
    """
    acc, total, survival, codes = _fold(problem, 0, deadline_s=deadline_s)
    if survival <= CONFLICT_TOL:
        raise TotalConflictError("exact fold: total conflict, combination undefined")
    return CombinationResult(
        MassFunction._from_table(problem.frame, _by_sets(acc, codes), total), 1.0 - survival
    )


def exact_belief_enumeration(
    problem: EvidenceProblem, b: FocalSet
) -> tuple[float, float]:
    """Exact combined belief in ``b`` plus the conflict mass, by the fold
    pruned against ``b``'s complement.

    Raises ``ResourceLimitError`` when the table exceeds
    :data:`MAX_ENTRIES` entries, and ``TotalConflictError`` when the
    survival is at most :data:`CONFLICT_TOL`."""
    if b.frame != problem.frame:
        raise FrameMismatchError("query set from a different frame")
    outside = problem.frame.full_bits ^ b.bits
    acc, total, survival, codes = _fold(problem, outside)
    if survival <= CONFLICT_TOL:
        raise TotalConflictError("exact fold: total conflict, combination undefined")
    return _mass_within(_by_sets(acc, codes), outside) / total, 1.0 - survival


def conflict_exact(
    problem: EvidenceProblem, *, deadline_s: float | None = None
) -> float:
    """Exact conflict mass: probability that a joint draw is contradictory,
    by the fold pruned against the whole frame.

    Raises ``ResourceLimitError`` when the table exceeds
    :data:`MAX_ENTRIES` entries or the fold outlasts ``deadline_s``
    seconds, and ``ValueError`` for a negative or NaN ``deadline_s``."""
    survival = _fold(problem, problem.frame.full_bits, deadline_s=deadline_s)[2]
    return 1.0 - survival
