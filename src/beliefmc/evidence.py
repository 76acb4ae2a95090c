"""Frames, focal sets, mass functions and evidence sources.

All value types here are immutable after construction and safe to share
across threads.  Subsets of the frame are bitmask-backed: element j of the
frame corresponds to bit j, so intersection, subset and membership tests
are single integer operations no matter how large the frame is.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import and_
from typing import Callable, Collection, Iterator, Mapping, Sequence

from .errors import FrameMismatchError, InvalidProblemError

#: Tolerated deviation of a probability or mass total from exactly 1.
MASS_TOL = 1e-9

#: Entries whose mass falls below this after arithmetic are dropped as dust
#: and the remainder renormalized.
MASS_DUST = 1e-12

#: :func:`bel_from_mass` scores a sequence of queries in one pass when it
#: holds at least this many queries per byte of the frame, counting one
#: byte more for grouping the masses by signature, and scans the table once
#: per query otherwise.  Per entry, a scan costs one mask test and the pass
#: one lookup per byte plus the grouping.  On random tables of 3,000 and
#: 40,000 entries over frames of 2 to 8 bytes (2 cores, Python 3.11.7), the
#: pass took 0.4-0.75x the scans' time at this threshold; on 255- and
#: 300-entry tables its fixed cost made it 1.0-1.4x slower.
_PASS_QUERIES_PER_BYTE = 2

# _CLEAR_DIGIT[i][v] is the digit "1" when byte value v has bit i clear, else "0".
_CLEAR_DIGIT = tuple(bytes(b"10"[v >> i & 1] for v in range(256)) for i in range(8))

@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment.

    Element order is significant: element ``j`` corresponds to bit ``j`` of
    every :class:`FocalSet` over this frame, and the order is stable for the
    lifetime of the frame.  Bitmasks are arbitrary-precision integers, so
    frames with a thousand or more elements work fine.
    """

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("frame needs at least one element")
        seen: set[str] = set()
        for label in self.elements:
            if not isinstance(label, str) or not label:
                raise ValueError(f"bad element label: {label!r}")
            if label in seen:
                raise ValueError(f"duplicate element label: {label!r}")
            seen.add(label)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def full_bits(self) -> int:
        return (1 << len(self.elements)) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: j for j, label in enumerate(self.elements)}

    def index(self, label: str) -> int:
        """Bit position of ``label``; raises ``KeyError`` if absent."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"no element {label!r} in frame") from None

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def singleton(self, label: str) -> FocalSet:
        return FocalSet(self, 1 << self.index(label))

    def universe(self) -> FocalSet:
        return FocalSet(self, self.full_bits)

    def from_bits(self, bits: int) -> FocalSet:
        return FocalSet(self, bits)


@dataclass(frozen=True)
class FocalSet:
    """Subset of a frame encoded as a bitmask (bit ``j`` <-> element ``j``)."""

    frame: Frame
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits <= self.frame.full_bits:
            raise ValueError(f"bits {self.bits:#x} outside the frame")

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == self.frame.full_bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, label: object) -> bool:
        if not isinstance(label, str) or label not in self.frame:
            return False
        return bool(self.bits >> self.frame.index(label) & 1)

    def __iter__(self) -> Iterator[str]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield self.frame.elements[low.bit_length() - 1]
            bits ^= low

    def _check_frame(self, other: FocalSet) -> None:
        if other.frame != self.frame:
            raise FrameMismatchError("focal sets belong to different frames")

    def __and__(self, other: FocalSet) -> FocalSet:
        self._check_frame(other)
        return FocalSet(self.frame, self.bits & other.bits)

    def __or__(self, other: FocalSet) -> FocalSet:
        self._check_frame(other)
        return FocalSet(self.frame, self.bits | other.bits)

    def __str__(self) -> str:
        if self.is_full:
            return "*"
        return "{" + " ".join(self) + "}"

    def __repr__(self) -> str:
        return f"FocalSet({self})"


class MassFunction:
    """Normalized mass assignment over non-empty focal sets.

    The constructor enforces the representation invariants: no mass on the
    empty set, every entry strictly positive, and the total within
    :data:`MASS_TOL` of 1.  Entries are then renormalized to sum to 1 exactly
    (up to float rounding); entries below :data:`MASS_DUST` are dropped and
    the rest renormalized again.
    """

    __slots__ = ("frame", "_masses")

    def __init__(self, frame: Frame, entries: Mapping[FocalSet, float] | Mapping[int, float]):
        # one entry at a time, so an error names the first offending entry
        masses: dict[int, float] = {}
        for key, value in entries.items():
            bits = key.bits if isinstance(key, FocalSet) else int(key)
            if isinstance(key, FocalSet) and key.frame != frame:
                raise FrameMismatchError("focal set from a different frame")
            if not 0 <= bits <= frame.full_bits:
                raise ValueError(f"bits {bits:#x} outside the frame")
            if bits == 0:
                raise ValueError("mass on the empty set is not allowed")
            if not value > 0.0:
                raise ValueError(f"non-positive mass {value!r} on {FocalSet(frame, bits)}")
            masses[bits] = masses.get(bits, 0.0) + value
        total = math.fsum(masses.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        self.frame = frame
        self._masses = self._normalized(masses, total)

    @classmethod
    def _from_table(cls, frame: Frame, table: dict[int, float], total: float) -> MassFunction:
        """The mass function ``{b: table[b] / total}``, dust dropped as in
        the constructor, built in ``table`` itself, which the caller hands
        over.

        For tables that hold the constructor's invariants by construction
        (the exact fold's: non-empty keys within the frame, positive masses
        summing to ``total``), so the checks and the second division by a
        total within an ulp of 1 are skipped.  A ``total`` of exactly 1.0,
        as the fold reports after a step that lost no mass, divides
        nothing.
        """
        m = cls.__new__(cls)
        m.frame = frame
        m._masses = cls._normalized(table, total)
        return m

    @staticmethod
    def _normalized(masses: dict[int, float], total: float) -> dict[int, float]:
        """``masses`` divided by ``total`` in place (skipped when ``total``
        is 1.0); if an entry falls below :data:`MASS_DUST`, a new table
        without the dust, renormalized by its sum."""
        if total != 1.0:
            for b, v in masses.items():
                masses[b] = v / total
        if min(masses.values()) < MASS_DUST:
            kept = {b: v for b, v in masses.items() if v >= MASS_DUST}
            if not kept:
                raise ValueError("no mass entries left after normalization")
            scale = math.fsum(kept.values())
            return {b: v / scale for b, v in kept.items()}
        return masses

    @property
    def by_bits(self) -> Mapping[int, float]:
        """Read-only view of the underlying ``bits -> mass`` mapping."""
        return self._masses

    def items(self) -> Iterator[tuple[FocalSet, float]]:
        for bits, value in self._masses.items():
            yield FocalSet(self.frame, bits), value

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._masses == other._masses

    def __repr__(self) -> str:
        body = ", ".join(f"{fs}: {v:.6g}" for fs, v in self.items())
        return f"MassFunction({body})"


def _cumulative(probs: Sequence[float]) -> tuple[float, ...]:
    """Cumulative probabilities, normalized, last entry forced to 1.0 so a
    uniform draw always lands in range."""
    total = math.fsum(probs)
    acc = 0.0
    out = []
    for p in probs:
        acc += p / total
        out.append(acc)
    out[-1] = 1.0
    return tuple(out)


@dataclass(frozen=True)
class SourceModel:
    """One evidence source: a finite outcome space with probabilities, where
    each outcome points at the subset of the frame it certifies.

    ``outcomes`` is kept exactly as given (probabilities are not
    renormalized), so a parsed source renders back verbatim.  Structural
    validation lives in :func:`validate_problem`.
    """

    frame: Frame
    outcomes: tuple[tuple[float, FocalSet], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "outcomes", tuple((float(p), t) for p, t in self.outcomes)
        )

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """The :func:`_cumulative` table of the outcome probabilities."""
        return _cumulative([p for p, _ in self.outcomes])

    @cached_property
    def target_bits(self) -> tuple[int, ...]:
        return tuple(t.bits for _, t in self.outcomes)


def simple_support(frame: Frame, focus: FocalSet, weight: float) -> SourceModel:
    """Build the two-outcome source behind a simple support function."""
    if focus.frame != frame:
        raise FrameMismatchError("focus set from a different frame")
    if focus.is_empty:
        raise ValueError("focus of a simple support source must be non-empty")
    if not 0.0 < weight <= 1.0:
        raise ValueError(f"weight {weight!r} outside (0, 1]")
    if weight == 1.0 or focus.is_full:
        return SourceModel(frame, ((1.0, focus if weight == 1.0 else frame.universe()),))
    return SourceModel(frame, ((weight, focus), (1.0 - weight, frame.universe())))


@dataclass(frozen=True)
class EvidenceProblem:
    """A frame plus the independent sources bearing on it."""

    frame: Frame
    sources: tuple[SourceModel, ...]

    #: Set on the instance when :func:`validate_problem` reports nothing
    #: (see :func:`require_valid`); not a field, so it takes no part in
    #: equality or hashing.
    _valid = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))


def _source_report(
    sources: Sequence, target_fault: Callable, source_fault: Callable = lambda source: None
) -> list[str]:
    """One line per violation of the rules every problem kind's sources
    share: there is at least one source, each source has outcomes, each
    outcome's probability is positive, and each source's probabilities add
    up to 1 within :data:`MASS_TOL`.

    The kind adds its own rules through the callbacks, which return a
    violation's text or ``None``: ``source_fault`` is asked first about
    each source, and a faulty source is not looked into further;
    ``target_fault`` is asked about each outcome's target, after its
    probability.
    """
    report: list[str] = []
    if not sources:
        report.append("problem has no sources")
    for i, source in enumerate(sources):
        fault = source_fault(source)
        if fault is not None:
            report.append(f"source {i}: {fault}")
            continue
        if not source.outcomes:
            report.append(f"source {i}: no outcomes")
            continue
        for k, (p, t) in enumerate(source.outcomes):
            if not p > 0.0:
                report.append(f"source {i} outcome {k}: probability {p:g} not positive")
            fault = target_fault(t)
            if fault is not None:
                report.append(f"source {i} outcome {k}: {fault}")
        total = math.fsum(p for p, _ in source.outcomes)
        if abs(total - 1.0) > MASS_TOL:
            report.append(f"source {i}: probabilities sum to {total:g}")
    return report


def validate_problem(problem: EvidenceProblem) -> list[str]:
    """Check structural invariants; return one line per violation (empty if
    the problem is well-formed).

    On top of the rules every source shares (:func:`_source_report`), each
    source and each outcome's target is over the problem's frame, and no
    target is empty."""
    frame = problem.frame
    report = _source_report(
        problem.sources,
        lambda t: "frame mismatch" if t.frame != frame else "empty target" if t.is_empty else None,
        lambda s: "frame mismatch" if s.frame != frame else None,
    )
    if not report:
        object.__setattr__(problem, "_valid", True)
    return report


def require_valid(problem: EvidenceProblem) -> None:
    """Raise :class:`InvalidProblemError` listing what
    :func:`validate_problem` reports, if anything.

    A problem is immutable, so a clean report holds for its lifetime:
    ``validate_problem`` marks the problem it passes, and the entry points
    (``estimate`` and the exact fold) call this function only for a
    problem not marked yet.  A problem from ``parse_problem`` is checked
    once, while it is parsed; a hand-built one on first use.
    """
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)


def _mass_within(table: Mapping[int, float], outside: int) -> float:
    """Total mass of the entries that share no bit with ``outside``.

    ``outside`` is a non-negative mask (the complement within the frame):
    ``&`` with a negative int costs a two's-complement conversion per entry.
    """
    return math.fsum([v for bits, v in table.items() if not bits & outside])


def _byte_columns(ints: Collection[int], nbytes: int) -> list[bytes]:
    """Column k holds byte k of every int in ``ints``, in iteration order.

    The ints are non-negative and below ``2 ** (8 * nbytes)``, with
    ``nbytes <= 8``; they are packed at C speed as one 8-byte word each.
    """
    raw = struct.pack(f"<{len(ints)}Q", *ints)
    return [raw[k::8] for k in range(nbytes)]


def _masses_within(table: Mapping[int, float], outsides: Sequence[int], nbytes: int) -> list[float]:
    """``[_mass_within(table, o) for o in outsides]`` in one pass over ``table``,
    whose keys fit in ``nbytes <= 8`` bytes.

    Bit j of an entry's signature is set when the entry shares no bit with
    ``outsides[j]``.  For each byte of the keys, a 256-entry list, built by
    doubling from single bits, maps the entry's byte to the signature bits
    it allows; an entry's signature ANDs one lookup per byte.  The table's
    masses are grouped by signature, and query j's belief is the ``fsum`` of
    the groups that hold its bit: the same values as in ``_mass_within``,
    so the same correctly rounded sum.
    """
    lookups = []
    for col in _byte_columns(outsides, nbytes):
        lookup = [(1 << len(outsides)) - 1]
        for clear in _CLEAR_DIGIT:
            # Bit j of keep: byte j of col has this bit clear.
            keep = int(col.translate(clear)[::-1], 2)
            lookup += [sig & keep for sig in lookup]
        lookups.append(lookup)
    cols = _byte_columns(table, nbytes)
    sigs = map(lookups[0].__getitem__, cols[0])
    for k in range(1, nbytes):
        sigs = map(and_, sigs, map(lookups[k].__getitem__, cols[k]))
    groups: dict[int, list[float]] = {}
    for sig, v in zip(sigs, table.values()):
        if sig in groups:
            groups[sig].append(v)
        else:
            groups[sig] = [v]
    return [
        math.fsum(chain.from_iterable([g for sig, g in groups.items() if sig >> j & 1]))
        for j in range(len(outsides))
    ]


def bel_from_mass(m: MassFunction, b: FocalSet | Sequence[FocalSet]) -> float | list[float]:
    """Belief in ``b``: the mass committed to subsets of ``b``.

    ``b`` is one focal set, answered as a float, or a sequence of them,
    answered as a list in the same order.  On frames of at most 64
    elements, a sequence of at least ``_PASS_QUERIES_PER_BYTE * (bytes + 1)``
    queries, where ``bytes`` is the frame's size in bytes, is scored in one
    pass over the table (:func:`_masses_within`); otherwise each query gets
    one scan.  Both routes return the same correctly rounded sums.  Raises
    ``FrameMismatchError`` when a query is over another frame.
    """
    queries = [b] if isinstance(b, FocalSet) else list(b)
    if any(q.frame != m.frame for q in queries):
        raise FrameMismatchError("query set from a different frame")
    full = m.frame.full_bits
    outsides = [full ^ q.bits for q in queries]
    nbytes = (m.frame.size + 7) // 8
    if nbytes <= 8 and len(outsides) >= _PASS_QUERIES_PER_BYTE * (nbytes + 1):
        bels = _masses_within(m.by_bits, outsides, nbytes)
    else:
        bels = [_mass_within(m.by_bits, o) for o in outsides]
    return bels[0] if isinstance(b, FocalSet) else bels


def mass_from_source(source: SourceModel) -> MassFunction:
    """Mass function induced by a source: outcome probabilities accumulated
    onto their target sets (duplicate targets merge)."""
    entries: dict[int, float] = {}
    for k, (p, t) in enumerate(source.outcomes):
        if not p > 0.0:
            raise InvalidProblemError([f"outcome {k}: probability {p:g} not positive"])
        if t.frame != source.frame:
            raise FrameMismatchError("outcome target from a different frame")
        if t.is_empty:
            raise InvalidProblemError([f"outcome {k}: empty target"])
        entries[t.bits] = entries.get(t.bits, 0.0) + p
    return MassFunction(source.frame, entries)
