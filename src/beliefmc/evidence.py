"""Frames, focal sets, mass functions and evidence sources.

All value types here are immutable after construction and safe to share
across threads.  Subsets of the frame are bitmask-backed: element j of the
frame corresponds to bit j, so intersection, subset and membership tests
are single integer operations no matter how large the frame is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import FrameMismatchError, FrameTooLargeError, InvalidProblemError

#: Tolerated deviation of a probability or mass total from exactly 1.
MASS_TOL = 1e-9

#: Entries whose mass falls below this after arithmetic are dropped as dust
#: and the remainder renormalized.
MASS_DUST = 1e-12

#: Widest frame accepted by :func:`mass_from_bel`, which walks all subsets.
MOBIUS_MAX_ELEMENTS = 24


@dataclass(frozen=True)
class Frame:
    """Ordered frame of discernment.

    Element order is significant: element ``j`` corresponds to bit ``j`` of
    every :class:`FocalSet` over this frame, and the order is stable for the
    lifetime of the frame.  Bitmasks are arbitrary-precision integers, so
    frames with a thousand or more elements work fine; only the subset
    enumeration helpers are width-guarded.
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

    def subset(self, labels: Iterable[str]) -> FocalSet:
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return FocalSet(self, bits)

    def singleton(self, label: str) -> FocalSet:
        return FocalSet(self, 1 << self.index(label))

    def empty(self) -> FocalSet:
        return FocalSet(self, 0)

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

    def labels(self) -> tuple[str, ...]:
        return tuple(self)

    def _check_frame(self, other: FocalSet) -> None:
        if other.frame != self.frame:
            raise FrameMismatchError("focal sets belong to different frames")

    def __and__(self, other: FocalSet) -> FocalSet:
        self._check_frame(other)
        return FocalSet(self.frame, self.bits & other.bits)

    def __or__(self, other: FocalSet) -> FocalSet:
        self._check_frame(other)
        return FocalSet(self.frame, self.bits | other.bits)

    def complement(self) -> FocalSet:
        return FocalSet(self.frame, self.frame.full_bits ^ self.bits)

    def issubset(self, other: FocalSet) -> bool:
        self._check_frame(other)
        return not (self.bits & ~other.bits)

    def intersects(self, other: FocalSet) -> bool:
        self._check_frame(other)
        return bool(self.bits & other.bits)

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
        masses = {b: v / total for b, v in masses.items()}
        kept = {b: v for b, v in masses.items() if v >= MASS_DUST}
        if len(kept) != len(masses):
            scale = math.fsum(kept.values())
            kept = {b: v / scale for b, v in kept.items()}
        if not kept:
            raise ValueError("no mass entries left after normalization")
        self.frame = frame
        self._masses = kept

    def mass(self, b: FocalSet) -> float:
        if b.frame != self.frame:
            raise FrameMismatchError("focal set from a different frame")
        return self._masses.get(b.bits, 0.0)

    @property
    def by_bits(self) -> Mapping[int, float]:
        """Read-only view of the underlying ``bits -> mass`` mapping."""
        return self._masses

    def items(self) -> Iterator[tuple[FocalSet, float]]:
        for bits, value in self._masses.items():
            yield FocalSet(self.frame, bits), value

    def focal_sets(self) -> list[FocalSet]:
        return [FocalSet(self.frame, bits) for bits in self._masses]

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


@dataclass(frozen=True)
class SimpleSupport:
    """A source that certifies one focus set with weight ``s`` and is vacuous
    otherwise: outcomes ``(s, focus)`` and ``(1 - s, frame)``."""

    focus: FocalSet
    weight: float

    def to_source(self) -> SourceModel:
        return simple_support(self.focus.frame, self.focus, self.weight)


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


def as_simple_support(source: SourceModel) -> SimpleSupport | None:
    """Recognize a source of simple-support shape, else ``None``.

    Accepts a single certain outcome (weight 1) or exactly two outcomes one
    of which targets the whole frame.
    """
    outs = source.outcomes
    if len(outs) == 1:
        p, t = outs[0]
        if t.is_empty:
            return None
        return SimpleSupport(t, 1.0)
    if len(outs) == 2:
        (p0, t0), (p1, t1) = outs
        total = p0 + p1
        if total <= 0:
            return None
        if t0.is_full and t1.is_full:
            return SimpleSupport(t0, 1.0)
        if t1.is_full and not t0.is_empty:
            return SimpleSupport(t0, p0 / total)
        if t0.is_full and not t1.is_empty:
            return SimpleSupport(t1, p1 / total)
    return None


@dataclass(frozen=True)
class EvidenceProblem:
    """A frame plus the independent sources bearing on it."""

    frame: Frame
    sources: tuple[SourceModel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))


def validate_problem(problem: EvidenceProblem) -> list[str]:
    """Check structural invariants; return one line per violation (empty if
    the problem is well-formed)."""
    report: list[str] = []
    if not problem.sources:
        report.append("problem has no sources")
    for i, source in enumerate(problem.sources):
        if source.frame != problem.frame:
            report.append(f"source {i}: frame mismatch")
            continue
        if not source.outcomes:
            report.append(f"source {i}: no outcomes")
            continue
        for k, (p, t) in enumerate(source.outcomes):
            if not p > 0.0:
                report.append(f"source {i} outcome {k}: probability {p:g} not positive")
            if t.frame != problem.frame:
                report.append(f"source {i} outcome {k}: frame mismatch")
            elif t.is_empty:
                report.append(f"source {i} outcome {k}: empty target")
        total = math.fsum(p for p, _ in source.outcomes)
        if abs(total - 1.0) > MASS_TOL:
            report.append(f"source {i}: probabilities sum to {total:g}")
    return report


def require_valid(problem: EvidenceProblem) -> None:
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)


def focal_intersect(sets: Sequence[FocalSet]) -> FocalSet:
    """Intersection of one or more focal sets over a shared frame."""
    if not sets:
        raise ValueError("focal_intersect needs at least one set")
    first = sets[0]
    bits = first.bits
    for other in sets[1:]:
        if other.frame != first.frame:
            raise FrameMismatchError("focal sets belong to different frames")
        bits &= other.bits
    return FocalSet(first.frame, bits)


def bel_from_mass(m: MassFunction, b: FocalSet) -> float:
    """Belief in ``b``: the mass committed to subsets of ``b``."""
    if b.frame != m.frame:
        raise FrameMismatchError("query set from a different frame")
    outside = ~b.bits
    return math.fsum(v for bits, v in m.by_bits.items() if not bits & outside)


def pl_from_mass(m: MassFunction, b: FocalSet) -> float:
    """Plausibility of ``b``: the mass not committed against it,
    ``1 - Bel(complement)``."""
    if b.frame != m.frame:
        raise FrameMismatchError("query set from a different frame")
    return 1.0 - math.fsum(
        v for bits, v in m.by_bits.items() if not bits & b.bits
    )


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


def mass_from_bel(frame: Frame, bel: Sequence[float]) -> MassFunction:
    """Invert a full belief table back to its mass function.

    ``bel[bits]`` must give the belief of every subset of the frame (length
    ``2**n``).  Inversion is the alternating-sign sum over subsets, done by
    direct submask enumeration, so the frame is width-guarded.
    """
    n = frame.size
    if n > MOBIUS_MAX_ELEMENTS:
        raise FrameTooLargeError(
            f"mass_from_bel: frame has {n} elements, limit is {MOBIUS_MAX_ELEMENTS}"
        )
    if len(bel) != 1 << n:
        raise ValueError(f"belief table has {len(bel)} entries, expected {1 << n}")
    if abs(bel[0]) > MASS_TOL:
        raise ValueError(f"belief of the empty set is {bel[0]!r}, expected 0")
    if abs(bel[frame.full_bits] - 1.0) > MASS_TOL:
        raise ValueError(f"belief of the frame is {bel[frame.full_bits]!r}, expected 1")
    entries: dict[int, float] = {}
    for a in range(1, 1 << n):
        size_a = a.bit_count()
        acc = 0.0
        # Walk submasks c of a; the sign alternates with |a \ c|.
        c = a
        terms = []
        while True:
            sign = -1.0 if (size_a - c.bit_count()) & 1 else 1.0
            terms.append(sign * bel[c])
            if c == 0:
                break
            c = (c - 1) & a
        acc = math.fsum(terms)
        if acc < -MASS_TOL:
            raise ValueError(
                f"not a belief function: inverted mass {acc!r} on {FocalSet(frame, a)}"
            )
        if acc > MASS_DUST:
            entries[a] = acc
    return MassFunction(frame, entries)
