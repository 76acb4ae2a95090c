"""Trial-sampled estimation of combined belief.

One trial draws an outcome from every source, intersects the certified
subsets, restarts on a contradiction (empty intersection), and scores 1 when
the surviving intersection lies inside the query set.  The success frequency
estimates the combined belief; the rejected-draw frequency estimates the
conflict mass.

One set-trial kernel serves every call.  It scores attempts a block at a
time: one ``getrandbits`` call yields the words of every uniform in the
block, the top byte of each uniform decides which cumulative entries it
falls below (the rare equal byte is decided from the whole 53 bits), and
each source outcome becomes a bitmask over the block's attempts.  The
frame's elements are grouped by the outcomes that lack them; a group
leaves an attempt's intersection when one of those outcomes is drawn, so
an attempt is rejected when every group leaves it and scores a query when
every group outside the query leaves it.  Bitwise OR and AND over these
masks do the work of every attempt at once.

The draw contract is that each attempt consumes exactly one uniform per
source, in source order, with no early exit; results are therefore a pure
function of ``(seed, worker_count)``.  The block kernel reads the same
uniforms in the same order as one ``random()`` call per source per attempt,
maps each to the outcome that bisecting the source's cumulative table
picks, and leaves the generator where those calls would.  The logic kernel
(``logic.py``) draws with ``random()`` and maps a uniform to the same
outcome; it skips only the mapping, never the draw: once an attempt is
lost, its remaining sources each draw their uniform, which is not mapped to
an outcome.

``worker_count`` splits the trials into per-worker substreams derived from
the seed, and the shares run on one thread per share, capped at the core
count.  The kernels are pure Python and hold the interpreter lock, so the
threads take turns rather than run in parallel: the worker count changes
how the stream is split, not how fast it runs.  One thread per worker keeps
an N-worker call's timing comparable with other N-thread work, which
``perfbench`` relies on when it corrects request times by a calibration
loop run at the request's worker count.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Sequence

from .errors import ExcessiveConflictError, FrameMismatchError
from .evidence import EvidenceProblem, FocalSet, require_valid

DEFAULT_RESTART_CAP = 10_000

@dataclass(frozen=True)
class TrialEngineConfig:
    """Knobs for one estimation run."""

    trials: int
    seed: int = 0
    restart_cap: int = DEFAULT_RESTART_CAP
    worker_count: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.restart_cap < 1:
            raise ValueError(f"restart_cap must be >= 1, got {self.restart_cap}")
        if self.worker_count < 1:
            raise ValueError(f"worker_count must be >= 1, got {self.worker_count}")


@dataclass(frozen=True)
class Estimate:
    """Result of one estimated query."""

    value: float
    trials: int
    successes: int
    restarts: int
    sd_bound: float
    plugin_sd: float
    conflict_estimate: float
    interval: tuple[float, float]


@dataclass(frozen=True)
class QueryBatch:
    """Query sets to score against the same trial stream."""

    queries: tuple[FocalSet, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise ValueError("query batch is empty")
        frame = self.queries[0].frame
        for q in self.queries[1:]:
            if q.frame != frame:
                raise FrameMismatchError("queries belong to different frames")


def plan_trials(accuracy: float) -> int:
    """Trials needed so that three standard deviations stay within
    ``accuracy``: at least ``9 / (4 * accuracy**2)``."""
    if not 0.0 < accuracy <= 1.0:
        raise ValueError(f"accuracy must be in (0, 1], got {accuracy!r}")
    return max(1, math.ceil(9.0 / (4.0 * accuracy * accuracy) - 1e-9))


def sd_bound(trials: int) -> float:
    """Worst-case standard deviation of a success frequency over ``trials``
    trials: the variance of a single trial is at most 1/4."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return 0.5 / math.sqrt(trials)


def derive_stream_seed(seed: int, label: str, index: int = 0) -> int:
    """Derive an independent substream seed from ``(seed, label, index)``.

    SHA-256 over the packed triple, truncated to 64 bits.  Purpose labels
    keep unrelated substreams (workers, problem generation, probes) from
    colliding when they share a base seed.
    """
    payload = f"{label}:{seed}:{index}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def worker_rng(seed: int, worker: int) -> random.Random:
    return random.Random(derive_stream_seed(seed, "worker", worker))


def _split_trials(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    shares = [base + (1 if w < extra else 0) for w in range(workers)]
    return [s for s in shares if s > 0]


def _cap_error(rejected: int, completed: int, cap: int) -> ExcessiveConflictError:
    kappa = rejected / (rejected + completed) if rejected + completed else 1.0
    return ExcessiveConflictError(
        f"restart cap {cap} exhausted within one trial; "
        f"conflict estimate so far {kappa:.4f}",
        kappa,
    )


def _word53(raw: bytes, d: int) -> int:
    """The 53-bit integer ``X`` behind uniform ``d`` of a block, where
    ``random()`` returns ``X / 2**53`` from the same two 32-bit words."""
    w = int.from_bytes(raw[8 * d:8 * d + 8], "little")
    return (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38


@dataclass(frozen=True)
class _SetPlan:
    """What the set-trial kernel needs of a problem and its queries.

    Each uniform is ``X / 2**53`` for a 53-bit integer ``X``, and a source
    picks outcome ``k`` when ``X`` is below ``cum[k]`` for the first time.
    ``cuts`` holds ``(source, limit, top, table)`` for every cumulative
    entry below 1.0 that some outcome mask needs: ``X / 2**53 < cum[k]``
    exactly when ``X < limit``, ``top`` is ``limit``'s top byte, and
    ``table`` maps the top byte of ``X`` to ``"1"`` when it is at most
    ``top``, so only a top byte equal to ``top`` needs the whole of ``X``.
    A block's ``below`` list holds no attempt, every attempt, then the
    attempts below each cut; ``outs[j]`` is ``(hi, lo)``, and
    ``below[hi] ^ below[lo]`` are the attempts in which outcome slot ``j``
    is picked.  Only outcomes that lack some element get a slot.

    A block's values are one mask per slot and a 0, and ``program``
    appends ``vals[a] | vals[b]`` for each of its pairs: the entries of
    256-entry OR tables over 8 slots at a time that some group reads.  The
    elements are grouped by the slots that lack them, and a group's kill
    mask, the attempts whose intersection loses the group's elements, is
    the OR of one table entry per 8 slots: ``lookups[c][g]`` is group
    ``g``'s entry for slots ``8c`` to ``8c + 7``.  ``outside[q]`` lists the
    groups that query ``q`` leaves out.
    """

    source_count: int
    cuts: tuple[tuple[int, int, int, bytes], ...]
    outs: tuple[tuple[int, int], ...]
    program: tuple[tuple[int, int], ...]
    lookups: tuple[tuple[int, ...], ...]
    outside: tuple[tuple[int, ...], ...]


#: Maps the ``"0"``/``"1"`` digits of a binary string to bytes 0 and 1.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _element_bytes(bits: int, n: int) -> bytes:
    """Byte ``e`` is bit ``e`` of ``bits``, for ``e < n``."""
    return format(bits, f"0{n}b").encode()[::-1].translate(_DIGITS)


def _set_plan(problem: EvidenceProblem, queries: Sequence[FocalSet]) -> _SetPlan:
    """Build the :class:`_SetPlan` once per call; worker shares share it."""
    n = problem.frame.size
    full = problem.frame.full_bits
    cuts = []
    outs = []
    lacks: list[int] = []  # per slot: the elements its outcome lacks
    for i, s in enumerate(problem.sources):
        below = [0]  # per cumulative entry, its index in a block's below list
        for c in s.cumulative[:-1]:
            limit = math.ceil(c * 2.0**53)
            top = limit >> 45
            if top > 255:  # c is 1.0
                below.append(1)
            else:
                below.append(len(cuts) + 2)
                cuts.append((i, limit, top, b"1" * (top + 1) + b"0" * (255 - top)))
        below.append(1)
        for k, bits in enumerate(s.target_bits):
            if full & ~bits:
                outs.append((below[k + 1], below[k]))
                lacks.append(full & ~bits)
    # one byte lane per 8 slots: byte e holds the slots that lack element e
    lanes = []
    for c0 in range(0, len(lacks), 8):
        lane = 0
        for b, lack in enumerate(lacks[c0:c0 + 8]):
            lane |= int.from_bytes(_element_bytes(lack, n), "little") << b
        lanes.append(lane.to_bytes(n, "little"))
    index: dict[tuple[int, ...], int] = {}
    sigs = zip(*lanes) if lanes else [()] * n
    group_of = [index.setdefault(sig, len(index)) for sig in sigs]
    # per 8 slots, the OR-table entries some group reads, each one OR away
    # from a smaller entry; with no slots, the one group is never killed
    zero = len(lacks)
    top_slot = zero + 1
    program = []
    lookups = []
    for col in zip(*index) if lanes else [(0,)]:
        need = set()
        for b in set(col):
            while b and b not in need:
                need.add(b)
                b &= b - 1
        entry = {0: zero}
        for b in sorted(need):
            low = b & -b
            slot = 8 * len(lookups) + low.bit_length() - 1
            if b == low:
                entry[b] = slot
            else:
                program.append((entry[b ^ low], slot))
                entry[b] = top_slot
                top_slot += 1
        lookups.append(tuple(map(entry.__getitem__, col)))
    outside = tuple(
        tuple(sorted(set(compress(group_of, _element_bytes(full & ~q.bits, n)))))
        for q in queries
    )
    return _SetPlan(
        len(problem.sources), tuple(cuts), tuple(outs), tuple(program), tuple(lookups), outside
    )


#: Generator bytes that the blocks of one call hold at once, 8 per source per
#: attempt, shared equally by the worker threads that run at once.  Larger
#: blocks spread each source's per-block steps over more attempts but hold
#: more memory: a thread holds about twice its block while drawing it.  In
#: 8 s ``perfbench`` runs (seed 3), with one block per thread, against the
#: per-draw kernel's ``round_s`` 0.118 s and ``peak_rss_mb`` 24.36 on
#: set-single and 32.82 on set-batch-exact (two workers), blocks of 64, 128
#: and 256 KiB read set-single 0.073, 0.067 and 0.062 s with peak RSS
#: +0.3%, +1.9% and +4.2%, and blocks of 32, 64, 128 and 192 KiB read
#: set-batch-exact peak RSS +1.2%, +2.0%, +3.0% and +4.0%.  Over 36 s runs,
#: set-batch-exact read +2.9% with 64 KiB per thread (5 pairs) and +2.0%
#: with the 64 KiB shared (10 pairs).
_BLOCK_BYTES = 64 * 1024


def _block(plan: _SetPlan, raw: bytes, size: int) -> tuple[int, list[int]]:
    """Score the ``size`` attempts whose uniforms ``raw`` holds, 8 bytes
    each, attempt by attempt and source by source: returns the mask of
    accepted attempts (bit ``a`` for attempt ``a``) and, per query, the
    mask of attempts whose intersection lies inside it."""
    m = plan.source_count
    every = (1 << size) - 1
    tops = raw[3::8]  # the top byte of each uniform's first word
    last = (size - 1) * m
    below = [0, every]
    for i, limit, top, table in plan.cuts:
        col = tops[last + i::-m]  # source i's top bytes, last attempt first
        mask = int(col.translate(table), 2)
        p = col.find(top)
        while p >= 0:
            a = size - 1 - p
            if _word53(raw, a * m + i) >= limit:
                mask ^= 1 << a
            p = col.find(top, p + 1)
        below.append(mask)
    vals = [below[hi] ^ below[lo] for hi, lo in plan.outs]
    vals.append(0)
    for a, b in plan.program:
        vals.append(vals[a] | vals[b])
    get = vals.__getitem__
    kills = list(map(get, plan.lookups[0]))
    for look in plan.lookups[1:]:
        kills = list(map(or_, kills, map(get, look)))
    accepted = every ^ reduce(and_, kills, every)
    return accepted, [
        reduce(and_, map(kills.__getitem__, groups), accepted) for groups in plan.outside
    ]


def _kernel_set(
    plan: _SetPlan, trials: int, rng: random.Random, cap: int, block_bytes: int
) -> tuple[list[int], int]:
    """The set-trial kernel: run attempts on ``rng`` until ``trials`` are
    accepted; returns ``(successes per query, restarts)``.

    Attempts run in blocks of at most ``block_bytes`` generator bytes,
    drawn by one ``getrandbits`` call.  CPython's ``random()`` builds its
    53 bits from two consecutive 32-bit words, and ``getrandbits(64 * k)``
    returns the words of ``k`` such calls, first word least significant, so
    uniform ``a * m + i`` of a block is the one source ``i`` draws in
    attempt ``a`` under one ``random()`` call per source per attempt.  A
    block holds no more attempts than trials are left, so the last trial
    ends with a block.  When the restart cap trips inside a block, the block
    is drawn again from the state saved before it, up to the attempt that
    tripped the cap, so the generator ends where the per-draw loop would
    leave it.
    """
    m = plan.source_count
    per_block = max(1, block_bytes // (8 * m))
    successes = [0] * len(plan.outside)
    done = restarts = run = 0  # run: rejections since the last acceptance
    while done < trials:
        size = min(per_block, trials - done)
        state = rng.getstate()
        raw = rng.getrandbits(64 * m * size).to_bytes(8 * m * size, "little")
        accepted, hits = _block(plan, raw, size)
        # the cap trips at the (cap + 1)-th rejection in a row, counting
        # the rejections carried over from earlier blocks
        first = (accepted & -accepted).bit_length() - 1 if accepted else size
        trip = -1
        if run + first > cap:
            trip = cap - run
        elif cap + 2 <= size:
            at = format(accepted, f"0{size}b")[::-1].find("1" + "0" * (cap + 1))
            if at >= 0:
                trip = at + cap + 1
        if trip >= 0:
            kept = (accepted & ((1 << trip) - 1)).bit_count()
            rng.setstate(state)
            rng.getrandbits(64 * m * (trip + 1))
            raise _cap_error(restarts + trip + 1 - kept, done + kept, cap)
        count = accepted.bit_count()
        done += count
        restarts += size - count
        run = size - accepted.bit_length() if accepted else run + size
        for qi, hit in enumerate(hits):
            successes[qi] += hit.bit_count()
    return successes, restarts


def _threads(cfg: TrialEngineConfig) -> int:
    """How many worker threads run at once: one per share, no more than
    cores."""
    return min(len(_split_trials(cfg.trials, cfg.worker_count)), os.cpu_count() or 1)


def _run_workers(cfg: TrialEngineConfig, job) -> list:
    """Run ``job(share, rng)`` for each worker's share of the trials, one
    thread per share but no more threads than cores, and return the raw
    results in worker order.  Each share has its own substream, so the
    thread count never changes a result."""
    shares = _split_trials(cfg.trials, cfg.worker_count)
    args = [(share, worker_rng(cfg.seed, w)) for w, share in enumerate(shares)]
    if len(args) == 1:
        return [job(*args[0])]
    with ThreadPoolExecutor(max_workers=_threads(cfg)) as pool:
        return list(pool.map(lambda a: job(*a), args))


def _build_estimate(
    successes: int, trials: int, restarts: int
) -> Estimate:
    value = successes / trials
    bound = sd_bound(trials)
    plugin = math.sqrt(value * (1.0 - value) / trials)
    kappa = restarts / (restarts + trials)
    return Estimate(
        value=value,
        trials=trials,
        successes=successes,
        restarts=restarts,
        sd_bound=bound,
        plugin_sd=plugin,
        conflict_estimate=kappa,
        interval=(max(0.0, value - 3.0 * bound), min(1.0, value + 3.0 * bound)),
    )


def estimate(
    problem: EvidenceProblem,
    batch: QueryBatch | Sequence[FocalSet],
    cfg: TrialEngineConfig,
) -> list[Estimate]:
    """Estimate the combined belief of every query in ``batch``.

    All queries share one trial stream: the intersection from each accepted
    trial is scored against every query, so a batch costs barely more than a
    single query.  With ``worker_count > 1`` the trials are split across
    per-worker substreams derived from the seed and merged additively, which
    makes results a pure function of ``(seed, worker_count)``.
    """
    require_valid(problem)
    if not isinstance(batch, QueryBatch):
        batch = QueryBatch(tuple(batch))
    for q in batch.queries:
        if q.frame != problem.frame:
            raise FrameMismatchError("query set from a different frame")
    plan = _set_plan(problem, batch.queries)
    block_bytes = _BLOCK_BYTES // _threads(cfg)

    def job(share, rng):
        return _kernel_set(plan, share, rng, cfg.restart_cap, block_bytes)

    parts = _run_workers(cfg, job)
    restarts = sum(r for _, r in parts)
    totals = [sum(p[0][qi] for p in parts) for qi in range(len(batch.queries))]
    return [_build_estimate(s, cfg.trials, restarts) for s in totals]


def conflict_estimate(
    problem: EvidenceProblem, cfg: TrialEngineConfig
) -> tuple[float, float]:
    """Estimate the conflict mass and the expected draws per accepted trial.

    Returns ``(kappa_hat, draws_per_trial)`` where ``kappa_hat`` is the
    rejected-draw frequency and ``draws_per_trial = 1 / (1 - kappa_hat)``
    is what each trial cost on average, restarts included.
    """
    require_valid(problem)
    plan = _set_plan(problem, ())
    block_bytes = _BLOCK_BYTES // _threads(cfg)

    def job(share, rng):
        return _kernel_set(plan, share, rng, cfg.restart_cap, block_bytes)

    parts = _run_workers(cfg, job)
    restarts = sum(r for _, r in parts)
    kappa = restarts / (restarts + cfg.trials)
    return kappa, (restarts + cfg.trials) / cfg.trials
