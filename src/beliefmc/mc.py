"""Trial-sampled estimation of combined belief.

One trial draws an outcome from every source, intersects the certified
subsets, restarts on a contradiction (empty intersection), and scores 1 when
the surviving intersection lies inside the query set.  The success frequency
estimates the combined belief; the rejected-draw frequency estimates the
conflict mass.

One runner (:func:`_run`) and its block driver (:func:`_run_blocks`) run
the attempts of both kernels, this module's set-trial kernel and the logic
kernel of ``logic.py``; a kernel is a plan and a block scorer.  The driver
draws a block's uniforms with ``getrandbits`` calls into one buffer, sizes
the blocks, and trips the restart cap; its front end (:func:`_below`) lets
the top byte of each uniform decide which cumulative entries it falls
below (the rare equal byte is decided from the next byte or the whole 53
bits), so each source outcome becomes a bitmask over the block's attempts,
and the scorer gets one such mask per outcome slot of its plan.  The set
kernel groups the frame's elements by the outcomes that lack them; a group
leaves an attempt's intersection when one of those outcomes is drawn, so
an attempt is rejected when every group leaves it and scores a query when
every group outside the query leaves it.  Bitwise OR and AND over these
masks do the work of every attempt at once.

The draw contract is that each attempt consumes exactly one uniform per
source, in source order, with no early exit; results are therefore a pure
function of ``(seed, worker_count)``.  The driver reads the same uniforms
in the same order as one ``random()`` call per source per attempt, and the
kernels map each to the outcome that bisecting the source's cumulative
table picks.  Each share's generator is private to its share, so a block
is drawn once, and attempts after a share's last one are never counted.

``worker_count`` splits the trials into per-worker substreams derived from
the seed, all scored by one scorer that adds into the caller's counts.
The kernels are pure Python and hold the interpreter lock, so the runner
uses processes, not threads: on a POSIX system with several usable CPUs
and no other thread running, a request whose ``source_count * trials``
reaches :data:`_FORK_WORK` (the measured break-even, 100,000) runs its
shares in forked children next to the caller, one process per CPU at
most.  Every other request runs its shares one after another in the
calling thread.  The counts and errors are the same either way.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
import random
import signal
import threading
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import add, and_, or_, xor
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
    """Each worker's share of the trials, in worker order.  Workers beyond
    the trial count would get none, so only the first ``trials`` get one."""
    workers = min(workers, trials)
    base, extra = divmod(trials, workers)
    return [base + (w < extra) for w in range(workers)]


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


def _cuts(
    cumulatives: Sequence[Sequence[float]], picks: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, int, int, bytes], ...], tuple[tuple[int, int], ...]]:
    """The block front end's tables: ``(cuts, outs)``.

    Each uniform is ``X / 2**53`` for a 53-bit integer ``X``, and source
    ``i`` picks outcome ``k`` when ``X`` is below ``cumulatives[i][k]`` for
    the first time.  ``cuts`` holds ``(source, limit, top, table)`` for every
    cumulative entry below 1.0 that bounds an outcome in ``picks[i]``:
    ``X / 2**53 < cum[k]`` exactly when ``X < limit``, ``top`` is
    ``limit``'s top byte, and ``table`` maps the top byte of ``X`` to
    ``"1"`` when it is at most ``top``, so only a top byte equal to ``top``
    needs the next byte, and an equal next byte the whole of ``X``.  A
    block's :func:`_below` list holds no attempt, every attempt, then the
    attempts below each cut; ``outs`` holds ``(hi, lo)`` for each picked
    outcome, source by source, and ``below[hi] ^ below[lo]`` are the
    attempts that pick it.
    """
    cuts = []
    outs = []
    for i, (cum, picked) in enumerate(zip(cumulatives, picks)):
        below = [0]  # per cumulative entry, its index in a block's below list
        for k, c in enumerate(cum[:-1]):
            limit = math.ceil(c * 2.0**53)
            top = limit >> 45
            if top > 255:  # c is 1.0
                below.append(1)
            elif k in picked or k + 1 in picked:
                below.append(len(cuts) + 2)
                cuts.append((i, limit, top, b"1" * (top + 1) + b"0" * (255 - top)))
            else:
                below.append(-1)  # bounds no picked outcome
        below.append(1)
        outs.extend((below[k + 1], below[k]) for k in picked)
    return tuple(cuts), tuple(outs)


@dataclass(frozen=True)
class _SetPlan:
    """What the set-trial kernel needs of a problem and its queries.

    ``cuts`` and ``outs`` are the block front end's (:func:`_cuts`), with an
    outcome slot for each outcome that lacks some element.  A block's values
    are one mask per slot and a 0, and ``program`` appends
    ``vals[a] | vals[b]`` for each of its pairs: the entries of 256-entry OR
    tables over 8 slots at a time that some group reads.  The elements are
    grouped by the slots that lack them, and a group's kill mask, the
    attempts whose intersection loses the group's elements, is the OR of one
    table entry per 8 slots: ``lookups[c][g]`` is group ``g``'s entry for
    slots ``8c`` to ``8c + 7``.  ``outside[q]`` lists the groups that query
    ``q`` leaves out.
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


def _byte_lanes(masks: Sequence[int], n: int) -> list[bytes]:
    """One byte lane per 8 masks: bit ``b`` of byte ``e`` of lane ``c`` is
    bit ``e`` of ``masks[8 * c + b]``, for ``e < n``."""
    lanes = []
    for c0 in range(0, len(masks), 8):
        lane = 0
        for b, bits in enumerate(masks[c0:c0 + 8]):
            if bits:
                lane |= int.from_bytes(_element_bytes(bits, n), "little") << b
        lanes.append(lane.to_bytes(n, "little"))
    return lanes


def _set_plan(problem: EvidenceProblem, queries: Sequence[FocalSet]) -> _SetPlan:
    """Build the :class:`_SetPlan` once per call; worker shares share it."""
    n = problem.frame.size
    full = problem.frame.full_bits
    picks = [
        [k for k, bits in enumerate(s.target_bits) if full & ~bits] for s in problem.sources
    ]
    cuts, outs = _cuts([s.cumulative for s in problem.sources], picks)
    # per slot: the elements its outcome lacks
    lacks = [full & ~s.target_bits[k] for s, ks in zip(problem.sources, picks) for k in ks]
    # one byte lane per 8 slots: byte e holds the slots that lack element e
    lanes = _byte_lanes(lacks, n)
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


#: Generator bytes a block holds, 8 per source per attempt.  A block spreads
#: its fixed steps (one per cumulative cut, outcome slot, group lane and
#: term literal) over more attempts the larger it is, and a share holds one
#: block's buffer while it runs.  Summed per-fixture medians of the
#: benchmark's requests (2 cores, Python 3.11.7) at budgets of 128 KiB,
#: 512 KiB and 1 MiB: logic-budget 99.8, 85.3 and 83.0 ms, set-single 41.8,
#: 37.3 and 38.1 ms; set-batch-exact 16.8 and 14.9 ms at the first two.
#: 1 MiB gains little for twice the buffer.  On large frames (m=40, n=640
#: to 10240) 128 KiB blocks cost 60-494 ns per draw, 512 KiB and 2 MiB
#: blocks 46-214 ns.  Sizing each block from the plan's cuts, slots, lanes
#: and literals under a 1 MiB cap was no faster.
_BLOCK_BYTES = 512 * 1024

#: A block is drawn into its buffer by ``getrandbits`` calls of at most this
#: many bytes, so the integer and the bytes of a whole block are never alive
#: together.  Chunks of 4, 16 and 64 KiB draw a 512 KiB block at 24-27 ns
#: per uniform.
_CHUNK_BYTES = 4 * 1024


def _draw(rng: random.Random, uniforms: int, raw: bytearray) -> None:
    """Write the words of the next ``uniforms`` ``random()`` calls, 8 bytes
    each, to the start of ``raw``, which grows in place when it is shorter."""
    for at in range(0, 8 * uniforms, _CHUNK_BYTES):
        n = min(_CHUNK_BYTES, 8 * uniforms - at)
        raw[at:at + n] = rng.getrandbits(8 * n).to_bytes(n, "little")


def _below(cuts, raw: bytes, size: int, m: int) -> list[int]:
    """A block's below list over the ``size`` attempts whose uniforms start
    ``raw``, ``m`` per attempt: no attempt, every attempt, then per
    cut of :func:`_cuts` the attempts whose uniform for the cut's source
    falls below it (bit ``a`` for attempt ``a``)."""
    last = (size - 1) * m
    below = [0, (1 << size) - 1]
    for i, limit, top, table in cuts:
        # source i's top bytes (byte 3 of a uniform's first word), last
        # attempt first
        col = raw[8 * (last + i) + 3::-8 * m]
        mask = int(col.translate(table), 2)
        p = col.find(top)
        if p >= 0:
            second = limit >> 37 & 255  # the next byte down
            while p >= 0:
                a = size - 1 - p
                d = a * m + i
                b = raw[8 * d + 2]
                if b > second or b == second and _word53(raw, d) >= limit:
                    mask ^= 1 << a
                p = col.find(top, p + 1)
        below.append(mask)
    return below


def _block(plan: _SetPlan, vals: list[int], every: int) -> tuple[int, list[int]]:
    """Score a block from ``vals``, its slot masks (:func:`_run_blocks`),
    and ``every``, the mask of all its attempts: returns the mask of
    accepted attempts and, per query, the mask of attempts whose
    intersection lies inside it.  Appends the OR-table entries to ``vals``."""
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


def _add_hits(successes: list[int], hits: Sequence[int], cut: int) -> None:
    """Add to ``successes[q]`` the attempts below ``cut`` in ``hits[q]``, the
    mask of a block's attempts that score query ``q``."""
    keep = (1 << cut) - 1
    for qi, hit in enumerate(hits):
        successes[qi] += (hit & keep).bit_count()


def _set_score(plan: _SetPlan, successes: list[int]):
    """The set kernel's block scorer (:func:`_run_blocks`): adds each
    query's accepted hits to ``successes``."""

    def score(slots: list[int], every: int, size: int):
        accepted, hits = _block(plan, slots, every)
        return accepted, lambda cut: _add_hits(successes, hits, cut)

    return score


def _run_blocks(plan, score, trials: int, rng: random.Random, cap: int) -> int:
    """Run attempts of the plan's ``source_count`` sources on ``rng`` in
    blocks until ``trials`` are accepted; returns the restarts.

    CPython's ``random()`` builds its 53 bits from two consecutive 32-bit
    words, and ``getrandbits(64 * k)`` returns the words of ``k`` such
    calls, first word least significant, so uniform ``a * m + i`` of a
    block is the one source ``i`` draws in attempt ``a`` under one
    ``random()`` call per source per attempt.  The front end turns a block
    into masks with a bit per attempt (bit ``a`` for attempt ``a``): from
    the plan's ``cuts`` and ``outs`` (:func:`_cuts`), :func:`_below` gives
    the attempts below each cut once, and each outcome slot's mask is
    ``below[hi] ^ below[lo]``.  ``score(slots, every, size)`` gets those
    slot masks, the mask of all ``size`` attempts and ``size``, and returns
    the mask of accepted attempts with a ``tally(cut)`` that adds the
    results of the attempts below ``cut`` to the kernel's counts.

    A block holds at most :data:`_BLOCK_BYTES` generator bytes, or one
    attempt when one attempt needs more (above 65,536 sources), and
    otherwise the attempts the trials left need at the acceptance rate so
    far (1 before any attempt), plus two standard deviations, so a share's
    tail mostly takes one block; while no attempt has been accepted, each
    block is twice the last, so a tiny request that meets conflict early
    draws no more than it needs.  The share's one buffer is sized for the
    first block, and :func:`_draw` grows it in place when a later block is
    larger.  A block is drawn once: the attempts after
    the one that accepts the last trial left, or trips the restart cap, are
    drawn but never counted, and ``rng`` is left wherever the block ends.
    """
    m = plan.source_count
    cuts = plan.cuts
    his = [hi for hi, _ in plan.outs]
    los = [lo for _, lo in plan.outs]
    per_block = max(1, _BLOCK_BYTES // (8 * m))
    done = restarts = run = size = 0  # run: rejections since the last acceptance
    raw = bytearray(8 * m * min(per_block, trials))  # the first block's; _draw grows it
    while done < trials:
        left = trials - done
        p = done / (done + restarts) if restarts else 1.0  # acceptance rate so far
        if p:
            size = min(per_block, math.ceil((left + 2.0 * math.sqrt(left * (1.0 - p))) / p))
        else:  # nothing accepted yet
            size = min(per_block, 2 * size)
        _draw(rng, m * size, raw)
        below = _below(cuts, raw, size, m)
        get = below.__getitem__
        accepted, tally = score(list(map(xor, map(get, his), map(get, los))), below[1], size)
        cut = size
        if accepted.bit_count() >= left:
            # the attempt that accepts the last trial left ends the share
            lo = left
            while lo < cut:
                mid = (lo + cut) // 2
                if (accepted & ((1 << mid) - 1)).bit_count() >= left:
                    cut = mid
                else:
                    lo = mid + 1
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
        if 0 <= trip < cut:
            kept = (accepted & ((1 << trip) - 1)).bit_count()
            raise _cap_error(restarts + trip + 1 - kept, done + kept, cap)
        accepted &= (1 << cut) - 1
        tally(cut)
        count = accepted.bit_count()
        done += count
        restarts += cut - count
        run = cut - accepted.bit_length() if accepted else run + cut
    return restarts


#: Requests whose ``source_count * trials`` reaches this run their worker
#: shares in forked processes when :func:`_run` may fork; a fork costs a
#: few ms whatever the work.  It is the measured break-even: in-process CLI
#: requests at ``--workers 2`` (2 cores, Python 3.11.7, medians of 21
#: alternating pairs) ran forked against in-thread in 13.7 against 13.2 ms
#: on ``s40x40`` at 40 x 2,500, 16.7 against 19.2 ms on ``l10a40`` at
#: 40 x 2,500, 12.9 against 11.6 ms on ``l10a40`` at 40 x 1,250 and 8.9
#: against 5.1 ms on ``b18x32`` at 18 x 2,500.
_FORK_WORK = 100_000


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _processes(shares: int, work: int) -> int:
    """How many processes run ``shares`` worker shares of ``work`` source
    draws per attempt times trials: one, unless there are several shares,
    the work reaches :data:`_FORK_WORK`, the platform can fork, no other
    thread runs (a forked child gets only the forking thread, so a lock
    another thread holds would stay held) and several CPUs are usable."""
    if shares < 2 or work < _FORK_WORK or not hasattr(os, "fork"):
        return 1
    if threading.active_count() != 1:
        return 1
    return min(shares, _usable_cpus())


def _run_group(cfg: TrialEngineConfig, plan, score, shares: list[int], group) -> tuple:
    """Run the shares numbered in ``group``, in order; returns the restarts
    and the first cap trip as ``(share, message, conflict estimate)``, or
    ``None``.  A trip ends the group, as it ends an in-thread run."""
    restarts = 0
    for w in group:
        rng = worker_rng(cfg.seed, w)
        try:
            restarts += _run_blocks(plan, score, shares[w], rng, cfg.restart_cap)
        except ExcessiveConflictError as e:
            return restarts, (w, str(e), e.conflict_estimate)
    return restarts, None


def _fork_group(cfg: TrialEngineConfig, plan, score, shares: list[int], group, counts):
    """Fork a child that runs :func:`_run_group` on ``group`` and writes its
    result and its ``counts`` to a pipe; returns the child's pid and the
    pipe's read end, or ``(None, None)`` when the system refuses a pipe or
    a process."""
    try:
        r, w = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            result = _run_group(cfg, plan, score, shares, group)
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps((*result, counts)))
            status = 0
        finally:
            os._exit(status)  # never back into the caller's frames or buffers
    os.close(w)
    return pid, r


def _run(cfg: TrialEngineConfig, plan, score, *counts: list[int]) -> int:
    """Run each worker's share of the trials on its own substream through
    the block scorer ``score`` (:func:`_run_blocks`), which adds into the
    integer lists ``counts``, all zero at the call; returns the restarts.

    The shares run one after another in the calling thread, unless
    :func:`_processes` gives ``P > 1`` processes.  Then process ``j`` runs
    shares ``j, j + P, ...`` in order: the caller runs process 0's, and
    ``P - 1`` children forked before it draws anything run the rest.  Each
    child starts from the caller's scorer and ``counts`` as they are before
    any draw, and writes its restarts, its first cap trip and its
    ``counts`` to a pipe (``marshal``), and the caller adds them into its
    own.  The counts are those of the in-thread run, because each share
    reads only its own substream and every count is a sum over trials.  A
    cap trip raises the error of the lowest-numbered share that trips, with
    that share's message and conflict estimate, as the in-thread run would.
    The caller runs in-thread the shares of a child it could not fork or
    that ended without a result, and reaps every child before it returns
    or raises; on an exception it kills them first.

    One scorer may serve several shares only because it holds no state at
    a share boundary: a share ends on the attempt that accepts its last
    trial, and a scorer's state spans blocks only within one trial (the
    logic kernel's merge cost of an open trial).
    """
    shares = _split_trials(cfg.trials, cfg.worker_count)
    procs = _processes(len(shares), plan.source_count * cfg.trials)
    if procs == 1:
        return sum(
            _run_blocks(plan, score, share, worker_rng(cfg.seed, w), cfg.restart_cap)
            for w, share in enumerate(shares)
        )
    groups = [range(j, len(shares), procs) for j in range(procs)]
    forked = []  # (group, child pid, read end of its pipe), pid None if not forked
    reaped = set()
    try:
        for group in groups[1:]:
            forked.append((group, *_fork_group(cfg, plan, score, shares, group, counts)))
        restarts, trip = _run_group(cfg, plan, score, shares, groups[0])
        for group, pid, r in forked:
            # every share of this group and the later ones is above a trip
            # below the group's first share, so that trip is the lowest
            if trip and trip[0] < group[0]:
                break
            data = status = None
            if pid is not None:
                with open(r, "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                reaped.add(pid)
            if status == 0 and data:
                done, tripped, theirs = marshal.loads(data)
                for mine, their in zip(counts, theirs):
                    mine[:] = map(add, mine, their)
            else:
                done, tripped = _run_group(cfg, plan, score, shares, group)
            restarts += done
            trip = min(filter(None, (trip, tripped)), default=None)
        if trip:
            raise ExcessiveConflictError(trip[1], trip[2])
    except BaseException:
        for _, pid, _ in forked:
            if pid is not None and pid not in reaped:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, pid, r in forked:
            if pid is not None:
                os.close(r)
                if pid not in reaped:
                    os.waitpid(pid, 0)
    return restarts


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
    queries: Sequence[FocalSet],
    cfg: TrialEngineConfig,
) -> list[Estimate]:
    """Estimate the combined belief of every query in ``queries``, a
    non-empty sequence of sets over the problem's frame, in order.

    All queries share one trial stream: the intersection from each accepted
    trial is scored against every query, so a batch costs barely more than a
    single query.  With ``worker_count > 1`` the trials are split across
    per-worker substreams derived from the seed and merged additively, which
    makes results a pure function of ``(seed, worker_count)``.  A problem
    that ``validate_problem`` has not passed yet is checked first
    (:func:`~beliefmc.evidence.require_valid`).  Raises ``ValueError`` for
    no queries and ``FrameMismatchError`` for a query over another frame.
    """
    if not problem._valid:
        require_valid(problem)
    queries = tuple(queries)
    if not queries:
        raise ValueError("query batch is empty")
    for q in queries:
        if q.frame != problem.frame:
            raise FrameMismatchError("query set from a different frame")
    plan = _set_plan(problem, queries)
    successes = [0] * len(queries)
    restarts = _run(cfg, plan, _set_score(plan, successes), successes)
    return [_build_estimate(s, cfg.trials, restarts) for s in successes]
