"""Trial-sampled estimation of combined belief.

One trial draws an outcome from every source, intersects the certified
subsets, restarts on a contradiction (empty intersection), and scores 1 when
the surviving intersection lies inside the query set.  The success frequency
estimates the combined belief; the rejected-draw frequency estimates the
conflict mass.

One set-trial kernel serves every call: it intersects the drawn bitmasks as
it goes and scores the surviving intersection against every query at once,
so an attempt costs one big-integer AND per source whatever the query count.
The draw contract is that each attempt consumes exactly one uniform per
source, in source order, with no early exit; results are therefore a pure
function of ``(seed, worker_count)``.  The set and logic kernels build
their per-source tables with :func:`_draw_plan` from the cumulative table
that :func:`sample_source` bisects, so all three map a uniform to the same
outcome.

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
from bisect import bisect_right
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .errors import ExcessiveConflictError, FrameMismatchError
from .evidence import EvidenceProblem, FocalSet, SourceModel, require_valid

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


def _draw_plan(cum: tuple[float, ...], items: tuple) -> tuple:
    """How a kernel draws one source: ``(threshold, lo, hi, cum, items)``.

    A uniform ``u`` picks ``items[bisect_right(cum, u)]``.  One- and
    two-outcome sources get ``cum=None`` and pick the same item by a single
    comparison, ``lo if u < threshold else hi``; larger sources bisect
    ``cum``.
    """
    if len(cum) > 2:
        return (0.0, None, None, cum, items)
    return (cum[0], items[0], items[-1], None, items)


def _source_plans(problem: EvidenceProblem) -> list[tuple]:
    """One :func:`_draw_plan` per source, over its target masks."""
    return [_draw_plan(s.cumulative, s.target_bits) for s in problem.sources]


def _cap_error(rejected: int, completed: int, cap: int) -> ExcessiveConflictError:
    kappa = rejected / (rejected + completed) if rejected + completed else 1.0
    return ExcessiveConflictError(
        f"restart cap {cap} exhausted within one trial; "
        f"conflict estimate so far {kappa:.4f}",
        kappa,
    )


def _kernel_set(
    plans,
    full: int,
    not_queries: Sequence[int],
    trials: int,
    rng: random.Random,
    cap: int,
    collect: Counter | None = None,
) -> tuple[list[int], int]:
    """The set-trial kernel: intersect the drawn masks inline and score the
    surviving intersection against every query; returns
    ``(successes per query, restarts)``.  ``collect`` counts the surviving
    intersections when given."""
    rand = rng.random
    successes = [0] * len(not_queries)
    restarts = 0
    for t in range(trials):
        trial_restarts = 0
        while True:
            g = full
            for thr, lo, hi, cum, masks in plans:
                if cum is None:
                    g &= lo if rand() < thr else hi
                else:
                    g &= masks[bisect_right(cum, rand())]
            if g:
                break
            restarts += 1
            trial_restarts += 1
            if trial_restarts > cap:
                raise _cap_error(restarts, t, cap)
        for qi, nq in enumerate(not_queries):
            if not g & nq:
                successes[qi] += 1
        if collect is not None:
            collect[g] += 1
    return successes, restarts


def sample_source(source: SourceModel, rng: random.Random) -> int:
    """Draw one outcome index from a source's distribution."""
    return bisect_right(source.cumulative, rng.random())


def _run_workers(cfg: TrialEngineConfig, job) -> list:
    """Run ``job(share, rng)`` for each worker's share of the trials, one
    thread per share but no more threads than cores, and return the raw
    results in worker order.  Each share has its own substream, so the
    thread count never changes a result."""
    shares = _split_trials(cfg.trials, cfg.worker_count)
    args = [(share, worker_rng(cfg.seed, w)) for w, share in enumerate(shares)]
    if len(args) == 1:
        return [job(*args[0])]
    with ThreadPoolExecutor(max_workers=min(len(args), os.cpu_count() or 1)) as pool:
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
    full = problem.frame.full_bits
    not_qs = [~q.bits for q in batch.queries]
    plans = _source_plans(problem)

    def job(share, rng):
        return _kernel_set(plans, full, not_qs, share, rng, cfg.restart_cap)

    parts = _run_workers(cfg, job)
    restarts = sum(r for _, r in parts)
    totals = [sum(p[0][qi] for p in parts) for qi in range(len(not_qs))]
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
    plans = _source_plans(problem)
    full = problem.frame.full_bits

    def job(share, rng):
        return _kernel_set(plans, full, (), share, rng, cfg.restart_cap)

    parts = _run_workers(cfg, job)
    restarts = sum(r for _, r in parts)
    kappa = restarts / (restarts + cfg.trials)
    return kappa, (restarts + cfg.trials) / cfg.trials


def subset_frequency_scan(
    problem: EvidenceProblem, cfg: TrialEngineConfig, max_report: int = 10
) -> list[tuple[FocalSet, float]]:
    """Most frequent surviving intersections and their trial frequencies.

    The frequencies estimate the combined mass function entry by entry;
    ties break toward the smaller bitmask for a stable report.
    """
    require_valid(problem)
    plans = _source_plans(problem)
    full = problem.frame.full_bits

    def job(share, rng):
        counts: Counter = Counter()
        _kernel_set(plans, full, (), share, rng, cfg.restart_cap, counts)
        return counts

    parts = _run_workers(cfg, job)
    merged: Counter = Counter()
    for c in parts:
        merged += c
    ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:max_report]
    return [
        (FocalSet(problem.frame, bits), count / cfg.trials) for bits, count in ranked
    ]
