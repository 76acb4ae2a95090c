"""Benchmark grid: trial-sampled versus exact combination across sizes.

Each cell generates a random simple-support problem tuned toward a target
conflict level, estimates one fixed query with the trial engine, and runs
the exact mass-space fold under a wall-clock cap.  The summary fits a
power law to the estimator's wall time against problem size ``m * n``; the
exponent should stay at or below 1 (an attempt costs one draw and one
big-integer AND per source, and the frame size only widens the AND), while
the exact fold blows past any cap once the focal tables stop fitting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .errors import ExcessiveConflictError, ResourceLimitError, TotalConflictError
from .evidence import bel_from_mass
from .exact import DEFAULT_MAX_ENTRIES, combine_all
from .mc import QueryBatch, TrialEngineConfig, derive_stream_seed, estimate
from .problem_io import GeneratedProblem, generate_problem

#: Weight-scale search interval for the conflict tuner's second stage.
_SCALE_RANGE = (0.05, 1.0)


@dataclass(frozen=True)
class BenchCell:
    """One grid cell; exact fields are ``None`` when the cap tripped."""

    source_count: int
    element_count: int
    kappa_hat: float
    trials: int
    draws_per_trial: float
    mc_wall_ms: float
    mc_value: float
    exact_wall_ms: float | None
    exact_value: float | None
    exact_capped: bool
    abs_error: float | None
    note: str = ""


@dataclass(frozen=True)
class BenchReport:
    cells: tuple[BenchCell, ...]
    time_exponent: float | None
    trials: int
    seed: int
    target_conflict: float


CSV_COLUMNS = (
    "m",
    "n",
    "kappa_hat",
    "trials",
    "draws_per_trial",
    "mc_wall_ms",
    "exact_wall_ms",
    "mc_value",
    "exact_value",
    "abs_error",
    "note",
)


def cell_row(cell: BenchCell) -> tuple[str, ...]:
    """Render one cell as CSV fields; a capped exact column says so."""
    exact_wall = (
        "capped" if cell.exact_capped
        else "" if cell.exact_wall_ms is None
        else f"{cell.exact_wall_ms:.3f}"
    )
    return (
        str(cell.source_count),
        str(cell.element_count),
        f"{cell.kappa_hat:.4f}",
        str(cell.trials),
        f"{cell.draws_per_trial:.3f}",
        f"{cell.mc_wall_ms:.3f}",
        exact_wall,
        f"{cell.mc_value:.6f}",
        "" if cell.exact_value is None else f"{cell.exact_value:.6f}",
        "" if cell.abs_error is None else f"{cell.abs_error:.6f}",
        cell.note,
    )


def fit_time_exponent(sizes: list[float], wall_ms: list[float]) -> float | None:
    """Least-squares slope of log(time) against log(size)."""
    pairs = [
        (math.log(s), math.log(t))
        for s, t in zip(sizes, wall_ms)
        if s > 0 and t > 0
    ]
    if len(pairs) < 2 or len({x for x, _ in pairs}) < 2:
        return None
    mx = sum(x for x, _ in pairs) / len(pairs)
    my = sum(y for _, y in pairs) / len(pairs)
    sxx = sum((x - mx) ** 2 for x, _ in pairs)
    sxy = sum((x - mx) * (y - my) for x, y in pairs)
    return sxy / sxx


def tune_cell(
    source_count: int,
    element_count: int,
    *,
    target_conflict: float = 0.5,
    weight_range: tuple[float, float] = (0.4, 0.9),
    seed: int = 0,
    probe_trials: int = 4000,
    density_probes: int = 14,
    scale_probes: int = 12,
) -> GeneratedProblem:
    """Tune one cell's problem toward the target conflict.

    Density alone moves the conflict in coarse steps on small grids (a
    single shared focus element can zero it), so the tuner first bisects the
    focus density down to the sparsest level still at or above the target,
    then bisects a weight-scale factor, which moves the conflict smoothly,
    and keeps the closest probe overall.
    """
    lo, hi = 0.005, 0.995
    best: GeneratedProblem | None = None
    dense_side: float | None = None
    for _ in range(density_probes):
        mid = (lo + hi) / 2.0
        g = generate_problem(
            source_count,
            element_count,
            weight_range=weight_range,
            focus_density=mid,
            seed=seed,
            probe_trials=probe_trials,
        )
        if best is None or abs(g.conflict_estimate - target_conflict) < abs(
            best.conflict_estimate - target_conflict
        ):
            best = g
        if g.conflict_estimate >= target_conflict:
            lo = mid
            dense_side = mid
        else:
            hi = mid
    if dense_side is None:
        assert best is not None
        return best
    w_lo, w_hi = weight_range
    s_lo, s_hi = _SCALE_RANGE
    for _ in range(scale_probes):
        scale = (s_lo + s_hi) / 2.0
        g = generate_problem(
            source_count,
            element_count,
            weight_range=(w_lo * scale, w_hi * scale),
            focus_density=dense_side,
            seed=seed,
            probe_trials=probe_trials,
        )
        if abs(g.conflict_estimate - target_conflict) < abs(
            best.conflict_estimate - target_conflict
        ):
            best = g
        if g.conflict_estimate > target_conflict:
            s_hi = scale
        else:
            s_lo = scale
    return best


def run_bench(
    source_counts: list[int],
    element_counts: list[int],
    *,
    trials: int = 1000,
    seed: int = 0,
    target_conflict: float = 0.5,
    exact_cap_s: float = 10.0,
    repetitions: int = 3,
    worker_count: int = 1,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> BenchReport:
    """Run the full grid and fit the estimator's time exponent.

    Wall times take the fastest of ``repetitions`` runs after one untimed
    warmup — system load only ever adds time, so the minimum is the
    steadiest cost reading (a slow exact fold is only timed once; its
    runtime dwarfs timer noise).  A cell whose estimation blows the restart
    cap is kept with a note and skipped by the fit.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    cells: list[BenchCell] = []
    for m in source_counts:
        for n in element_counts:
            cell_seed = derive_stream_seed(seed, f"bench-cell-{m}x{n}")
            tuned = tune_cell(m, n, target_conflict=target_conflict, seed=cell_seed)
            problem = tuned.problem
            # Fixed query: everything but the last frame element.
            frame = problem.frame
            query = frame.from_bits(frame.full_bits ^ (1 << (frame.size - 1)))
            cfg = TrialEngineConfig(
                trials=trials,
                seed=derive_stream_seed(seed, f"bench-mc-{m}x{n}"),
                worker_count=worker_count,
            )
            batch = QueryBatch((query,))
            try:
                est = estimate(problem, batch, cfg)[0]  # warmup, untimed
                mc_times = []
                for _ in range(repetitions):
                    t0 = time.perf_counter()
                    est = estimate(problem, batch, cfg)[0]
                    mc_times.append((time.perf_counter() - t0) * 1e3)
            except ExcessiveConflictError as e:
                cells.append(
                    BenchCell(
                        m, n, e.conflict_estimate, trials, math.nan, math.nan,
                        math.nan, None, None, False, None,
                        note="restart cap exhausted",
                    )
                )
                continue
            mc_wall = min(mc_times)

            exact_wall: float | None = None
            exact_value: float | None = None
            capped = False
            note = ""
            try:
                t0 = time.perf_counter()
                combo = combine_all(
                    problem, max_entries=max_entries, deadline_s=exact_cap_s
                )
                value = bel_from_mass(combo.combined, query)
                first = (time.perf_counter() - t0) * 1e3
                exact_times = [first]
                if first < 1000.0:
                    for _ in range(repetitions - 1):
                        t0 = time.perf_counter()
                        combo = combine_all(
                            problem, max_entries=max_entries, deadline_s=exact_cap_s
                        )
                        value = bel_from_mass(combo.combined, query)
                        exact_times.append((time.perf_counter() - t0) * 1e3)
                exact_wall = min(exact_times)
                exact_value = value
            except ResourceLimitError:
                capped = True
            except TotalConflictError:
                note = "total conflict"

            cells.append(
                BenchCell(
                    source_count=m,
                    element_count=n,
                    kappa_hat=est.conflict_estimate,
                    trials=trials,
                    draws_per_trial=(est.restarts + trials) / trials,
                    mc_wall_ms=mc_wall,
                    mc_value=est.value,
                    exact_wall_ms=exact_wall,
                    exact_value=exact_value,
                    exact_capped=capped,
                    abs_error=(
                        None if exact_value is None else abs(est.value - exact_value)
                    ),
                    note=note,
                )
            )
    fitted = fit_time_exponent(
        [float(c.source_count * c.element_count) for c in cells if c.mc_wall_ms > 0],
        [c.mc_wall_ms for c in cells if c.mc_wall_ms > 0],
    )
    return BenchReport(
        cells=tuple(cells),
        time_exponent=fitted,
        trials=trials,
        seed=seed,
        target_conflict=target_conflict,
    )
