"""End-to-end checks of the library's headline guarantees.

One test per guarantee, at the stated tolerances; each prints a one-line
summary with the measured numbers, and ``pytest -v`` shows the pass/fail
verdict per check.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import pytest

from beliefmc import (
    AssignmentSpace,
    EvidenceProblem,
    ExcessiveConflictError,
    FocalSet,
    Frame,
    MassFunction,
    ResourceLimitError,
    TrialEngineConfig,
    combine_all,
    derive_stream_seed,
    estimate,
    exact_belief_enumeration,
    logic_estimate,
    parse_clause,
    parse_problem,
    plan_trials,
    sd_bound,
    translate_to_set_problem,
    tune_focus_density,
)
from beliefmc.bench import run_bench
from conftest import (
    combine_masses,
    conflict_and_draws,
    random_clause,
    random_logic_problem,
    random_problem,
)

LOGIC_PAIR = """\
atoms: p q
source:
  0.7 [p]
  0.3 []
source:
  0.5 [!p q]
  0.5 []
"""


def _random_query(problem: EvidenceProblem, rng: random.Random) -> FocalSet:
    full = problem.frame.full_bits
    bits = 0
    while bits in (0, full):
        bits = rng.getrandbits(problem.frame.size)
    return FocalSet(problem.frame, bits)


def _random_mass(frame: Frame, rng: random.Random) -> MassFunction:
    entries: dict[int, float] = {}
    for _ in range(rng.randint(1, 4)):
        bits = 0
        while not bits:
            bits = rng.getrandbits(frame.size)
        entries[bits] = entries.get(bits, 0.0) + rng.uniform(0.05, 1.0)
    # always keep some mass on the full frame so no pairing is totally
    # conflicting and every combination stays defined
    full = frame.full_bits
    entries[full] = entries.get(full, 0.0) + rng.uniform(0.2, 1.0)
    total = math.fsum(entries.values())
    return MassFunction(frame, {b: w / total for b, w in entries.items()})


def _mass_close(a: MassFunction, b: MassFunction, tol: float = 1e-9) -> bool:
    keys = set(a.by_bits) | set(b.by_bits)
    return all(
        abs(a.by_bits.get(k, 0.0) - b.by_bits.get(k, 0.0)) <= tol for k in keys
    )


def test_estimates_track_enumeration_on_random_problems():
    """200 random problems, N=10,000: MC within 0.015 of enumeration in >=99%."""
    count, trials = 200, 10_000
    tol = 3 * sd_bound(trials)
    assert tol == pytest.approx(0.015)
    t0 = time.perf_counter()
    hits = 0
    worst = 0.0
    for seed in range(count):
        problem = random_problem(seed)
        rng = random.Random(derive_stream_seed(7001, "accept-query", seed))
        query = _random_query(problem, rng)
        exact, _ = exact_belief_enumeration(problem, query)
        try:
            r = estimate(problem, [query], TrialEngineConfig(trials=trials, seed=seed))[0]
        except ExcessiveConflictError:
            continue
        err = abs(r.value - exact)
        worst = max(worst, err)
        hits += err <= tol
    elapsed = time.perf_counter() - t0
    assert hits >= math.ceil(0.99 * count), f"only {hits}/{count} within {tol}"
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        f"PASS oracle agreement: {hits}/{count} within {tol:.3f} "
        f"(worst |err|={worst:.4f}, {elapsed:.1f}s)"
    )


def test_planned_trial_count_delivers_target_accuracy(two_ssf_problem):
    """plan_trials(0.05)=900 and 500 runs at N=900 land within 0.05 in >=99%."""
    assert plan_trials(0.05) == 900
    assert plan_trials(0.1) == 225
    query = two_ssf_problem.frame.singleton("x1")
    exact, _ = exact_belief_enumeration(two_ssf_problem, query)
    assert exact == pytest.approx(3 / 7, abs=1e-12)
    runs, n = 500, plan_trials(0.05)
    t0 = time.perf_counter()
    hits = sum(
        abs(
            estimate(two_ssf_problem, [query], TrialEngineConfig(trials=n, seed=s))[0].value
            - exact
        )
        <= 0.05
        for s in range(runs)
    )
    elapsed = time.perf_counter() - t0
    assert hits >= math.ceil(0.99 * runs), f"only {hits}/{runs} within 0.05"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS planned accuracy: {hits}/{runs} runs at N={n} within 0.05 ({elapsed:.1f}s)")


def test_variance_across_seeds_respects_bound(two_ssf_problem):
    """Sample variance over 100 seeds at N=1,000 <= 1.2/(4N); sd_bound=0.0158."""
    bound = sd_bound(1000)
    assert bound < 0.016
    assert bound == pytest.approx(0.0158, abs=5e-5)
    query = two_ssf_problem.frame.singleton("x1")
    values = [
        estimate(two_ssf_problem, [query], TrialEngineConfig(trials=1000, seed=s))[0].value
        for s in range(100)
    ]
    var = statistics.variance(values)
    assert var <= 1.2 / 4000, f"sample variance {var:.2e} over 3e-4"
    print(f"PASS variance bound: sample var {var:.2e} <= 3.0e-4, sd_bound {bound:.4f}")


def test_draws_per_trial_match_tuned_conflict():
    """At conflict tuned to ~0.5, draws per trial land in [1.9, 2.1] at N=1e5."""
    g = tune_focus_density(12, 24, target_conflict=0.5, seed=5, probe_trials=4000)
    kappa, draws = conflict_and_draws(g.problem, TrialEngineConfig(trials=100_000, seed=17))
    assert 1.9 <= draws <= 2.1, f"draws/trial {draws:.3f} (kappa_hat {kappa:.4f})"
    print(f"PASS restart law: kappa_hat={kappa:.4f} -> draws/trial={draws:.3f}")


def test_combination_algebra(two_ssf_problem):
    """Combination is commutative/associative with a vacuous identity (1e-9)."""
    from beliefmc import bel_from_mass

    pair = combine_all(two_ssf_problem)
    assert pair.conflict == pytest.approx(0.3, abs=1e-9)
    bel = bel_from_mass(pair.combined, two_ssf_problem.frame.singleton("x1"))
    assert bel == pytest.approx(3 / 7, abs=1e-9)

    checked = 0
    for seed in range(100):
        rng = random.Random(derive_stream_seed(7002, "accept-algebra", seed))
        frame = Frame(tuple(f"e{j}" for j in range(rng.randint(2, 8))))
        a, b, c = (_random_mass(frame, rng) for _ in range(3))
        vac = MassFunction(frame, {frame.full_bits: 1.0})

        ab, ba = combine_masses(a, b), combine_masses(b, a)
        assert _mass_close(ab.combined, ba.combined)
        assert abs(ab.conflict - ba.conflict) <= 1e-9

        left = combine_masses(ab.combined, c).combined
        right = combine_masses(a, combine_masses(b, c).combined).combined
        assert _mass_close(left, right)
        assert _mass_close(combine_masses(a, b, c).combined, left)

        ident = combine_masses(a, vac)
        assert ident.conflict == 0.0
        assert _mass_close(ident.combined, a)
        checked += 1
    print(f"PASS combination algebra: worked pair + {checked} random triples at 1e-9")


def test_logic_bounds_match_translated_exact():
    """Unbudgeted logic bounds track the translated exact value; budgets only widen."""
    trials = 20_000
    count = 50
    for seed in range(count):
        lp = random_logic_problem(seed)
        clause = random_clause(seed, lp.atoms)
        cfg = TrialEngineConfig(trials=trials, seed=seed)
        free = logic_estimate(lp.sources, clause, cfg)
        assert free.lower == free.upper
        assert free.timeouts == 0

        space = AssignmentSpace(lp.atoms)
        sp = translate_to_set_problem(lp)
        exact, _ = exact_belief_enumeration(sp, space.clause_focal(clause))
        assert abs(free.lower - exact) <= 3 * free.sd_bound, (
            f"problem {seed}: |{free.lower:.4f} - {exact:.4f}|"
            f" > {3 * free.sd_bound:.4f}"
        )

        budget = random.Random(derive_stream_seed(7005, "accept-budget", seed)).randint(0, 12)
        tight = logic_estimate(lp.sources, clause, cfg, step_budget=budget)
        assert tight.lower <= free.lower + 3 * free.sd_bound
        assert tight.lower <= free.lower  # exact, by the shared trial stream
        assert tight.upper >= free.upper

    worked = parse_problem(LOGIC_PAIR)
    r = logic_estimate(
        worked.sources, parse_clause("[p]"), TrialEngineConfig(trials=100_000, seed=1)
    )
    assert r.lower == pytest.approx(0.538462, abs=0.01)
    print(
        f"PASS logic bridge: {count} problems within 3sd of translation; "
        f"worked clause {r.lower:.4f} ~ 0.538462"
    )


def _dense_multisource(
    m: int, n: int, outcomes: int, density: float, seed: int
) -> EvidenceProblem:
    """Sources with several dense random foci each: the shape whose joint
    outcome space (outcomes^m) and distinct-intersection count defeat the
    exact paths while the trial engine shrugs."""
    from beliefmc import SourceModel

    frame = Frame(tuple(f"x{j + 1}" for j in range(n)))
    sources = []
    for i in range(m):
        rng = random.Random(derive_stream_seed(seed, "dense-source", i))
        weights = [rng.uniform(0.2, 1.0) for _ in range(outcomes)]
        total = math.fsum(weights)
        table = []
        for w in weights:
            bits = 0
            for j in range(n):
                if rng.random() < density:
                    bits |= 1 << j
            table.append((w / total, FocalSet(frame, bits or frame.full_bits)))
        sources.append(SourceModel(frame, tuple(table)))
    return EvidenceProblem(frame, tuple(sources))


def test_estimator_scales_linearly_while_exact_blows_caps():
    """MC time grows at most linearly in m*n over {10,20,40}^2; exact paths
    die at 25x25."""
    sizes = [10, 20, 40]
    report = run_bench(
        sizes, sizes, trials=1000, seed=0, target_conflict=0.5,
        exact_cap_s=10.0, repetitions=5,
    )
    fitted = report.time_exponent
    assert fitted is not None
    assert fitted <= 1.3, f"fitted exponent {fitted:.3f} above 1.3"

    dense = _dense_multisource(25, 25, outcomes=4, density=0.95, seed=3)
    query = dense.frame.from_bits(dense.frame.full_bits ^ 1)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        combine_all(dense, deadline_s=60.0)
    fold_s = time.perf_counter() - t0
    assert fold_s < 60.5
    with pytest.raises(ResourceLimitError):
        # 4^25 joint outcomes; the pruned fold's table outgrows the entry cap
        exact_belief_enumeration(dense, query)

    t0 = time.perf_counter()
    r = estimate(dense, [query], TrialEngineConfig(trials=1000, seed=0))[0]
    mc_s = time.perf_counter() - t0
    assert mc_s < 10.0
    print(
        f"PASS scaling shape: MC time ~ (m*n)^{fitted:.2f}; dense 25x25 exact "
        f"fold capped after {fold_s:.1f}s, enumeration capped, MC took {mc_s * 1e3:.0f}ms"
    )


def test_success_counts_bit_identical_across_runs():
    """Fixed (seed, workers) gives identical success counts, workers in {1, 4}."""
    problem = random_problem(3)
    rng = random.Random(derive_stream_seed(7006, "accept-determinism", 0))
    query = _random_query(problem, rng)
    lp = random_logic_problem(4)
    clause = random_clause(11, lp.atoms)
    for workers in (1, 4):
        cfg = TrialEngineConfig(trials=5000, seed=42, worker_count=workers)
        set_runs = {
            estimate(problem, [query], cfg)[0].successes for _ in range(3)
        }
        logic_runs = {
            (r.successes, r.timeouts, r.restarts)
            for r in (logic_estimate(lp.sources, clause, cfg) for _ in range(3))
        }
        assert len(set_runs) == 1, f"workers={workers}: set successes varied"
        assert len(logic_runs) == 1, f"workers={workers}: logic counts varied"
    print("PASS determinism: 3 repeats bit-identical for workers in {1, 4}")
