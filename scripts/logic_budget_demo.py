#!/usr/bin/env python3
"""Show how the per-trial step budget trades work for bound width.

Generates one random logic problem, translates it to a set problem to get
the exact combined belief of a clause, then sweeps step budgets: tighter
budgets time more trials out, widening the [lower, upper] envelope around
the same underlying trial stream.  The unbudgeted run collapses the
envelope to a point estimate.
"""

from __future__ import annotations

import argparse

from beliefmc import (
    AssignmentSpace,
    TrialEngineConfig,
    exact_belief_enumeration,
    logic_estimate,
    render_problem,
    translate_to_set_problem,
)
from beliefmc.problem_io import parse_clause, parse_problem

PROBLEM = """\
atoms: p q r
source:
  0.55 [p q]
  0.25 [!r]
  0.20 []
source:
  0.6 [!p r]
  0.4 []
source:
  0.5 [q]
  0.5 []
"""


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clause", default="[q !r]", help="query clause")
    ap.add_argument("--trials", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--budgets", default="1,2,4,6,8,12,20",
        help="comma-separated step budgets to sweep",
    )
    args = ap.parse_args()

    problem = parse_problem(PROBLEM)
    clause = parse_clause(args.clause)
    print(render_problem(problem))

    translated = translate_to_set_problem(problem)
    query = translated.frame.from_bits(AssignmentSpace(problem.atoms).clause_bits(clause))
    exact, conflict = exact_belief_enumeration(translated, query)
    print(f"translated exact: Bel({clause}) = {exact:.6f}  (conflict {conflict:.4f})\n")

    cfg = TrialEngineConfig(trials=args.trials, seed=args.seed)
    print(f"{'budget':>7} {'lower':>9} {'upper':>9} {'width':>8} {'timeouts':>9}")
    for text in args.budgets.split(","):
        budget = int(text)
        r = logic_estimate(problem.sources, clause, cfg, step_budget=budget)
        print(
            f"{budget:>7} {r.lower:>9.5f} {r.upper:>9.5f}"
            f" {r.upper - r.lower:>8.5f} {r.timeouts:>9}"
        )
    free = logic_estimate(problem.sources, clause, cfg)
    print(
        f"{'none':>7} {free.lower:>9.5f} {free.upper:>9.5f}"
        f" {free.upper - free.lower:>8.5f} {free.timeouts:>9}"
    )
    print(f"\nunbudgeted point estimate {free.lower:.5f} vs exact {exact:.5f}")


if __name__ == "__main__":
    main()
