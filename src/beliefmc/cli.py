"""Command-line front end.

Subcommands::

    estimate   trial-sampled belief for one or more queries
    exact      exact belief via the full mass-space fold
    conflict   conflict mass, estimated or exact
    bench      size grid comparing estimator and exact fold
    generate   random simple-support problem, optionally conflict-tuned
    validate   parse and structurally check a problem file

Exit codes: 0 success; 2 input, parse or validation trouble; 3 conflict
made the answer undefined or the restart cap blew; 4 a resource cap tripped.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time

from .errors import (
    ExcessiveConflictError,
    FrameMismatchError,
    InvalidProblemError,
    ParseError,
    ResourceLimitError,
    TotalConflictError,
)
from .evidence import EvidenceProblem, FocalSet, bel_from_mass
from .exact import combine_all, conflict_exact
from .logic import (
    AssignmentSpace,
    ClauseQuery,
    LogicProblem,
    logic_estimate,
    translate_to_set_problem,
)
from .mc import _FORK_WORK, DEFAULT_RESTART_CAP, TrialEngineConfig, estimate, plan_trials
from .problem_io import (
    generate_problem,
    parse_clause,
    parse_problem,
    parse_query,
    render_problem,
    tune_focus_density,
)


def _read_problem(path: str, *, want_logic: bool):
    with open(path, encoding="utf-8") as fh:
        problem = parse_problem(fh.read())
    if want_logic and isinstance(problem, EvidenceProblem):
        raise InvalidProblemError(["--logic given but the file is a set problem"])
    return problem


def _parse_queries(problem: EvidenceProblem, texts: list[str] | None) -> list[FocalSet]:
    """The set queries ``texts`` over the problem's frame; with none, the
    one query ``*``, the whole frame."""
    return [parse_query(problem.frame, q) for q in texts or ["*"]]


def _parse_clauses(problem: LogicProblem, texts: list[str] | None) -> list[ClauseQuery]:
    """The clause queries ``texts``, each over the problem's declared atoms;
    a logic problem has no default query, so an empty list is refused."""
    if not texts:
        raise ValueError("a logic problem needs at least one --query clause")
    clauses = [parse_clause(q) for q in texts]
    for c in clauses:
        for l in c.literals:
            if l.atom not in problem.atoms:
                raise ParseError(1, 1, f"unknown atom {l.atom!r}")
    return clauses


def _engine_config(args) -> TrialEngineConfig:
    trials = args.trials
    if getattr(args, "accuracy", None) is not None:
        trials = plan_trials(args.accuracy)
    return TrialEngineConfig(
        trials=trials,
        seed=args.seed,
        restart_cap=args.restart_cap,
        worker_count=args.workers,
    )


def _write_csv(rows, header) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def cmd_estimate(args) -> int:
    problem = _read_problem(args.problem, want_logic=args.logic)
    cfg = _engine_config(args)
    if isinstance(problem, LogicProblem):
        queries = _parse_clauses(problem, args.query)
        results = logic_estimate(
            problem.sources, queries, cfg, step_budget=args.budget
        ).estimates
        if args.csv:
            _write_csv(
                (
                    (
                        str(q), f"{r.lower:.6f}", f"{r.upper:.6f}",
                        f"{r.sd_bound:.6f}", str(r.trials), str(r.successes),
                        str(r.timeouts), str(r.restarts),
                    )
                    for q, r in zip(queries, results)
                ),
                ("query", "lower", "upper", "sd_bound", "trials",
                 "successes", "timeouts", "restarts"),
            )
        else:
            print(f"trials: {cfg.trials} (seed {cfg.seed}, workers {cfg.worker_count})")
            for q, r in zip(queries, results):
                print(
                    f"Bel({q}) in [{r.lower:.6f}, {r.upper:.6f}]"
                    f"  sd<={r.sd_bound:.6f}  timeouts={r.timeouts}"
                )
        return 0

    if args.budget is not None:
        raise ValueError("--budget applies only to logic problems")
    queries = _parse_queries(problem, args.query)
    results = estimate(problem, queries, cfg)
    if args.csv:
        _write_csv(
            (
                (
                    str(q), f"{r.value:.6f}", f"{r.sd_bound:.6f}",
                    f"{r.plugin_sd:.6f}", f"{r.interval[0]:.6f}",
                    f"{r.interval[1]:.6f}", str(r.trials), str(r.successes),
                    str(r.restarts), f"{r.conflict_estimate:.6f}",
                )
                for q, r in zip(queries, results)
            ),
            ("query", "value", "sd_bound", "plugin_sd", "ci_lo", "ci_hi",
             "trials", "successes", "restarts", "kappa_hat"),
        )
    else:
        r0 = results[0]
        print(f"trials: {cfg.trials} (seed {cfg.seed}, workers {cfg.worker_count})")
        print(
            f"conflict: kappa_hat={r0.conflict_estimate:.4f}"
            f"  draws/trial={(r0.restarts + r0.trials) / r0.trials:.3f}"
        )
        for q, r in zip(queries, results):
            print(
                f"Bel({q}) = {r.value:.6f}  sd<={r.sd_bound:.6f}"
                f"  3sd=[{r.interval[0]:.6f}, {r.interval[1]:.6f}]"
            )
    return 0


def cmd_exact(args) -> int:
    problem = _read_problem(args.problem, want_logic=args.logic)
    if isinstance(problem, LogicProblem):
        clauses = _parse_clauses(problem, args.query)
        space = AssignmentSpace(problem.atoms)
        problem = translate_to_set_problem(problem)
        queries = [problem.frame.from_bits(space.clause_bits(c)) for c in clauses]
        labels = [str(c) for c in clauses]
    else:
        queries = _parse_queries(problem, args.query)
        labels = [str(q) for q in queries]
    t0 = time.perf_counter()
    combo = combine_all(problem, deadline_s=args.time_cap)
    wall_ms = (time.perf_counter() - t0) * 1e3
    beliefs = bel_from_mass(combo.combined, queries)
    if args.csv:
        _write_csv(
            (
                (label, f"{b:.7f}", f"{combo.conflict:.7f}")
                for label, b in zip(labels, beliefs)
            ),
            ("query", "belief", "conflict"),
        )
    else:
        print(f"conflict: {combo.conflict:.7f}  ({len(combo.combined)} focal sets, {wall_ms:.1f} ms)")
        for label, b in zip(labels, beliefs):
            print(f"Bel({label}) = {b:.7f}")
    return 0


def cmd_conflict(args) -> int:
    problem = _read_problem(args.problem, want_logic=args.logic)
    if args.exact:
        if isinstance(problem, LogicProblem):
            problem = translate_to_set_problem(problem)
        kappa = conflict_exact(problem, deadline_s=args.time_cap)
        if args.csv:
            _write_csv([("exact", f"{kappa:.7f}", "", "", "")],
                       ("mode", "kappa", "draws_per_trial", "trials", "restarts"))
        else:
            print(f"kappa = {kappa:.7f} (exact)")
        return 0
    if args.time_cap is not None:
        raise ValueError("--time-cap applies only with --exact")
    cfg = _engine_config(args)
    if isinstance(problem, LogicProblem):
        restarts = logic_estimate(problem.sources, (), cfg).restarts
    else:
        restarts = estimate(problem, (problem.frame.universe(),), cfg)[0].restarts
    kappa = restarts / (restarts + cfg.trials)
    loops = (restarts + cfg.trials) / cfg.trials
    if args.csv:
        _write_csv(
            [("mc", f"{kappa:.6f}", f"{loops:.4f}", str(cfg.trials), str(restarts))],
            ("mode", "kappa", "draws_per_trial", "trials", "restarts"),
        )
    else:
        print(
            f"kappa_hat = {kappa:.4f}  draws/trial = {loops:.3f}"
            f"  (trials={cfg.trials}, restarts={restarts})"
        )
    return 0


def cmd_validate(args) -> int:
    try:
        _read_problem(args.problem, want_logic=False)
    except InvalidProblemError as e:
        print("\n".join(e.violations))
        return 2
    print("ok")
    return 0


def cmd_generate(args) -> int:
    if args.target_conflict is not None:
        g = tune_focus_density(
            args.sources,
            args.elements,
            target_conflict=args.target_conflict,
            weight_range=(args.weight_lo, args.weight_hi),
            seed=args.seed,
            probe_trials=args.probe_trials,
        )
    else:
        g = generate_problem(
            args.sources,
            args.elements,
            weight_range=(args.weight_lo, args.weight_hi),
            focus_density=args.density,
            seed=args.seed,
            probe_trials=args.probe_trials,
        )
    text = (
        f"# generated: m={args.sources} n={args.elements}"
        f" density={g.focus_density:.4f} weights=({g.weight_range[0]:.3f},"
        f" {g.weight_range[1]:.3f}) seed={g.seed} kappa_hat={g.conflict_estimate:.4f}\n"
        + render_problem(g.problem)
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} (kappa_hat={g.conflict_estimate:.4f})")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    from .bench import CSV_COLUMNS, cell_row, run_bench

    source_counts = _parse_int_list(args.source_counts or args.sizes)
    element_counts = _parse_int_list(args.element_counts or args.sizes)
    report = run_bench(
        source_counts,
        element_counts,
        trials=args.trials,
        seed=args.seed,
        target_conflict=args.target_conflict,
        exact_cap_s=args.exact_cap,
        repetitions=args.reps,
        worker_count=args.workers,
    )
    summary = (
        "no exponent fit (too few cells)"
        if report.time_exponent is None
        else f"estimator wall time ~ (m*n)^{report.time_exponent:.2f}"
    )
    if args.csv:
        _write_csv((cell_row(c) for c in report.cells), CSV_COLUMNS)
        print(summary, file=sys.stderr)
    else:
        head = f"{'m':>4} {'n':>4} {'kappa':>6} {'draws':>6} {'mc_ms':>9} {'exact_ms':>10} {'mc_value':>9} {'exact':>9} {'abs_err':>8}"
        print(head)
        for c in report.cells:
            exact_ms = "capped" if c.exact_capped else (
                "-" if c.exact_wall_ms is None else f"{c.exact_wall_ms:.1f}"
            )
            exact_v = "-" if c.exact_value is None else f"{c.exact_value:.4f}"
            err = "-" if c.abs_error is None else f"{c.abs_error:.4f}"
            print(
                f"{c.source_count:>4} {c.element_count:>4} {c.kappa_hat:>6.3f}"
                f" {c.draws_per_trial:>6.2f} {c.mc_wall_ms:>9.1f} {exact_ms:>10}"
                f" {c.mc_value:>9.4f} {exact_v:>9} {err:>8}"
                + (f"  [{c.note}]" if c.note else "")
            )
        print(summary)
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad size list {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ValueError(f"bad size list {text!r}")
    return values


def _add_engine_flags(p: argparse.ArgumentParser, *, accuracy: bool = True) -> None:
    p.add_argument("--trials", type=int, default=10_000, help="trial count (default 10000)")
    if accuracy:
        p.add_argument(
            "--accuracy",
            type=float,
            default=None,
            help="target three-standard-deviation accuracy; overrides --trials",
        )
    p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    p.add_argument(
        "--workers", type=int, default=1,
        help="seeded substreams the trials split into; on POSIX, requests of at least "
        f"{_FORK_WORK} sources x trials run them in parallel forked processes (default 1)",
    )
    p.add_argument(
        "--restart-cap", type=int, default=DEFAULT_RESTART_CAP,
        help=f"max restarts per trial before giving up (default {DEFAULT_RESTART_CAP})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``beliefmc`` parser, built once per process: ``parse_args`` does
    not change it, and the ``append`` options copy their lists."""
    parser = argparse.ArgumentParser(
        prog="beliefmc",
        description="Combined-belief computation: exact on small problems, trial-sampled on large ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="trial-sampled belief for one or more queries")
    p.add_argument("--problem", required=True, help="problem file")
    p.add_argument(
        "--query", action="append",
        help="query set like '{x1 x2}' or '*' (clause like '[p !q]' for logic problems); repeatable",
    )
    _add_engine_flags(p)
    p.add_argument("--logic", action="store_true", help="require a logic problem file")
    p.add_argument("--budget", type=int, default=None, help="per-trial step budget (logic only)")
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("exact", help="exact belief via the full mass-space fold")
    p.add_argument("--problem", required=True)
    p.add_argument("--query", action="append", help="repeatable; default '*'")
    p.add_argument("--logic", action="store_true", help="require a logic problem file")
    p.add_argument("--time-cap", type=float, default=None, help="wall-clock cap in seconds")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("conflict", help="conflict mass, estimated or exact")
    p.add_argument("--problem", required=True)
    p.add_argument("--exact", action="store_true", help="enumerate instead of sampling")
    p.add_argument(
        "--time-cap", type=float, default=None, help="wall-clock cap in seconds (with --exact)"
    )
    _add_engine_flags(p, accuracy=False)
    p.add_argument("--logic", action="store_true", help="require a logic problem file")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_conflict)

    p = sub.add_parser("bench", help="size grid comparing estimator and exact fold")
    p.add_argument("--sizes", default="10,15,20", help="grid sizes for both axes (default 10,15,20)")
    p.add_argument("--source-counts", default=None, help="override source-count axis")
    p.add_argument("--element-counts", default=None, help="override element-count axis")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers", type=int, default=1,
        help="seeded substreams per estimate; large estimates run them in parallel forked "
        "processes (default 1)",
    )
    p.add_argument("--target-conflict", type=float, default=0.5)
    p.add_argument("--exact-cap", type=float, default=10.0, help="exact fold wall cap, seconds")
    p.add_argument("--reps", type=int, default=3, help="timing repetitions (fastest kept)")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("generate", help="random simple-support problem")
    p.add_argument("-m", "--sources", type=int, required=True)
    p.add_argument("-n", "--elements", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5, help="element inclusion probability")
    p.add_argument(
        "--target-conflict", type=float, default=None,
        help="tune toward this conflict level instead: bisect the density,"
        " then scale the weight range",
    )
    p.add_argument("--weight-lo", type=float, default=0.4)
    p.add_argument("--weight-hi", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe-trials", type=int, default=2000)
    p.add_argument("-o", "--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="parse and structurally check a problem file")
    p.add_argument("--problem", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidProblemError, FrameMismatchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ExcessiveConflictError, TotalConflictError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
