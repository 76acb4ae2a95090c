"""Fixture problems for the request-level benchmark.

The pinned fixtures live in ``perfbench/data``: one ``.bel`` file per
problem plus ``fixtures.json``, which records each file's SHA-256, the
queries the benchmark sends, the reference answers it checks against and
the per-fixture request settings.  Loading verifies every hash, so a run
never pays for conflict tuning or reference computation.

Regenerate them from a seed with::

    python3 perfbench/fixtures.py --seed 0 --out perfbench/data

Set-single problems come from the public ``tune_focus_density``.  The
multi-outcome and logic problems come from generators of this file, which
draw every source from its own substream of the seed.

Query choice.  An estimate is checked against the band
``3 * sd_bound(N)``, which is ``1.5 / sqrt(N)``.  A correct estimator's
standard deviation is ``sqrt(p (1 - p) / N)``, so the band spans
``1.5 / sqrt(p (1 - p))`` of them.  Queries are picked with belief ``p`` in
``[0.03, 0.08]`` or ``[0.92, 0.97]``: the band is then at least 5.5 standard
deviations wide, a correct estimator leaves it with probability below
``1e-7`` per answer, and a miss reported by ``fail_share`` is a real defect
rather than sampling noise.  The lower edge keeps the query non-trivial.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = Path(__file__).resolve().parent / "data"
MANIFEST = "fixtures.json"
DEFAULT_FIXTURE_SEED = 0

LOW_WINDOW = (0.03, 0.08)
HIGH_WINDOW = (0.92, 0.97)

#: Trials behind a stored reference estimate: sd_bound(40000) = 0.0025,
#: a twentieth of the 900-trial band 3 * sd_bound(900) = 0.05.
REFERENCE_TRIALS = 40_000

# (name, sources, elements, target conflict, belief window)
SET_SINGLE = (
    ("s40x40", 40, 40, 0.5, LOW_WINDOW),
    ("s40x160", 40, 160, 0.5, HIGH_WINDOW),
    ("s80x80", 80, 80, 0.5, LOW_WINDOW),
    ("s120x40", 120, 40, 0.8, HIGH_WINDOW),
)
# (name, sources, elements, subset density, joint outcome cap)
SET_BATCH = (
    ("b14x20", 14, 20, 0.80, 600_000),
    ("b16x26", 16, 26, 0.80, 1_500_000),
    ("b18x32", 18, 32, 0.95, 1_500_000),
)
BATCH_QUERIES = 16
# (name, atoms, sources, target conflict)
LOGIC = (
    ("l10a40", 10, 40, 0.5),
    ("l10a50", 10, 50, 0.7),
    ("l12a50", 12, 50, 0.6),
    ("l12a60", 12, 60, 0.85),
)
LOGIC_QUERIES = 2
#: Atoms that terms draw from; the rest of the frame stays unconstrained,
#: which keeps the folded assignment table small.
LOGIC_ACTIVE_ATOMS = 7
#: Share of trials that the chosen step budget should time out.
LOGIC_TIMEOUT_SHARE = 0.1


def sub_seed(seed: int, label: str) -> int:
    """A 31-bit seed for ``label`` derived from ``seed``."""
    digest = hashlib.sha256(f"perfbench:{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def in_window(p: float) -> bool:
    return LOW_WINDOW[0] <= p <= LOW_WINDOW[1] or HIGH_WINDOW[0] <= p <= HIGH_WINDOW[1]


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- generators -----------------------------------------------------------


def multi_outcome_problem(m: int, n: int, density: float, cap: int, seed: int):
    """Sources with 2-4 outcomes over random subsets; about a third end in
    a vacuous outcome.  Outcome counts shrink so the joint outcome space
    stays under ``cap``, which keeps ``conflict --exact`` affordable."""
    from beliefmc import EvidenceProblem, FocalSet, Frame, SourceModel

    frame = Frame(tuple(f"x{j + 1}" for j in range(n)))
    sources = []
    joint = 1
    for i in range(m):
        rng = random.Random(sub_seed(seed, f"multi-source-{i}"))
        k = rng.choice((2, 3, 4))
        while k > 2 and joint * k * 2 ** (m - i - 1) > cap:
            k -= 1
        joint *= k
        vacuous = rng.random() < 0.3
        targets = []
        for o in range(k):
            if vacuous and o == k - 1:
                targets.append(frame.full_bits)
                continue
            bits = sum(1 << j for j in range(n) if rng.random() < density)
            targets.append(bits or 1 << rng.randrange(n))
        weights = [rng.random() + 0.2 for _ in range(k)]
        total = math.fsum(weights)
        sources.append(
            SourceModel(
                frame,
                tuple((w / total, FocalSet(frame, b)) for w, b in zip(weights, targets)),
            )
        )
    return EvidenceProblem(frame, tuple(sources))


def logic_problem(atoms: int, m: int, commit: float, seed: int):
    """Sources with 1-2 committed terms of 1-2 literals plus a vacuous
    ``[]`` outcome; ``commit`` scales the committed mass, so conflict rises
    with it."""
    from beliefmc import Literal, LogicProblem, LogicSource, TermSet

    names = tuple(f"a{i + 1}" for i in range(atoms))
    active = names[:LOGIC_ACTIVE_ATOMS]
    sources = []
    for i in range(m):
        rng = random.Random(sub_seed(seed, f"logic-source-{i}"))
        terms = [
            TermSet(tuple(Literal(a, rng.random() < 0.85) for a in rng.sample(active, rng.choice((1, 2)))))
            for _ in range(rng.choice((1, 2)))
        ]
        weights = [rng.random() + 0.5 for _ in terms]
        total = math.fsum(weights)
        c = commit * (0.5 + rng.random())
        probs = [c * w / total for w in weights]
        sources.append(LogicSource(tuple(zip(probs + [1.0 - c], terms + [TermSet()]))))
    return LogicProblem(names, tuple(sources))


def tune_logic_problem(atoms: int, m: int, target: float, seed: int):
    """Bisect the committed mass toward a target conflict, measured exactly
    on the translated problem.  Returns ``(problem, fold result)``."""
    from beliefmc import combine_all, translate_to_set_problem

    lo, hi = 0.0, 1.0
    best = None
    for _ in range(14):
        mid = (lo + hi) / 2.0
        problem = logic_problem(atoms, m, mid, seed)
        combo = combine_all(translate_to_set_problem(problem))
        if best is None or abs(combo.conflict - target) < abs(best[1].conflict - target):
            best = (problem, combo)
        if combo.conflict > target:
            hi = mid
        else:
            lo = mid
    return best


# --- query selection and references --------------------------------------


def pick_prefix_query(problem, window) -> tuple[str, float]:
    """The prefix set ``{x1 .. xk}`` whose belief is nearest the middle of
    ``window``, with its reference estimate over ``REFERENCE_TRIALS``."""
    from beliefmc import FocalSet, TrialEngineConfig, estimate

    frame = problem.frame
    prefixes = [FocalSet(frame, (1 << k) - 1) for k in range(1, frame.size + 1)]
    probe = estimate(problem, prefixes, TrialEngineConfig(trials=4000, seed=sub_seed(0, "probe")))
    mid = sum(window) / 2.0
    order = sorted(range(len(prefixes)), key=lambda k: abs(probe[k].value - mid))
    for k in order[:6]:
        # Two queries route the reference run to the fast batch kernel.
        ref = estimate(
            problem,
            [prefixes[k], frame.universe()],
            TrialEngineConfig(trials=REFERENCE_TRIALS, seed=sub_seed(k, "reference")),
        )[0]
        if window[0] <= ref.value <= window[1]:
            return str(prefixes[k]), ref.value
    raise RuntimeError(f"no prefix query with belief in {window}")


def pick_set_queries(problem, combined, count: int, seed: int) -> list[tuple[str, float]]:
    """``count`` distinct subsets with exact belief inside the windows.
    Each candidate chain starts at the frame and drops elements in random
    order, so its belief falls from 1 through both windows; a chain gives
    at most one query per window."""
    from beliefmc import FocalSet, bel_from_mass

    frame = problem.frame
    rng = random.Random(seed)
    picked: list[tuple[str, float]] = []
    for _ in range(50 * count):
        bits = frame.full_bits
        sides = set()
        for j in rng.sample(range(frame.size), frame.size - 1):
            bits &= ~(1 << j)
            p = bel_from_mass(combined, FocalSet(frame, bits))
            if p < LOW_WINDOW[0]:
                break
            query = str(FocalSet(frame, bits))
            if in_window(p) and (p > 0.5) not in sides and query not in dict(picked):
                sides.add(p > 0.5)
                picked.append((query, p))
                if len(picked) == count:
                    return picked
    raise RuntimeError(f"found only {len(picked)} of {count} queries in window")


def pick_clauses(problem, combined, count: int) -> list[tuple[str, float]]:
    """Two-literal clauses over distinct atoms with exact belief in window,
    spread over the eligible ones."""
    from beliefmc import ClauseQuery, Literal, bel_from_mass
    from beliefmc.logic import AssignmentSpace

    space = AssignmentSpace(problem.atoms)
    literals = [Literal(a, s) for a in problem.atoms for s in (True, False)]
    eligible = []
    for l1, l2 in itertools.combinations(literals, 2):
        if l1.atom == l2.atom:
            continue
        clause = ClauseQuery((l1, l2))
        p = bel_from_mass(combined, space.clause_focal(clause))
        if in_window(p):
            eligible.append((str(clause), p))
    if len(eligible) < count:
        raise RuntimeError(f"found only {len(eligible)} of {count} clauses in window")
    step = len(eligible) // count
    return [eligible[i * step] for i in range(count)]


def pick_budget(problem, clause_text: str) -> int:
    """The smallest step budget that times out at most
    ``LOGIC_TIMEOUT_SHARE`` of a probe run's trials."""
    from beliefmc import TrialEngineConfig, logic_estimate, parse_clause

    clause = parse_clause(clause_text)
    cfg = TrialEngineConfig(trials=1000, seed=sub_seed(0, "budget-probe"))
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi) // 2
        r = logic_estimate(problem.sources, clause, cfg, step_budget=mid)
        if r.timeouts / r.trials <= LOGIC_TIMEOUT_SHARE:
            hi = mid
        else:
            lo = mid + 1
    return lo


# --- build, write and load -------------------------------------------------


def build(seed: int) -> tuple[list[dict], dict[str, str]]:
    """Generate every fixture for ``seed``; returns manifest entries and
    the rendered problem texts by file name."""
    from beliefmc import combine_all, conflict_exact, render_problem, translate_to_set_problem
    from beliefmc import tune_focus_density

    entries, texts = [], {}

    for name, m, n, kappa, window in SET_SINGLE:
        g = tune_focus_density(m, n, target_conflict=kappa, seed=sub_seed(seed, name))
        query, ref = pick_prefix_query(g.problem, window)
        texts[name + ".bel"] = render_problem(g.problem)
        entries.append({
            "name": name, "workload": "set-single", "file": name + ".bel",
            "sources": m, "elements": n, "kappa": g.conflict_estimate,
            "queries": [query],
            "reference": {"estimate": [ref], "trials": REFERENCE_TRIALS},
        })

    for name, m, n, density, cap in SET_BATCH:
        problem = multi_outcome_problem(m, n, density, cap, sub_seed(seed, name))
        combo = combine_all(problem)
        picked = pick_set_queries(problem, combo.combined, BATCH_QUERIES, sub_seed(seed, name + "-q"))
        texts[name + ".bel"] = render_problem(problem)
        entries.append({
            "name": name, "workload": "set-batch-exact", "file": name + ".bel",
            "sources": m, "elements": n, "kappa": combo.conflict,
            "queries": [q for q, _ in picked],
            "reference": {
                "exact": [p for _, p in picked],
                "conflict": combo.conflict,
                "conflict_enum": conflict_exact(problem),
            },
        })

    for name, atoms, m, kappa in LOGIC:
        problem, combo = tune_logic_problem(atoms, m, kappa, sub_seed(seed, name))
        picked = pick_clauses(problem, combo.combined, LOGIC_QUERIES)
        texts[name + ".bel"] = render_problem(problem)
        entries.append({
            "name": name, "workload": "logic-budget", "file": name + ".bel",
            "sources": m, "atoms": atoms, "kappa": combo.conflict,
            "queries": [q for q, _ in picked],
            "budget": pick_budget(problem, picked[0][0]),
            "exact_requests": atoms == 10,
            "reference": {"exact": [p for _, p in picked], "conflict": combo.conflict},
        })
    return entries, texts


def write(seed: int, out: Path) -> Path:
    entries, texts = build(seed)
    out.mkdir(parents=True, exist_ok=True)
    for entry in entries:
        path = out / entry["file"]
        path.write_text(f"# perfbench fixture {entry['name']} (fixture seed {seed})\n" + texts[entry["file"]])
        entry["sha256"] = sha256_file(path)
    manifest = out / MANIFEST
    manifest.write_text(json.dumps({"fixture_seed": seed, "fixtures": entries}, indent=1) + "\n")
    return manifest


def load(directory: Path) -> tuple[dict, str]:
    """Read the manifest and check every fixture's hash.  Returns the
    manifest and the SHA-256 of the manifest itself, which covers every
    file hash, query and reference."""
    manifest_path = directory / MANIFEST
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["fixtures"]:
        got = sha256_file(directory / entry["file"])
        if got != entry["sha256"]:
            raise ValueError(f"fixture {entry['file']}: sha256 {got} does not match the manifest")
    return manifest, sha256_file(manifest_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_FIXTURE_SEED)
    parser.add_argument("--out", type=Path, default=DATA_DIR)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    print(write(args.seed, args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
