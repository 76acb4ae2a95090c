"""Request-level benchmark for the ``beliefmc`` command.

Runs ``beliefmc`` requests in this process through ``beliefmc.cli.main``
with stdout captured: one client, closed loop, on pinned fixture problems,
checking every answer against a stored reference.  Run from the repository
root::

    python3 perfbench/run.py --workload set-single --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced rounds, then reports the per-layer metrics
from the spans (written to ``perfbench/out/``).  ``--self-check``
runs every workload briefly and checks that every metric the workload
exercises is reported as a number with its unit, that the others read
absent, and that a perturbed reference counts as a failure.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, every
metric by name and unit, and each failed request with its cause.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import fixtures
import workloads
from tracing import ROOT_SPAN, Tracer, median_over_requests, request_layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up runs in child processes whose median is ``setup_s``.
SETUP_SAMPLES = 5
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Seconds ``calibrate`` typically takes on the 2-core 2.1 GHz Xeon host
#: (CPython 3.11) the benchmark was built on; 2.8-4.8 ms were seen there.
#: It only sets the scale of the reported times.
CALIBRATION_REF_S = 0.004

# (name, unit) of every end-to-end metric, in report order.  The ones
# marked False are printed but left out of the JSON result: they are zero
# (fail_share) or exist only on some workloads.
END_TO_END = (
    ("setup_s", "s", True),
    ("round_s", "s", True),
    ("estimate_s.p50", "s", True),
    ("estimate_s.tail", "s", True),
    ("trials_per_s", "1/s", True),
    ("peak_rss_mb", "MB", True),
    ("exact_s.p50", "s", False),
    ("exact_s.tail", "s", False),
    ("conflict_s.p50", "s", False),
    ("conflict_s.tail", "s", False),
    ("fail_share", "ratio", False),
)

PER_LAYER = (
    ("cli.self_ms", "ms"),
    ("problem_io.parse_ms", "ms"),
    ("problem_io.input_kb", "KiB"),
    ("evidence.validate_ms", "ms"),
    ("evidence.validate_calls", "count"),
    ("evidence.bel_ms", "ms"),
    ("mc.estimate_ms", "ms"),
    ("mc.draws", "count"),
    ("mc.ns_per_draw", "ns"),
    ("mc.accepted_per_attempt", "ratio"),
    ("mc.worker_speedup", "ratio"),
    ("exact.fold_ms", "ms"),
    ("exact.focal_sets", "count"),
    ("exact.enum_ms", "ms"),
    ("exact.joint_outcomes", "count"),
    ("logic.estimate_ms", "ms"),
    ("logic.draws", "count"),
    ("logic.ns_per_draw", "ns"),
    ("logic.accepted_per_attempt", "ratio"),
    ("logic.timeout_share", "ratio"),
    ("logic.worker_speedup", "ratio"),
    ("logic.translate_ms", "ms"),
    ("trace.overhead_share", "ratio"),
)
#: Set-single fixtures each get their own ``mc.ns_per_draw.<fixture>``, so
#: the per-element scan's growth with n (and with m) reads as numbers.
SET_SINGLE_FIXTURES = tuple(name for name, *_ in fixtures.SET_SINGLE)
PER_LAYER += tuple((f"mc.ns_per_draw.{name}", "ns") for name in SET_SINGLE_FIXTURES)

# The metrics each workload exercises, after the issue's tables; every other
# metric must read absent.  The self-check fails on one of these that is
# absent or, unless it is in SIGNED, not positive.
_E2E = ("setup_s", "round_s", "estimate_s.p50", "estimate_s.tail", "trials_per_s",
        "peak_rss_mb", "fail_share")
_EXACT_E2E = ("exact_s.p50", "exact_s.tail")
EXERCISED_END_TO_END = {
    "set-single": _E2E,
    "set-batch-exact": _E2E + _EXACT_E2E + ("conflict_s.p50", "conflict_s.tail"),
    "logic-budget": _E2E + _EXACT_E2E,
}
_LAYERS = ("cli.self_ms", "problem_io.parse_ms", "problem_io.input_kb",
           "evidence.validate_ms", "evidence.validate_calls", "trace.overhead_share")
_MC = ("mc.estimate_ms", "mc.draws", "mc.ns_per_draw", "mc.accepted_per_attempt",
       "mc.worker_speedup")
_FOLD = ("evidence.bel_ms", "exact.fold_ms", "exact.focal_sets")
EXERCISED_LAYERS = {
    "set-single": _LAYERS + _MC + tuple(f"mc.ns_per_draw.{name}" for name in SET_SINGLE_FIXTURES),
    "set-batch-exact": _LAYERS + _MC + _FOLD + ("exact.enum_ms", "exact.joint_outcomes"),
    "logic-budget": _LAYERS + _FOLD + (
        "logic.estimate_ms", "logic.draws", "logic.ns_per_draw", "logic.accepted_per_attempt",
        "logic.timeout_share", "logic.worker_speedup", "logic.translate_ms"),
}
#: Exercised metrics that may be 0 (no failures) or negative (noise).
SIGNED = ("fail_share", "trace.overhead_share")


def import_program():
    """Import ``beliefmc`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import beliefmc.cli
    except ImportError as e:
        raise SystemExit(f"error: cannot import beliefmc from {src}: {e}") from None
    if not Path(beliefmc.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: beliefmc imported from {beliefmc.__file__}, not {src}")
    return beliefmc.cli.main


def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Record:
    index: int
    request: workloads.Request
    wall_s: float
    #: Reference-speed seconds per measured second around this request.
    scale: float
    trials: int
    cause: str | None

    @property
    def time_s(self) -> float:
        """Wall time corrected to the reference machine speed."""
        return self.wall_s * self.scale


def _calibration_loop(_=None) -> int:
    """A fixed pure-Python loop of random draws and integer operations, the
    same kind of work as the program's kernels."""
    rng = random.Random(12345)
    acc = total = 0
    for i in range(15_000):
        u = rng.random()
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        if u < 0.5:
            total += acc & 7
    return total


def calibrate(threads: int = 1) -> float:
    """Wall time per calibration loop, with ``threads`` threads running one
    loop each at once.

    The host's speed drifts by a third over tens of seconds (other tenants
    share its cores), which moves every wall time with it.  Dividing a
    request's wall time by this figure, measured just before and just after
    the request with the request's own thread count, removes the drift;
    multiplying by ``CALIBRATION_REF_S`` gives seconds at a fixed reference
    speed.  The thread count matters: two threads share the interpreter lock
    and run on both cores, whose speeds drift apart.
    """
    start = time.perf_counter()
    if threads == 1:
        _calibration_loop()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(_calibration_loop, range(threads)))
    return (time.perf_counter() - start) / threads


def speed_scale(before: float, after: float) -> float:
    return CALIBRATION_REF_S / ((before + after) / 2)


@dataclass
class Bench:
    workload: str
    seed: int
    fixture_hash: str
    requests: list[workloads.Request]
    refs: dict[str, dict]
    main: object
    next_index: int = 0
    #: Every request sent, warm-ups included; all count in ``attempted``.
    sent: list[Record] = field(default_factory=list)


def setup(workload: str, seed: int, main, perturb: bool = False) -> Bench:
    """Load and hash-check the pinned fixtures, load references, and send
    one untimed warm-up request per fixture."""
    directory = fixtures.DATA_DIR
    manifest, digest = fixtures.load(directory)
    paths = {fx["name"]: str(directory / fx["file"]) for fx in manifest["fixtures"]}
    requests = workloads.round_requests(workload, manifest["fixtures"], paths)
    refs = {fx["name"]: fx["reference"] for fx in manifest["fixtures"]}
    if perturb:
        # Move the first reference of the first fixture by half the unit
        # interval; every request checking it must then fail.
        ref = refs[requests[0].fixture]
        key = next(k for k in ("estimate", "exact") if k in ref)
        ref[key] = [(ref[key][0] + 0.5) % 1.0] + ref[key][1:]
    bench = Bench(workload, seed, digest, requests, refs, main)
    warmed = set()
    for i, req in enumerate(requests):
        if req.fixture not in warmed:
            warmed.add(req.fixture)
            send(bench, workloads.warm_up(req), -1 - i, timed=False)
    return bench


def send(bench: Bench, req: workloads.Request, index: int, tracer: Tracer | None = None,
         timed: bool = True) -> Record:
    """Send one request and check its answer; ``index`` picks its seed.
    The record's ``cause`` is None for a correct answer.  Untimed requests
    (warm-ups) skip the speed calibration, which is not part of set-up."""
    argv = req.argv(workloads.request_seed(bench.seed, index))
    out, err = io.StringIO(), io.StringIO()
    cause = None
    threads = req.workers or 1
    before = calibrate(threads) if timed else CALIBRATION_REF_S
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = bench.main(argv)
            else:
                rc = tracer.call(ROOT_SPAN, bench.main, (argv,), {})
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # a crash is a failed request, not a benchmark abort
        rc, cause = None, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    scale = speed_scale(before, calibrate(threads) if timed else CALIBRATION_REF_S)
    if cause is None and rc != 0:
        cause = f"exit code {rc}: {err.getvalue().strip()}"
    trials = 0
    if cause is None:
        try:
            trials, cause = req.check(workloads.parse_csv(out.getvalue()),
                                      bench.refs[req.fixture], req.planned_trials())
        except (KeyError, ValueError) as e:
            cause = f"unreadable output: {type(e).__name__}: {e}"
    record = Record(index, req, wall, scale, trials, cause)
    bench.sent.append(record)
    return record


def run_rounds(bench: Bench, seconds: float, tracer: Tracer | None = None,
               rounds: int | None = None) -> tuple[list[Record], list[float]]:
    """Send whole rounds until ``seconds`` have passed (or ``rounds`` are
    done).  Returns every record and each round's summed request time."""
    records: list[Record] = []
    round_times: list[float] = []
    start = time.perf_counter()
    while (not round_times or time.perf_counter() - start < seconds) and (
        rounds is None or len(round_times) < rounds
    ):
        total = 0.0
        for req in bench.requests:
            index = bench.next_index
            bench.next_index += 1
            if tracer is not None:
                tracer.request = index
            record = send(bench, req, index, tracer)
            records.append(record)
            total += record.time_s
        round_times.append(total)
    return records, round_times


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, as ``(value, percentile)``."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return sorted(values)[k], 100.0 * (k + 1) / n


def latency(records: list[Record], kind: str, metrics: dict, notes: dict) -> None:
    by_fixture: dict[str, list[float]] = {}
    for r in records:
        if r.request.kind == kind:
            by_fixture.setdefault(r.request.fixture, []).append(r.time_s)
    if not by_fixture:
        return
    walls = [t for times in by_fixture.values() for t in times]
    metrics[f"{kind}_s.p50"] = statistics.fmean(statistics.median(v) for v in by_fixture.values())
    notes[f"{kind}_s.p50"] = f"per-fixture median, mean over {len(by_fixture)} fixtures, n={len(walls)}"
    t = tail(walls)
    if t is not None:
        metrics[f"{kind}_s.tail"] = t[0]
        notes[f"{kind}_s.tail"] = f"p{t[1]:.1f} over all fixtures, n={len(walls)}"


def setup_samples(bench: Bench, count: int) -> list[float]:
    """Speed-corrected wall time of ``count`` child processes that start,
    set up and exit.  Each child times the calibration loop on its own core
    when it starts and when its set-up is done; those two loops are taken
    out of its wall time and give its speed correction."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", bench.workload,
           "--seed", str(bench.seed), "--setup-only"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        child = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        before, after = json.loads(child.stdout.splitlines()[-1])
        samples.append((wall - before - after) * speed_scale(before, after))
    return samples


def end_to_end(bench: Bench, seconds: float, rounds: int | None, samples: int):
    records, round_times = run_rounds(bench, seconds, rounds=rounds)
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    setup = setup_samples(bench, samples)
    metrics["setup_s"] = statistics.median(setup)
    notes["setup_s"] = "median of " + ", ".join(f"{s:.3f}" for s in setup)
    metrics["round_s"] = statistics.median(round_times)
    notes["round_s"] = (f"summed request time of one round, median of {len(round_times)} rounds; "
                        f"wall times ran {statistics.median(1 / r.scale for r in records):.3f}x "
                        f"the reference-speed times")
    for kind in ("estimate", "exact", "conflict"):
        latency(records, kind, metrics, notes)
    est = [r for r in records if r.request.kind == "estimate"]
    metrics["trials_per_s"] = sum(r.trials for r in est) / sum(r.time_s for r in est)
    metrics["fail_share"] = sum(r.cause is not None for r in bench.sent) / len(bench.sent)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes


def worker_speedup(bench: Bench) -> float:
    """Median over the round's estimate requests of wall time at one
    worker over wall time at two, sent back to back.  Raw wall times: the
    two-thread speed correction would cancel part of the thread overhead."""
    ratios = []
    for i, req in enumerate(r for r in bench.requests if r.kind == "estimate"):
        one = send(bench, workloads.with_workers(req, 1), -1000 - i).wall_s
        two = send(bench, workloads.with_workers(req, 2), -1000 - i).wall_s
        ratios.append(one / two)
    return statistics.median(ratios)


def per_layer(bench: Bench, seconds: float, rounds: int | None):
    """Worker speedup first, then untraced and traced rounds in turn for
    the rest of ``seconds``, so both see the same machine conditions."""
    start = time.perf_counter()
    speedup = worker_speedup(bench)
    tracer = Tracer()
    plain_rounds: list[float] = []
    traced_rounds: list[float] = []
    traced_records: list[Record] = []
    while (not traced_rounds or time.perf_counter() - start < seconds) and (
        rounds is None or len(traced_rounds) < rounds
    ):
        plain_rounds += run_rounds(bench, 0, rounds=1)[1]
        tracer.install()
        try:
            records, walls = run_rounds(bench, 0, tracer, rounds=1)
        finally:
            tracer.uninstall()
        traced_records += records
        traced_rounds += walls
    scales = {r.index: r.scale for r in traced_records}
    per = request_layers(tracer, scales)
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    for name, _ in PER_LAYER:
        value = median_over_requests(per, name)
        if value is not None:
            metrics[name] = value
    layer = "logic" if bench.workload == "logic-budget" else "mc"
    metrics[f"{layer}.worker_speedup"] = speedup
    notes[f"{layer}.worker_speedup"] = "estimate requests, --workers 1 time over --workers 2 time"
    for fx in SET_SINGLE_FIXTURES:
        reqs = {r.index for r in traced_records if r.request.fixture == fx}
        value = median_over_requests(per, "mc.ns_per_draw", reqs)
        if value is not None:
            metrics[f"mc.ns_per_draw.{fx}"] = value
    plain, traced = statistics.median(plain_rounds), statistics.median(traced_rounds)
    metrics["trace.overhead_share"] = (traced - plain) / plain
    notes["trace.overhead_share"] = (
        f"round {traced:.4f} s traced vs {plain:.4f} s untraced, "
        f"{len(traced_rounds)} and {len(plain_rounds)} rounds")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{bench.workload}-seed{bench.seed}.json"
    trace_path.write_text(json.dumps({"header": header(bench), "request_scale": scales,
                                      "spans": tracer.to_json()}) + "\n")
    notes["trace.overhead_share"] += f"; spans in {trace_path.relative_to(ROOT)}"
    return metrics, notes


def header(bench: Bench) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "workload": bench.workload,
        "workload_seed": bench.seed,
        "fixture_hash": bench.fixture_hash,
    }


def run(bench: Bench, seconds: float, trace: int, rounds: int | None = None,
        samples: int = SETUP_SAMPLES) -> tuple[list[str], dict]:
    """Measure a set-up bench; returns the report lines and the JSON result."""
    lines = ["# env " + " ".join(f"{k}={v}" for k, v in header(bench).items())]
    if trace:
        metrics, notes = per_layer(bench, seconds, rounds)
        names = reported = PER_LAYER
    else:
        metrics, notes = end_to_end(bench, seconds, rounds, samples)
        names = [(n, u) for n, u, _ in END_TO_END]
        reported = [(n, u) for n, u, in_json in END_TO_END if in_json]
    for name, unit in names:
        if name in metrics:
            note = f"  ({notes[name]})" if name in notes else ""
            lines.append(f"{name} = {metrics[name]!r} {unit}{note}")
        else:
            lines.append(f"{name} = absent {unit}  (not exercised by {bench.workload})")
    failures = [r for r in bench.sent if r.cause is not None]
    for r in failures:
        lines.append(f"failed request {r.index} ({r.request.kind} on {r.request.fixture}): {r.cause}")
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.sent),
        "failed": failed,
        # A layer the workload never exercises reads 0 here and "absent" above.
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in reported},
    }
    return lines, result


def printed(lines: list[str], name: str) -> tuple[str, str] | None:
    """The value and unit words of the report line of ``name``."""
    prefix = f"{name} = "
    for line in lines:
        if line.startswith(prefix):
            words = line[len(prefix):].split()
            return (words[0], words[1]) if len(words) > 1 else None
    return None


def tail_rounds(bench: Bench) -> int:
    """Rounds after which every request kind has a tail percentile."""
    counts = Counter(r.kind for r in bench.requests)
    return max(math.ceil((TAIL_BEYOND + 1) / n) for n in counts.values())


def self_check(main) -> int:
    """Run every workload briefly in both modes.  Check that each metric
    the workload exercises is printed as a number with its unit (positive
    unless listed in ``SIGNED``) and every other metric as absent, that each
    metric of BENCHMARK.json is in the JSON result with its unit, that
    answers pass, and that a perturbed reference is counted as a failure."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    modes = (
        (0, "end_to_end", [(n, u) for n, u, _ in END_TO_END], EXERCISED_END_TO_END),
        (1, "per_layer", PER_LAYER, EXERCISED_LAYERS),
    )
    for workload in workloads.WORKLOADS:
        for trace, key, names, exercised in modes:
            where = f"{workload} trace={trace}"
            bench = setup(workload, 1, main)
            rounds = 1 if trace else tail_rounds(bench)
            lines, result = run(bench, math.inf, trace, rounds=rounds, samples=1)
            expected = set(exercised[workload])
            for name, unit in names:
                got = printed(lines, name)
                if got is None or got[1] != unit:
                    problems.append(f"{where}: {name} not printed with its unit {unit}")
                    continue
                if name not in expected:
                    if got[0] != "absent":
                        problems.append(f"{where}: {name} reads {got[0]}, not absent")
                    continue
                try:
                    value = float(got[0])
                except ValueError:
                    problems.append(f"{where}: {name} reads {got[0]}, not a number")
                    continue
                if not math.isfinite(value) or (name not in SIGNED and value <= 0):
                    problems.append(f"{where}: {name} reads {value}, not a positive number")
            for m in contract[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} missing from the JSON or not in {m['unit']}")
                elif m["name"] in expected and m["name"] not in SIGNED and not got["value"] > 0:
                    problems.append(f"{where}: {m['name']} is {got['value']} in the JSON")
            if result["failed"]:
                problems.append(f"{where}: {result['failed']} failed requests")
        bench = setup(workload, 1, main, perturb=True)
        lines, result = run(bench, 0, 0, rounds=1, samples=1)
        share = printed(lines, "fail_share")
        if result["failed"] < 1 or result["correct"] or share is None or not float(share[0]) > 0:
            problems.append(f"{workload}: perturbed reference not counted in fail_share ({share})")
        print(f"self-check {workload}: {result['failed']} of {result['attempted']} failed with the perturbed reference")
    for p in problems:
        print("self-check problem:", p)
    print("self-check", "failed" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Request-level benchmark for beliefmc.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="set-single")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        before = calibrate()
        setup(args.workload, args.seed, import_program())
        print(json.dumps([before, calibrate()]))
        return 0
    program_main = import_program()
    if args.self_check:
        return self_check(program_main)
    bench = setup(args.workload, args.seed, program_main)
    lines, result = run(bench, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
