"""The benchmark's workloads: which requests a round sends and how each
answer is checked against the fixture references.

A round sends every request of the workload's mix once, fixture by
fixture, in a fixed order; the client sends the next request only after the
previous one returned (closed loop, one client).  Estimate requests get a
``--seed`` derived from the workload seed and the request index, so a
workload seed fixes every input.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

# Tolerance on exact answers beyond the 7 decimals the CLI prints.
EXACT_TOL = 1e-9
PRINTED_HALF_ULP = 0.5e-7

SET_SINGLE_ACCURACY = 0.05
BATCH_ACCURACY = 0.03
LOGIC_ACCURACY = 0.03
#: Accuracy of warm-up estimates: 57 trials, enough to run every code path.
WARM_UP_ACCURACY = 0.2

WORKLOADS = ("set-single", "set-batch-exact", "logic-budget")


@dataclass(frozen=True)
class Request:
    kind: str  # "estimate", "exact" or "conflict"
    fixture: str
    args: tuple[str, ...]
    # (csv rows, references, planned trials) -> (accepted trials, failure cause or None)
    check: Callable[[list[dict], dict, int], tuple[int, str | None]]
    accuracy: float | None = None  # estimates only
    workers: int | None = None  # estimates only

    def argv(self, seed: int) -> list[str]:
        if self.kind != "estimate":
            return list(self.args)
        return [*self.args, "--accuracy", str(self.accuracy), "--workers", str(self.workers),
                "--seed", str(seed)]

    def planned_trials(self) -> int:
        from beliefmc import plan_trials

        return plan_trials(self.accuracy) if self.accuracy is not None else 0


def request_seed(workload_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench-request:{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _labels(rows, queries):
    got = [r["query"] for r in rows]
    if got != list(queries):
        return f"answered queries {got!r}, asked {list(queries)!r}"
    return None


def _band(trials: int) -> float:
    from beliefmc import sd_bound

    return 3.0 * sd_bound(trials)


def _check_set_estimate(queries, ref_key):
    def check(rows, ref, trials):
        cause = _labels(rows, queries)
        if cause:
            return 0, cause
        band = _band(trials)
        for row, want in zip(rows, ref[ref_key]):
            if int(row["trials"]) != trials:
                return 0, f"{row['query']}: {row['trials']} trials, planned {trials}"
            got = float(row["value"])
            if abs(got - want) > band:
                return 0, f"{row['query']}: estimate {got} outside {want:.6f} +- {band:.4f}"
        return trials, None

    return check


def _check_logic_estimate(queries):
    def check(rows, ref, trials):
        cause = _labels(rows, queries)
        if cause:
            return 0, cause
        band = _band(trials)
        for row, want in zip(rows, ref["exact"]):
            lower, upper = float(row["lower"]), float(row["upper"])
            if int(row["trials"]) != trials:
                return 0, f"{row['query']}: {row['trials']} trials, planned {trials}"
            if not lower - band <= want <= upper + band:
                return 0, f"{row['query']}: bounds [{lower}, {upper}] +- {band:.4f} miss {want:.6f}"
        return trials * len(rows), None

    return check


def _exact_close(got: float, want: float) -> bool:
    return abs(got - want) <= PRINTED_HALF_ULP + EXACT_TOL


def _check_exact(queries):
    def check(rows, ref, _trials):
        cause = _labels(rows, queries)
        if cause:
            return 0, cause
        for row, want in zip(rows, ref["exact"]):
            if not _exact_close(float(row["belief"]), want):
                return 0, f"{row['query']}: belief {row['belief']} != fold {want:.10f}"
            if not _exact_close(float(row["conflict"]), ref["conflict"]):
                return 0, f"conflict {row['conflict']} != fold {ref['conflict']:.10f}"
        return 0, None

    return check


def _check_conflict(rows, ref, _trials):
    if len(rows) != 1 or rows[0]["mode"] != "exact":
        return 0, f"unexpected conflict output {rows!r}"
    if not _exact_close(float(rows[0]["kappa"]), ref["conflict_enum"]):
        return 0, f"kappa {rows[0]['kappa']} != enumeration {ref['conflict_enum']:.10f}"
    return 0, None


def _query_args(queries):
    return tuple(a for q in queries for a in ("--query", q))


def round_requests(workload: str, fixtures: list[dict], paths: dict[str, str]) -> list[Request]:
    """The requests of one round of ``workload``, in sending order."""
    out: list[Request] = []
    for fx in fixtures:
        if fx["workload"] != workload:
            continue
        name, qs, path = fx["name"], fx["queries"], paths[fx["name"]]
        queries = _query_args(qs)
        if workload == "set-single":
            out.append(Request("estimate", name, ("estimate", "--problem", path, *queries, "--csv"),
                               _check_set_estimate(qs, "estimate"), SET_SINGLE_ACCURACY, 1))
        elif workload == "set-batch-exact":
            out.append(Request("exact", name, ("exact", "--problem", path, *queries, "--csv"),
                               _check_exact(qs)))
            out.append(Request("conflict", name, ("conflict", "--exact", "--problem", path, "--csv"),
                               _check_conflict))
            out.append(Request("estimate", name, ("estimate", "--problem", path, *queries, "--csv"),
                               _check_set_estimate(qs, "exact"), BATCH_ACCURACY, 2))
        elif workload == "logic-budget":
            out.append(Request("estimate", name, (
                "estimate", "--logic", "--problem", path, *queries,
                "--budget", str(fx["budget"]), "--csv"),
                _check_logic_estimate(qs), LOGIC_ACCURACY, 2))
            if fx["exact_requests"]:
                out.append(Request("exact", name, (
                    "exact", "--logic", "--problem", path, *queries, "--csv"),
                    _check_exact(qs)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    if not out:
        raise ValueError(f"no fixtures for workload {workload!r}")
    return out


def warm_up(req: Request) -> Request:
    """The same request, cut to a few trials if it is an estimate."""
    if req.kind != "estimate":
        return req
    return dataclasses.replace(req, accuracy=WARM_UP_ACCURACY)


def with_workers(req: Request, workers: int) -> Request:
    """The same estimate request at another worker count."""
    return dataclasses.replace(req, workers=workers)
