"""In-memory spans around the public functions the CLI calls.

The tracer replaces each traced function with a wrapper in every
``beliefmc`` module namespace that holds it, so a call made through any
import path records a span.  Nothing private is wrapped.  Spans carry a
name, start and end (``perf_counter_ns``), the index of the enclosing span
and the request id; a few also record counts taken from the call's
arguments or result.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from math import prod

ROOT_SPAN = "cli.main"

VALIDATE = ("validate_problem", "require_valid", "validate_logic_problem",
            "validate_logic_sources")


def _estimate_counts(args, result):
    problem, _, cfg = args[:3]
    r = result[0]
    return {"sources": len(problem.sources), "trials": r.trials, "restarts": r.restarts,
            "workers": cfg.worker_count}


def _logic_counts(args, result):
    sources, _, cfg = args[:3]
    return {"sources": len(sources), "trials": result.trials, "restarts": result.restarts,
            "timeouts": result.timeouts, "workers": cfg.worker_count}


# Public function name -> counts recorded on its span.
TRACED = {
    "parse_problem": lambda args, result: {"input_bytes": len(args[0])},
    "validate_problem": None,
    "require_valid": None,
    "validate_logic_problem": None,
    "validate_logic_sources": None,
    "bel_from_mass": None,
    "estimate": _estimate_counts,
    "combine_all": lambda args, result: {"focal_sets": len(result.combined)},
    "conflict_exact": lambda args, result: {
        "joint_outcomes": prod(len(s.outcomes) for s in args[0].sources)},
    "logic_estimate": _logic_counts,
    "translate_to_set_problem": None,
}


@dataclass
class Span:
    name: str
    request: int
    start_ns: int
    parent: int | None
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``request`` tags each new span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args, kwargs, counts=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, self.request, 0, stack[-1] if stack else None)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
        if counts is not None:
            span.counts = counts(args, result)
        return result

    def _wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded ``beliefmc`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "beliefmc" or n.startswith("beliefmc."))]
        for fname, counts in TRACED.items():
            originals = {id(getattr(m, fname)): getattr(m, fname)
                         for m in modules if m.__name__ != "beliefmc" and hasattr(m, fname)
                         and getattr(m, fname).__module__ == m.__name__}
            if len(originals) != 1:
                raise RuntimeError(f"expected one definition of {fname}, found {len(originals)}")
            fn = next(iter(originals.values()))
            wrapper = self._wrap(f"{fn.__module__.rsplit('.', 1)[-1]}.{fname}", fn, counts)
            for m in modules:
                if getattr(m, fname, None) is fn:
                    setattr(m, fname, wrapper)
                    self._patched.append((m, fname, fn))

    def uninstall(self) -> None:
        for m, fname, fn in reversed(self._patched):
            setattr(m, fname, fn)
        self._patched.clear()

    def to_json(self) -> list[dict]:
        self_ns = self.self_times()
        return [
            {"name": s.name, "request": s.request, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "self_ns": self_ns[i], "counts": s.counts}
            for i, s in enumerate(self.spans)
        ]

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.end_ns - s.start_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end_ns - s.start_ns
        return out


def _base(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def request_layers(tracer: Tracer, scales: dict[int, float]) -> dict[int, dict[str, float]]:
    """Per request, the layer figures the benchmark reports (only the layers
    the request touched).  Times are self times, so layers do not overlap,
    multiplied by the request's speed correction from ``scales``."""
    self_ns = tracer.self_times()
    per: dict[int, dict[str, float]] = {}
    for i, s in enumerate(tracer.spans):
        acc = per.setdefault(s.request, {})
        base = _base(s.name)
        ns = self_ns[i] * scales[s.request]
        ms = ns / 1e6

        def add(key, value):
            acc[key] = acc.get(key, 0.0) + value

        if s.name == ROOT_SPAN:
            add("cli.self_ms", ms)
        elif base == "parse_problem":
            add("problem_io.parse_ms", ms)
            add("problem_io.input_kb", s.counts["input_bytes"] / 1024)
        elif base in VALIDATE:
            add("evidence.validate_ms", ms)
            parent = tracer.spans[s.parent] if s.parent is not None else None
            if parent is None or _base(parent.name) not in VALIDATE:
                add("evidence.validate_calls", 1)
        elif base == "bel_from_mass":
            add("evidence.bel_ms", ms)
        elif base == "combine_all":
            add("exact.fold_ms", ms)
            add("exact.focal_sets", s.counts["focal_sets"])
        elif base == "conflict_exact":
            add("exact.enum_ms", ms)
            add("exact.joint_outcomes", s.counts["joint_outcomes"])
        elif base == "translate_to_set_problem":
            add("logic.translate_ms", ms)
        elif base in ("estimate", "logic_estimate"):
            layer = "mc" if base == "estimate" else "logic"
            c = s.counts
            add(f"{layer}.estimate_ms", ms)
            add(f"{layer}._ns", ns)
            add(f"{layer}.draws", c["sources"] * (c["trials"] + c["restarts"]))
            add(f"{layer}._trials", c["trials"])
            add(f"{layer}._attempts", c["trials"] + c["restarts"])
            add(f"{layer}._timeouts", c.get("timeouts", 0))
    for acc in per.values():
        for layer in ("mc", "logic"):
            if f"{layer}.draws" in acc:
                acc[f"{layer}.ns_per_draw"] = acc.pop(f"{layer}._ns") / acc[f"{layer}.draws"]
                trials, attempts = acc.pop(f"{layer}._trials"), acc.pop(f"{layer}._attempts")
                acc[f"{layer}.accepted_per_attempt"] = trials / attempts
                timeouts = acc.pop(f"{layer}._timeouts")
                if layer == "logic":
                    acc["logic.timeout_share"] = timeouts / trials
    return per


def median_over_requests(per: dict[int, dict[str, float]], key: str, requests=None):
    """Median of ``key`` over the requests that touched its layer, or None."""
    values = [acc[key] for r, acc in per.items()
              if key in acc and (requests is None or r in requests)]
    return statistics.median(values) if values else None
