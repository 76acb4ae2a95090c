"""The demo scripts and the benchmark self-check run end to end on the checkout."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_on_src(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python argv...`` with the checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("logic_budget_demo.py", ["--trials", "2000"]),
        ("accuracy_demo.py", ["--runs", "3"]),
        ("code_lines.py", []),
    ],
)
def test_demo_exits_cleanly(script, args):
    proc = _run_on_src([str(ROOT / "scripts" / script), *args])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs_and_keeps_its_promises():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    report = "import json\nprint(json.dumps([exact, conflict, r.trials, r.value, r.interval]))\n"
    proc = _run_on_src(["-c", block + report])
    assert proc.returncode == 0, proc.stderr
    exact, conflict, trials, value, (lo, hi) = json.loads(proc.stdout.splitlines()[-1])
    assert exact == pytest.approx(3 / 7, abs=1e-12)
    assert conflict == pytest.approx(0.3, abs=1e-12)
    assert trials == 900
    assert lo <= value <= hi
    assert lo <= exact <= hi


def test_tracer_finds_one_definition_of_every_traced_name(monkeypatch):
    # perfbench wraps the public functions the CLI calls; a refactor that
    # deletes or duplicates one of them makes install() raise
    import beliefmc.cli
    import beliefmc.mc

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    original = beliefmc.mc.estimate
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert beliefmc.mc.estimate is not original
    finally:
        tracer.uninstall()
    assert beliefmc.mc.estimate is original


def test_benchmark_self_check_passes():
    # every workload runs briefly in both trace modes: the layer names the
    # tracer wraps still exist, every metric reads with its unit, and a
    # perturbed reference counts as a failure (writes under perfbench/out/)
    proc = _run_on_src([str(ROOT / "perfbench" / "run.py"), "--self-check"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-check ok"
