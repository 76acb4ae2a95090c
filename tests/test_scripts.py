"""The demo scripts run end to end on the public API."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("logic_budget_demo.py", ["--trials", "2000"]),
        ("accuracy_demo.py", ["--runs", "3"]),
    ],
)
def test_demo_exits_cleanly(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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
