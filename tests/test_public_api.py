"""The package's export list."""

from __future__ import annotations

import beliefmc


def test_every_exported_name_resolves():
    assert len(set(beliefmc.__all__)) == len(beliefmc.__all__)
    assert [n for n in beliefmc.__all__ if not hasattr(beliefmc, n)] == []


def test_star_import_brings_exactly_all():
    namespace: dict = {}
    exec("from beliefmc import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(beliefmc.__all__)
