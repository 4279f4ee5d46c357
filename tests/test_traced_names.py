"""The benchmark's tracer looks up every name in gkpbench/spans.py TRACED
with getattr on its gkpforge module, so a name that a change removes makes
every traced benchmark run fail. The file is read by path and parsed, not
imported: the tier-1 suite does not run the benchmark."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "gkpbench" / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} has no TRACED assignment")


def test_every_traced_name_resolves_on_its_module():
    traced = _traced()
    assert {"gkp", "budget", "resources"} <= set(traced)
    missing = [f"{layer}.{name}" for layer, names in traced.items()
               for name in names if not callable(getattr(importlib.import_module(f"gkpforge.{layer}"), name, None))]
    assert missing == []
