"""The benchmark's traced run replaces p2pq functions by module attribute
(perfbench/spans.py, WRAPPED); a lookup that no longer exists would fail
only inside a traced benchmark run, so check every one here."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_lookup_resolves():
    # run_path compiles the file in memory and writes no bytecode next to it
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    assert wrapped
    for module, attr, _ in wrapped:
        mod = importlib.import_module(f"p2pq.{module}")
        assert callable(getattr(mod, attr, None)), f"p2pq.{module}.{attr}"
