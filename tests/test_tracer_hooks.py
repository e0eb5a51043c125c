"""The benchmark's traced run replaces p2pq functions by module attribute
(perfbench/spans.py, WRAPPED), and its worker clears and reads p2pq's
lru caches (perfbench/worker.py, Runner.caches); a lookup that no longer
exists would fail only inside a benchmark run, so check every one here."""

import importlib
import runpy
import signal
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
WORKER = SPANS.parent / "worker.py"


def test_every_traced_lookup_resolves():
    # run_path compiles the file in memory and writes no bytecode next to it
    wrapped = runpy.run_path(str(SPANS))["WRAPPED"]
    assert wrapped
    for module, attr, _ in wrapped:
        mod = importlib.import_module(f"p2pq.{module}")
        assert callable(getattr(mod, attr, None)), f"p2pq.{module}.{attr}"


def test_every_cache_the_worker_clears_resolves(monkeypatch):
    # worker.py imports its sibling modules by plain name; none of them
    # writes bytecode next to it, and none stays imported
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(WORKER.parent))
    siblings = ("speed", "checks", "spans")
    try:
        runner_class = runpy.run_path(str(WORKER))["Runner"]
        names = ("agent", "answers", "cli", "network", "oracle", "parsing", "queries", "rewriting")
        modules = {name: importlib.import_module(f"p2pq.{name}") for name in names}
        runner = runner_class([], modules)  # its speed.Sampler starts no timer until a pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        for name in siblings:
            sys.modules.pop(name, None)
    assert sorted(runner.caches) == ["queries.canonicalize", "queries.contains"]
    for name, cache in runner.caches.items():
        assert callable(getattr(cache, "cache_clear", None)), name
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0, name
