"""Per-layer spans for the traced benchmark run.

The program is not modified: ``Tracer.install`` replaces p2pq's public
functions in the modules that look them up (``agent.rew``,
``rewriting.minicon``, ...) with wrappers that record calls and self
time, and ``uninstall`` puts the originals back.  Self time is a span's
duration minus the time spent in the wrapped calls it made.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, reported layer name); several lookups of one
# function report under one name
WRAPPED = (
    ("agent", "rew", "rewriting.rew"),
    ("oracle", "rew", "rewriting.rew"),
    ("cli", "rew", "rewriting.rew"),
    ("rewriting", "minicon", "rewriting.minicon"),
    ("rewriting", "unfold", "rewriting.unfold"),
    ("queries", "contains", "queries.contains"),
    ("agent", "contains", "queries.contains"),
    ("agent", "canonicalize", "queries.canonicalize"),
    ("rewriting", "canonicalize", "queries.canonicalize"),
    ("oracle", "canonicalize", "queries.canonicalize"),
    ("agent", "equivalent", "queries.equivalent"),
    ("rewriting", "equivalent", "queries.equivalent"),
    ("oracle", "equivalent", "queries.equivalent"),
    ("answers", "evaluate", "answers.evaluate"),
    ("answers", "run", "agent.run"),
    ("oracle", "run", "agent.run"),
    ("oracle", "weak_closure", "oracle.weak_closure"),
    ("cli", "load_network", "network.load_network"),
    ("cli", "parse_query", "parsing.parse_query"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in WRAPPED)) + ("cli.main",)


class Tracer:
    """Calls, self time and outcome counts per layer, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.true = defaultdict(int)  # calls returning a truthy value / not None
        self.agent_offered = 0  # non-empty rewritings the agent offered
        self.agent_appended = 0  # queries the agent appended
        self.rows_out = 0
        self._stack = [0.0]  # per open span: time spent in its children
        self._saved = []

    def wrap(self, name, fn, outcome=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if outcome is not None:
                outcome(result)
            return result

        return wrapper

    def _outcome(self, module: str, name: str):
        if name in ("queries.contains", "queries.equivalent"):
            def count(result):
                self.true[name] += bool(result)
        elif name in ("rewriting.rew", "rewriting.minicon"):
            def count(result):
                self.true[name] += result is not None
                if module == "agent" and result is not None:
                    self.agent_offered += 1
        elif name == "agent.run":
            def count(result):
                self.agent_appended += result.total() - 1
        elif name == "answers.evaluate":
            def count(result):
                self.rows_out += len(result)
        else:
            return None
        return count

    def install(self, p2pq_modules: dict):
        """Wrap every WRAPPED lookup; `p2pq_modules` maps the short module
        name to the imported module."""
        for module, attr, name in WRAPPED:
            mod = p2pq_modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, self._outcome(module, name)))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
