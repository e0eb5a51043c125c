"""Measure one workload in this process: ``worker.py MANIFEST SECONDS TRACE SRC``.

Started by ``run.py`` with a fixed hash seed.  The worker sends the
manifest's requests one at a time through ``p2pq.cli.main`` with stdout
captured, as a closed loop with a single client, and repeats the whole
list (one *pass*) until SECONDS have elapsed.  Before every request the
``canonicalize`` and ``contains`` caches are cleared, as a fresh CLI
process would have them.  Every output is checked.

Latencies are scaled to the nominal machine speed of ``speed.py``, by
the reference loop timed every 0.2 s during the same pass, inside long
requests too (``speed.Sampler``); the time the sampling takes is left
out of every latency and span.  A request's latency is its median over
the passes; ``wall_s`` is the sum of those medians, the time of one
pass with every request at its typical cost.

TRACE 0 reports the end-to-end metrics; TRACE 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones,
per pass.  The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time

import speed
from checks import check
from spans import LAYERS, Tracer

KINDS = {"answer": "answer", "rewrite": "rewrite", "oracle-check": "oracle_check"}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Runner:
    def __init__(self, requests, modules):
        self.requests = requests
        # the lru objects themselves, taken before any wrapper is installed
        self.caches = {
            "queries.canonicalize": modules["queries"].canonicalize,
            "queries.contains": modules["queries"].contains,
        }
        self.cache_hits = dict.fromkeys(self.caches, 0)
        self.cache_lookups = dict.fromkeys(self.caches, 0)
        self.attempted = 0
        self.failures = []
        self.sampler = speed.Sampler()

    def one_pass(self, main, count_caches: bool) -> tuple:
        """Send every request once.  Returns each request's raw latency
        and the speed scale measured during the pass."""
        latencies = []
        clock = self.sampler.clock
        self.sampler.start()
        try:
            for req in self.requests:
                self.send(main, req, latencies, clock, count_caches)
        finally:
            factor = self.sampler.stop()
        return latencies, factor

    def send(self, main, req, latencies: list, clock, count_caches: bool):
        for cache in self.caches.values():
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(req["argv"])
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a stray exception is a failed request
            rc = f"{type(e).__name__}: {e}"
        latencies.append(clock() - start)
        if count_caches:
            for name, cache in self.caches.items():
                info = cache.cache_info()
                self.cache_hits[name] += info.hits
                self.cache_lookups[name] += info.hits + info.misses
        self.attempted += 1
        reason = check(req, rc, out.getvalue()) if isinstance(rc, int) else rc
        if reason is not None:
            self.failures.append(f"{req['kind']} {req['argv'][-1]!r}: {reason} {err.getvalue().strip()}")


def request_medians(passes: list) -> list:
    """Each request's median scaled latency over the passes."""
    scaled = ([t * factor for t in latencies] for latencies, factor in passes)
    return [statistics.median(samples) for samples in zip(*scaled)]


def end_to_end(requests: list, passes: list, rss_mb: float) -> dict:
    medians = request_medians(passes)
    metrics = {"wall_s": (sum(medians), "s")}
    for kind, label in KINDS.items():
        samples = [t for req, t in zip(requests, medians) if req["kind"] == kind]
        for pct in (50, 95):
            metrics[f"{label}_p{pct}_ms"] = (percentile(samples, pct) * 1000, "ms")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def per_layer(tracer: Tracer, runner: Runner, traced: list, untraced: list) -> dict:
    n = len(traced)
    factor = statistics.median(f for _, f in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] * factor / n, "s")
    for name in runner.caches:
        metrics[f"{name}.cache_hit_rate"] = (
            runner.cache_hits[name] / max(1, runner.cache_lookups[name]), "ratio")
    for name in ("queries.contains", "queries.equivalent"):
        metrics[f"{name}.true_ratio"] = (tracer.true[name] / max(1, tracer.calls[name]), "ratio")
    for name in ("rewriting.rew", "rewriting.minicon"):
        metrics[f"{name}.found_ratio"] = (tracer.true[name] / max(1, tracer.calls[name]), "ratio")
    metrics["agent.accept_ratio"] = (tracer.agent_appended / max(1, tracer.agent_offered), "ratio")
    metrics["answers.evaluate.rows_out"] = (tracer.rows_out / n, "count")
    # a ratio, not a difference: the difference of two noisy walls
    # crosses zero
    ratio = sum(request_medians(traced)) / sum(request_medians(untraced))
    metrics["traced_wall_ratio"] = (ratio, "ratio")
    return metrics


def _describe(label: str, passes: list):
    if passes:
        raw = " ".join(f"{sum(latencies):.3f}" for latencies, _ in passes)
        factors = " ".join(f"{factor:.3f}" for _, factor in passes)
        print(f"{label} passes: raw seconds {raw}; speed scale {factors}")


def main(argv) -> int:
    manifest, seconds, trace_on, src = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, src)
    from p2pq import agent, answers, cli, network, oracle, parsing, queries, rewriting

    modules = {m.__name__.rsplit(".", 1)[1]: m for m in
               (agent, answers, cli, network, oracle, parsing, queries, rewriting)}
    with open(manifest, encoding="utf-8") as fh:
        requests = json.load(fh)
    runner = Runner(requests, modules)
    tracer = Tracer(runner.sampler.clock)
    traced_main = tracer.wrap("cli.main", cli.main)

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if trace_on and len(untraced) > len(traced):
            tracer.install(modules)
            try:
                traced.append(runner.one_pass(traced_main, count_caches=True))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.one_pass(cli.main, count_caches=False))
        if time.perf_counter() >= deadline and (traced or not trace_on):
            break

    for line in runner.failures[:20]:
        print("FAILED", line, file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = per_layer(tracer, runner, traced, untraced) if trace_on else end_to_end(requests, untraced, rss_mb)
    print(f"requests per pass: {len(requests)}")
    _describe("untraced", untraced)
    _describe("traced", traced)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
