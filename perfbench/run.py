"""p2pq benchmark.

    python3 perfbench/run.py --workload chain|join|symmetric|corpus \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The inputs of the workload are made
from the seed (see ``workloads.py``) and written under
``.bench_build/perfbench/``.  With ``--trace 0`` the benchmark first
times p2pq's set-up in fresh processes (``setup_probe.py``), then
measures the workload for S seconds in one worker process
(``worker.py``) and prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics instead.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Times are scaled to a nominal machine speed (``speed.py``); the raw
times are printed on the lines before it.  Exits non-zero, printing no
result, when p2pq's sources are missing or a process fails or runs
past the time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

SETUP_REPEATS = 5  # measured probes, after one that fills the bytecode cache
TIME_LIMIT_S = 170  # for the whole run, set-up probes and worker together


def _env() -> dict:
    env = dict(os.environ)
    # set iteration order is part of the work done; fix it so a seed
    # always means the same work
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(script: str, args: list, deadline: float) -> str:
    """Run a perfbench script in a fresh interpreter; its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *map(str, args)],
        env=_env(), capture_output=True, text=True, timeout=max(0.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with code {proc.returncode}")
    return proc.stdout


def setup_seconds(manifest: str, deadline: float) -> list:
    """(raw, scaled) set-up seconds of each measured probe."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        raw, scaled = _python("setup_probe.py", [SRC, manifest], deadline).split()
        times.append((float(raw), float(scaled)))
    return times[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # on SIGTERM, unwind: subprocess.run then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "p2pq", "__init__.py")):
        print(f"error: p2pq sources not found under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(BUILD, "perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        requests = workloads.build(args.workload, args.seed, workdir)
        manifest = os.path.join(workdir, "requests.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            json.dump(requests, fh)
        setup = [] if args.trace else setup_seconds(manifest, deadline)
        out = _python("worker.py", [manifest, args.seconds, args.trace, SRC], deadline).splitlines()
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = json.loads(out[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(s for _, s in setup), "unit": "s"}
        print("setup seconds: raw " + " ".join(f"{r:.4f}" for r, _ in setup)
              + "; scaled " + " ".join(f"{s:.4f}" for _, s in setup))
    for line in out[:-1]:
        print(line)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
