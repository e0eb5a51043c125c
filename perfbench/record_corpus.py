"""Record the corpus workload's reference outputs.

    python3 perfbench/record_corpus.py

Run from the repository root.  Generates corpus instances
0..CANDIDATES-1 (see ``workloads.corpus_instance``), skips those whose
agent fixpoint needs more than 3,000 steps or whose `answer` runs longer
than 10 s (their derived queries grow at every step), sends each kept
instance's requests through ``p2pq.cli.main`` and writes the `answer` rows and `rewrite` text to
``perfbench/corpus_reference.json``.  The benchmark then checks every
corpus output against this file, so re-record only when the documented
output of p2pq is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import sys

import workloads
from checks import ORACLE_OK, answer_rows, without_name

CANDIDATES = 700
STEP_CEILING = 3000
TIME_CEILING_S = 10


class _TimeCeiling(Exception):
    pass


def _alarm(signum, frame):
    raise _TimeCeiling()


def invoke(main, queries, argv) -> tuple:
    queries.canonicalize.cache_clear()
    queries.contains.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    signal.alarm(TIME_CEILING_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        signal.alarm(0)
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    root = os.path.dirname(workloads.HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from p2pq import cli, queries

    workdir = os.path.join(root, ".bench_build", "perfbench", "record")
    os.makedirs(workdir, exist_ok=True)
    os.environ["P2PQ_STEP_CEILING"] = str(STEP_CEILING)
    signal.signal(signal.SIGALRM, _alarm)
    instances, skipped, slow = {}, [], []
    try:
        for instance in range(CANDIDATES):
            doc = workloads.corpus_instance(instance)[0]
            path = os.path.join(workdir, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            answer, *rest = workloads.corpus_requests(instance, path)
            try:
                rc, out, err = invoke(cli.main, queries, answer["argv"])
            except _TimeCeiling:
                slow.append(instance)
                continue
            if rc != 0:
                if "ceiling exceeded" not in err:
                    raise SystemExit(f"instance {instance}: answer failed: {err.strip()}")
                skipped.append(instance)
                continue
            entry = {"rows": answer_rows(out)}
            for req in rest:
                rc, out, err = invoke(cli.main, queries, req["argv"])
                if rc != 0:
                    raise SystemExit(f"instance {instance}: {req['kind']} failed: {err.strip()}")
                if req["kind"] == "rewrite":
                    entry["rewrite"] = without_name(out)
                elif out.strip() != ORACLE_OK:
                    raise SystemExit(f"instance {instance}: oracle-check: {out.strip()}")
            instances[str(instance)] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = {
        "candidates": CANDIDATES,
        "step_ceiling": STEP_CEILING,
        "skipped_steps": skipped,
        "skipped_time": slow,
        "time_ceiling_s": TIME_CEILING_S,
    }
    with open(workloads.CORPUS_REFERENCE, "w", encoding="utf-8") as fh:
        # one line per instance keeps the file small and its diffs readable
        fh.write(json.dumps(header, sort_keys=True)[:-1] + ', "instances": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                             for k, v in sorted(instances.items(), key=lambda kv: int(kv[0]))))
        fh.write("\n}}\n")
    print(f"kept {len(instances)} of {CANDIDATES} instances; skipped {skipped} (steps), {slow} (time)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
