"""Output checks for benchmark requests.

Each request carries an ``expect`` dict (see ``workloads.py``); ``check``
compares one CLI invocation's exit code and captured stdout with it and
returns None when they agree, otherwise a one-line reason.  The checks
read only the documented CLI output: row lines and rewritten query text.
Query names are ignored, so a name carried over from another query
cannot make a check pass or fail.
"""

from __future__ import annotations

import re
from typing import Optional

ORACLE_OK = "agent fixpoint and weak closure coincide"

_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)")


def answer_rows(stdout: str) -> dict:
    """Row lines of an `answer` table, grouped as {"peers": {id: rows},
    "union": rows}, each list sorted."""
    peers: dict = {}
    union: list = []
    current = None
    for line in stdout.splitlines():
        if line.startswith("peer "):
            current = peers.setdefault(line[5:line.index(":")], [])
        elif line.startswith("union: "):
            current = union
        elif current is union and line.startswith("  ("):
            union.append(line.strip())
        elif current is not None and current is not union and line.startswith("    ("):
            current.append(line.strip())
    return {"peers": {p: sorted(rows) for p, rows in peers.items()}, "union": sorted(union)}


def without_name(text: str) -> str:
    """Query text from the head's parenthesis on; EMPTY unchanged."""
    text = text.strip()
    return text if text == "EMPTY" else text[text.find("("):]


def is_chain(text: str, m: int, peer: int) -> bool:
    """True iff `text` is q(a, b) :- R<peer>_0(a, .), R<peer>_1(., .), ...
    up to isomorphism: one alternating path of m atoms from a to b
    through distinct fresh variables."""
    head, _, body = text.strip().partition(" :- ")
    if not body:
        return False
    head_args = [a.strip() for a in head[head.find("(") + 1:-1].split(",")]
    atoms = [(p, [a.strip() for a in args.split(",")]) for p, args in _ATOM_RE.findall(body)]
    if len(head_args) != 2 or len(atoms) != m or any(len(args) != 2 for _, args in atoms):
        return False
    by_start = {}
    for pred, (a, b) in atoms:
        by_start.setdefault((pred, a), []).append(b)
    cur, seen = head_args[0], {head_args[0]}
    for i in range(m):
        nxt = by_start.get((f"R{peer}_{i % 2}", cur), [])
        if len(nxt) != 1:
            return False
        cur = nxt[0]
        last = i == m - 1
        if (cur == head_args[1]) != last or (not last and cur in seen):
            return False
        seen.add(cur)
    return True


def check(req: dict, rc: int, stdout: str) -> Optional[str]:
    """None when the invocation's output matches the request's
    expectation, otherwise why not."""
    if rc != 0:
        return f"exit code {rc}"
    expect = req["expect"]
    if "rows" in expect:
        got = answer_rows(stdout)
        if got != expect["rows"]:
            return f"rows differ: expected {expect['rows']}, got {got}"
    if "text" in expect:
        got = without_name(stdout)
        if got != expect["text"]:
            return f"rewrite differs: expected {expect['text']!r}, got {got!r}"
    if "chain" in expect:
        spec = expect["chain"]
        if not is_chain(stdout, spec["m"], spec["peer"]):
            return f"rewrite is not chain({spec['m']}) at P{spec['peer']}: {stdout.strip()!r}"
    if "oracle" in expect and stdout.strip() != ORACLE_OK:
        return f"oracle-check output {stdout.strip()!r}"
    return None
