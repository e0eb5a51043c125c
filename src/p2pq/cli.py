"""Command-line interface.

    p2pq validate <file>
    p2pq answer <file> --peer ID --query "q(x) :- A(x,y)" [--format table|json] [--trace]
    p2pq rewrite <file> --peer ID --target ID --query "..."
    p2pq oracle-check <file> --peer ID --query "..."

Exit codes: 0 success, 1 domain failure (validation error, no such
peer, theorem mismatch), 2 usage or parse error (bad flags, a file that
is not UTF-8, malformed JSON, bad query text).  Output is deterministic:
equal inputs produce byte-identical output.  The environment variable
P2PQ_STEP_CEILING overrides the agent's fixpoint ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .agent import DEFAULT_STEP_CEILING, trace as agent_trace
from .answers import AnswerReport, TupleSet, answer, assemble_report, row_key
from .errors import NetworkSyntaxError, P2pqError, ParseError, QueryError
from .network import Network, load_network
from .oracle import check_theorem
from .parsing import parse_query
from .queries import Const, ConjunctiveQuery
from .rewriting import rew

__all__ = [
    "main",
    "cmd_validate",
    "cmd_answer",
    "cmd_rewrite",
    "cmd_oracle_check",
    "answer_report_to_dict",
    "answer_report_from_dict",
]

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _render_value(v) -> str:
    return str(Const(v))


def _render_row(row) -> str:
    return "(" + ", ".join(_render_value(v) for v in row) + ")"


def _sorted_rows(ts: TupleSet) -> list:
    return sorted(ts.rows, key=row_key)


def answer_report_to_dict(report: AnswerReport, trace_steps=None) -> dict:
    doc = {
        "origin": report.origin,
        "query": str(report.query),
        "peers": {
            pid: {
                "queries": sorted(str(q) for q in queries),
                "rows": [list(r) for r in _sorted_rows(ts)],
            }
            for pid, (queries, ts) in report.per_peer.items()
        },
        "union": {
            "arity": report.union.arity,
            "rows": [list(r) for r in _sorted_rows(report.union)],
        },
    }
    if trace_steps is not None:
        doc["trace"] = [
            {
                "step": t.index,
                "peer": t.peer,
                "query": str(t.query),
                "appended": [[pid, str(q)] for pid, q in t.appended],
            }
            for t in trace_steps
        ]
    return doc


def answer_report_from_dict(doc: dict) -> AnswerReport:
    """Rebuild an AnswerReport from its JSON form (inverse of
    answer_report_to_dict, ignoring any trace)."""
    query = parse_query(doc["query"])
    arity = doc["union"]["arity"]
    per_peer = {}
    for pid, entry in doc["peers"].items():
        queries = frozenset(parse_query(text) for text in entry["queries"])
        rows = frozenset(tuple(r) for r in entry["rows"])
        per_peer[pid] = (queries, TupleSet(arity, rows))
    union = TupleSet(arity, frozenset(tuple(r) for r in doc["union"]["rows"]))
    return AnswerReport(doc["origin"], query, per_peer, union)


def _load(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_network(fh.read())
        except UnicodeDecodeError as e:
            raise NetworkSyntaxError(f"{path!r} is not UTF-8 text: {e}") from e


def _step_ceiling() -> int:
    raw = os.environ.get("P2PQ_STEP_CEILING")
    if raw is None:
        return DEFAULT_STEP_CEILING
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise QueryError(f"P2PQ_STEP_CEILING must be a positive integer, got {raw!r}")
    return value


def _parse_cli_query(text: str) -> ConjunctiveQuery:
    # bad query text on the command line is a usage problem
    try:
        return parse_query(text)
    except (ParseError, QueryError) as e:
        raise _UsageError(f"bad query: {e}")


class _UsageError(Exception):
    pass


def cmd_validate(args) -> int:
    net = _load(args.file)
    n_views = sum(len(p.views) for p in net.peers)
    n_pairs = sum(len(pairs) for pairs in net.interfaces.values())
    print(f"network OK: {len(net.peers)} peers, {n_views} views, {n_pairs} mapping pairs")
    return EXIT_OK


def _print_trace(steps):
    print("trace:")
    for t in steps:
        print(f"  [{t.index}] {t.peer}: {t.query}")
        for pid, q in t.appended:
            print(f"      -> {pid}: {q}")


def cmd_answer(args) -> int:
    net = _load(args.file)
    query = _parse_cli_query(args.query)
    ceiling = _step_ceiling()
    steps = None
    if args.trace:
        result, steps = agent_trace(net, args.peer, query, step_ceiling=ceiling)
        report = assemble_report(net, args.peer, query, result)
    else:
        report = answer(net, args.peer, query, step_ceiling=ceiling)

    if args.format == "json":
        print(json.dumps(answer_report_to_dict(report, steps), indent=2, sort_keys=True))
        return EXIT_OK

    print(f"origin: {report.origin}")
    print(f"query: {report.query}")
    for peer in net.peers:
        queries, ts = report.per_peer[peer.id]
        print(f"peer {peer.id}: {len(queries)} queries, {len(ts)} rows")
        for text in sorted(str(q) for q in queries):
            print(f"  {text}")
        for row in _sorted_rows(ts):
            print(f"    {_render_row(row)}")
    print(f"union: {len(report.union)} rows")
    for row in _sorted_rows(report.union):
        print(f"  {_render_row(row)}")
    if steps is not None:
        _print_trace(steps)
    return EXIT_OK


def cmd_rewrite(args) -> int:
    net = _load(args.file)
    query = _parse_cli_query(args.query)
    out = rew(query, net, args.peer, args.target)
    print("EMPTY" if out is None else str(out))
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    net = _load(args.file)
    query = _parse_cli_query(args.query)
    report = check_theorem(net, args.peer, query, step_ceiling=_step_ceiling())
    print(report)
    return EXIT_OK if report.agrees else EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pq",
        description="Query answering over peer-to-peer view mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("answer", help="answer a query posed at a peer")
    p.add_argument("file")
    p.add_argument("--peer", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("rewrite", help="rewrite a query toward one neighbor")
    p.add_argument("file")
    p.add_argument("--peer", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("oracle-check", help="certify the agent against the deduction oracle")
    p.add_argument("file")
    p.add_argument("--peer", required=True)
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, NetworkSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: cannot read {getattr(e, 'filename', args.file)!r}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except P2pqError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
