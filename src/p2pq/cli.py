"""Command-line interface.

    p2pq validate <file>
    p2pq answer <file> --peer ID --query "q(x) :- A(x,y)" [--format table|json] [--trace]
    p2pq rewrite <file> --peer ID --target ID --query "..."
    p2pq oracle-check <file> --peer ID --query "..."

Exit codes: 0 success, 1 domain failure (invalid network content, no
such peer, bad query for the peer, ceiling exceeded, oracle
disagreement), 2 usage or I/O error (bad flags, an unreadable file, a
file that is not UTF-8 text, malformed JSON, bad query syntax, output
that cannot be written, such as to a closed pipe).  Output is
deterministic: equal inputs produce byte-identical output.  The
environment variable P2PQ_STEP_CEILING overrides the agent's fixpoint
ceiling, and for oracle-check it bounds the weak closure's nodes as
well.  Its value must be a positive integer written in ASCII digits
alone (no sign, spaces or underscores); any other is a domain failure.

Each call reads the documented shape directly, without argparse: a
command, the file, then that command's options from the `_COMMANDS`
table, spelled in full, in any order, each but `--trace` with its value
as the next argument.  Any other argv (help, `--opt=value`, abbreviated
options, a value that starts with `-`, and every usage error) goes to
the full parser, so argparse writes every help and error text.

Help written to a closed pipe is an output that cannot be written, exit
2, as any other output is.  With PYTHONUNBUFFERED set the write happens
inside argparse, which drops a failed write itself, so help then exits
0 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .agent import DEFAULT_STEP_CEILING, trace as agent_trace
from .answers import AnswerReport, TupleSet, answer, assemble_report, row_key
from .errors import NetworkSyntaxError, P2pqError, ParseError, QueryError, ValidationError
from .network import Network, json_array, json_member, json_object, json_string, load_network
from .oracle import check_theorem
from .parsing import parse_query
from .queries import ConjunctiveQuery, constant_text
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


def _sorted_rows(ts: TupleSet) -> list:
    return sorted(ts.rows, key=row_key)


def _print_rows(ts: TupleSet, indent: str) -> None:
    # one write for all the rows, each value as the grammar writes it
    if ts.rows:
        print("\n".join([f"{indent}({', '.join(map(constant_text, row))})" for row in _sorted_rows(ts)]))


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


def _tuple_set(entry: dict, arity: int, where: str, pid=None) -> TupleSet:
    rows = json_array(json_member(entry, "rows", where, pid), where + ".rows", pid)
    for k, row in enumerate(rows):
        if not isinstance(row, list) or any(type(v) not in (int, str) for v in row):
            raise ValidationError(
                f"{where.format(pid)}.rows[{k}]: expected an array of integers and strings"
            )
    try:
        return TupleSet(arity, rows)
    except QueryError as e:  # a row of another arity
        raise ValidationError(f"{where.format(pid)}.rows: {e}") from e


def answer_report_from_dict(doc: dict) -> AnswerReport:
    """Rebuild an AnswerReport from its JSON form (inverse of
    answer_report_to_dict, ignoring any trace).  A document of another
    shape raises ValidationError naming the part, and a query text that
    does not parse raises what parse_query raises."""
    json_object(doc, None, "report")
    query = parse_query(json_string(doc, "query", "report"))
    union = json_object(json_member(doc, "union", "report"), None, "report.union")
    arity = json_member(union, "arity", "report.union")
    if type(arity) is not int or arity < 0:  # a JSON true is an int to isinstance
        raise ValidationError("report.union.arity: expected a non-negative integer")
    per_peer = {}
    where = "report.peers[{!r}]"
    for pid, entry in json_object(json_member(doc, "peers", "report"), None, "report.peers").items():
        json_object(entry, None, where, pid)
        texts = json_array(json_member(entry, "queries", where, pid), where + ".queries", pid)
        per_peer[pid] = (frozenset(map(parse_query, texts)), _tuple_set(entry, arity, where, pid))
    union_rows = _tuple_set(union, arity, "report.union")
    return AnswerReport(json_string(doc, "origin", "report"), query, per_peer, union_rows)


def _load(path: str) -> Network:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise NetworkSyntaxError(f"{path!r} is not UTF-8 text: {e}") from e
    except OSError as e:
        raise _UsageError(f"cannot read {path!r}: {e.strerror}") from e
    return load_network(text)


def _step_ceiling() -> int:
    raw = os.environ.get("P2PQ_STEP_CEILING")
    if raw is None:
        return DEFAULT_STEP_CEILING
    try:
        # ASCII digits only, as the query grammar writes integers: int()
        # also takes a sign, spaces, underscores and other scripts' digits
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError
        value = int(raw)  # past the integer digit limit, a ValueError too
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
        _print_rows(ts, "    ")
    print(f"union: {len(report.union)} rows")
    _print_rows(report.union, "  ")
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


_REQUIRED = {"required": True}
_PEER_QUERY = {"--peer": _REQUIRED, "--query": _REQUIRED}

# name: (help, handler, options after the positional file argument)
_COMMANDS = {
    "validate": ("check a network document", cmd_validate, {}),
    "answer": ("answer a query posed at a peer", cmd_answer, {
        **_PEER_QUERY,
        "--format": {"choices": ("table", "json"), "default": "table"},
        "--trace": {"action": "store_true"},
    }),
    "rewrite": ("rewrite a query toward one neighbor", cmd_rewrite,
                {"--peer": _REQUIRED, "--target": _REQUIRED, "--query": _REQUIRED}),
    "oracle-check": ("certify the agent against the deduction oracle", cmd_oracle_check, _PEER_QUERY),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2pq",
        description="Query answering over peer-to-peer view mappings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("file")
        for flag, kwargs in options.items():
            command.add_argument(flag, **kwargs)
        command.set_defaults(func=handler)
    return parser


def _read_documented(argv: list[str]) -> Optional[argparse.Namespace]:
    """argv's Namespace when argv has the documented shape, as the full
    parser would build it; None for anything the reader leaves to
    argparse."""
    if len(argv) < 2 or argv[0] not in _COMMANDS or argv[1].startswith("-"):
        return None
    _, handler, options = _COMMANDS[argv[0]]
    given = {}
    rest = iter(argv[2:])
    for flag in rest:
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(rest, "-")  # a missing value reads as a flag
        if value.startswith("-") or value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0], file=argv[1], func=handler)
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        default = kwargs.get("default", False if kwargs.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv's Namespace, as `_build_parser().parse_args(argv)` gives it."""
    args = _read_documented(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the flush at
    interpreter exit drops what is still buffered instead of failing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor: nothing is flushed at exit
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _parse_args(argv)
        except SystemExit:  # argparse wrote help or a usage error
            sys.stdout.flush()  # help to a closed pipe fails here, not at exit
            raise
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except (_UsageError, NetworkSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # _load reports its own; this is a write to stdout
        print(f"error: cannot write output: {e.strerror}", file=sys.stderr)
        _discard_stdout()
        return EXIT_USAGE
    except P2pqError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
