import argparse
import contextlib
import errno
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from p2pq import ValidationError, answer, load_network, parse_query
from p2pq.cli import _COMMANDS, _build_parser, _parse_args, answer_report_from_dict, cmd_answer, main

ROOT = Path(__file__).resolve().parent.parent
TWO_PEER = ROOT / "demos" / "networks" / "two_peer.json"
NET = str(TWO_PEER)
QUERY = "q(x) :- A(x, y), B(y)"

# Python 3.11 refuses to convert integer strings past a digit limit
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)


def test_validate_ok(capsys):
    assert main(["validate", NET]) == 0
    out = capsys.readouterr().out
    assert out == "network OK: 2 peers, 6 views, 4 mapping pairs\n"


def test_validate_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["validate", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@NEEDS_INT_DIGIT_LIMIT
def test_validate_number_past_the_digit_limit_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"peers": [{"id": "P", "schema": [{"name": "A", "arity": ' + "1" * 5000 + "}]}]}")
    assert main(["validate", str(bad)]) == 2
    assert "malformed JSON: Exceeds the limit" in capsys.readouterr().err


def test_validate_deeply_nested_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[" * 100_000)
    assert main(["validate", str(bad)]) == 2
    assert "malformed JSON: maximum recursion depth exceeded" in capsys.readouterr().err


def test_validate_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"peers": [\xff]}')
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: {str(bad)!r} is not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 11: invalid start byte\n"
    )


def _two_peer_mapping_to(view):
    doc = json.loads(TWO_PEER.read_text())
    doc["mappings"][0]["to_view"] = view
    return doc


@pytest.mark.parametrize("doc, message", [
    (_two_peer_mapping_to("nope"), "mapping 'Pi'->'Pj': unknown view 'nope' on peer 'Pj'"),
    # a malformed part of the document is named
    ({"peers": [{"id": "P", "views": [{"name": "v"}]}]}, "peer 'P'.views[0]: needs 'name' and 'def'"),
    # a bad fact after a good one is named by its index, line and column
    ({"peers": [{"id": "P", "schema": [{"name": "R", "arity": 2}], "facts": ["R(1, 2)", "R(1, $)"]}]},
     "peer 'P', facts[1]: line 1, column 6: unexpected character '$'"),
], ids=["unknown-view", "bad-view", "bad-fact"])
def test_validate_invalid_content_is_domain_error(doc, message, tmp_path, capsys):
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_path_is_named(tmp_path, capsys):
    assert main(["validate", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n"


@pytest.fixture
def big_network(tmp_path):
    """A one-peer network file whose answer to BIG_QUERY has 5,000 rows."""
    doc = {"peers": [{"id": "P", "schema": [{"name": "R", "arity": 2}],
                      "views": [{"name": "v", "def": "v(x, y) :- R(x, y)"}],
                      "facts": [f"R({i}, {i + 1})" for i in range(5000)]}], "mappings": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    return str(path)


BIG_QUERY = "q(x, y) :- R(x, y)"


def test_answer_of_5000_rows_comes_out_whole(big_network, capsys):
    argv = ["answer", big_network, "--peer", "P", "--query", BIG_QUERY]
    assert main(argv) == 0
    rows = [f"({i}, {i + 1})" for i in range(5000)]
    assert capsys.readouterr().out == (
        "origin: P\nquery: q(x, y) :- R(x, y)\npeer P: 1 queries, 5000 rows\n  q(v0, v1) :- R(v0, v1)\n"
        + "".join(f"    {row}\n" for row in rows) + "union: 5000 rows\n" + "".join(f"  {row}\n" for row in rows)
    )
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["union"]["rows"] == doc["peers"]["P"]["rows"] == [[i, i + 1] for i in range(5000)]


class _ClosedPipe:
    """stdout whose reader stops after `allowed` characters: a write
    that would go past them fails, as a write to a closed pipe does."""

    def __init__(self, allowed=0):
        self.allowed = allowed
        self.text = ""

    def write(self, text):
        if len(self.text) + len(text) > self.allowed:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        self.text += text

    def flush(self):
        pass


@pytest.mark.parametrize("allowed", [0, len("origin: P\n"), 50_000], ids=["first-write", "first-line", "in-the-rows"])
def test_closed_output_pipe_is_a_write_error(big_network, allowed, capsys):
    # a failed write is not a failed read of the network file, whether
    # it is the first write or one after others got through, as when
    # `p2pq answer ... | head -n 1` stops reading
    pipe = _ClosedPipe(allowed)
    with contextlib.redirect_stdout(pipe):
        assert main(["answer", big_network, "--peer", "P", "--query", BIG_QUERY]) == 2
    assert capsys.readouterr().err == "error: cannot write output: Broken pipe\n"
    assert bool(pipe.text) == (allowed > 0)


@pytest.mark.parametrize("argv", [
    ["answer", NET, "--peer", "Pi", "--query", QUERY],
    ["--help"],
    ["answer", "--help"],
], ids=["answer", "help", "answer-help"])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_output_pipe_through_the_interpreter(unbuffered, argv):
    # the pipe has no reader, so the child's first write to stdout fails,
    # whether print makes it or the final flush does; nothing may fail
    # again at interpreter exit.  Unbuffered, help is written inside
    # argparse, which drops the failed write and exits 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "p2pq.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60,
        )
    finally:
        os.close(write_end)
    if unbuffered and "--help" in argv:
        assert (proc.returncode, proc.stderr) == (0, b"")
    else:
        assert (proc.returncode, proc.stderr) == (2, b"error: cannot write output: Broken pipe\n")


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# argv lists that argparse answers itself, with help or a usage error,
# at the root or in a subcommand
ARGPARSE_EXITS = [
    [],
    ["--help"],
    ["bogus"],
    ["--format", "json", "validate", NET],
    ["answer"],
    *([command, "--help"] for command in ("validate", "answer", "rewrite", "oracle-check")),
    ["rewrite", NET, "--peer", "Pi"],
    ["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y)", "--format", "xml"],
    ["validate", NET, "extra"],
    ["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y)", "--bogus"],
    ["rewrite", NET, "--peer", "Pi", "--target"],
    ["oracle-check", NET, "--", "--peer"],
    ["answer", NET, "--peer", "Pi", "--query", "-q"],
    ["rewrite", NET, "--peer", "Pi", "--target", "Pj", "--query", QUERY, "--trace"],
]


def _argparse_exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", ARGPARSE_EXITS, ids=lambda argv: " ".join(argv).replace(NET, "NET"))
def test_help_and_usage_errors_match_the_full_parser(argv, capsys):
    # argparse prints these, through the full parser whatever main reads
    # directly
    full = _build_parser()
    assert all(command in full.format_help() for command in ("validate", "answer", "rewrite", "oracle-check"))
    expected = _argparse_exit(full.parse_args, argv, capsys)
    assert _argparse_exit(main, argv, capsys) == expected


# accepted spellings of a named command's arguments
ACCEPTED = [
    ["answer", NET, "--peer=Pi", "--query", "q(x) :- A(x, y)"],
    ["answer", NET, "--pe", "Pi", "--query", "q(x) :- A(x, y)"],
    ["answer", "--trace", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y)"],
    ["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y)", "--format=json"],
    ["answer", NET, "--peer", "Pj", "--query", "q(x) :- A(x, y)", "--peer", "Pi"],
]


@pytest.mark.parametrize("argv", ACCEPTED, ids=lambda argv: " ".join(argv).replace(NET, "NET"))
def test_a_named_command_parses_as_the_full_parser_does(argv):
    args = _parse_args(argv)
    assert args == _build_parser().parse_args(argv)
    assert (args.command, args.func, args.peer) == ("answer", cmd_answer, "Pi")


VALUES = ("", "x y", "P-1", QUERY, "-1", "--peer", "-q")


@st.composite
def command_lines(draw):
    """A command's argv: its options in a random subset, order and
    spelling (full, `--opt=value` or an unambiguous abbreviation), now
    and then with one fault or a leading option.  Half the draws spell
    every option in full with a separate value, and whole option sets
    and plain values are drawn more often, so that many argv lists have
    the documented shape."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[name][2]
    in_full = draw(st.booleans())
    count = draw(st.sampled_from([len(options)] * 3 + list(range(len(options)))))
    pieces = []
    for flag in draw(st.permutations(sorted(options)))[:count]:
        others = [other for other in options if other != flag]
        spelled = flag if in_full else draw(st.sampled_from(
            [flag] + [flag[:n] for n in range(3, len(flag)) if not any(o.startswith(flag[:n]) for o in others)]))
        if options[flag].get("action") == "store_true":
            pieces.append([spelled])
            continue
        value = draw(st.sampled_from(options[flag].get("choices", (QUERY, "x y")) * 3 + ("xml",) + VALUES))
        pieces.append([spelled, value] if in_full or draw(st.booleans()) else [f"{spelled}={value}"])
    fault = draw(st.sampled_from(["none"] * 10 + ["repeat", "no value", "leftover", "leading", "foreign"]))
    if fault == "repeat" and pieces:
        pieces.append(draw(st.sampled_from(pieces)))
    if fault == "no value" and pieces:
        pieces[-1] = [pieces[-1][0].partition("=")[0]]
    if fault == "leftover":
        pieces.append(["extra"])
    if fault == "foreign":
        pieces.append([draw(st.sampled_from(["--trace", "--target", "-h", "--help", "--"]))])
    leading = pieces.pop(0) if fault == "leading" and pieces else []
    path = draw(st.sampled_from([NET, "x y", "P-1"]))
    return [name, *leading, path, *(arg for piece in pieces for arg in piece)]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
def test_any_argv_reads_as_the_full_parser_reads_it(argv, capsys):
    try:
        expected = _build_parser().parse_args(argv)
    except SystemExit as exc:
        expected = (exc.code, *capsys.readouterr())
        assert _argparse_exit(_parse_args, argv, capsys) == expected
    else:
        assert _parse_args(argv) == expected


def test_the_documented_shape_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["validate", NET]) == 0
    assert main(["answer", NET, "--peer", "Pi", "--query", QUERY]) == 0
    assert built == []
    assert main(["answer", NET, "--peer=Pi", "--query", QUERY]) == 0
    assert built == ["p2pq", "p2pq validate", "p2pq answer", "p2pq rewrite", "p2pq oracle-check"]
    assert capsys.readouterr().out.count("union: 3 rows\n") == 2


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["p2pq", "validate", NET])
    assert main() == 0
    assert capsys.readouterr().out == "network OK: 2 peers, 6 views, 4 mapping pairs\n"


def test_answer_table_output_is_deterministic(capsys):
    argv = ["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "origin: Pi" in first
    assert "union: 3 rows" in first
    assert "(5)" in first


def test_answer_json_round_trips(capsys):
    argv = [
        "answer", NET, "--peer", "Pi",
        "--query", "q(x) :- A(x, y), B(y)", "--format", "json",
    ]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    rebuilt = answer_report_from_dict(doc)
    net = load_network(TWO_PEER.read_text())
    direct = answer(net, "Pi", parse_query("q(x) :- A(x, y), B(y)"))
    assert rebuilt == direct


REPORT = {
    "origin": "Pi",
    "query": "q(x) :- A(x, y)",
    "peers": {"Pi": {"queries": ["q(x) :- A(x, y)"], "rows": [[1]]}},
    "union": {"arity": 1, "rows": [[1]]},
}


DELETE = object()


def _report_with(path, value):
    """A copy of REPORT with the part at `path` set to value, or deleted
    when value is DELETE."""
    doc = json.loads(json.dumps(REPORT))
    *parents, key = path
    part = doc
    for p in parents:
        part = part[p]
    if value is DELETE:
        del part[key]
    else:
        part[key] = value
    return doc


@pytest.mark.parametrize("doc, message", [
    ([], "report: expected an object"),
    ({}, "report: missing 'query'"),
    (_report_with(["query"], 5), "report.query: expected a string"),
    (_report_with(["union"], []), "report.union: expected an object"),
    (_report_with(["union", "arity"], DELETE), "report.union: missing 'arity'"),
    (_report_with(["union", "arity"], "1"), "report.union.arity: expected a non-negative integer"),
    (_report_with(["union", "arity"], True), "report.union.arity: expected a non-negative integer"),
    (_report_with(["union", "rows"], [[1, [2]]]), "report.union.rows[0]: expected an array of integers and strings"),
    (_report_with(["union", "rows"], [1]), "report.union.rows[0]: expected an array of integers and strings"),
    (_report_with(["union", "rows"], [[1, 2]]), "report.union.rows: row (1, 2) does not have arity 1"),
    (_report_with(["peers"], []), "report.peers: expected an object"),
    (_report_with(["peers", "Pi"], 7), "report.peers['Pi']: expected an object"),
    (_report_with(["peers", "Pi", "rows"], DELETE), "report.peers['Pi']: missing 'rows'"),
    (_report_with(["origin"], DELETE), "report: missing 'origin'"),
    (_report_with(["origin"], ["Pi"]), "report.origin: expected a string"),
    (_report_with(["peers", "Pi", "queries"], DELETE), "report.peers['Pi']: missing 'queries'"),
    (_report_with(["peers", "Pi", "queries"], "q(x) :- A(x, y)"), "report.peers['Pi'].queries: expected an array"),
    (_report_with(["union", "rows"], DELETE), "report.union: missing 'rows'"),
    (_report_with(["union", "rows"], {}), "report.union.rows: expected an array"),
    (_report_with(["peers", "{0}"], {"queries": []}), "report.peers['{0}']: missing 'rows'"),
])
def test_a_report_of_another_shape_is_a_validation_error(doc, message):
    assert answer_report_from_dict(REPORT).origin == "Pi"
    with pytest.raises(ValidationError) as err:
        answer_report_from_dict(doc)
    assert str(err.value) == message


def test_answer_trace_flag(capsys):
    argv = ["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)", "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    assert "[0] Pi:" in out

    argv_json = argv + ["--format", "json"]
    assert main(argv_json) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trace"][0]["peer"] == "Pi"
    # trace is ignored by the inverse transform
    net = load_network(TWO_PEER.read_text())
    direct = answer(net, "Pi", parse_query("q(x) :- A(x, y), B(y)"))
    assert answer_report_from_dict(doc) == direct


@pytest.mark.parametrize("query, message", [
    ("q(x :- A(x)", "line 1, column 5: expected ')', got ':-'"),
    ('q(x) :- A(x, "ab', "line 1, column 14: unterminated string constant"),
    ("q(x) :- A(x, y); B(y)", "line 1, column 16: unexpected character ';'"),
], ids=["unclosed-head", "unterminated-string", "no-token"])
def test_answer_bad_query_is_usage_error(query, message, capsys):
    # positioned: an unclosed head, an unterminated string, then a
    # character that starts no token
    assert main(["answer", NET, "--peer", "Pi", "--query", query]) == 2
    assert capsys.readouterr().err == f"error: bad query: {message}\n"


def test_answer_query_of_constraints_only_is_usage_error(capsys):
    assert main(["answer", NET, "--peer", "Pi", "--query", "q() :- 1 < 2"]) == 2
    assert capsys.readouterr().err == "error: bad query: query 'q' has an empty body\n"


@NEEDS_INT_DIGIT_LIMIT
def test_rewrite_integer_past_the_digit_limit_is_usage_error(capsys):
    query = "q(x) :- A(x, " + "1" * 5000 + ")"
    assert main(["rewrite", NET, "--peer", "Pi", "--target", "Pj", "--query", query]) == 2
    assert "line 1, column 14: integer constant too long (5000 digits)" in capsys.readouterr().err


def test_answer_unknown_peer_is_domain_error(capsys):
    assert main(["answer", NET, "--peer", "Px", "--query", "q(x) :- A(x, y)"]) == 1
    assert "unknown peer" in capsys.readouterr().err


def test_answer_view_level_query_is_domain_error(capsys):
    assert main(["answer", NET, "--peer", "Pi", "--query", "q(x) :- v1(x, y)"]) == 1
    assert "query/schema mismatch" in capsys.readouterr().err


def test_answer_respects_step_ceiling_env(monkeypatch, capsys):
    argv = ["answer", NET, "--peer", "Pi", "--query", QUERY]
    monkeypatch.setenv("P2PQ_STEP_CEILING", "1")
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: fixpoint ceiling exceeded (1 steps)\n"
    # only ASCII digits spell a ceiling: an integer below 1 is refused,
    # and so is every other text that int() reads, with a sign, spaces,
    # an underscore or fullwidth digits, and digits past int()'s limit
    past_the_limit = ["1" * 5000] if hasattr(sys, "get_int_max_str_digits") else []
    for raw in ("banana", "0", "-3", "\uff11\uff12", "1_000", " 7 ", "+5", *past_the_limit):
        monkeypatch.setenv("P2PQ_STEP_CEILING", raw)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: P2PQ_STEP_CEILING must be a positive integer, got {raw!r}\n"


def test_rewrite_outputs_canonical_query(capsys):
    argv = ["rewrite", NET, "--peer", "Pi", "--target", "Pj", "--query", "q(x) :- A(x, y), B(y)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "q(v0) :- C(v0, v1), D(v1)\n"


def test_rewrite_carries_builtins(capsys):
    argv = [
        "rewrite", NET, "--peer", "Pi", "--target", "Pj",
        "--query", "q(x) :- A(x, y), B(y), x >= 1",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == "q(v0) :- C(v0, v1), D(v1), 1 <= v0\n"


def test_rewrite_prints_empty_marker(capsys):
    argv = ["rewrite", NET, "--peer", "Pi", "--target", "Pj", "--query", "q(x) :- E(x)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "EMPTY\n"


@pytest.mark.xfail(
    strict=True,
    reason="rew lets a constraint on a projected-away variable attach to a view "
    "variable of the same name (ROADMAP item 1); the fix changes corpus instance "
    "94's rewrite to EMPTY, so it needs perfbench/corpus_reference.json re-recorded first",
)
def test_rewriting_does_not_depend_on_variable_names(tmp_path, capsys):
    doc = {
        "peers": [
            {"id": "Pi", "schema": [{"name": "A", "arity": 2}],
             "views": [{"name": "v1", "def": "v1(x) :- A(x, y)"}]},
            {"id": "Pj", "schema": [{"name": "C", "arity": 2}],
             "views": [{"name": "w1", "def": "w1(a) :- C(a, v1)"}], "facts": ["C(5, 1)"]},
        ],
        "mappings": [{"from_peer": "Pi", "from_view": "v1", "to_peer": "Pj", "to_view": "w1"}],
    }
    net_file = tmp_path / "projected.json"
    net_file.write_text(json.dumps(doc))
    rewrites = []
    for query in ("q(x) :- A(x, y), y < 5", "q(x) :- A(x, v1), v1 < 5"):
        assert main(["rewrite", str(net_file), "--peer", "Pi", "--target", "Pj", "--query", query]) == 0
        rewrites.append(capsys.readouterr().out)
    assert rewrites[0] == rewrites[1]
    argv = ["answer", str(net_file), "--peer", "Pi", "--query", "q(x) :- A(x, y), y < 5"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("union: 0 rows\n")


def test_rewrite_undeclared_interface_is_domain_error(tmp_path, capsys):
    doc = json.loads(TWO_PEER.read_text())
    doc["mappings"] = [m for m in doc["mappings"] if m["from_peer"] == "Pi"]
    net_file = tmp_path / "oneway.json"
    net_file.write_text(json.dumps(doc))
    argv = [
        "rewrite", str(net_file), "--peer", "Pj", "--target", "Pi",
        "--query", "q(x) :- C(x, y), D(y)",
    ]
    assert main(argv) == 1


def test_oracle_check_agrees(capsys):
    argv = ["oracle-check", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)"]
    assert main(argv) == 0
    assert "coincide" in capsys.readouterr().out


def test_long_chain_through_answer_and_oracle_check(tmp_path, capsys):
    # a 1,200-atom chain over a relation no mapped view covers: the
    # agent and the oracle canonicalize it without recursing, and it
    # never crosses the interface
    doc = {
        "peers": [
            {"id": "P0",
             "schema": [{"name": "R", "arity": 2}, {"name": "M", "arity": 2}],
             "views": [{"name": "m0", "def": "m0(x, y) :- M(x, y)"}],
             "facts": ["R(1, 1)", "R(2, 3)"]},
            {"id": "P1",
             "schema": [{"name": "N", "arity": 2}],
             "views": [{"name": "m1", "def": "m1(x, y) :- N(x, y)"}],
             "facts": []},
        ],
        "mappings": [
            {"from_peer": "P0", "from_view": "m0", "to_peer": "P1", "to_view": "m1"},
            {"from_peer": "P1", "from_view": "m1", "to_peer": "P0", "to_view": "m0"},
        ],
    }
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(doc))
    query = "q(x0) :- " + ", ".join(f"R(x{i}, x{i + 1})" for i in range(1200))
    start = time.perf_counter()
    assert main(["answer", str(net_file), "--peer", "P0", "--query", query]) == 0
    assert "union: 1 rows" in capsys.readouterr().out
    assert main(["oracle-check", str(net_file), "--peer", "P0", "--query", query]) == 0
    assert "coincide" in capsys.readouterr().out
    assert time.perf_counter() - start < 20


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "p2pq.cli", "validate", NET],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "network OK" in proc.stdout


@pytest.mark.parametrize(
    "argv, ceiling, outcome",
    [
        (["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)", "--trace", "--format", "json"], None,
         (0, b"")),
        (["rewrite", NET, "--peer", "Pi", "--target", "Pj", "--query", "q(x) :- A(x, y), B(y)"], None, (0, b"")),
        (["oracle-check", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)"], None, (0, b"")),
        # the agent diverges here, so the step ceiling stops it
        (["answer", str(ROOT / "demos" / "networks" / "divergent.json"), "--peer", "P3",
          "--query", "q(x) :- R3a(y, y), R3b(x)"], "5", (1, b"error: fixpoint ceiling exceeded (5 steps)\n")),
        # of two bad facts, the first in the document is named
        (["validate", {"peers": [{"id": "P", "schema": [{"name": "C", "arity": 1}], "facts": ["C(5, 6)", "D(6)"]}]}],
         None, (1, b"error: peer 'P': fact C(5, 6) does not match the schema\n")),
    ],
    ids=["answer-trace-json", "rewrite", "oracle-check", "ceiling", "two-bad-facts"],
)
def test_output_does_not_depend_on_the_hash_seed(argv, ceiling, outcome, tmp_path):
    # a document given inline is written to a file first
    argv = list(argv)
    for k, arg in enumerate(argv):
        if isinstance(arg, dict):
            argv[k] = str(tmp_path / "network.json")
            (tmp_path / "network.json").write_text(json.dumps(arg))
    # four seeds: a set of two strings iterates in the same order under
    # seeds 0 and 1 one time in two
    runs = []
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
        env.pop("P2PQ_STEP_CEILING", None)
        if ceiling is not None:
            env["P2PQ_STEP_CEILING"] = ceiling
        proc = subprocess.run([sys.executable, "-m", "p2pq.cli", *argv], env=env, capture_output=True)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs.count(runs[0]) == len(runs)
    code, _, err = runs[0]
    assert (code, err) == outcome


def test_readme_command_line_examples(monkeypatch, capsys):
    # every `$ p2pq ...` line of the README's "Command line" block, run
    # from the repository root, prints exactly the text shown under it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = ("\n" + block).split("\n$ ")[1:]
    assert len(examples) == 4
    monkeypatch.chdir(ROOT)
    for example in examples:
        command, _, shown = example.partition("\n")
        argv = shlex.split(command)
        assert argv[0] == "p2pq"
        assert main(argv[1:]) == 0, command
        assert capsys.readouterr().out == shown.strip("\n") + "\n", command
