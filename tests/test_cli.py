import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from p2pq import answer, load_network, parse_query
from p2pq.cli import answer_report_from_dict, main

ROOT = Path(__file__).resolve().parent.parent
TWO_PEER = ROOT / "demos" / "networks" / "two_peer.json"
NET = str(TWO_PEER)

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


def test_validate_invalid_content_is_domain_error(tmp_path, capsys):
    doc = json.loads(TWO_PEER.read_text())
    doc["mappings"][0]["to_view"] = "nope"
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1
    assert "unknown view" in capsys.readouterr().err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/net.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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


def test_answer_bad_query_is_usage_error(capsys):
    assert main(["answer", NET, "--peer", "Pi", "--query", "q(x :- A(x)"]) == 2
    assert "bad query" in capsys.readouterr().err


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
    monkeypatch.setenv("P2PQ_STEP_CEILING", "1")
    assert main(["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)"]) == 1
    assert "fixpoint ceiling" in capsys.readouterr().err
    monkeypatch.setenv("P2PQ_STEP_CEILING", "banana")
    assert main(["answer", NET, "--peer", "Pi", "--query", "q(x) :- A(x, y), B(y)"]) == 1
    assert "P2PQ_STEP_CEILING" in capsys.readouterr().err


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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "p2pq.cli", "validate", NET],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "network OK" in proc.stdout


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
