import re
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    BuiltinAtom,
    Const,
    ParseError,
    Var,
    parse_atom,
    parse_query,
)


def test_parse_simple_query():
    q = parse_query("q(x, y) :- R(x, z), S(z, y)")
    assert q.name == "q"
    assert q.head_vars == (Var("x"), Var("y"))
    assert q.body == (Atom("R", (Var("x"), Var("z"))), Atom("S", (Var("z"), Var("y"))))
    assert q.builtins == ()


def test_parse_constants_and_strings():
    q = parse_query('q(x) :- R(x, 3), S(x, -7, "a b\\"c")')
    assert q.body[0].args[1] == Const(3)
    assert q.body[1].args[1] == Const(-7)
    assert q.body[1].args[2] == Const('a b"c')


def test_parse_builtins_all_operators():
    q = parse_query("q(x) :- R(x, y), x < 3, y <= x, x > 0, y >= 1, x = y, x != 2")
    assert len(q.builtins) == 6
    # flipped comparisons normalize at construction
    assert BuiltinAtom("<", Const(0), Var("x")) in q.builtins


def test_parse_boolean_query():
    q = parse_query("q() :- R(x)")
    assert q.head_vars == ()


def test_parse_allows_underscored_and_digit_names():
    q = parse_query("q_1(x_a) :- rel_2(x_a)")
    assert q.name == "q_1"
    assert q.body[0].predicate == "rel_2"


def test_parse_atom_ground():
    assert parse_atom("R(1, \"u\")") == Atom("R", (Const(1), Const("u")))


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_query("q(x) :- R(x,, y)")
    assert "line 1" in str(err.value)
    assert "column" in str(err.value)


def test_parse_error_on_missing_arrow():
    with pytest.raises(ParseError):
        parse_query("q(x) R(x)")


def test_parse_error_on_constant_in_head():
    with pytest.raises(ParseError, match="head positions must be variables"):
        parse_query("q(3) :- R(3)")


def test_parse_error_on_uppercase_term():
    # relation names are uppercase-friendly, term identifiers are not
    with pytest.raises(ParseError):
        parse_query("q(x) :- R(X)")


def test_parse_error_on_trailing_garbage():
    with pytest.raises(ParseError):
        parse_query("q(x) :- R(x) extra")


def test_parse_error_on_empty_body():
    with pytest.raises(ParseError):
        parse_query("q(x) :- ")


def test_parse_multiline_positions():
    with pytest.raises(ParseError) as err:
        parse_query("q(x) :-\n  R(x,\n  %)")
    assert "line 3" in str(err.value)


def test_unsafe_parsed_query_raises_query_error():
    # grammar accepts it, semantic validation rejects it
    from p2pq import QueryError

    with pytest.raises(QueryError):
        parse_query("q(x) :- R(y)")


def test_query_text_round_trip():
    texts = [
        "q(x, y) :- R(x, z), S(z, y)",
        'q(x) :- R(x, 3), x < 7, x != "a"',
        "q() :- R(x, y), x = y",
    ]
    for text in texts:
        q = parse_query(text)
        assert parse_query(str(q)) == q


def test_readme_query_syntax_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Query syntax", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    examples = [line for line in block.splitlines() if line.strip()]
    examples += re.findall(r"`([^`]*:-[^`]*)`", section)
    assert len(examples) >= 2
    for text in examples:
        parse_query(text)
