import json
import random
import re
import string
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pq import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Const,
    ParseError,
    QueryError,
    Var,
    load_network,
    parse_atom,
    parse_query,
)
from p2pq.parsing import _scan, _token_start

from generators import rand_fact, rand_query
from oracles import reference_parse_atom, reference_parse_query, reference_tokenize


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


# Python 3.11 refuses to convert integer strings past a digit limit
NEEDS_INT_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)

# The full error contract: message, line and column of every ParseError.
# Columns are 1-based; at end of input the column is len(last line) + 1.
PARSE_ERRORS = [
    (parse_query, "q(x) :- R(x,, y)", 1, 13, "expected a term (variable, integer, or string)"),
    (parse_query, "q(x) :- R(x) # c", 1, 14, "unexpected character '#'"),
    (parse_query, "q(x) :-\n  R(x, %)", 2, 8, "unexpected character '%'"),
    (parse_query, "q(x) :- R(x), x ~ 3", 1, 17, "unexpected character '~'"),
    (parse_query, 'q(x) :- R(x),\n  S("ab', 2, 5, "unterminated string constant"),
    (parse_query, 'q(x) :- R(x), "a\\"', 1, 15, "unterminated string constant"),
    (parse_query, "q(x) R(x)", 1, 6, "expected ':-', got 'R'"),
    (parse_query, "Q(x) :- R(x), 3", 1, 16, "expected a comparison operator, got 'end of input'"),
    (parse_query, "q(x) :-\n  R(x,\n  ", 3, 3, "expected a term (variable, integer, or string)"),
    (parse_query, "", 1, 1, "expected a query name, got 'end of input'"),
    (parse_query, "q(x) :- R(X)", 1, 11,
     "'X' is not a term: variables are lowercase, string constants are double-quoted"),
    (parse_query, "q(x, 1) :- R(x)", 1, 6, "head positions must be variables"),
    (parse_query, "q(x) :- R(x) extra", 1, 14, "expected end of query, got 'extra'"),
    (parse_query, "q(x) :- ", 1, 9, "expected a term (variable, integer, or string)"),
    (parse_query, "q(x) :- R(x), x 3", 1, 17, "expected a comparison operator, got '3'"),
    (parse_atom, "R(1, 2) S", 1, 9, "expected end of atom, got 'S'"),
    (parse_atom, "R(1,\n 2", 2, 3, "expected ')', got 'end of input'"),
    (parse_atom, "R(1,\n 2  \n ", 3, 2, "expected ')', got 'end of input'"),
    pytest.param(
        parse_query, "q(x) :- A(x, -" + "1" * 5000 + ")", 1, 14, "integer constant too long (5000 digits)",
        id="integer-past-the-digit-limit", marks=NEEDS_INT_DIGIT_LIMIT,
    ),
]


@pytest.mark.parametrize("parse, text, line, column, message", PARSE_ERRORS)
def test_parse_error_contract(parse, text, line, column, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_trailing_whitespace_scans_in_linear_time():
    # a scanner that retries the token pattern at every trailing blank
    # takes seconds here
    start = time.perf_counter()
    assert parse_atom("R(1)" + " " * 5000) == Atom("R", (Const(1),))
    assert time.perf_counter() - start < 1.0


def test_non_ascii_digits_are_not_integers():
    # str patterns match any Unicode digit with \d; integers are ASCII only
    with pytest.raises(ParseError) as err:
        parse_atom("R(\u0661\u0662)")
    assert str(err.value) == "line 1, column 3: unexpected character '\u0661'"
    with pytest.raises(ParseError, match="unexpected character"):
        parse_query("q(x) :- R(x, \u0663)")
    assert parse_atom("R(-12)") == Atom("R", (Const(-12),))


# Fragments for random scanner input: every token class, the lone
# characters that start a token but are none ('-', '"', '!', ':'),
# escapes, line breaks and tabs, a non-ASCII digit and other strays.
SCAN_FRAGMENTS = [
    "q", "R", "x", "_y1", "A_2", "(", ")", ",", ":-", "=", "!=", "<", "<=", ">", ">=",
    "7", "-12", '"ab"', '"a\\"b"', '""', "-", '"', "!", ":", "\\", '\\"', "\\\\",
    " ", "  ", "\n", "\t", "\u0661", "#", "\u00e9",
]


def test_scan_agrees_with_reference_scanner():
    rng = random.Random(20261018)
    raised = 0
    for _ in range(3000):
        text = "".join(rng.choice(SCAN_FRAGMENTS) for _ in range(rng.randint(0, 12)))
        try:
            _, texts, starts = reference_tokenize(text)
        except ParseError as expected:
            raised += 1
            for parse in (parse_query, parse_atom):
                with pytest.raises(ParseError) as err:
                    parse(text)
                assert (str(err.value), err.value.line, err.value.column) == (
                    str(expected), expected.line, expected.column), text
            continue
        assert _scan(text) == texts, text
        # the error path's re-scan finds every token's offset, EOF's too
        assert [_token_start(text, i) for i in range(len(starts))] == starts, text
    assert 0 < raised < 3000


def _parse_outcome(parse, text):
    """The value parse returns (with its name, which query equality
    leaves out), or the type, text, line and column of what it raises."""
    try:
        value = parse(text)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "column", None)
    return value, getattr(value, "name", None)


def _near_valid_text(rng: random.Random) -> str:
    """A query or fact written by str, with one token deleted, duplicated
    or replaced by a scanner fragment, or a line break or tab inserted."""
    relations = {"R": 2, "S": 1, "T": 3}
    if rng.random() < 0.5:
        text = str(rand_query(rng, relations, const_prob=0.3, builtin_prob=0.5))
    else:
        text = str(rand_fact(rng, relations))
    _, tokens, starts = reference_tokenize(text)
    i = rng.randrange(len(tokens) - 1)
    start, end = starts[i], starts[i] + len(tokens[i])
    edit = rng.randrange(4)
    if edit == 0:
        return text[:start] + text[end:]
    if edit == 1:
        return text[:end] + tokens[i] + text[end:]
    if edit == 2:
        return text[:start] + rng.choice(SCAN_FRAGMENTS) + text[end:]
    at = rng.randint(0, len(text))
    return text[:at] + rng.choice("\n\t") + text[at:]


def test_parsers_agree_with_the_reference_parser_on_near_valid_texts():
    rng = random.Random(20261020)
    raised = 0
    for _ in range(5000):
        text = _near_valid_text(rng)
        for parse, reference in ((parse_query, reference_parse_query), (parse_atom, reference_parse_atom)):
            expected = _parse_outcome(reference, text)
            raised += isinstance(expected[0], type)
            assert _parse_outcome(parse, text) == expected, (parse.__name__, text)
    assert 0 < raised < 10000


def test_every_one_character_token_agrees_with_the_reference_parser():
    # each character alone, as a term, between two atoms and as a fact's
    # argument: whether the parser reads it, and how it reports it if not
    for c in [chr(i) for i in range(0x100)] + ["\u0661", "\u2028", "\ufeff"]:
        for text in (c, f"q(x) :- A(x, {c})", f"q(x) :- A(x){c} B(x)", f"A({c})"):
            for parse, reference in ((parse_query, reference_parse_query), (parse_atom, reference_parse_atom)):
                assert _parse_outcome(parse, text) == _parse_outcome(reference, text), (parse.__name__, text)


@pytest.mark.parametrize("parse, text, column, character", [
    (parse_query, "q(x) :- R(x), x ! 3", 17, "!"),
    (parse_query, "q(x) : R(x)", 6, ":"),
    (parse_query, "q(x) :- R(x), x < -", 19, "-"),
    (parse_atom, "R(-, 1)", 3, "-"),
    (parse_atom, "R(1) !", 6, "!"),
])
def test_a_lone_token_start_is_a_bad_character_where_a_token_is_expected(parse, text, column, character):
    # '!', ':' and '-' start an operator, the arrow or an integer, but
    # alone they are none; the parser tests operators and the arrow by
    # text and terms by their first character, and must not accept them
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 1, column {column}: unexpected character {character!r}"
    assert _parse_outcome(parse, text) == _parse_outcome(
        reference_parse_query if parse is parse_query else reference_parse_atom, text)


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


@pytest.mark.parametrize("parse, text", [
    (parse_query, 5),
    (parse_query, None),
    (parse_query, b"q(x) :- A(x)"),
    (parse_atom, None),
    (parse_atom, ["A(1)"]),
])
def test_parsing_anything_but_a_string_is_a_query_error(parse, text):
    with pytest.raises(QueryError) as err:
        parse(text)
    assert str(err.value) == f"not a string: {text!r}"


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


def _names(first):
    rest = st.text(string.ascii_letters + string.digits + "_", max_size=5)
    return st.builds(str.__add__, st.sampled_from(first), rest)


NAMES = _names(string.ascii_letters + "_")
VARS = st.builds(Var, _names(string.ascii_lowercase + "_"))
CONSTS = st.builds(
    Const,
    st.integers(-10**6, 10**6)
    | st.text(st.sampled_from('ab "\\\n,()'), max_size=6)
    | st.text(max_size=4),
)
ATOMS = st.builds(Atom, NAMES, st.lists(VARS | CONSTS, max_size=4).map(tuple))
GROUND_ATOMS = st.builds(Atom, NAMES, st.lists(CONSTS, max_size=4).map(tuple))


@st.composite
def queries(draw):
    body = draw(st.lists(ATOMS, min_size=1, max_size=4))
    bound = sorted({v for a in body for v in a.variables()}, key=lambda v: v.name)
    head = draw(st.lists(st.sampled_from(bound), unique=True) if bound else st.just([]))
    operand = (st.sampled_from(bound) | CONSTS) if bound else CONSTS
    builtins = draw(st.lists(
        st.builds(BuiltinAtom, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), operand, operand),
        max_size=3,
    ))
    return ConjunctiveQuery(draw(NAMES), tuple(head), tuple(body), tuple(builtins))


@given(queries())
@settings(max_examples=200, deadline=None)
def test_query_text_round_trip_property(q):
    assert parse_query(str(q)) == q


@given(GROUND_ATOMS)
@settings(max_examples=200, deadline=None)
def test_ground_atom_text_round_trip_property(a):
    assert parse_atom(str(a)) == a


# Token texts that the parser's per-call term memo must keep apart or
# share correctly: -0 and 0 spell one constant, "1" and 1 two; "rel" is
# a string, a predicate and a variable; strings carry escapes.
MEMO_TOKENS = ["rel", "x", "_y", "0", "-0", "1", '"1"', '"0"', '"rel"', '"a\\"b"', '"\\\\"', '"\\\\\\""']
MEMO_CONSTANTS = [t for t in MEMO_TOKENS if not t.isidentifier()]
MEMO_ARITIES = {"rel": 2, "x": 1, "R": 3}


def _reference_term(token: str):
    # JSON escapes '"' and '\\' as the query grammar does
    if token.startswith('"'):
        return Const(json.loads(token))
    return Var(token) if token.isidentifier() else Const(int(token))


@st.composite
def memo_queries(draw):
    """(text, the query it spells, built without the parser)."""
    body = [
        (predicate, draw(st.lists(st.sampled_from(MEMO_TOKENS), min_size=MEMO_ARITIES[predicate],
                                  max_size=MEMO_ARITIES[predicate])))
        for predicate in draw(st.lists(st.sampled_from(sorted(MEMO_ARITIES)), min_size=1, max_size=4))
    ]
    bound = sorted({t for _, args in body for t in args if t.isidentifier()})
    head = draw(st.lists(st.sampled_from(bound), unique=True) if bound else st.just([]))
    operand = st.sampled_from(bound + MEMO_CONSTANTS)
    builtins = draw(st.lists(st.tuples(operand, st.sampled_from(["=", "!=", "<", ">="]), operand), max_size=2))
    name = draw(st.sampled_from(["q", "rel", "x"]))
    parts = [f"{p}({', '.join(args)})" for p, args in body] + [" ".join(b) for b in builtins]
    text = f"{name}({', '.join(head)}) :- {', '.join(parts)}"
    expected = ConjunctiveQuery(
        name,
        tuple(Var(v) for v in head),
        tuple(Atom(p, tuple(_reference_term(t) for t in args)) for p, args in body),
        tuple(BuiltinAtom(op, _reference_term(lhs), _reference_term(rhs)) for lhs, op, rhs in builtins),
    )
    return text, expected


@given(memo_queries())
@settings(max_examples=200, deadline=None)
def test_repeated_term_texts_parse_to_their_own_terms(case):
    text, expected = case
    q = parse_query(text)
    assert q == expected
    assert parse_query(str(q)) == q


MEMO_GROUND_ATOMS = st.sampled_from(sorted(MEMO_ARITIES)).flatmap(
    lambda p: st.builds(Atom, st.just(p), st.lists(
        st.sampled_from(MEMO_CONSTANTS).map(_reference_term) | CONSTS,
        min_size=MEMO_ARITIES[p], max_size=MEMO_ARITIES[p]).map(tuple))
)


@given(st.lists(MEMO_GROUND_ATOMS, max_size=8))
@settings(max_examples=100, deadline=None)
def test_facts_written_by_str_load_to_those_atoms(atoms):
    doc = {"peers": [{
        "id": "P",
        "schema": [{"name": p, "arity": n} for p, n in MEMO_ARITIES.items()],
        "facts": [str(a) for a in atoms],
    }]}
    assert load_network(json.dumps(doc)).peer("P").facts == frozenset(atoms)


def test_readme_query_syntax_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Query syntax", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    examples = [line for line in block.splitlines() if line.strip()]
    # inline code spans stay on one line; a span across lines would run
    # from a code fence's last backtick to the next fence's first
    inline = re.findall(r"`([^`\n]*:-[^`\n]*)`", section)
    assert examples and inline
    for text in examples + inline:
        parse_query(text)
