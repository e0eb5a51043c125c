"""Text grammar for queries and facts.

    name(v1, ..., vk) :- atom1, ..., atomm [, builtin1, ...]

Atoms are ``pred(t1, ..., tn)``; builtins are ``t1 OP t2`` with OP one
of ``=  !=  <  <=  >  >=``.  Variables are identifiers that start
lowercase or with ``_``, string constants are double-quoted, integers
are ASCII digits with an optional ``-``; whitespace is insignificant.
Head positions must be variables.

The parser reads the token texts of one `findall` over a one-group
token pattern.  Punctuation, ``:-`` and operators are tested by text; a
term is classified by its first character, and only when the term memo
misses it.  An argument list, an atom and a body are each read in one
loop.  The memo maps a token text to its term: `parse_query` and
`parse_atom` use one per call, and `network.load_network` one per
document, dropped when the load returns.

Every failure takes one error path.  It reads the same token texts and
first reports a bad character wherever it lies: a one-character token
that no rule of the grammar reads.  Otherwise it raises the grammar's
message at the failing token.  Offsets are found by scanning again, so
positions cost nothing unless an error is raised.
"""

from __future__ import annotations

import itertools
import re
import string
from typing import NoReturn

from .errors import ParseError, QueryError
from .queries import _IDENT_START, _VAR_START, Atom, BuiltinAtom, ConjunctiveQuery, Const, Term, Var

__all__ = ["parse_query", "parse_atom"]

# One capture group, so findall yields the token texts.  Each match
# absorbs the whitespace before its token; the last alternative catches
# any other character, so matches are contiguous up to trailing whitespace.
_TOKEN_RE = re.compile(r'\s*(:-|<=|>=|!=|[=<>(),]|-?[0-9]+|"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|\S)')

_UNTERMINATED_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*$')

# What the parser tests a token text against, beside the name sets of
# `queries`.  A term is classified by its first character.
_DIGITS = frozenset(string.digits)
_OPS = frozenset({"=", "!=", "<", "<=", ">", ">="})
# The one-character tokens some rule of the grammar reads.  Any other
# one-character token is a bad character: a lone '-', '"', '!' or ':',
# or a character that starts no token.
_ALONE = _IDENT_START | _DIGITS | frozenset("(),<>=")


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _token_start(text: str, index: int) -> int:
    """Offset of token `index` (len(text) for EOF), found by scanning
    again: positions are needed only on the error path."""
    tokens = _TOKEN_RE.finditer(text, 0, len(text.rstrip()))
    m = next(itertools.islice(tokens, index, None), None)
    return len(text) if m is None else m.start(1)


def _fail(text: str, pos: int, message: str) -> NoReturn:
    """The one error path: the first bad character anywhere in text is
    reported first; otherwise `message` at token `pos`."""
    for bad, token in enumerate(_scan(text)):
        if len(token) == 1 and token not in _ALONE:
            start = _token_start(text, bad)
            if _UNTERMINATED_STRING_RE.match(text, start):
                raise _error(text, start, "unterminated string constant")
            raise _error(text, start, f"unexpected character {text[start]!r}")
    raise _error(text, _token_start(text, pos), message)


def _expected(text: str, texts: list[str], pos: int, what: str) -> NoReturn:
    _fail(text, pos, f"expected {what}, got {texts[pos] or 'end of input'!r}")


def _new_term(text: str, token: str, pos: int, memo: dict) -> Term:
    """Build the term that `token`, token `pos` of text, spells, by its
    first character, and memoize it; fail if it spells none."""
    first = token[:1]
    if first in _VAR_START:
        term = Var(token)
    elif first in _DIGITS or (first == "-" and len(token) > 1):
        try:
            term = Const(int(token))
        except ValueError:  # past sys.get_int_max_str_digits()
            _fail(text, pos, f"integer constant too long ({len(token.lstrip('-'))} digits)")
    elif first == '"' and len(token) > 1:
        term = Const(token[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
    elif first in _IDENT_START:
        _fail(text, pos, f"{token!r} is not a term: variables are lowercase, "
                         "string constants are double-quoted")
    else:
        _fail(text, pos, "expected a term (variable, integer, or string)")
    memo[token] = term
    return term


def _args(text: str, texts: list[str], pos: int, memo: dict, head: bool) -> tuple[tuple[Term, ...], int]:
    """Read ``'(' [term (',' term)*] ')'`` from token `pos` in one loop:
    the terms, and the position after the ')'.  In a head, every term
    must be a variable."""
    if texts[pos] != "(":
        _expected(text, texts, pos, "'('")
    pos += 1
    items = []
    if texts[pos] != ")":
        while True:
            token = texts[pos]
            term = memo.get(token)
            if term is None:
                term = _new_term(text, token, pos, memo)
            if head and type(term) is not Var:
                _fail(text, pos, "head positions must be variables")
            items.append(term)
            pos += 1
            if texts[pos] != ",":
                break
            pos += 1
        if texts[pos] != ")":
            _expected(text, texts, pos, "')'")
    return tuple(items), pos + 1


def _term(text: str, texts: list[str], pos: int, memo: dict) -> Term:
    term = memo.get(texts[pos])
    return _new_term(text, texts[pos], pos, memo) if term is None else term


def _scan(text: str) -> list[str]:
    """The token texts of text, ending with "" for EOF; a bad character
    is a token of its own, which no rule of the grammar accepts."""
    texts = _TOKEN_RE.findall(text, 0, len(text.rstrip()))
    texts.append("")
    return texts


def _read_query(text: str, memo: dict) -> ConjunctiveQuery:
    """parse_query on a str, with terms memoized in `memo` by token text."""
    texts = _scan(text)
    name = texts[0]
    if name[:1] not in _IDENT_START:
        _expected(text, texts, 0, "a query name")
    head, pos = _args(text, texts, 1, memo, True)
    if texts[pos] != ":-":
        _expected(text, texts, pos, "':-'")
    pos += 1
    atoms: list[Atom] = []
    builtins: list[BuiltinAtom] = []
    while True:
        token = texts[pos]
        if token[:1] in _IDENT_START and texts[pos + 1] == "(":
            args, pos = _args(text, texts, pos + 1, memo, False)
            atoms.append(Atom(token, args))
        else:
            lhs = _term(text, texts, pos, memo)
            op = texts[pos + 1]
            if op not in _OPS:
                _expected(text, texts, pos + 1, "a comparison operator")
            builtins.append(BuiltinAtom(op, lhs, _term(text, texts, pos + 2, memo)))
            pos += 3
        if texts[pos] != ",":
            break
        pos += 1
    if texts[pos]:
        _expected(text, texts, pos, "end of query")
    return ConjunctiveQuery(name, head, tuple(atoms), tuple(builtins))


def _read_atom(text: str, memo: dict) -> Atom:
    """parse_atom on a str, with terms memoized in `memo` by token text."""
    texts = _scan(text)
    name = texts[0]
    if name[:1] not in _IDENT_START:
        _expected(text, texts, 0, "a predicate name")
    args, pos = _args(text, texts, 1, memo, False)
    if texts[pos]:
        _expected(text, texts, pos, "end of atom")
    return Atom(name, args)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse query text; raises ParseError with line/column on bad input
    and QueryError when text is not a string or the parsed query
    violates a query invariant."""
    if not isinstance(text, str):
        raise QueryError(f"not a string: {text!r}")
    return _read_query(text, {})


def parse_atom(text: str) -> Atom:
    """Parse a single atom such as a fact ``A(1, "x")``; raises the
    errors parse_query does."""
    if not isinstance(text, str):
        raise QueryError(f"not a string: {text!r}")
    return _read_atom(text, {})
