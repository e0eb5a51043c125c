"""Text grammar for queries and facts.

    name(v1, ..., vk) :- atom1, ..., atomm [, builtin1, ...]

Atoms are ``pred(t1, ..., tn)``; builtins are ``t1 OP t2`` with OP one
of ``=  !=  <  <=  >  >=``.  Variables are identifiers that start
lowercase or with ``_``, string constants are double-quoted, integers
are ASCII digits with an optional ``-``; whitespace is insignificant.
Head positions must be variables.
"""

from __future__ import annotations

import itertools
import re
import string
from typing import NoReturn, Optional

from .errors import ParseError, QueryError
from .queries import Atom, BuiltinAtom, ConjunctiveQuery, Const, Term, Var

__all__ = ["parse_query", "parse_atom"]

# One capture group, so findall yields the token texts.  Each match
# absorbs the whitespace before its token; the last alternative catches
# any other character, so matches are contiguous up to trailing whitespace.
_TOKEN_RE = re.compile(r'\s*(:-|<=|>=|!=|[=<>(),]|-?[0-9]+|"(?:[^"\\]|\\.)*"|[A-Za-z_][A-Za-z0-9_]*|\S)')

# A token's kind follows from its first character; a one-character token
# is looked up whole, so a lone '-', '"', '!' or ':' is BAD.
_KIND = {":": "ARROW", '"': "STRING", "(": "LPAR", ")": "RPAR", ",": "COMMA",
         **dict.fromkeys("<>!=", "OP"), **dict.fromkeys(string.digits + "-", "INT"),
         **dict.fromkeys(string.ascii_letters + "_", "IDENT")}
_LONE_KIND = {c: kind for c, kind in _KIND.items() if c not in '-"!:'}

_UNTERMINATED_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*$')


def _error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _token_start(text: str, index: int) -> int:
    """Offset of token `index` (len(text) for EOF), found by scanning
    again: positions are needed only on the error path."""
    tokens = _TOKEN_RE.finditer(text, 0, len(text.rstrip()))
    m = next(itertools.islice(tokens, index, None), None)
    return len(text) if m is None else m.start(1)


def tokenize(text: str) -> tuple[list[str], list[str]]:
    """Scan text into parallel lists of token kind and token text, ending
    with an EOF token; raises ParseError at the first character that
    starts no token."""
    texts = _TOKEN_RE.findall(text, 0, len(text.rstrip()))
    kinds = [_KIND[t[0]] if len(t) > 1 else _LONE_KIND.get(t, "BAD") for t in texts]
    if "BAD" in kinds:
        start = _token_start(text, kinds.index("BAD"))
        if _UNTERMINATED_STRING_RE.match(text, start):
            raise _error(text, start, "unterminated string constant")
        raise _error(text, start, f"unexpected character {text[start]!r}")
    kinds.append("EOF")
    texts.append("")
    return kinds, texts


class _Parser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise QueryError(f"not a string: {text!r}")
        self.text = text
        self.kinds, self.texts = tokenize(text)
        self.pos = 0
        # token text -> its term, for this parse only: a variable or
        # constant that recurs is built and checked once
        self.memo: dict[str, Term] = {}

    def fail(self, message: str, pos: Optional[int] = None) -> NoReturn:
        start = _token_start(self.text, self.pos if pos is None else pos)
        raise _error(self.text, start, message)

    def expect(self, kind: str, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] != kind:
            got = self.texts[pos] or "end of input"
            self.fail(f"expected {what}, got {got!r}")
        self.pos = pos + 1
        return self.texts[pos]

    # -- grammar ------------------------------------------------------

    def new_term(self, pos: int) -> Term:
        """Build the term that token `pos` spells and memoize it; raise
        ParseError if it spells none."""
        kind, text = self.kinds[pos], self.texts[pos]
        if kind == "INT":
            try:
                term = Const(int(text))
            except ValueError:  # past sys.get_int_max_str_digits()
                self.fail(f"integer constant too long ({len(text.lstrip('-'))} digits)", pos)
        elif kind == "STRING":
            term = Const(text[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
        elif kind != "IDENT":
            self.fail("expected a term (variable, integer, or string)", pos)
        elif text[0].islower() or text[0] == "_":
            term = Var(text)
        else:
            self.fail(
                f"{text!r} is not a term: variables are lowercase, "
                "string constants are double-quoted",
                pos,
            )
        self.memo[text] = term
        return term

    def term(self) -> Term:
        pos = self.pos
        term = self.memo.get(self.texts[pos])
        if term is None:
            term = self.new_term(pos)
        self.pos = pos + 1
        return term

    def args(self, head: bool = False) -> tuple[Term, ...]:
        """Parse ``'(' [term (',' term)*] ')'`` in one loop; in a head,
        every term must be a variable."""
        self.expect("LPAR", "'('")
        kinds, texts, memo = self.kinds, self.texts, self.memo
        pos = self.pos
        items = []
        if kinds[pos] != "RPAR":
            while True:
                term = memo.get(texts[pos])
                if term is None:
                    term = self.new_term(pos)
                if head and not isinstance(term, Var):
                    self.fail("head positions must be variables", pos)
                items.append(term)
                pos += 1
                if kinds[pos] != "COMMA":
                    break
                pos += 1
        self.pos = pos
        self.expect("RPAR", "')'")
        return tuple(items)

    def atom(self) -> Atom:
        name = self.expect("IDENT", "a predicate name")
        return Atom(name, self.args())

    def query(self) -> ConjunctiveQuery:
        name = self.expect("IDENT", "a query name")
        head = self.args(head=True)
        self.expect("ARROW", "':-'")
        kinds = self.kinds
        atoms: list[Atom] = []
        builtins: list[BuiltinAtom] = []
        while True:
            pos = self.pos
            if kinds[pos] == "IDENT" and kinds[pos + 1] == "LPAR":
                atoms.append(self.atom())
            else:
                lhs = self.term()
                op = self.expect("OP", "a comparison operator")
                builtins.append(BuiltinAtom(op, lhs, self.term()))
            if kinds[self.pos] != "COMMA":
                break
            self.pos += 1
        self.expect("EOF", "end of query")
        return ConjunctiveQuery(name, head, tuple(atoms), tuple(builtins))


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse query text; raises ParseError with line/column on bad input
    and QueryError when text is not a string or the parsed query
    violates a query invariant."""
    return _Parser(text).query()


def parse_atom(text: str) -> Atom:
    """Parse a single atom such as a fact ``A(1, "x")``; raises the
    errors parse_query does."""
    parser = _Parser(text)
    atom = parser.atom()
    parser.expect("EOF", "end of atom")
    return atom
