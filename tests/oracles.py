"""Brute-force reference implementations used to certify the library.

Everything here trades efficiency for obviousness: exhaustive
enumeration with no search-order cleverness, so the real algorithms can
be checked against an independent path.
"""

from __future__ import annotations

import itertools
import re
from typing import NoReturn, Optional

from p2pq import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Const,
    TupleSet,
    Var,
    ViewExpression,
    equivalent,
    unfold,
)
from p2pq.errors import ParseError, QueryError
from p2pq.queries import Term, atom_key, compare_constants, term_key


def _all_terms(q: ConjunctiveQuery):
    seen = {}
    for v in q.head_vars:
        seen.setdefault(v)
    for a in q.body:
        for t in a.args:
            seen.setdefault(t)
    for b in q.builtins:
        seen.setdefault(b.lhs)
        seen.setdefault(b.rhs)
    return tuple(seen)


def _builtin_image(b: BuiltinAtom, env) -> BuiltinAtom:
    lhs = env.get(b.lhs, b.lhs) if isinstance(b.lhs, Var) else b.lhs
    rhs = env.get(b.rhs, b.rhs) if isinstance(b.rhs, Var) else b.rhs
    return BuiltinAtom(b.op, lhs, rhs)


def _ground_true(b: BuiltinAtom) -> bool:
    return b.is_ground() and b.holds_ground()


def _image_ok(b: BuiltinAtom, env, target_builtins):
    image = _builtin_image(b, env)
    return image in target_builtins or _ground_true(image)


def brute_force_contains(general: ConjunctiveQuery, specific: ConjunctiveQuery) -> bool:
    """Containment by exhaustive enumeration of every map from the
    general query's variables into the specific query's terms."""
    if len(general.head_vars) != len(specific.head_vars):
        raise QueryError("incomparable queries")
    gvars = general.variables()
    terms = _all_terms(specific)
    body = set(specific.body)
    builtins = frozenset(specific.builtins)
    for assignment in itertools.product(terms, repeat=len(gvars)):
        env = dict(zip(gvars, assignment))
        if any(env[v] != w for v, w in zip(general.head_vars, specific.head_vars)):
            continue
        ok = True
        for a in general.body:
            image = Atom(a.predicate, tuple(env.get(t, t) if isinstance(t, Var) else t for t in a.args))
            if image not in body:
                ok = False
                break
        if not ok:
            continue
        if all(_image_ok(b, env, builtins) for b in general.builtins):
            return True
    return False


def brute_force_homomorphisms(general: ConjunctiveQuery, specific: ConjunctiveQuery) -> set:
    """Every homomorphism from the general query into the specific one,
    each as a frozenset of (variable, term) pairs, by exhaustive
    enumeration of the maps from the general query's variables into the
    specific query's terms."""
    if len(general.head_vars) != len(specific.head_vars):
        raise QueryError("incomparable queries")
    gvars = general.variables()
    terms = _all_terms(specific)
    body = set(specific.body)
    builtins = frozenset(specific.builtins)
    found = set()
    for assignment in itertools.product(terms, repeat=len(gvars)):
        env = dict(zip(gvars, assignment))
        if any(env[v] != w for v, w in zip(general.head_vars, specific.head_vars)):
            continue
        if all(
            Atom(a.predicate, tuple(env.get(t, t) if isinstance(t, Var) else t for t in a.args)) in body
            for a in general.body
        ) and all(_image_ok(b, env, builtins) for b in general.builtins):
            found.add(frozenset(env.items()))
    return found


def reference_canonicalize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """canonicalize written plainly: drop ground-true constraints and
    duplicates, then, while some homomorphism of the query into itself
    (by `brute_force_homomorphisms`) has an image with fewer atoms,
    replace the query by the image of one that does: its atoms and
    constraints mapped, duplicates and ground-true constraints dropped.
    Then name the variables as `reference_labeling` does."""
    body = list(dict.fromkeys(q.body))
    builtins = list(dict.fromkeys(b for b in q.builtins if not _ground_true(b)))
    while True:
        full = ConjunctiveQuery(q.name, q.head_vars, tuple(body), tuple(builtins))
        for h in brute_force_homomorphisms(full, full):
            env = dict(h)
            image = list(dict.fromkeys(Atom(a.predicate, tuple(env.get(t, t) for t in a.args)) for a in body))
            if len(image) < len(body):
                mapped = [_builtin_image(b, env) for b in builtins]
                body, builtins = image, list(dict.fromkeys(c for c in mapped if not _ground_true(c)))
                break
        else:
            break
    return reference_labeling(ConjunctiveQuery(q.name, q.head_vars, tuple(body), tuple(builtins)))


def reference_labeling(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The labeling half of `reference_canonicalize`, on q's body as it
    stands: name the variables by the least (atom keys in emission
    order, sorted constraint keys) over every order of q's atoms,
    numbering variables by first appearance after the head, and sort
    the renamed atoms and constraints."""
    body, builtins = q.body, q.builtins
    best = None
    for order in itertools.permutations(body):
        names = {v: i for i, v in enumerate(q.head_vars)}
        for a in order:
            for v in a.variables():
                names.setdefault(v, len(names))

        def key(t):
            return (0, 0, names[t]) if isinstance(t, Var) else term_key(t)

        def constraint_key(b):
            operands = (key(b.lhs), key(b.rhs))
            # = and != read the same both ways round
            return (b.op, *(sorted(operands) if b.op in ("=", "!=") else operands))

        rank = (
            tuple((a.predicate, tuple(key(t) for t in a.args)) for a in order),
            tuple(sorted(constraint_key(b) for b in builtins)),
        )
        if best is None or rank < best[0]:
            best = (rank, names)
    rename = {v: Var(f"v{i}") for v, i in best[1].items()}
    new_body = [Atom(a.predicate, tuple(rename.get(t, t) for t in a.args)) for a in body]
    new_builtins = [BuiltinAtom(b.op, rename.get(b.lhs, b.lhs), rename.get(b.rhs, b.rhs)) for b in builtins]
    return ConjunctiveQuery(
        q.name,
        tuple(rename[v] for v in q.head_vars),
        sorted(new_body, key=atom_key),
        sorted(new_builtins, key=lambda b: (b.op, term_key(b.lhs), term_key(b.rhs))),
    )


def nested_loop_evaluate(q: ConjunctiveQuery, peer) -> TupleSet:
    """Evaluation by enumerating every assignment of the query's body
    variables into the active domain."""
    domain = {a for fact in peer.facts for a in fact.args}
    for a in q.body:
        domain.update(t for t in a.args if isinstance(t, Const))
    domain = sorted(domain, key=term_key)
    qvars = tuple({v: None for a in q.body for v in a.variables()})
    facts = set(peer.facts)
    rows = set()
    for assignment in itertools.product(domain, repeat=len(qvars)):
        env = dict(zip(qvars, assignment))
        ok = True
        for a in q.body:
            ground = Atom(a.predicate, tuple(env[t] if isinstance(t, Var) else t for t in a.args))
            if ground not in facts:
                ok = False
                break
        if not ok:
            continue
        for b in q.builtins:
            lhs = env[b.lhs] if isinstance(b.lhs, Var) else b.lhs
            rhs = env[b.rhs] if isinstance(b.rhs, Var) else b.rhs
            if not compare_constants(b.op, lhs.value, rhs.value):
                ok = False
                break
        if ok:
            rows.add(tuple(env[v].value for v in q.head_vars))
    return TupleSet(len(q.head_vars), frozenset(rows))


def _argument_patterns(positions: int, base_terms):
    """All argument tuples over the base terms plus canonically named
    existentials e0, e1, ... (first-occurrence order, so each pattern
    shape is produced exactly once)."""
    def rec(i, used_existentials, acc):
        if i == positions:
            yield tuple(acc)
            return
        for t in base_terms:
            acc.append(t)
            yield from rec(i + 1, used_existentials, acc)
            acc.pop()
        for k in range(used_existentials + 1):
            acc.append(Var(f"e{k}"))
            yield from rec(i + 1, max(used_existentials, k + 1), acc)
            acc.pop()

    yield from rec(0, 0, [])


def brute_force_equivalent_rewriting(q: ConjunctiveQuery, views, owner: str):
    """Exhaustive search for a view expression equivalent to q: every
    multiset of views up to q's body size, every argument pattern over
    q's head variables, q's constants, and fresh existentials.  Returns
    a witness expression or None."""
    base_terms = list(q.head_vars)
    for a in q.body:
        for t in a.args:
            if isinstance(t, Const) and t not in base_terms:
                base_terms.append(t)
    views = tuple(views)
    head_set = set(q.head_vars)
    seen_bodies = set()
    for size in range(1, len(q.body) + 1):
        for multiset in itertools.combinations_with_replacement(views, size):
            positions = sum(len(v.definition.head_vars) for v in multiset)
            for pattern in _argument_patterns(positions, base_terms):
                body = []
                offset = 0
                for v in multiset:
                    k = len(v.definition.head_vars)
                    body.append(Atom(v.name, pattern[offset : offset + k]))
                    offset += k
                body_set = frozenset(body)
                if body_set in seen_bodies:
                    continue
                seen_bodies.add(body_set)
                covered = {t for a in body for t in a.args if isinstance(t, Var)}
                if not head_set <= covered:
                    continue
                try:
                    psi = ViewExpression(
                        ConjunctiveQuery(q.name, q.head_vars, tuple(body), ()), owner
                    )
                except QueryError:
                    continue
                if equivalent(unfold(psi, views), q):
                    return psi
    return None


def _fold(defn: ConjunctiveQuery, images):
    """The map sending each atom of defn's body onto the image at the
    same position, or None when no such map exists."""
    env = {}
    for a, b in zip(defn.body, images):
        if a.predicate != b.predicate or len(a.args) != len(b.args):
            return None
        for s, t in zip(a.args, b.args):
            if isinstance(s, Var):
                if env.setdefault(s, t) != t:
                    return None
            elif s != t:
                return None
    return env


def reference_minicon(q: ConjunctiveQuery, views, owner: str):
    """minicon written plainly: fold each view into q by trying every
    tuple of q's body atoms as the images of its body, sort the folded
    view atoms by atom_key, and return the first combination, in
    ascending size, whose unfolding is equivalent to q, testing
    containment in both directions."""
    views = tuple(views)
    candidates = set()
    for view in views:
        defn = view.definition
        for images in itertools.product(q.body, repeat=len(defn.body)):
            env = _fold(defn, images)
            if env is not None:
                candidates.add(Atom(view.name, tuple(env[v] for v in defn.head_vars)))
    candidates = sorted(candidates, key=atom_key)
    head_set = set(q.head_vars)
    for size in range(1, min(len(q.body), len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            if not head_set <= {t for a in combo for t in a.args if isinstance(t, Var)}:
                continue
            psi = ViewExpression(ConjunctiveQuery(q.name, q.head_vars, combo, ()), owner)
            if equivalent(unfold(psi, views), q):
                return psi
    return None


# The query scanner as a named group per token kind, reporting each
# token's kind, text and start offset as it goes.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<ARROW>:-)
    | (?P<OP><=|>=|!=|=|<|>)
    | (?P<LPAR>\()
    | (?P<RPAR>\))
    | (?P<COMMA>,)
    | (?P<INT>-?[0-9]+)
    | (?P<STRING>"(?:[^"\\]|\\.)*")
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<BAD>\S)
    )
    """,
    re.VERBOSE,
)

_REFERENCE_UNTERMINATED_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*$')


def _reference_error(text: str, offset: int, message: str) -> ParseError:
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def reference_tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Scan text into parallel lists of token kind, token text and start
    offset, ending with an EOF token at len(text); raises ParseError at
    the first character that starts no token."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    for m in _REFERENCE_TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        start = m.start(kind)
        if kind == "BAD":
            if _REFERENCE_UNTERMINATED_STRING_RE.match(text, start):
                raise _reference_error(text, start, "unterminated string constant")
            raise _reference_error(text, start, f"unexpected character {text[start]!r}")
        kinds.append(kind)
        texts.append(m.group(kind))
        starts.append(start)
    kinds.append("EOF")
    texts.append("")
    starts.append(len(text))
    return kinds, texts, starts


# The query parser as it stood before the token-text parser: a parser
# object per text, a kind per token and an `expect` call per token,
# copied unchanged but for its scanner, which is `reference_tokenize`
# with its start offsets in place of a scan again on the error path.
# `parse_query` and `parse_atom` must give the same value, or raise the
# same error at the same line and column, on every text.


class _ReferenceParser:
    def __init__(self, text: str):
        if not isinstance(text, str):
            raise QueryError(f"not a string: {text!r}")
        self.text = text
        self.kinds, self.texts, self.starts = reference_tokenize(text)
        self.pos = 0
        # token text -> its term, for this parse only: a variable or
        # constant that recurs is built and checked once
        self.memo: dict[str, Term] = {}

    def fail(self, message: str, pos: Optional[int] = None) -> NoReturn:
        start = self.starts[self.pos if pos is None else pos]
        raise _reference_error(self.text, start, message)

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


def reference_parse_query(text: str) -> ConjunctiveQuery:
    """Parse query text; raises ParseError with line/column on bad input
    and QueryError when text is not a string or the parsed query
    violates a query invariant."""
    return _ReferenceParser(text).query()


def reference_parse_atom(text: str) -> Atom:
    """Parse a single atom such as a fact ``A(1, "x")``; raises the
    errors parse_query does."""
    parser = _ReferenceParser(text)
    atom = parser.atom()
    parser.expect("EOF", "end of atom")
    return atom
