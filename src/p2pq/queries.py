"""Conjunctive-query kernel.

Terms, atoms, comparison constraints, queries, and the operations the
rest of the package is built on: homomorphism search, containment,
equivalence, and canonical forms.

One indexed, iterative atom matcher, `match_atoms`, serves evaluation
over facts, view folding, containment and core retraction.  It joins
the atoms fail first: among the atoms connected to what is bound, the
one with the fewest unbound variables goes next, so a pure check runs
as soon as its variables are bound.  The same pass that orders the
atoms fixes each step's argument tests: the positions compared with a
constant or an earlier binding, the first occurrences that bind, and
the repeats compared with those.  A search node resolves its expected
terms once for all its candidates, and only a candidate that passes
gets a copy of the bindings.

Everything here is an immutable value and every operation is a pure
function, so results can be cached and shared freely.

Containment is decided by homomorphism existence, and evaluation is
the same search over a peer's facts.  `match_atoms` holds the one rule
for both on comparison constraints, testing each where its last
variable binds: its image is literally one of the target's constraints
(both in normal orientation), or a ground comparison that holds; over
facts, which carry none, the truth of each ground image.  It is sound
but deliberately incomplete; no interval reasoning is attempted.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import QueryError

__all__ = [
    "Var",
    "Const",
    "Term",
    "Atom",
    "BuiltinAtom",
    "ConjunctiveQuery",
    "homomorphisms",
    "match_atoms",
    "contains",
    "equivalent",
    "canonicalize",
    "term_key",
    "atom_key",
    "compare_constants",
    "constant_text",
]


# ---------------------------------------------------------------------------
# terms

# The grammar's names (`parsing`): `[A-Za-z_][A-Za-z0-9_]*`, which are
# exactly the ASCII identifiers, a variable's starting lowercase or "_".
_IDENT_START = frozenset(string.ascii_letters + "_")
_VAR_START = frozenset(string.ascii_lowercase + "_")


@dataclass(frozen=True, slots=True)
class Var:
    """A query variable; two variables are equal iff their names are."""

    name: str

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and name.isascii() and name.isidentifier() and name[0] in _VAR_START):
            raise QueryError(f"invalid variable name {name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    """An integer or string literal.  No cross-type coercion ever happens:
    Const(1) and Const("1") are distinct and never compare equal."""

    value: Union[int, str]

    def __post_init__(self):
        # bool is a subclass of int; reject it explicitly
        if type(self.value) not in (int, str):
            raise QueryError(f"constants must be int or str, got {self.value!r}")

    def __str__(self) -> str:
        return constant_text(self.value)


def constant_text(value: Union[int, str]) -> str:
    """A constant as the grammar writes it: an integer in decimal, a
    string in double quotes with backslash and quote escaped."""
    if isinstance(value, int):
        return str(value)
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


Term = Union[Var, Const]


def term_key(t: Term) -> tuple:
    """Total deterministic order over terms: variables first (by name),
    then integer constants, then string constants."""
    if isinstance(t, Var):
        return (0, 0, t.name)
    if isinstance(t.value, int):
        return (1, 0, t.value)
    return (1, 1, t.value)


# ---------------------------------------------------------------------------
# atoms and constraints


@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom pred(t1, ..., tn)."""

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        p = self.predicate
        if not (isinstance(p, str) and p.isascii() and p.isidentifier()):
            raise QueryError(f"invalid predicate name {p!r}")
        args = self.args
        if type(args) is not tuple:
            args = tuple(args)
            object.__setattr__(self, "args", args)
        for a in args:
            if not isinstance(a, (Var, Const)):
                raise QueryError(f"not a term: {a!r}")

    def variables(self) -> Iterator[Var]:
        for a in self.args:
            if isinstance(a, Var):
                yield a

    def is_ground(self) -> bool:
        return all(isinstance(a, Const) for a in self.args)

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


def atom_key(a: Atom) -> tuple:
    return (a.predicate, len(a.args), tuple(term_key(t) for t in a.args))


# each comparison operator and its meaning on two constants of one type
_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_FLIP = {">": "<", ">=": "<="}
_SYMMETRIC = ("=", "!=")


def compare_constants(op: str, a: Union[int, str], b: Union[int, str]) -> bool:
    """Ground comparison semantics: integers numerically, strings
    lexicographically; comparisons across types are false, except !=
    which is true."""
    compare = _COMPARISONS.get(op)
    if compare is None:
        raise QueryError(f"unknown comparison operator {op!r}")
    return compare(a, b) if type(a) is type(b) else op == "!="


@dataclass(frozen=True, slots=True)
class BuiltinAtom:
    """A comparison constraint ``t1 OP t2``.

    Stored in a normal orientation so that syntactically different
    spellings of the same constraint compare equal: ``>`` and ``>=`` are
    flipped to ``<`` and ``<=`` with the operands swapped, and the
    symmetric operators ``=`` / ``!=`` order their operands by term_key.
    """

    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.op not in _COMPARISONS:
            raise QueryError(f"unknown comparison operator {self.op!r}")
        op, lhs, rhs = self.op, self.lhs, self.rhs
        for t in (lhs, rhs):
            if not isinstance(t, (Var, Const)):
                raise QueryError(f"not a term: {t!r}")
        if op in _FLIP:
            op, lhs, rhs = _FLIP[op], rhs, lhs
        elif op in _SYMMETRIC and term_key(rhs) < term_key(lhs):
            lhs, rhs = rhs, lhs
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def variables(self) -> Iterator[Var]:
        for t in (self.lhs, self.rhs):
            if isinstance(t, Var):
                yield t

    def is_ground(self) -> bool:
        return isinstance(self.lhs, Const) and isinstance(self.rhs, Const)

    def holds_ground(self) -> bool:
        if not self.is_ground():
            raise QueryError(f"constraint {self} is not ground")
        return compare_constants(self.op, self.lhs.value, self.rhs.value)

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


def _builtin_key(b: BuiltinAtom) -> tuple:
    return (b.op, term_key(b.lhs), term_key(b.rhs))


# ---------------------------------------------------------------------------
# queries


@dataclass(frozen=True, slots=True)
class ConjunctiveQuery:
    """``name(v1, ..., vk) :- atom1, ..., atomm, constraint1, ...``

    The name is a label only and takes no part in equality or hashing;
    two queries are equal iff head, body, and constraints coincide.

    Invariants enforced at construction:
      * head positions are variables, pairwise distinct;
      * the body is nonempty;
      * the query is safe: every head variable and every constraint
        variable occurs in some body atom.
    """

    name: str = field(compare=False)
    head_vars: tuple[Var, ...]
    body: tuple[Atom, ...]
    builtins: tuple[BuiltinAtom, ...] = ()

    def __post_init__(self):
        name = self.name
        if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
            raise QueryError(f"invalid query name {name!r}")
        for attr in ("head_vars", "body", "builtins"):
            value = getattr(self, attr)
            if type(value) is not tuple:
                object.__setattr__(self, attr, tuple(value))
        head, body, builtins = self.head_vars, self.body, self.builtins
        for v in head:
            if not isinstance(v, Var):
                raise QueryError(f"head collapse: head position {v!r} is not a variable")
        if len(set(head)) != len(head):
            raise QueryError(f"head collapse: duplicate head variable in {name}({', '.join(map(str, head))})")
        if not body:
            raise QueryError(f"query {name!r} has an empty body")
        # the body's terms; a constant in it never equals a variable
        bound = set()
        for a in body:
            if not isinstance(a, Atom):
                raise QueryError(f"not an atom in body of {name!r}: {a!r}")
            bound.update(a.args)
        for b in builtins:
            if not isinstance(b, BuiltinAtom):
                raise QueryError(f"not a constraint in {name!r}: {b!r}")
        for v in head:
            if v not in bound:
                raise QueryError(f"unsafe query {name!r}: head variable {v} not bound in body")
        for b in builtins:
            for v in b.variables():
                if v not in bound:
                    raise QueryError(f"unsafe constraint {b}: variable {v} not bound in body")

    def variables(self) -> tuple[Var, ...]:
        """All variables in first-occurrence order: head, then body.  A
        constraint adds none: construction rejects a constraint variable
        that no body atom binds."""
        seen: dict[Var, None] = {}
        for v in self.head_vars:
            seen.setdefault(v)
        for a in self.body:
            for v in a.variables():
                seen.setdefault(v)
        return tuple(seen)

    def body_var_set(self) -> frozenset[Var]:
        return frozenset(v for a in self.body for v in a.variables())

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(str(v) for v in self.head_vars)})"
        parts = [str(a) for a in self.body] + [str(b) for b in self.builtins]
        return f"{head} :- {', '.join(parts)}"


# ---------------------------------------------------------------------------
# homomorphisms and containment


def _connected_order(atoms: Sequence[Atom], bound: Iterable[Var]) -> list[tuple]:
    """Search plan for `match_atoms`, fail first: one step per atom.  An
    atom is ready when it holds a constant or a variable that is bound
    (in `bound` or by an atom already placed), or has no arguments.
    Each step places the ready atom with the fewest distinct unbound
    variables, the lower body index breaking ties, so an atom whose
    variables are all bound, a pure check, runs as soon as it is ready.
    When no atom is ready, a new component starts at the first unplaced
    atom in body order.

    A step is (atom, key, check, binds, repeat), its argument tests as
    the bindings stand when it is placed.  `key` is the first position
    holding a constant or a bound variable (-1 if none), which keys its
    candidate index.  `check` compares the other such positions with
    their terms: None, or an itemgetter of the positions and the terms.
    `binds` is a tuple of (variable, position), the first occurrence of
    each unbound variable.  `repeat` compares each later occurrence of
    one of those with the first: None, or two itemgetters, of the later
    positions and of the first ones.  One position makes an itemgetter
    give an item and not a tuple, so one check term stands alone too.

    One heap of (unbound count, index) holds the ready atoms.  When a
    variable binds, each unplaced atom holding it gets its count
    lowered and a new entry; an entry whose count is no longer the
    atom's is skipped when popped.  So a plan costs O(occurrences ·
    log n).  The bookkeeping is keyed on variable names, whose hashing
    is native."""
    bound = {v.name for v in bound}
    left: list[int] = []  # distinct unbound variables per atom; -1 once placed
    holders: dict[str, list[int]] = {}  # unbound variable name -> atoms holding it; popped when it binds
    ready: list[tuple[int, int]] = []  # heap of (left[i], i)
    for i, a in enumerate(atoms):
        is_ready = not a.args
        count = 0
        for t in a.args:
            if isinstance(t, Const) or t.name in bound:
                is_ready = True
            elif (held := holders.get(t.name)) is None:
                holders[t.name] = [i]
                count += 1
            elif held[-1] != i:  # not a repeat within this atom
                held.append(i)
                count += 1
        left.append(count)
        if is_ready:
            ready.append((count, i))
    heapify(ready)
    first_unplaced = 0
    plan = []
    for _ in atoms:
        while ready and ready[0][0] != left[ready[0][1]]:
            heappop(ready)
        if ready:
            i = heappop(ready)[1]
        else:
            while left[first_unplaced] < 0:
                first_unplaced += 1
            i = first_unplaced
        left[i] = -1
        a = atoms[i]
        key = -1
        checked, terms, binds, later, earlier, first = [], [], [], [], [], {}
        for k, t in enumerate(a.args):
            if isinstance(t, Const) or t.name not in holders:
                if key < 0:
                    key = k
                else:
                    checked.append(k)
                    terms.append(t)
            elif (p := first.get(t.name)) is None:
                first[t.name] = k
                binds.append((t, k))
            else:
                later.append(k)
                earlier.append(p)
        check = (operator.itemgetter(*checked), tuple(terms)) if checked else None
        repeat = (operator.itemgetter(*later), operator.itemgetter(*earlier)) if later else None
        plan.append((a, key, check, tuple(binds), repeat))
        for name in first:
            for j in holders.pop(name):
                if left[j] >= 0:
                    left[j] -= 1
                    heappush(ready, (left[j], j))
    return plan


def _candidates(
    step: tuple, env: dict, by_pred: dict, indexes: dict, automorphisms: Optional[list],
) -> Iterable[Atom]:
    """The targets that a plan step's atom maps onto under env: those in
    the index on its key position under the key's term, or every target
    of its predicate and arity when it has no key, kept when they pass
    the step's check and repeat tests.  The check terms are resolved
    once, here, for all of them.  In a search that takes automorphisms,
    a step that binds and has two candidates or more hands them out
    through `_unexplored`.  One call is one node of the search."""
    a, k, check, binds, repeat = step
    pred = (a.predicate, len(a.args))
    if k < 0:
        found = by_pred.get(pred, ())
    else:
        index = indexes.get((pred, k))
        if index is None:
            index = indexes[pred, k] = {}
            for t in by_pred.get(pred, ()):
                index.setdefault(t.args[k], []).append(t)
        t = a.args[k]
        found = index.get(env[t] if type(t) is Var else t, ())
    if check is not None:
        pick, terms = check
        want = [env[t] if type(t) is Var else t for t in terms]
        want = want[0] if len(want) == 1 else tuple(want)
        found = [c for c in found if pick(c.args) == want]
    if repeat is not None:
        later, first = repeat
        found = [c for c in found if later(c.args) == first(c.args)]
    if automorphisms is not None and binds and len(found) > 1:
        return _unexplored(found, env, automorphisms)
    return found


def _unexplored(found: Sequence[Atom], env: dict, automorphisms: list) -> Iterator[Atom]:
    """A search node's candidates, less each that some recorded
    automorphism σ of the targets, fixing every value bound in env, maps
    an earlier candidate onto.  `match_atoms` asks for the next
    candidate only once the subtree of the one before is exhausted, so
    the earlier ones are explored or skipped, and the list of
    automorphisms may have grown meanwhile; each new σ is tested once
    against env.  A skipped candidate's subtree is the σ-image of an
    earlier one's: σ∘h extends env for each extension h there, and σ⁻¹
    takes it back.  So a skipped candidate counts as earlier, too.  The
    images of the earlier candidates under the σ that fix env are kept
    as argument tuples, built only once such a σ is recorded."""
    values = env.values()
    fixing, tested, earlier, images = [], 0, [], set()
    for cand in found:
        while tested < len(automorphisms):
            s = automorphisms[tested]
            tested += 1
            if all(s.get(t, t) == t for t in values):
                fixing.append(s)
                images.update([tuple([s.get(t, t) for t in c.args]) for c in earlier])
        if not images or cand.args not in images:
            yield cand
        earlier.append(cand)
        if fixing:
            images.update([tuple([s.get(t, t) for t in cand.args]) for s in fixing])


def match_atoms(
    atoms: Sequence[Atom], targets: Iterable[Atom], env0: Mapping[Var, Term],
    constraints: Sequence[BuiltinAtom] = (), target_constraints: Iterable[BuiltinAtom] = (),
    automorphisms: Optional[list] = None,
) -> Iterator[dict]:
    """Every extension of env0 that maps each atom onto some target atom
    and under which every constraint survives.

    The atoms are joined in `_connected_order`'s fail-first plan, which
    decides the order in which the extensions come, never which ones
    come.  Each step's candidates come from an index of the targets on
    its key position, built on first use and shared by the steps with
    the same predicate, arity and position, and pass the step's tests
    (`_candidates`); one that passes binds the step's new variables in
    a copy of the env made for it.  The search keeps an explicit stack,
    so long bodies do not recurse.

    The module's one constraint rule lives here: a constraint survives
    when its image is literally one of `target_constraints` (so a query
    contains itself), or else a ground comparison that holds.  It is
    tested right after the step that binds its last variable, cutting
    the search there, or before the search when env0 resolves it.

    `automorphisms`, when given, is a list of automorphisms of the
    targets and their constraints, each a map of their variables as an
    env is, that the caller may extend while the search runs.  A node
    then skips each candidate whose subtree is the image of an earlier
    sibling's under one that fixes the node's bindings (`_unexplored`);
    a partial map fails a constraint exactly when its image does.  The
    search yields only some of the extensions: every other one is the
    image of a yielded one under a product of recorded automorphisms,
    which the caller must not be able to tell apart.  With an empty
    list that stays empty, the same extensions come as without one."""
    env0 = dict(env0)
    plan = _connected_order(atoms, env0)
    tests = None  # per step, the constraints whose last variable it binds; last, those env0 resolves
    if constraints:
        literal = frozenset(target_constraints)
        step_of = {v: i for i, step in enumerate(plan) for v, _ in step[3]}
        tests = [[] for _ in range(len(plan) + 1)]
        for b in constraints:
            tests[max(step_of.get(b.lhs, -1), step_of.get(b.rhs, -1))].append(b)
        if not _survive(tests[-1], env0, literal):
            return
    if not plan:
        yield env0
        return
    by_pred: dict[tuple[str, int], list[Atom]] = {}
    for t in targets:
        by_pred.setdefault((t.predicate, len(t.args)), []).append(t)
    indexes: dict[tuple, dict[Term, list[Atom]]] = {}  # (pred, arity, position) -> term there -> targets

    last = len(plan) - 1
    envs = [env0]
    stack = [iter(_candidates(plan[0], env0, by_pred, indexes, automorphisms))]
    while stack:
        step = len(stack) - 1
        binds = plan[step][3]
        checks = tests and tests[step]
        env = envs[-1]
        for cand in stack[-1]:
            if binds:
                args = cand.args
                env2 = env.copy()
                for v, k in binds:
                    env2[v] = args[k]
                if checks and not _survive(checks, env2, literal):
                    continue
            else:
                env2 = env
            if step == last:
                yield env2
            else:
                envs.append(env2)
                stack.append(iter(_candidates(plan[step + 1], env2, by_pred, indexes, automorphisms)))
                break
        else:
            stack.pop()
            envs.pop()


def _survive(constraints: Iterable[BuiltinAtom], env: Mapping[Var, Term], literal: frozenset) -> bool:
    # `match_atoms`' rule; a ground image is compared on its two constants
    for b in constraints:
        lhs, rhs = env.get(b.lhs, b.lhs), env.get(b.rhs, b.rhs)
        if not (literal and BuiltinAtom(b.op, lhs, rhs) in literal) and not (
            type(lhs) is Const and type(rhs) is Const and compare_constants(b.op, lhs.value, rhs.value)
        ):
            return False
    return True


def _ground_true(b: BuiltinAtom) -> bool:
    return b.is_ground() and b.holds_ground()


def _homs(frm: ConjunctiveQuery, to: ConjunctiveQuery, automorphisms: Optional[list] = None) -> Iterator[dict]:
    """`match_atoms` from frm into to, heads mapped pointwise."""
    if len(frm.head_vars) != len(to.head_vars):
        raise QueryError(f"incomparable queries: head arity {len(frm.head_vars)} vs {len(to.head_vars)}")
    head = dict(zip(frm.head_vars, to.head_vars))
    return match_atoms(frm.body, to.body, head, frm.builtins, to.builtins, automorphisms)


def homomorphisms(frm: ConjunctiveQuery, to: ConjunctiveQuery) -> list[dict[Var, Term]]:
    """All variable maps h with h(head of frm) = head of to pointwise and
    h(a) a body atom of `to` for every body atom a of `frm`, with every
    constraint of `frm` surviving per `match_atoms`' rule, tested where
    the search binds its last variable.

    The maps come in no fixed order: it follows `match_atoms`'s plan.
    Queries with different head arities are incomparable and raise.
    """
    return list(_homs(frm, to))


@lru_cache(maxsize=131072)
def contains(general: ConjunctiveQuery, specific: ConjunctiveQuery) -> bool:
    """True iff a homomorphism from `general` into `specific` exists,
    i.e. every answer of `specific` is an answer of `general` on every
    database (sound; incomplete only across constraint implications)."""
    return next(_homs(general, specific), None) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Containment in both directions."""
    return contains(q1, q2) and contains(q2, q1)


# ---------------------------------------------------------------------------
# canonical forms


def _smaller_image(q: ConjunctiveQuery, n: int, automorphisms: Optional[list] = None) -> Optional[dict]:
    """The first endomorphism of q, fixing the head, whose image has
    fewer than n atoms, n being the number of distinct atoms of q's
    body; None when every endomorphism is onto, that is, when q is a
    core.  Which one is first depends on `match_atoms`'s plan, but not
    what `canonicalize` prints: retracting until no such map is left
    ends at q's core whichever maps are taken, the core is unique up to
    renaming, and the labeling then names it the same way.

    Given a list, the search appends to it each onto map it meets but
    the identity, and prunes with them as it goes (`match_atoms`).  An
    onto map is an automorphism of q: it permutes the variables and
    sends each constraint to one of q's, so it maps q's constraints
    onto q's own, and a map of the body survives the constraint rule
    exactly when its image under such a σ does.  A pruned subtree is
    the σ-image of an explored one, which held no map with a smaller
    image, so it holds none either: the first such map, and the None
    of a core, come out as without the list.  When it is None, the list
    holds the automorphisms that certified the core."""
    for h in _homs(q, q, automorphisms):
        # plain tuples: an Atom per image would validate every term again
        if len({(a.predicate, tuple([h.get(t, t) for t in a.args])) for a in q.body}) < n:
            return h
        # not the identity, which as a rule maps each variable to the very object
        if automorphisms is not None and not all(map(operator.is_, h, h.values())):
            if any(t != v for v, t in h.items()):
                automorphisms.append(h)
    return None


def _core(q: ConjunctiveQuery) -> tuple[ConjunctiveQuery, list]:
    """q's core, and the automorphisms of it that the search certifying
    it recorded (`_smaller_image`).

    Retract onto the image of an endomorphism h that shrinks the body,
    until every endomorphism is onto.  The image is safe: h fixes the
    head, and a variable h(v) occurs in h(a) for an atom a holding v.
    It is equivalent to q: h maps q onto it, and it is a part of q,
    since h sends each constraint to one of q's or to a ground one that
    holds, which is dropped.  The result is unique up to variable
    renaming, which the labeling step resolves.  Each round searches
    with a new list, as an automorphism of one body is none of the
    next; the pruning leaves every retraction as it was."""
    while True:
        automorphisms: list = []
        h = _smaller_image(q, len(q.body), automorphisms)
        if h is None:
            return q, automorphisms
        body = dict.fromkeys(Atom(a.predicate, tuple([h.get(t, t) for t in a.args])) for a in q.body)
        builtins = dict.fromkeys(BuiltinAtom(b.op, h.get(b.lhs, b.lhs), h.get(b.rhs, b.rhs)) for b in q.builtins)
        q = ConjunctiveQuery(q.name, q.head_vars, list(body), [b for b in builtins if not _ground_true(b)])


def _place(member, label):
    # a cell member takes its cell's next free position
    cell, variables = member
    lab = cell[0] + cell[2] * cell[1]
    cell[2] += 1
    for t in variables:
        label[t] = lab
        lab += 1


def _unplace(member, label):
    member[0][2] -= 1
    for t in member[1]:
        label[t] = -2


def _cell_vars(ties, group, atoms, used, constrained, nv):
    """Each tie's fresh variables, when the tied atoms form a cell; else
    None, given at the first tie or variable that stops them."""
    holder = {}
    for i, fresh, placed in ties:
        if placed or not fresh:
            return None
        for t in fresh:
            if t in constrained or t in holder:
                return None
            holder[t] = i
    for j in group:
        if not used[j]:
            for t in atoms[j]:
                if t < nv and holder.get(t, j) != j:
                    return None
    return [fresh for _, fresh, _ in ties]


def _canonical_labeling(head_vars, body, builtins, automorphisms=()):
    """Minimum-key relabeling of variables to v0, v1, ...

    Head variables are fixed to v0..v(k-1) by head position.  Remaining
    variables are named by exploring atom emission orders: at every step
    only the atoms achieving the minimal speculative key are expanded,
    tied atoms in body order, and a branch whose keys so far exceed the
    best leaf's is cut.  Leaves with equal atom keys are ranked by their
    sorted constraint keys, the operands of ``=`` and ``!=`` ordered by
    their new labels.  The chosen labeling is a true minimum, so
    isomorphic inputs produce identical output.

    Tied atoms that are interchangeable are emitted as one cell, with
    their order left open.  They form a cell when no tied atom holds an
    undecided variable, each holds an unlabelled variable, those are
    pairwise disjoint, no other unused atom of their predicate holds one
    of them, and no constraint does.  Those tests give up at the first
    tie or variable that fails them.  The cell fills one depth per
    member, with the tie key's fresh labels shifted by f per depth, f
    being the fresh variables per member; the member at position p
    gets the labels base + p*f + offset.  Its variables stay undecided
    until an atom holding one is emitted.  That atom's key places each
    distinct undecided member, in argument order, at its cell's next
    free position, the least key any order of the cell could give it,
    and emitting the atom fixes those positions.  At a leaf, members
    never placed take the open positions in member order.  So the k!
    orders of k disjoint stars are decided where a later atom tells
    the stars apart, without branching.  What still branches is a tie
    whose atoms hold undecided variables or share one: components that
    tie again at a later level, such as equal ``S`` constants told
    apart only by a third predicate, are tried in every order.

    `automorphisms`, those that certified the core (`_core`), prune that
    branching as nauty does (McKay & Piperno 2014).  On a path with no
    open cell, a level skips a tied atom when an automorphism σ that
    fixes every labelled variable maps it onto an earlier tie.  A path's
    keys depend only on the labels its variables get, and σ maps the
    body and the constraints onto themselves and fixes the labels given
    so far.  So under σ⁻¹ of the earlier tie, the skipped one, lies the
    σ⁻¹-image of the earlier tie's subtree, with the same keys at every
    depth and the same constraint keys at every leaf.  The first least
    leaf of the full search lies under no skipped tie, and the pruned
    search meets it with the same labels: the labeling is the one the
    full search gives.  A level hands each emission's subtree the
    automorphisms that also fix the variables it labelled, and a cell
    hands its subtree none.  With no automorphisms, the search branches
    as described above.  On the boolean 6-clique, where no cell forms
    and every vertex order ties, the labeling opens 4 levels with tied
    atoms instead of 511.

    Variables are numbered once as ints below nv, the number of
    variables, and their labels live in one list.  Every key part is an
    int: a variable's label, or for a constant nv plus its rank in
    `term_key` order among the constants of the body and the
    constraints, so keys compare as term keys would.  Scoring an atom is
    the one reader of the label states: it labels the atom's fresh
    variables from the next free label, places its undecided members,
    and undoes both.  A tied atom keeps what it did, its fresh variables
    and placed members, as a record; the cell test reads the records.
    The search keeps one suspended generator per level of the path on a
    list, as `match_atoms` keeps its candidate iterators, so long bodies
    do not recurse.  A level's generator emits one tied atom, replaying
    its record, or the whole cell, at a time: it sets the labels, yields
    the next free label, and undoes the emission when resumed.  One flag,
    set where the path's keys fall under the best leaf's and cleared at
    the next leaf, makes the cut one comparison of a level's keys with
    best's, for an atom and a cell alike, and lets a leaf under best
    win without comparing constraints.
    """
    # Each atom's arguments and each constraint's operands as ints:
    # variable ids, keyed on names, whose hashing is native, and constants
    # standing in as ~k until ranked, k counting the term_keys seen before
    ids = {v.name: i for i, v in enumerate(head_vars)}
    cids = {}
    atoms = []
    # Every emission order lists the atoms sorted by predicate, so the
    # atom emitted at depth d has the d-th predicate in that order, and
    # keys at one depth can leave the predicate out.
    groups: dict[str, list[int]] = {}
    for i, a in enumerate(body):
        atoms.append(
            [
                ids.setdefault(t.name, len(ids)) if type(t) is Var else cids.setdefault(term_key(t), ~len(cids))
                for t in a.args
            ]
        )
        groups.setdefault(a.predicate, []).append(i)
    scan = [groups[p] for p in sorted([a.predicate for a in body])]
    operands = [
        [ids[t.name] if type(t) is Var else cids.setdefault(term_key(t), ~len(cids)) for t in (b.lhs, b.rhs)]
        for b in builtins
    ]
    nv = len(ids)
    if cids:
        # a constant's key part is nv plus its rank in term_key order, so
        # every key part is an int, and they compare as term_keys do
        ranks = {cids[k]: r for r, k in enumerate(sorted(cids), nv)}
        for row in atoms + operands:
            row[:] = [ranks[t] if t < 0 else t for t in row]
    constraints = [(b.op, *row) for b, row in zip(builtins, operands)]
    n = len(body)
    # each automorphism as a permutation of the variable ids and one of
    # the atoms, by index
    perms = []
    if automorphisms:
        at = {(a.predicate, tuple(row)): i for i, (a, row) in enumerate(zip(body, atoms))}
        for s in automorphisms:
            image = list(range(nv))
            for v, t in s.items():
                image[ids[v.name]] = ids[t.name]
            moved = [at[a.predicate, tuple([image[t] if t < nv else t for t in row])] for a, row in zip(body, atoms)]
            perms.append((image, moved))
    constrained = {t for c in constraints for t in c[1:] if t < nv}
    used = [False] * n
    # label i, or -1 while unlabelled, or -2 while undecided: a variable
    # of a cell member whose position is still open
    label = [-1] * nv
    label[: len(head_vars)] = range(len(head_vars))
    # an undecided variable's member: its cell [base, f, next free
    # position, each member's variables] and its own variables
    member_of = [None] * nv
    keys = []  # the key at each depth of the current path
    cells = []  # the cells on the path

    def tries(d, c, ties, cell, fixing):
        # the level whose keys start at depth d, c being the next free
        # label, and fixing the automorphisms that fix every label so far
        if cell is None:
            rank = {i: r for r, (i, _, _) in enumerate(ties)} if fixing else None
            for i, fresh, placed in ties:  # replay the tie's scored emission
                if fixing and any(rank.get(moved[i], rank[i]) < rank[i] for _, moved in fixing):
                    continue  # an automorphism maps this tie onto an earlier one
                used[i] = True
                for k, t in enumerate(fresh, c):
                    label[t] = k
                for member in placed:
                    _place(member, label)
                yield c + len(fresh), [p for p in fixing if all(p[0][t] == t for t in fresh)] if fixing else fixing
                used[i] = False
                for member in placed:
                    _unplace(member, label)
                for t in fresh:
                    label[t] = -1
        else:
            # the members' variables stay undecided until placed
            for i, mine, _ in ties:
                used[i] = True
                for t in mine:
                    label[t] = -2
                    member_of[t] = (cell, mine)
            cells.append(cell)
            yield c + len(ties) * cell[1], ()
            cells.pop()
            for i, mine, _ in ties:
                used[i] = False
                for t in mine:
                    label[t] = -1
        del keys[d:]

    best = best_constraints = best_label = None  # the best leaf's keys by depth, constraint keys and labels
    # whether the path's keys are under best's, or no best is found yet;
    # cleared at the next leaf, which no cut stops and which becomes
    # best, so no backtrack finds it set
    below = True
    # one suspended `tries` per level of the path, under a root that
    # emits nothing and yields the first label after the head's
    stack = [iter(((len(head_vars), perms),))]
    while stack:
        for c, fixing in stack[-1]:
            d = len(keys)
            if d == n:  # a leaf: every atom emitted
                leaf_constraints = []
                for op, lhs, rhs in constraints:
                    lhs = label[lhs] if lhs < nv else lhs
                    rhs = label[rhs] if rhs < nv else rhs
                    # = and != read the same both ways round: order their
                    # operands by the new labels, not by the old names
                    if op in _SYMMETRIC and rhs < lhs:
                        lhs, rhs = rhs, lhs
                    leaf_constraints.append((op, lhs, rhs))
                leaf_constraints = tuple(sorted(leaf_constraints))
                if below or leaf_constraints < best_constraints:
                    best, best_constraints, best_label = list(keys), leaf_constraints, list(label)
                    # members never placed take the open positions, from
                    # the next free one, in member order
                    for base, f, p, variables in cells:
                        unplaced = [t for mine in variables if label[mine[0]] < 0 for t in mine]
                        for lab, t in enumerate(unplaced, base + p * f):
                            best_label[t] = lab
                    below = False  # the path is now best's own
                continue
            # a new level: score the remaining atoms of its predicate, c
            # being the next free label
            group = scan[d]
            min_key, ties = None, []
            for i in group:
                if used[i]:
                    continue
                key = []
                fresh = []
                placed = []
                e = c
                for t in atoms[i]:
                    if t < nv:
                        lab = label[t]
                        if lab < 0:
                            if lab == -1:
                                lab = label[t] = e
                                e += 1
                                fresh.append(t)
                            else:  # an undecided member takes its cell's next free position
                                _place(member_of[t], label)
                                placed.append(member_of[t])
                                lab = label[t]
                        t = lab
                    key.append(t)
                for t in fresh:
                    label[t] = -1
                if placed:
                    for member in placed:
                        _unplace(member, label)
                # a tie records its emission, which `tries` replays
                if min_key is None or key < min_key:
                    min_key, ties = key, [(i, fresh, placed)]
                elif key == min_key:
                    ties.append((i, fresh, placed))
            cell = None
            if len(ties) > 1 and (variables := _cell_vars(ties, group, atoms, used, constrained, nv)) is not None:
                f = len(variables[0])
                cell = [c, f, 0, variables]
                for shift in range(0, len(ties) * f, f):
                    keys.append([p if p < c or p >= nv else p + shift for p in min_key])
            else:
                keys.append(min_key)
            if not below and (part := keys[d:]) > (tail := best[d : len(keys)]):
                del keys[d:]  # every try has these keys
                continue
            below = below or part < tail
            stack.append(tries(d, c, ties, cell, fixing))
            break
        else:
            stack.pop()

    named = [Var(f"v{i}") for i in range(len(ids))]
    rename = {name: named[best_label[i]] for name, i in ids.items()}
    new_body = [Atom(a.predicate, tuple([rename[t.name] if isinstance(t, Var) else t for t in a.args])) for a in body]
    # BuiltinAtom puts the renamed operands back in normal orientation
    new_builtins = [
        BuiltinAtom(b.op, *[rename[t.name] if isinstance(t, Var) else t for t in (b.lhs, b.rhs)]) for b in builtins
    ]
    return (
        tuple(named[: len(head_vars)]),
        tuple(sorted(new_body, key=atom_key)),
        tuple(sorted(new_builtins, key=_builtin_key)),
    )


@lru_cache(maxsize=65536)
def _canonical_form(q: ConjunctiveQuery) -> ConjunctiveQuery:
    # Keyed on structure only, since names take no part in equality:
    # the name of the result is that of the first query seen with this
    # structure, and `canonicalize` puts the caller's name back.
    builtins = list(dict.fromkeys(b for b in q.builtins if not _ground_true(b)))
    core, automorphisms = _core(ConjunctiveQuery(q.name, q.head_vars, list(dict.fromkeys(q.body)), builtins))
    new_head, new_body, new_builtins = _canonical_labeling(q.head_vars, core.body, core.builtins, automorphisms)
    return ConjunctiveQuery(q.name, new_head, new_body, new_builtins)


def canonicalize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Canonical representative of q's equivalence class.

    Drops duplicate atoms and ground-true constraints, retracts q onto
    its core, renames variables to v0, v1, ... and orders body and
    constraints deterministically.  Two queries have identical
    (structurally equal) canonical forms iff they are `equivalent`,
    constraints included.  Equivalence here is the syntactic constraint
    rule of `contains`, not implication: ``x < 4`` and ``x < 4, x < 9``
    stay apart.  The name label is q's own, whatever was canonicalized
    before.

    The work is cached on structure; ``canonicalize.cache_clear()`` and
    ``canonicalize.cache_info()`` reach that cache.
    """
    c = _canonical_form(q)
    if c.name == q.name:
        return c
    return ConjunctiveQuery(q.name, c.head_vars, c.body, c.builtins)


canonicalize.cache_clear = _canonical_form.cache_clear
canonicalize.cache_info = _canonical_form.cache_info

