"""Conjunctive-query kernel.

Terms, atoms, comparison constraints, queries, and the operations the
rest of the package is built on: homomorphism search, containment,
equivalence, and canonical forms.

One indexed, iterative atom matcher, `match_atoms`, serves evaluation
over facts, view folding, containment and core retraction.

Everything here is an immutable value and every operation is a pure
function, so results can be cached and shared freely.

Containment is decided by homomorphism existence.  Constraints are
handled conservatively: a constraint of the more general query must
either become a ground comparison that evaluates to true, or appear
syntactically (after substitution) among the constraints of the more
specific query.  This is sound but deliberately incomplete; no interval
reasoning is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heappop, heappush
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
]


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
class Var:
    """A query variable; two variables are equal iff their names are."""

    name: str

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise QueryError(f"invalid variable name {self.name!r}")

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
        if isinstance(self.value, int):
            return str(self.value)
        escaped = self.value.replace("\\", "\\\\").replace('"', '\\"')
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


def _check_term(t: Term) -> Term:
    if not isinstance(t, (Var, Const)):
        raise QueryError(f"not a term: {t!r}")
    return t


# ---------------------------------------------------------------------------
# atoms and constraints


@dataclass(frozen=True, slots=True)
class Atom:
    """A relational atom pred(t1, ..., tn)."""

    predicate: str
    args: tuple[Term, ...]

    def __post_init__(self):
        if not isinstance(self.predicate, str) or not self.predicate.isidentifier():
            raise QueryError(f"invalid predicate name {self.predicate!r}")
        object.__setattr__(self, "args", tuple(_check_term(a) for a in self.args))

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


_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")
_FLIP = {">": "<", ">=": "<="}
_SYMMETRIC = ("=", "!=")


def compare_constants(op: str, a: Union[int, str], b: Union[int, str]) -> bool:
    """Ground comparison semantics: integers numerically, strings
    lexicographically; comparisons across types are false, except !=
    which is true."""
    same_type = type(a) is type(b)
    if op == "=":
        return same_type and a == b
    if op == "!=":
        return (not same_type) or a != b
    if not same_type:
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise QueryError(f"unknown comparison operator {op!r}")


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
        if self.op not in _COMPARISON_OPS:
            raise QueryError(f"unknown comparison operator {self.op!r}")
        _check_term(self.lhs)
        _check_term(self.rhs)
        op, lhs, rhs = self.op, self.lhs, self.rhs
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
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise QueryError(f"invalid query name {self.name!r}")
        object.__setattr__(self, "head_vars", tuple(self.head_vars))
        object.__setattr__(self, "body", tuple(self.body))
        object.__setattr__(self, "builtins", tuple(self.builtins))
        for v in self.head_vars:
            if not isinstance(v, Var):
                raise QueryError(f"head collapse: head position {v!r} is not a variable")
        if len(set(self.head_vars)) != len(self.head_vars):
            raise QueryError(f"head collapse: duplicate head variable in {self.name}({', '.join(map(str, self.head_vars))})")
        if not self.body:
            raise QueryError(f"query {self.name!r} has an empty body")
        for a in self.body:
            if not isinstance(a, Atom):
                raise QueryError(f"not an atom in body of {self.name!r}: {a!r}")
        for b in self.builtins:
            if not isinstance(b, BuiltinAtom):
                raise QueryError(f"not a constraint in {self.name!r}: {b!r}")
        bound = {v for a in self.body for v in a.variables()}
        for v in self.head_vars:
            if v not in bound:
                raise QueryError(f"unsafe query {self.name!r}: head variable {v} not bound in body")
        for b in self.builtins:
            for v in b.variables():
                if v not in bound:
                    raise QueryError(f"unsafe constraint {b}: variable {v} not bound in body")

    def variables(self) -> tuple[Var, ...]:
        """All variables in first-occurrence order: head, then body, then
        constraints."""
        seen: dict[Var, None] = {}
        for v in self.head_vars:
            seen.setdefault(v)
        for a in self.body:
            for v in a.variables():
                seen.setdefault(v)
        for b in self.builtins:
            for v in b.variables():
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


def _match_args(pattern: Sequence[Term], target: Sequence[Term], env: dict) -> Optional[dict]:
    """Extend env so the pattern argument list maps onto the target one.
    Constants must match exactly; variables bind or must agree with a
    previous binding.  Returns the extended environment or None."""
    if len(pattern) != len(target):
        return None
    out = env
    copied = False
    for p, t in zip(pattern, target):
        if isinstance(p, Const):
            if p != t:
                return None
            continue
        bound = out.get(p)
        if bound is None:
            if not copied:
                out = dict(out)
                copied = True
            out[p] = t
        elif bound != t:
            return None
    return out


def _connected_order(atoms: Sequence[Atom], bound: Iterable[Var]) -> list[tuple[Atom, int]]:
    """Search order for `match_atoms`: body order, except that an atom
    holding a constant or sharing a variable with the atoms already
    placed (or with `bound`) is placed as soon as it becomes ready.
    Each atom comes with its first argument position that is bound
    when it is reached (-1 if none), which keys its candidate index.
    The bookkeeping is keyed on variable names, whose hashing is
    native."""
    bound = {v.name for v in bound}
    ready: list[int] = []  # heap of atom indices
    waiting: dict[str, list[int]] = {}  # unbound variable name -> atoms it would make ready
    for i, a in enumerate(atoms):
        for t in a.args:
            if isinstance(t, Const) or t.name in bound:
                ready.append(i)
                break
        else:
            for t in a.args:
                waiting.setdefault(t.name, []).append(i)
    placed = [False] * len(atoms)
    first_unplaced = 0
    plan = []
    for _ in atoms:
        while ready and placed[ready[0]]:
            heappop(ready)
        if ready:
            i = heappop(ready)
        else:
            while placed[first_unplaced]:
                first_unplaced += 1
            i = first_unplaced
        placed[i] = True
        a = atoms[i]
        key = -1
        for k, t in enumerate(a.args):
            if isinstance(t, Const) or t.name in bound:
                key = k
                break
        plan.append((a, key))
        for t in a.args:
            if isinstance(t, Var):
                name = t.name
                if name in waiting:
                    for j in waiting.pop(name):
                        heappush(ready, j)
                bound.add(name)
    return plan


def match_atoms(atoms: Sequence[Atom], targets: Iterable[Atom], env0: Mapping[Var, Term]) -> Iterator[dict]:
    """Every extension of env0 that maps each atom onto some target atom.

    The atoms are joined in connected order (`_connected_order`).  An
    atom's candidates come from an index of the targets on its first
    bound argument position; each index is built on first use and
    shared by the atoms with the same predicate, arity and position.
    The search keeps an explicit stack, so long bodies do not
    recurse."""
    env0 = dict(env0)
    plan = _connected_order(atoms, env0)
    if not plan:
        yield env0
        return
    by_pred: dict[tuple[str, int], list[Atom]] = {}
    for t in targets:
        by_pred.setdefault((t.predicate, len(t.args)), []).append(t)
    indexes: dict[tuple, dict[Term, list[Atom]]] = {}  # (pred, arity, position) -> term there -> targets

    def candidates(step: int, env: dict) -> Iterator[Atom]:
        a, k = plan[step]
        pred = (a.predicate, len(a.args))
        if k < 0:
            return iter(by_pred.get(pred, ()))
        index = indexes.get((pred, k))
        if index is None:
            index = indexes[pred, k] = {}
            for t in by_pred.get(pred, ()):
                index.setdefault(t.args[k], []).append(t)
        t = a.args[k]
        return iter(index.get(env[t] if isinstance(t, Var) else t, ()))

    last = len(plan) - 1
    envs = [env0]
    stack = [candidates(0, env0)]
    while stack:
        step = len(stack) - 1
        args = plan[step][0].args
        env = envs[-1]
        for cand in stack[-1]:
            env2 = _match_args(args, cand.args, env)
            if env2 is None:
                continue
            if step == last:
                yield env2
            else:
                envs.append(env2)
                stack.append(candidates(step + 1, env2))
                break
        else:
            stack.pop()
            envs.pop()


def _builtin_image_ok(b: BuiltinAtom, env: Mapping[Var, Term], target_builtins: frozenset[BuiltinAtom]) -> bool:
    # Constraint survival rule: the image is acceptable when it is a
    # ground comparison that holds, or is literally one of the target's
    # constraints (both sides stored in normal orientation).
    lhs = env.get(b.lhs, b.lhs) if isinstance(b.lhs, Var) else b.lhs
    rhs = env.get(b.rhs, b.rhs) if isinstance(b.rhs, Var) else b.rhs
    image = BuiltinAtom(b.op, lhs, rhs)
    if image.is_ground():
        return image.holds_ground()
    return image in target_builtins


def _homs(frm: ConjunctiveQuery, to: ConjunctiveQuery) -> Iterator[dict]:
    """`match_atoms` from frm's body into to's, with frm's head mapped
    onto to's head pointwise, keeping the envs under which every
    constraint of frm survives."""
    if len(frm.head_vars) != len(to.head_vars):
        raise QueryError(
            f"incomparable queries: head arity {len(frm.head_vars)} vs {len(to.head_vars)}"
        )
    envs = match_atoms(frm.body, to.body, dict(zip(frm.head_vars, to.head_vars)))
    if not frm.builtins:
        return envs
    target_builtins = frozenset(to.builtins)
    return (env for env in envs if all(_builtin_image_ok(b, env, target_builtins) for b in frm.builtins))


def homomorphisms(frm: ConjunctiveQuery, to: ConjunctiveQuery) -> list[dict[Var, Term]]:
    """All variable maps h with h(head of frm) = head of to pointwise and
    h(a) a body atom of `to` for every body atom a of `frm`, with every
    constraint of `frm` surviving per the conservative rule.

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


def _dedupe(seq):
    seen = set()
    out = []
    for x in seq:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _retraction_target_ok(head_vars, candidate_body, builtins) -> bool:
    # removal must keep the query safe
    bound = {v for a in candidate_body for v in a.variables()}
    if any(v not in bound for v in head_vars):
        return False
    for b in builtins:
        if any(v not in bound for v in b.variables()):
            return False
    return True


def _core_body(q: ConjunctiveQuery, body: list[Atom], builtins: tuple[BuiltinAtom, ...]) -> list[Atom]:
    # Greedy retraction: drop an atom whenever the full query folds into
    # the reduced one.  The result is unique up to variable renaming,
    # which the labeling step below resolves.
    changed = True
    while changed and len(body) > 1:
        changed = False
        full = ConjunctiveQuery(q.name, q.head_vars, tuple(body), builtins)
        for idx in range(len(body)):
            candidate = body[:idx] + body[idx + 1 :]
            if not _retraction_target_ok(q.head_vars, candidate, builtins):
                continue
            reduced = ConjunctiveQuery(q.name, q.head_vars, tuple(candidate), builtins)
            if next(_homs(full, reduced), None) is not None:
                body = candidate
                changed = True
                break
    return body


def _canonical_labeling(head_vars, body, builtins):
    """Minimum-key relabeling of variables to v0, v1, ...

    Head variables are fixed to v0..v(k-1) by head position.  Remaining
    variables are named by exploring atom emission orders: at every step
    only atoms achieving the minimal speculative key are expanded, with
    branching on ties, so the search stays near-linear in practice while
    the chosen labeling is a true minimum.  Isomorphic inputs therefore
    produce identical output.
    """
    base_env = {v: i for i, v in enumerate(head_vars)}

    def spec_key(atom: Atom, env: dict, counter: int):
        parts = []
        env2 = env
        c = counter
        extended = False
        for t in atom.args:
            if isinstance(t, Var):
                if t not in env2:
                    if not extended:
                        env2 = dict(env2)
                        extended = True
                    env2[t] = c
                    c += 1
                parts.append((0, 0, env2[t]))
            elif isinstance(t.value, int):
                parts.append((1, 0, t.value))
            else:
                parts.append((1, 1, t.value))
        return (atom.predicate, tuple(parts)), env2, c

    best: list = [None]  # (body_keys, builtin_keys, env)

    def builtin_keys(env: dict):
        keys = []
        for b in builtins:
            def tk(t):
                if isinstance(t, Var):
                    return (0, 0, env[t])
                return (1, 0, t.value) if isinstance(t.value, int) else (1, 1, t.value)
            keys.append((b.op, tk(b.lhs), tk(b.rhs)))
        return tuple(sorted(keys))

    def rec(remaining: list[Atom], env: dict, counter: int, acc: tuple):
        if best[0] is not None:
            prefix = best[0][0][: len(acc)]
            if acc > prefix:
                return
        if not remaining:
            full = (acc, builtin_keys(env), env)
            if best[0] is None or (full[0], full[1]) < (best[0][0], best[0][1]):
                best[0] = full
            return
        scored = []
        for idx, atom in enumerate(remaining):
            key, env2, c2 = spec_key(atom, env, counter)
            scored.append((key, idx, env2, c2))
        min_key = min(s[0] for s in scored)
        for key, idx, env2, c2 in scored:
            if key == min_key:
                rec(remaining[:idx] + remaining[idx + 1 :], env2, c2, acc + (key,))

    rec(list(body), base_env, len(head_vars), ())
    _, _, env = best[0]
    rename = {v: Var(f"v{i}") for v, i in env.items()}
    new_head = tuple(Var(f"v{i}") for i in range(len(head_vars)))
    new_body = [Atom(a.predicate, tuple(rename.get(t, t) for t in a.args)) for a in body]
    # BuiltinAtom puts the renamed operands back in normal orientation
    new_builtins = [BuiltinAtom(b.op, rename.get(b.lhs, b.lhs), rename.get(b.rhs, b.rhs)) for b in builtins]
    return new_head, tuple(sorted(new_body, key=atom_key)), tuple(sorted(new_builtins, key=_builtin_key))


@lru_cache(maxsize=65536)
def _canonical_form(q: ConjunctiveQuery) -> ConjunctiveQuery:
    # Keyed on structure only, since names take no part in equality:
    # the name of the result is that of the first query seen with this
    # structure, and `canonicalize` puts the caller's name back.
    builtins = tuple(_dedupe(b for b in q.builtins if not (b.is_ground() and b.holds_ground())))
    body = _dedupe(q.body)
    body = _core_body(q, body, builtins)
    new_head, new_body, new_builtins = _canonical_labeling(q.head_vars, body, builtins)
    return ConjunctiveQuery(q.name, new_head, new_body, new_builtins)


def canonicalize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Canonical representative of q's equivalence class.

    Drops duplicate atoms and ground-true constraints, minimizes the
    body by retraction, renames variables to v0, v1, ... and orders body
    and constraints deterministically.  For constraint-free queries,
    equivalent inputs yield identical (structurally equal) outputs; the
    name label is q's own, whatever was canonicalized before.

    The work is cached on structure; ``canonicalize.cache_clear()`` and
    ``canonicalize.cache_info()`` reach that cache.
    """
    c = _canonical_form(q)
    if c.name == q.name:
        return c
    return ConjunctiveQuery(q.name, c.head_vars, c.body, c.builtins)


canonicalize.cache_clear = _canonical_form.cache_clear
canonicalize.cache_info = _canonical_form.cache_info

