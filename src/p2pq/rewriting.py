"""One-step query rewriting across a mapping interface.

The pipeline for pushing a query q from peer i toward peer j is

    rew = unfold_j . subst . minicon_i . split_builtins

1. split_builtins separates comparison constraints from the relational
   reduct;
2. minicon searches for a view expression over i's mapped views whose
   unfolding is equivalent to the reduct (not merely contained in it);
3. subst renames each view to its paired view on j;
4. unfold expands j's view definitions, producing a base-level query
   over j's schema, and the constraints are re-attached.

Only the last two steps depend on j.  So for each loaded network, `rew`
runs minicon once per source peer, mapped view set and reduct, and
keeps the result on the network; subst, unfold, the constraint check
and canonicalize run on every call.

Absence of a rewriting is a value, not an error: minicon and rew return
None for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import QueryError, UnknownViewError, ValidationError
from .network import MappingPair, Network, ViewDefinition
from .queries import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Term,
    Var,
    _smaller_image,
    atom_key,
    canonicalize,
    contains,
    equivalent,  # unused here; perfbench's tracer wraps rewriting.equivalent
    match_atoms,
)

__all__ = ["ViewExpression", "split_builtins", "minicon", "subst", "unfold", "rew"]


@dataclass(frozen=True, slots=True)
class ViewExpression:
    """A conjunctive query whose body predicates are view names of the
    owning peer."""

    query: ConjunctiveQuery
    owner: str

    def __str__(self) -> str:
        return f"{self.query}  [views of {self.owner}]"


def split_builtins(q: ConjunctiveQuery) -> tuple[ConjunctiveQuery, tuple[BuiltinAtom, ...]]:
    """Split q into its relational reduct and its constraint list.  The
    reduct keeps name, head, and body."""
    return ConjunctiveQuery(q.name, q.head_vars, q.body, ()), q.builtins


def minicon(q: ConjunctiveQuery, views: Sequence[ViewDefinition], owner: str) -> Optional[ViewExpression]:
    """Search for a view expression over `views` equivalent to q.

    q must be constraint-free.  Candidate view atoms are produced by
    folding each view definition into q's body; an equivalent rewriting,
    if one exists at all, always exists among conjunctions of such atoms
    using no more atoms than q's body has.  Candidates are tried in
    ascending size and lexicographic atom order and the first equivalent
    one is returned, so the choice is deterministic; None means no
    equivalent rewriting exists within the bound.

    Only the containment that can fail is tested.  Every candidate is a
    view folded into q, so mapping each instance's variables as its fold
    did maps unfold(psi) into q: unfold(psi) always contains q.  psi is
    equivalent to q iff q also contains unfold(psi).

    The candidates form one table of (view atom, mask) records, sorted
    by atom.  With n distinct atoms in q's body, the low n bits of a
    mask are the body atoms that the images of the atom's folds cover,
    and the bits above them are the head variables among its arguments.
    A combination's mask is the OR of its records' masks: it needs every
    head bit, and its low bits are its cover m.

    Combinations are pruned by subgoal coverage first.  A combination is
    skipped unless m is all of q's body or q maps into its own sub-body
    q[m] (one test per distinct mask).  This loses no answer: if psi is
    equivalent to q, a homomorphism g from q into unfold(psi), followed
    by the map f from unfold(psi) into q that sends each instance where
    its fold sent it, is an endomorphism of q fixing the head whose
    image lies in q[m].  So the first hit is the same as without
    pruning.

    A core makes no such test.  At the first cover short of the full
    body, one search for an endomorphism whose image is smaller than
    q's body decides whether q is a core, pruned by the automorphisms it
    meets as `_core`'s search is; `canonicalize` retracts onto such
    images until that search finds none.  A core has no proper
    retract, so it maps into no q[m] but the full one, and every other
    cover is refused at once.  q need not be a core: the reduct of a
    canonical query with constraints may not be one.
    """
    if q.builtins:
        raise QueryError(f"minicon expects a constraint-free query, got {q.name!r}")

    bits: dict[tuple, int] = {}  # (predicate, args) of each distinct atom of q's body -> its bit
    for a in q.body:
        bits.setdefault((a.predicate, a.args), 1 << len(bits))
    n = len(bits)
    head_bit = {v: 1 << (n + k) for k, v in enumerate(q.head_vars)}
    masks: dict[tuple, int] = {}  # (view name, args) of a folded view atom -> its mask
    views = tuple(views)
    for view in views:
        defn = view.definition
        for theta in match_atoms(defn.body, q.body, {}):
            args = tuple(theta[v] for v in defn.head_vars)
            m = masks.get((view.name, args), 0)
            for t in args:
                m |= head_bit.get(t, 0)
            for b in defn.body:
                m |= bits[b.predicate, tuple(theta[t] if isinstance(t, Var) else t for t in b.args)]
            masks[view.name, args] = m
    table = sorted(((Atom(name, args), m) for (name, args), m in masks.items()),
                   key=lambda record: atom_key(record[0]))

    full = (1 << n) - 1
    need = (1 << (n + len(q.head_vars))) - 1
    memo = {need: True}  # mask -> does q map into q[m]
    core = None  # is q a core; decided at the first mask short of need
    for size in range(1, min(len(q.body), len(table)) + 1):
        for combo in itertools.combinations(table, size):
            mask = 0
            for _, m in combo:
                mask |= m
            if mask | full != need:
                continue
            ok = memo.get(mask)
            if ok is None:
                if core is None:
                    core = _smaller_image(q, n, []) is None
                # a core folds into none of its proper sub-bodies.  q[m] is
                # safe: a view's head variables occur in its body, so each
                # candidate's args occur in its folds' images
                ok = memo[mask] = not core and contains(q, ConjunctiveQuery(
                    q.name, q.head_vars, tuple(a for a in q.body if bits[a.predicate, a.args] & mask), ()))
            if ok:
                psi = ViewExpression(ConjunctiveQuery(q.name, q.head_vars, tuple(a for a, _ in combo), ()), owner)
                if contains(q, unfold(psi, views)):
                    return psi
    return None


def subst(psi: ViewExpression, group: Sequence[MappingPair], owner: str) -> Optional[ViewExpression]:
    """Rename each view in psi to its paired view on `owner`.  When a
    view appears in several pairs of the group, the first declared pair
    wins.  None when some view of psi is not paired at all."""
    table: dict[str, str] = {}
    for pair in group:
        table.setdefault(pair.from_view, pair.to_view)
    body = []
    for a in psi.query.body:
        if a.predicate not in table:
            return None
        body.append(Atom(table[a.predicate], a.args))
    q = psi.query
    return ViewExpression(
        ConjunctiveQuery(q.name, q.head_vars, tuple(body), q.builtins), owner
    )


def unfold(phi: ViewExpression, views: Sequence[ViewDefinition]) -> ConjunctiveQuery:
    """Expand every view atom of phi with its definition.

    Each instance gets one renaming: every definition variable keeps its
    name if unused so far, else takes the first free ``name_2``,
    ``name_3``, ...; then the head variables become the atom's
    arguments.  Raises UnknownViewError for an undefined view name and
    "malformed mapping" when an atom's arity disagrees with the
    definition.
    """
    defs = {v.name: v for v in views}
    used = {v.name for v in phi.query.variables()}
    body: list[Atom] = []
    for a in phi.query.body:
        view = defs.get(a.predicate)
        if view is None:
            raise UnknownViewError(f"unknown view {a.predicate!r}")
        defn = view.definition
        if len(defn.head_vars) != len(a.args):
            raise ValidationError(
                f"malformed mapping: view {a.predicate!r} used with arity "
                f"{len(a.args)}, defined with {len(defn.head_vars)}"
            )
        rename: dict[Var, Term] = {}
        for v in defn.variables():
            name = v.name
            if name in used:
                i = 2
                while f"{name}_{i}" in used:
                    i += 1
                name = f"{name}_{i}"
            used.add(name)
            rename[v] = Var(name)
        rename.update(zip(defn.head_vars, a.args))
        body.extend(Atom(b.predicate, tuple(rename.get(t, t) for t in b.args)) for b in defn.body)
    q = phi.query
    return ConjunctiveQuery(q.name, q.head_vars, tuple(body), q.builtins)


def rew(q: ConjunctiveQuery, net: Network, i: str, j: str) -> Optional[ConjunctiveQuery]:
    """One-step rewriting of q from peer i toward peer j, canonicalized;
    None when no equivalent rewriting crosses the interface.

    q must be base-level over i's schema and (i, j) must be a declared
    interface direction.

    minicon's result is kept on `net`, one per source peer, mapped view
    set and reduct, and reused by every later call with that key; the
    rest of the pipeline runs on every call.
    """
    peer_i = net.peer(i)
    peer_j = net.peer(j)
    group = net.interfaces.get((i, j))
    if group is None:
        raise ValidationError(f"no declared interface from {i!r} to {j!r}")
    peer_i.require_base(q)

    reduct, constraints = split_builtins(q)
    from_names = {pair.from_view for pair in group}
    mapped_views = tuple(v for v in peer_i.views if v.name in from_names)

    # psi may carry an earlier caller's name; the result takes q's
    key = (i, tuple(v.name for v in mapped_views), reduct)
    psi = net._minicon.get(key, False)  # False: not searched yet
    if psi is False:
        psi = net._minicon[key] = minicon(reduct, mapped_views, owner=i)
    if psi is None:
        return None
    # psi uses only views the group maps, and the network checked that
    # each mapped view exists on j with the same arity, so neither
    # subst nor unfold can fail here
    base = unfold(subst(psi, group, owner=j), peer_j.views)

    # constraints ride through unchanged; if a constrained variable did
    # not survive the rewriting there is nothing to attach them to
    body_vars = base.body_var_set()
    for c in constraints:
        if any(v not in body_vars for v in c.variables()):
            return None
    result = ConjunctiveQuery(q.name, base.head_vars, base.body, constraints)
    return canonicalize(result)
