"""Known-answer evaluation over peer fact sets.

Relations are finite sets of constant tuples.  A query is evaluated by
matching its body atoms against the owning peer's facts
(`queries.match_atoms`): an atom that holds a constant or shares a
variable with the atoms already joined is joined next, and its
candidate facts are looked up in an index on its first already-bound
argument position.  The matches are filtered by the comparison
constraints and projected onto the head; the 0-ary relations {} and
{()} act as false and true, so boolean queries come out as one of those
two values.

The answer to a query posed at an origin peer is assembled from the
agent's fixpoint: every derived query is evaluated on its own peer, the
results are unioned per peer, and the per-peer relations are unioned
globally.  Answers are intensional: equivalent queries posed at
different origins may see different facts and return different rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .agent import DEFAULT_STEP_CEILING, run
from .errors import QueryError
from .network import Network, Peer
from .queries import BuiltinAtom, ConjunctiveQuery, Var, compare_constants, match_atoms

__all__ = ["TupleSet", "AnswerReport", "join", "evaluate", "answer", "assemble_report", "row_key"]

Row = tuple[Union[int, str], ...]


def row_key(row: Row) -> tuple:
    """Deterministic order for rows of mixed int/str columns."""
    return tuple((0, v) if isinstance(v, int) else (1, v) for v in row)


@dataclass(frozen=True, slots=True)
class TupleSet:
    """A finite relation: arity plus a set of constant tuples."""

    arity: int
    rows: frozenset[Row] = frozenset()

    def __post_init__(self):
        if not isinstance(self.arity, int) or self.arity < 0:
            raise QueryError(f"invalid arity {self.arity!r}")
        object.__setattr__(self, "rows", frozenset(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != self.arity:
                raise QueryError(f"row {r!r} does not have arity {self.arity}")
            for v in r:
                if type(v) not in (int, str):
                    raise QueryError(f"row value {v!r} must be int or str")

    def __len__(self) -> int:
        return len(self.rows)


def join(r1: TupleSet, r2: TupleSet, shared: int = 0) -> TupleSet:
    """Natural join on `shared` columns: the last `shared` columns of r1
    are matched against the first `shared` columns of r2, which are then
    dropped from r2's contribution.

    With shared=0 this is the cross product, so joining with the 0-ary
    relations gives the truth-value identities: join(r, {}) = {} and
    join(r, {()}) = r.
    """
    if not isinstance(shared, int) or shared < 0 or shared > min(r1.arity, r2.arity):
        raise QueryError(
            f"join annotation arity mismatch: {shared} shared columns "
            f"for arities {r1.arity} and {r2.arity}"
        )
    by_prefix: dict[Row, list[Row]] = {}
    for row in r2.rows:
        by_prefix.setdefault(row[:shared], []).append(row[shared:])
    out = set()
    for row in r1.rows:
        for rest in by_prefix.get(row[r1.arity - shared :], ()):
            out.add(row + rest)
    return TupleSet(r1.arity + r2.arity - shared, frozenset(out))


def _constraint_holds(b: BuiltinAtom, env: dict) -> bool:
    lhs = env[b.lhs] if isinstance(b.lhs, Var) else b.lhs
    rhs = env[b.rhs] if isinstance(b.rhs, Var) else b.rhs
    return compare_constants(b.op, lhs.value, rhs.value)


def evaluate(q: ConjunctiveQuery, peer: Peer) -> TupleSet:
    """All head tuples of q over the peer's facts.  q must be base-level
    on the peer's schema."""
    peer.require_base(q)
    rows = set()
    for env in match_atoms(q.body, peer.facts, {}):
        if all(_constraint_holds(b, env) for b in q.builtins):
            rows.add(tuple(env[v].value for v in q.head_vars))
    return TupleSet(len(q.head_vars), frozenset(rows))


@dataclass(frozen=True)
class AnswerReport:
    """The complete answer to a query posed at one origin peer."""

    origin: str
    query: ConjunctiveQuery
    per_peer: dict[str, tuple[frozenset[ConjunctiveQuery], TupleSet]]
    union: TupleSet

    def __post_init__(self):
        object.__setattr__(self, "per_peer", dict(self.per_peer))


def assemble_report(net: Network, origin: str, q: ConjunctiveQuery, result) -> AnswerReport:
    """Evaluate every derived query of an agent result on its own peer
    and aggregate per peer and globally."""
    arity = len(q.head_vars)
    per_peer: dict[str, tuple[frozenset[ConjunctiveQuery], TupleSet]] = {}
    union: set[Row] = set()
    for peer in net.peers:
        queries = result.per_peer_queries.get(peer.id, frozenset())
        rows: set[Row] = set()
        for derived in queries:
            rows |= evaluate(derived, peer).rows
        per_peer[peer.id] = (queries, TupleSet(arity, frozenset(rows)))
        union |= rows
    return AnswerReport(origin, q, per_peer, TupleSet(arity, frozenset(union)))


def answer(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> AnswerReport:
    """Run the agent from the origin, evaluate every derived query on
    its own peer, and aggregate per peer and globally."""
    result = run(net, origin, q, step_ceiling=step_ceiling)
    return assemble_report(net, origin, q, result)
