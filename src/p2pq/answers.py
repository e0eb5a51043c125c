"""Known-answer evaluation over peer fact sets.

Relations are finite sets of constant tuples, checked once, row by
row in the order given.  A query is evaluated by the search that
decides containment, `queries.match_atoms`, with the owning peer's
facts as targets: body atoms joined fail first, candidates looked up
in an index on a bound argument position, and each constraint tested
where its last variable binds by containment's one rule, over facts
the truth of its ground image.  The matches are projected onto the
head; the 0-ary relations {} and {()} act as false and true, so
boolean queries come out as one of those two values.

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
from .queries import ConjunctiveQuery, match_atoms

__all__ = ["TupleSet", "AnswerReport", "join", "evaluate", "answer", "assemble_report", "row_key"]

Row = tuple[Union[int, str], ...]


def row_key(row: Row) -> tuple:
    """Deterministic order for rows of mixed int/str columns."""
    return tuple([(0, v) if isinstance(v, int) else (1, v) for v in row])


_VALUE_TYPES = frozenset({int, str})  # bool, a subclass of int, is not one


@dataclass(frozen=True, slots=True)
class TupleSet:
    """A finite relation: arity plus a set of constant tuples.

    The rows are checked in the order given, so the first bad one is
    the one named.  A frozenset of tuples given is kept as it is; other
    rows are made tuples and frozen."""

    arity: int
    rows: frozenset[Row] = frozenset()

    def __post_init__(self):
        arity, rows = self.arity, self.rows
        # bool is a subclass of int; reject it explicitly
        if type(arity) is not int or arity < 0:
            raise QueryError(f"invalid arity {arity!r}")
        if type(rows) is not frozenset or not all(type(r) is tuple for r in rows):
            rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != arity:
                raise QueryError(f"row {r!r} does not have arity {arity}")
            if not _VALUE_TYPES.issuperset(map(type, r)):
                v = next(v for v in r if type(v) not in _VALUE_TYPES)
                raise QueryError(f"row value {v!r} must be int or str")
        object.__setattr__(self, "rows", frozenset(rows))  # kept when given as one

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
    if type(shared) is not int or shared < 0 or shared > min(r1.arity, r2.arity):
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


def evaluate(q: ConjunctiveQuery, peer: Peer) -> TupleSet:
    """All head tuples of q over the peer's facts.  q must be base-level
    on the peer's schema."""
    peer.require_base(q)
    head = q.head_vars
    envs = match_atoms(q.body, peer.facts, {}, q.builtins)
    return TupleSet(len(head), frozenset({tuple([env[v].value for v in head]) for env in envs}))


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
