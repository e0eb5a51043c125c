"""Weak-deduction oracle: a second traversal that certifies the agent.

Instead of queue pointers, this module grows a deduction tree by
breadth-first search: a node is a (peer, query) pair, its children are
the one-step rewritings toward each neighbor, and EMPTY children are
kept as explicit leaves.  The closure is the memo of visited (peer,
canonical query) pairs, grouped by peer; it makes the tree finite
whenever the reachable query space is.

What is its own is the traversal and the dedupe: it keeps no queues or
pointers and checks duplicates against its memo.  What it shares with
the agent is the one-hop step: it calls the same `rew`, which reads the
same per-network memo of minicon searches, so a search the agent made
is not made again.  subst, unfold and the constraint check still run
for each neighbor on every call.  A fault inside `rew` therefore shows
on both sides alike and passes this check.

check_theorem compares the closure with the agent's fixpoint peer by
peer.  Both sides hold canonical forms, which are cores with a minimum
labeling, so set equality is equivalence: on every network where both
terminate, the two must coincide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .agent import DEFAULT_STEP_CEILING, run
from .errors import CeilingError, QueryError
from .network import Network, neighbors
from .queries import (
    ConjunctiveQuery,
    canonicalize,
    equivalent,  # unused here; perfbench's tracer wraps oracle.equivalent
)
from .rewriting import rew

__all__ = [
    "DEFAULT_NODE_CEILING",
    "DeductionNode",
    "TheoremReport",
    "expand",
    "weak_closure",
    "check_theorem",
]

DEFAULT_NODE_CEILING = 10**5


@dataclass(frozen=True, slots=True)
class DeductionNode:
    """A peer paired with a derived query; query None marks EMPTY."""

    peer: str
    query: Optional[ConjunctiveQuery]

    @property
    def is_empty(self) -> bool:
        return self.query is None


@dataclass(frozen=True, slots=True)
class TheoremReport:
    """Outcome of the agent-vs-closure comparison."""

    agrees: bool
    only_in_agent: tuple[tuple[str, ConjunctiveQuery], ...]
    only_in_closure: tuple[tuple[str, ConjunctiveQuery], ...]

    def __str__(self) -> str:
        if self.agrees:
            return "agent fixpoint and weak closure coincide"
        lines = ["agent fixpoint and weak closure differ"]
        for peer, q in self.only_in_agent:
            lines.append(f"  only agent has   {peer}: {q}")
        for peer, q in self.only_in_closure:
            lines.append(f"  only closure has {peer}: {q}")
        return "\n".join(lines)


def expand(net: Network, node: DeductionNode) -> list[DeductionNode]:
    """Children of a non-EMPTY node: one per neighbor of its peer, in
    declaration order, with EMPTY rewritings kept as markers."""
    if node.is_empty:
        raise QueryError("cannot expand an EMPTY deduction node")
    return [
        DeductionNode(j, rew(node.query, net, node.peer, j))
        for j in neighbors(net, node.peer)
    ]


def weak_closure(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> dict[str, frozenset[ConjunctiveQuery]]:
    """Everything derivable from q at the origin peer: breadth-first
    expansion over rewritings, memoized on (peer, canonical query).  The
    memo is the result: it maps every peer, in declaration order, to its
    derived set of canonical forms (possibly empty).  `rew` returns
    canonical forms, so equal keys are exactly equivalent queries."""
    net.peer(origin).require_base(q)
    root = DeductionNode(origin, canonicalize(q))
    closure: dict[str, set[ConjunctiveQuery]] = {pid: set() for pid in net.peer_ids()}
    closure[origin].add(root.query)
    size = 1
    frontier = deque([root])
    while frontier:
        if size > node_ceiling:
            raise CeilingError(f"closure ceiling exceeded ({node_ceiling} nodes)")
        for child in expand(net, frontier.popleft()):
            if child.is_empty or child.query in closure[child.peer]:
                continue
            closure[child.peer].add(child.query)
            size += 1
            frontier.append(child)
    return {pid: frozenset(qs) for pid, qs in closure.items()}


def check_theorem(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    step_ceiling: int = DEFAULT_STEP_CEILING,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> TheoremReport:
    """Certify that the agent's fixpoint equals the weak closure on this
    input, peer by peer.  Both sides hold canonical forms, so the
    differences are plain set differences, listed with peers in
    declaration order and each peer's queries sorted by their text."""
    agent_sets = run(net, origin, q, step_ceiling=step_ceiling).per_peer_queries
    closure_sets = weak_closure(net, origin, q, node_ceiling=node_ceiling)
    only_agent: list[tuple[str, ConjunctiveQuery]] = []
    only_closure: list[tuple[str, ConjunctiveQuery]] = []
    for pid in net.peer_ids():
        a, c = agent_sets[pid], closure_sets[pid]
        only_agent.extend((pid, qa) for qa in sorted(a - c, key=str))
        only_closure.extend((pid, qc) for qc in sorted(c - a, key=str))
    return TheoremReport(not only_agent and not only_closure, tuple(only_agent), tuple(only_closure))
