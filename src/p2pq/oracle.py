"""Weak-deduction oracle: the agent's independent certificate.

Instead of queue pointers, this module grows a deduction tree by
breadth-first search: a node is a (peer, query) pair, its children are
the one-step rewritings toward each neighbor, and EMPTY children are
kept as explicit leaves.  Memoizing visited (peer, canonical query)
pairs makes the tree finite whenever the reachable query space is.

check_theorem compares the normalized closure with the agent's fixpoint
modulo equivalence: on every network where both terminate, the two must
coincide peer by peer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .agent import DEFAULT_STEP_CEILING, run
from .errors import CeilingError, QueryError
from .network import Network, neighbors
from .queries import ConjunctiveQuery, canonicalize, equivalent
from .rewriting import rew

__all__ = [
    "DEFAULT_NODE_CEILING",
    "DeductionNode",
    "TheoremReport",
    "expand",
    "normalize",
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


def normalize(nodes: Iterable[DeductionNode]) -> dict[str, frozenset[ConjunctiveQuery]]:
    """Group nodes by peer, dropping EMPTY ones and deduplicating up to
    equivalence (first canonical representative wins)."""
    grouped: dict[str, list[ConjunctiveQuery]] = {}
    for node in nodes:
        if node.is_empty:
            continue
        canon = canonicalize(node.query)
        bucket = grouped.setdefault(node.peer, [])
        if not any(equivalent(canon, old) for old in bucket):
            bucket.append(canon)
    return {peer: frozenset(bucket) for peer, bucket in grouped.items()}


def weak_closure(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> dict[str, frozenset[ConjunctiveQuery]]:
    """Everything derivable from q at the origin peer: breadth-first
    expansion over rewritings, memoized on (peer, canonical query).  The
    result maps every peer to its derived set (possibly empty)."""
    net.peer(origin).require_base(q)
    root = DeductionNode(origin, canonicalize(q))
    visited: list[DeductionNode] = []
    seen = {(root.peer, root.query)}
    frontier = deque([root])
    while frontier:
        if len(seen) > node_ceiling:
            raise CeilingError(f"closure ceiling exceeded ({node_ceiling} nodes)")
        node = frontier.popleft()
        visited.append(node)
        for child in expand(net, node):
            if child.is_empty:
                continue
            key = (child.peer, child.query)
            if key not in seen:
                seen.add(key)
                frontier.append(child)
    closure = normalize(visited)
    for pid in net.peer_ids():
        closure.setdefault(pid, frozenset())
    return closure


def check_theorem(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    step_ceiling: int = DEFAULT_STEP_CEILING,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> TheoremReport:
    """Certify that the agent's fixpoint equals the weak closure on this
    input, peer by peer and modulo equivalence."""
    agent_sets = run(net, origin, q, step_ceiling=step_ceiling).per_peer_queries
    closure_sets = weak_closure(net, origin, q, node_ceiling=node_ceiling)
    only_agent: list[tuple[str, ConjunctiveQuery]] = []
    only_closure: list[tuple[str, ConjunctiveQuery]] = []
    for pid in net.peer_ids():
        a = agent_sets.get(pid, frozenset())
        c = closure_sets.get(pid, frozenset())
        for qa in sorted(a, key=str):
            if not any(equivalent(qa, qc) for qc in c):
                only_agent.append((pid, qa))
        for qc in sorted(c, key=str):
            if not any(equivalent(qc, qa) for qa in a):
                only_closure.append((pid, qc))
    return TheoremReport(not only_agent and not only_closure, tuple(only_agent), tuple(only_closure))
