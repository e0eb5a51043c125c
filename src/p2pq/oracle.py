"""Weak-deduction oracle: a second traversal that certifies the agent.

Instead of queue pointers, this module runs one breadth-first search
over (peer, canonical query) pairs, skipping each EMPTY rewriting and
each pair already reached.  The closure is the set of reached pairs,
grouped by peer; it is finite whenever the reachable query space is.

What is its own is the traversal and the dedupe: it keeps no per-peer
queues or pointers and checks duplicates against the reached pairs.
What it shares with the agent is the one-hop step: it calls the same
`rew`, which reads the same per-network memo of minicon searches, so a
search the agent made is not made again.  subst, unfold and the
constraint check still run for each neighbor on every call.  A fault
inside `rew` therefore shows on both sides alike and passes this check.

check_theorem compares the closure with the agent's fixpoint peer by
peer.  Both sides hold canonical forms, which are cores with a minimum
labeling, so set equality is equivalence: on every network where both
terminate, the two must coincide.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .agent import DEFAULT_STEP_CEILING, run
from .errors import CeilingError
from .network import Network, neighbors
from .queries import (
    ConjunctiveQuery,
    canonicalize,
    equivalent,  # unused here; perfbench's tracer wraps oracle.equivalent
)
from .rewriting import rew

__all__ = [
    "DEFAULT_NODE_CEILING",
    "TheoremReport",
    "weak_closure",
    "check_theorem",
]

DEFAULT_NODE_CEILING = 10**5


@dataclass(frozen=True, slots=True)
class TheoremReport:
    """The (peer, query) pairs that only the agent or only the closure holds."""

    only_in_agent: tuple[tuple[str, ConjunctiveQuery], ...]
    only_in_closure: tuple[tuple[str, ConjunctiveQuery], ...]

    @property
    def agrees(self) -> bool:
        return not self.only_in_agent and not self.only_in_closure

    def __str__(self) -> str:
        if self.agrees:
            return "agent fixpoint and weak closure coincide"
        lines = ["agent fixpoint and weak closure differ"]
        for peer, q in self.only_in_agent:
            lines.append(f"  only agent has   {peer}: {q}")
        for peer, q in self.only_in_closure:
            lines.append(f"  only closure has {peer}: {q}")
        return "\n".join(lines)


def weak_closure(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> dict[str, frozenset[ConjunctiveQuery]]:
    """Everything derivable from q at the origin peer: each popped pair
    is rewritten toward its peer's neighbors in declaration order.  The
    result maps every peer, in declaration order, to its reached set of
    canonical forms (possibly empty).  `rew` returns canonical forms, so
    equal queries are exactly equivalent ones."""
    net.peer(origin).require_base(q)
    root = canonicalize(q)
    closure: dict[str, set[ConjunctiveQuery]] = {pid: set() for pid in net.peer_ids()}
    closure[origin].add(root)
    size = 1
    frontier = deque([(origin, root)])
    while frontier:
        if size > node_ceiling:
            raise CeilingError(f"closure ceiling exceeded ({node_ceiling} nodes)")
        peer, query = frontier.popleft()
        for j in neighbors(net, peer):
            child = rew(query, net, peer, j)
            if child is None or child in closure[j]:
                continue
            closure[j].add(child)
            size += 1
            frontier.append((j, child))
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
    return TheoremReport(tuple(only_agent), tuple(only_closure))
