"""Deterministic query agent.

State is one queue per peer: the list of queries known at that peer and
a pointer separating the already-elaborated prefix from the pending
suffix.  A step elaborates the first pending query in peer declaration
order: it advances that pointer and offers the query's rewriting to
every neighbor, appending it there unless an equivalent query is
already listed.  Lists only ever grow, so the run is monotone; when
every pointer has caught up with its list the state is final and
collapses to one query set per peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import CeilingError, QueryError, ValidationError
from .network import Network, neighbors
# contains is unused here; perfbench's tracer wraps agent.contains
from .queries import ConjunctiveQuery, canonicalize, contains, equivalent
from .rewriting import rew

__all__ = [
    "DEFAULT_STEP_CEILING",
    "PeerQueue",
    "AgentState",
    "AgentResult",
    "TraceStep",
    "new_agent",
    "step",
    "run",
    "trace",
]

DEFAULT_STEP_CEILING = 10**6


@dataclass(frozen=True, slots=True)
class PeerQueue:
    """One peer's query list plus the elaboration pointer."""

    queries: tuple[ConjunctiveQuery, ...] = ()
    pointer: int = 0

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        if not 0 <= self.pointer <= len(self.queries):
            raise ValidationError(
                f"queue pointer {self.pointer} out of range 0..{len(self.queries)}"
            )

    @property
    def exhausted(self) -> bool:
        return self.pointer == len(self.queries)


@dataclass(frozen=True)
class AgentState:
    """Immutable snapshot of the whole computation; `per_peer` is keyed
    and ordered by peer declaration order."""

    per_peer: dict[str, PeerQueue]

    def __post_init__(self):
        object.__setattr__(self, "per_peer", dict(self.per_peer))

    @property
    def finished(self) -> bool:
        return all(q.exhausted for q in self.per_peer.values())


@dataclass(frozen=True)
class AgentResult:
    """Final per-peer query sets (canonical forms, pairwise
    non-equivalent)."""

    per_peer_queries: dict[str, frozenset[ConjunctiveQuery]]

    def __post_init__(self):
        object.__setattr__(self, "per_peer_queries", dict(self.per_peer_queries))

    def total(self) -> int:
        return sum(len(s) for s in self.per_peer_queries.values())


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One elaboration: which query was pushed where."""

    index: int
    peer: str
    query: ConjunctiveQuery
    appended: tuple[tuple[str, ConjunctiveQuery], ...]


def new_agent(net: Network, origin: str, q: ConjunctiveQuery) -> AgentState:
    """Initial state: the canonicalized query pending at the origin peer,
    every other queue empty."""
    net.peer(origin).require_base(q)
    seed = canonicalize(q)
    return AgentState(
        {p.id: PeerQueue((seed,), 0) if p.id == origin else PeerQueue() for p in net.peers}
    )


def _elaborate(net: Network, state: AgentState, index: int) -> tuple[AgentState, TraceStep]:
    for pid, queue in state.per_peer.items():
        if queue.exhausted:
            continue
        q = queue.queries[queue.pointer]
        queues = dict(state.per_peer)
        queues[pid] = PeerQueue(queue.queries, queue.pointer + 1)
        appended: list[tuple[str, ConjunctiveQuery]] = []
        for j in neighbors(net, pid):
            out = rew(q, net, pid, j)
            if out is None:
                continue
            target = queues[j]
            if not any(equivalent(old, out) for old in target.queries):
                queues[j] = PeerQueue(target.queries + (out,), target.pointer)
                appended.append((j, out))
        return AgentState(queues), TraceStep(index, pid, q, tuple(appended))
    raise QueryError("no pending query to elaborate")


def _result(state: AgentState) -> AgentResult:
    return AgentResult({pid: frozenset(q.queries) for pid, q in state.per_peer.items()})


def step(net: Network, state: AgentState) -> Union[AgentState, AgentResult]:
    """One deterministic move: the final result if every queue is
    exhausted, otherwise the successor state."""
    if state.finished:
        return _result(state)
    return _elaborate(net, state, 0)[0]


def run(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> AgentResult:
    """Iterate from the initial state to the fixpoint."""
    return trace(net, origin, q, step_ceiling)[0]


def trace(
    net: Network,
    origin: str,
    q: ConjunctiveQuery,
    step_ceiling: int = DEFAULT_STEP_CEILING,
) -> tuple[AgentResult, tuple[TraceStep, ...]]:
    """Same computation as run, returning the elaboration log as well.
    The log has one record per elaboration (pointer move); replaying its
    appends over the initial state reconstructs the result."""
    state = new_agent(net, origin, q)
    log: list[TraceStep] = []
    while not state.finished:
        if len(log) >= step_ceiling:
            raise CeilingError(f"fixpoint ceiling exceeded ({step_ceiling} steps)")
        state, record = _elaborate(net, state, len(log))
        log.append(record)
    return _result(state), tuple(log)
