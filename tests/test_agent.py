import json
import random
from pathlib import Path

import pytest

from p2pq import (
    AgentResult,
    AgentState,
    CeilingError,
    PeerQueue,
    QueryError,
    ValidationError,
    canonicalize,
    equivalent,
    load_network,
    new_agent,
    parse_query,
    run,
    step,
    trace,
)
from generators import rand_network, rand_peer_query

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def two_peer():
    return load_network(TWO_PEER.read_text())


Q_I = parse_query("q(x) :- A(x, y), B(y)")


def test_new_agent_seeds_canonical_query_at_origin():
    net = two_peer()
    state = new_agent(net, "Pi", parse_query("q(a) :- A(a, b), B(b)"))
    assert state.per_peer["Pi"].queries == (canonicalize(Q_I),)
    assert state.per_peer["Pi"].pointer == 0
    assert state.per_peer["Pj"].queries == ()
    assert not state.finished


def test_new_agent_rejects_view_level_query():
    net = two_peer()
    with pytest.raises(QueryError):
        new_agent(net, "Pi", parse_query("q(x) :- v1(x, y)"))


def test_new_agent_rejects_unknown_origin():
    with pytest.raises(ValidationError, match="unknown peer"):
        new_agent(two_peer(), "Px", Q_I)


def test_peer_queue_validates_pointer():
    q = canonicalize(Q_I)
    assert PeerQueue((q,), 1).exhausted
    assert not PeerQueue((q,), 0).exhausted
    with pytest.raises(ValidationError):
        PeerQueue((q,), 2)
    with pytest.raises(ValidationError):
        PeerQueue((), -1)


def test_run_two_peer_fixture():
    net = two_peer()
    result = run(net, "Pi", Q_I)
    assert result.total() == 3
    assert result.per_peer_queries["Pi"] == frozenset(
        {
            parse_query("q(v0) :- A(v0, v1), B(v1)"),
            parse_query("q(v0) :- A(v0, v1), B(v1), E(v1)"),
        }
    )
    assert result.per_peer_queries["Pj"] == frozenset(
        {parse_query("q(v0) :- C(v0, v1), D(v1)")}
    )


def test_run_reaches_a_fixpoint_under_a_false_ground_constraint():
    # each round trip brings the query back, and the agent must see that
    # it already holds it: a query contains itself even when unsatisfiable
    doc = {
        "peers": [
            {"id": "P", "schema": [{"name": "A", "arity": 1}], "views": [{"name": "v", "def": "v(x) :- A(x)"}], "facts": []},
            {"id": "Q", "schema": [{"name": "B", "arity": 1}], "views": [{"name": "w", "def": "w(x) :- B(x)"}], "facts": []},
        ],
        "mappings": [
            {"from_peer": "P", "from_view": "v", "to_peer": "Q", "to_view": "w"},
            {"from_peer": "Q", "from_view": "w", "to_peer": "P", "to_view": "v"},
        ],
    }
    result = run(load_network(json.dumps(doc)), "P", parse_query("q(x) :- A(x), 1 < 0"), step_ceiling=100)
    assert result.per_peer_queries == {
        "P": frozenset({parse_query("q(v0) :- A(v0), 1 < 0")}),
        "Q": frozenset({parse_query("q(v0) :- B(v0), 1 < 0")}),
    }


def test_step_reaches_the_same_fixpoint():
    net = two_peer()
    state = new_agent(net, "Pi", Q_I)
    seen_states = 0
    while isinstance(state, AgentState):
        state = step(net, state)
        seen_states += 1
        assert seen_states < 100
    assert isinstance(state, AgentResult)
    assert state.per_peer_queries == run(net, "Pi", Q_I).per_peer_queries


def test_per_peer_lists_are_append_only():
    net = two_peer()
    state = new_agent(net, "Pi", Q_I)
    prev = {pid: pq.queries for pid, pq in state.per_peer.items()}
    while isinstance(state, AgentState):
        state = step(net, state)
        per_peer = (
            state.per_peer
            if isinstance(state, AgentState)
            else {pid: None for pid in prev}
        )
        if isinstance(state, AgentResult):
            break
        for pid, pq in state.per_peer.items():
            assert pq.queries[: len(prev[pid])] == prev[pid]
        prev = {pid: pq.queries for pid, pq in state.per_peer.items()}


def test_trace_matches_run_and_replays():
    net = two_peer()
    result, steps = trace(net, "Pi", Q_I)
    assert result.per_peer_queries == run(net, "Pi", Q_I).per_peer_queries
    assert [s.index for s in steps] == list(range(len(steps)))
    # replaying the appends from the seed reproduces the final sets
    rebuilt = {pid: [] for pid in result.per_peer_queries}
    rebuilt["Pi"].append(canonicalize(Q_I))
    for s in steps:
        for pid, q in s.appended:
            rebuilt[pid].append(q)
    assert {pid: frozenset(qs) for pid, qs in rebuilt.items()} == result.per_peer_queries


def test_trace_steps_visit_queries_in_order():
    net = two_peer()
    _, steps = trace(net, "Pi", Q_I)
    assert steps[0].peer == "Pi"
    assert steps[0].query == canonicalize(Q_I)
    # the first elaboration pushes to the only neighbor
    assert all(pid == "Pj" for pid, _ in steps[0].appended)


def test_run_is_deterministic():
    net = two_peer()
    a = trace(net, "Pi", Q_I)
    b = trace(net, "Pi", Q_I)
    assert a == b


def test_step_ceiling_enforced():
    net = two_peer()
    with pytest.raises(CeilingError, match="fixpoint ceiling"):
        run(net, "Pi", Q_I, step_ceiling=1)


def test_final_sets_pairwise_inequivalent():
    rng = random.Random(5150)
    for _ in range(10):
        net = rand_network(rng)
        pid = net.peers[0].id
        q = rand_peer_query(rng, net, pid)
        result = run(net, pid, q)
        for qs in result.per_peer_queries.values():
            qs = sorted(qs, key=str)
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    assert not equivalent(qs[i], qs[j])


def test_random_networks_terminate_and_agree_with_step():
    rng = random.Random(6040)
    for _ in range(6):
        net = rand_network(rng, 2, 4)
        pid = net.peers[0].id
        q = rand_peer_query(rng, net, pid)
        result = run(net, pid, q)
        state = new_agent(net, pid, q)
        while isinstance(state, AgentState):
            state = step(net, state)
        assert state.per_peer_queries == result.per_peer_queries
