import itertools
import json
import random
from pathlib import Path

import pytest

import p2pq.oracle
from p2pq import (
    AgentResult,
    CeilingError,
    QueryError,
    TheoremReport,
    canonicalize,
    check_theorem,
    evaluate,
    load_network,
    new_agent,
    parse_query,
    rew,
    run,
    weak_closure,
)
from p2pq.cli import main
from generators import rand_network, rand_peer_query
from oracles import brute_force_contains

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def two_peer():
    return load_network(TWO_PEER.read_text())


Q_I = parse_query("q(x) :- A(x, y), B(y)")


def test_weak_closure_drops_empty_children():
    # the only child is EMPTY: the origin keeps q, the neighbor gets nothing
    q = parse_query("q(x) :- E(x)")
    assert weak_closure(two_peer(), "Pi", q) == {"Pi": frozenset({canonicalize(q)}), "Pj": frozenset()}


def test_weak_closure_two_peer():
    net = two_peer()
    closure = weak_closure(net, "Pi", Q_I)
    assert closure["Pi"] == frozenset(
        {
            parse_query("q(v0) :- A(v0, v1), B(v1)"),
            parse_query("q(v0) :- A(v0, v1), B(v1), E(v1)"),
        }
    )
    assert closure["Pj"] == frozenset({parse_query("q(v0) :- C(v0, v1), D(v1)")})


def test_weak_closure_single_peer():
    doc = {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 1}],
                "views": [{"name": "v", "def": "v(x) :- R(x)"}],
                "facts": [],
            }
        ],
        "mappings": [],
    }
    net = load_network(json.dumps(doc))
    q = parse_query("q(x) :- R(x)")
    assert weak_closure(net, "P1", q) == {"P1": frozenset({canonicalize(q)})}


def test_weak_closure_rejects_view_level_query():
    # no interface leaves P1, so only the level check can reject the query
    doc = {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 1}],
                "views": [{"name": "v", "def": "v(x) :- R(x)"}],
                "facts": [],
            }
        ],
        "mappings": [],
    }
    net = load_network(json.dumps(doc))
    q = parse_query("q(x) :- v(x)")
    # every entry point that needs a base-level query reports it alike
    demo = two_peer()
    for call, pid in [
        (lambda: weak_closure(net, "P1", q), "P1"),
        (lambda: run(net, "P1", q), "P1"),
        (lambda: new_agent(net, "P1", q), "P1"),
        (lambda: evaluate(q, net.peer("P1")), "P1"),
        (lambda: rew(parse_query("q(x) :- v1(x, y)"), demo, "Pi", "Pj"), "Pi"),
    ]:
        with pytest.raises(QueryError) as err:
            call()
        assert str(err.value) == f"query/schema mismatch: 'q' is not base-level on {pid!r}"


def test_weak_closure_fills_unreachable_peers():
    doc = {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 1}],
                "views": [{"name": "v", "def": "v(x) :- R(x)"}],
                "facts": [],
            },
            {
                "id": "P2",
                "schema": [{"name": "S", "arity": 1}],
                "views": [{"name": "w", "def": "w(x) :- S(x)"}],
                "facts": [],
            },
        ],
        "mappings": [],
    }
    net = load_network(json.dumps(doc))
    closure = weak_closure(net, "P1", parse_query("q(x) :- R(x)"))
    assert closure["P2"] == frozenset()


def test_weak_closure_input_naming_is_irrelevant():
    net = two_peer()
    a = weak_closure(net, "Pi", Q_I)
    b = weak_closure(net, "Pi", parse_query("other(s) :- A(s, t), B(t)"))
    assert a == b


def test_weak_closure_ceiling():
    net = two_peer()
    with pytest.raises(CeilingError, match="closure ceiling"):
        weak_closure(net, "Pi", Q_I, node_ceiling=1)


def test_check_theorem_two_peer():
    # the second query is unsatisfiable, and each side must still find
    # its own queries equivalent to themselves
    for q in (Q_I, parse_query("q(x) :- A(x, y), B(y), 1 < 0")):
        report = check_theorem(two_peer(), "Pi", q)
        assert report.agrees
        assert report.only_in_agent == ()
        assert report.only_in_closure == ()
        assert "coincide" in str(report)


def test_theorem_report_rendering_on_disagreement():
    q = canonicalize(Q_I)
    report = TheoremReport((("Pi", q),), ())
    assert not report.agrees
    text = str(report)
    assert "differ" in text
    assert "only agent has" in text
    assert "Pi" in text


def test_check_theorem_on_random_networks():
    rng = random.Random(314159)
    for _ in range(20):
        net = rand_network(rng)
        pid = rng.choice(net.peers).id
        q = rand_peer_query(rng, net, pid)
        report = check_theorem(net, pid, q)
        assert report.agrees, f"\n{report}\nnetwork: {net}\nquery: {q}"


def test_closure_equals_agent_fixpoint():
    rng = random.Random(2718)
    for _ in range(10):
        net = rand_network(rng, 2, 4)
        pid = net.peers[0].id
        q = rand_peer_query(rng, net, pid)
        assert run(net, pid, q).per_peer_queries == weak_closure(net, pid, q)


def test_closure_holds_pairwise_inequivalent_canonical_forms():
    # check_theorem compares by equality; that is sound only if each set
    # holds fixed points of canonicalize, no two of them equivalent.
    # Seed 1618 is picked for speed: its 200 instances finish in about
    # 0.35 s, while at seed 7 instance 87 stalls in minicon's combination
    # loop for more than 20 s.  Keep it until that search is bounded.
    rng = random.Random(1618)
    for _ in range(200):
        net = rand_network(rng, 2, 4)
        pid = net.peers[0].id
        closure = weak_closure(net, pid, rand_peer_query(rng, net, pid))
        for peer_id, queries in closure.items():
            for x in queries:
                assert canonicalize(x) == x
            for x, y in itertools.combinations(sorted(queries, key=str), 2):
                assert not (brute_force_contains(x, y) and brute_force_contains(y, x)), f"{peer_id}: {x} ~ {y}"


def test_check_theorem_reports_each_difference_in_order(monkeypatch, capsys):
    net = two_peer()
    closure = weak_closure(net, "Pi", Q_I)
    derived = canonicalize(parse_query("q(x) :- A(x, y), B(y), E(y)"))
    # foreign queries, listed out of text order
    texts = ["q(x) :- E(x)", "q(x) :- B(x)", "q(x) :- A(y, x), E(y)", "q(x) :- B(x), E(x)", "q(x) :- A(x, x)"]
    foreign = [canonicalize(parse_query(t)) for t in texts]
    foreign_pj = canonicalize(parse_query("q(x) :- D(x)"))
    assert derived in closure["Pi"] and not set(foreign) & closure["Pi"]
    agent_sets = {"Pi": (closure["Pi"] - {derived}) | set(foreign), "Pj": closure["Pj"] | {foreign_pj}}
    monkeypatch.setattr(p2pq.oracle, "run", lambda *args, **kwargs: AgentResult(agent_sets))

    report = check_theorem(net, "Pi", Q_I)
    assert not report.agrees
    # peers in declaration order, then each peer's queries sorted by text
    in_text_order = [foreign[i] for i in (4, 2, 1, 3, 0)]
    assert report.only_in_agent == tuple(("Pi", f) for f in in_text_order) + (("Pj", foreign_pj),)
    assert report.only_in_closure == (("Pi", derived),)

    assert main(["oracle-check", str(TWO_PEER), "--peer", "Pi", "--query", str(Q_I)]) == 1
    assert capsys.readouterr().out == (
        "agent fixpoint and weak closure differ\n"
        "  only agent has   Pi: q(v0) :- A(v0, v0)\n"
        "  only agent has   Pi: q(v0) :- A(v1, v0), E(v1)\n"
        "  only agent has   Pi: q(v0) :- B(v0)\n"
        "  only agent has   Pi: q(v0) :- B(v0), E(v0)\n"
        "  only agent has   Pi: q(v0) :- E(v0)\n"
        "  only agent has   Pj: q(v0) :- D(v0)\n"
        "  only closure has Pi: q(v0) :- A(v0, v1), B(v1), E(v1)\n"
    )
