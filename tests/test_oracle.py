import json
import random
from pathlib import Path

import pytest

from p2pq import (
    CeilingError,
    DeductionNode,
    QueryError,
    TheoremReport,
    canonicalize,
    check_theorem,
    equivalent,
    evaluate,
    expand,
    load_network,
    new_agent,
    normalize,
    parse_query,
    rew,
    run,
    weak_closure,
)
from generators import rand_network, rand_peer_query

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def two_peer():
    return load_network(TWO_PEER.read_text())


Q_I = parse_query("q(x) :- A(x, y), B(y)")


def test_expand_children_per_neighbor():
    net = two_peer()
    root = DeductionNode("Pi", canonicalize(Q_I))
    children = expand(net, root)
    assert [c.peer for c in children] == ["Pj"]
    assert children[0].query == parse_query("q(v0) :- C(v0, v1), D(v1)")


def test_expand_keeps_empty_markers():
    net = two_peer()
    node = DeductionNode("Pi", canonicalize(parse_query("q(x) :- E(x)")))
    children = expand(net, node)
    assert len(children) == 1
    assert children[0].is_empty


def test_expand_rejects_empty_node():
    with pytest.raises(QueryError):
        expand(two_peer(), DeductionNode("Pi", None))


def test_expand_isolated_peer_has_no_children():
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
    assert expand(net, DeductionNode("P1", canonicalize(parse_query("q(x) :- R(x)")))) == []


def test_normalize_drops_empty_and_duplicates():
    q1 = canonicalize(parse_query("q(x) :- R(x, y)"))
    q2 = canonicalize(parse_query("q(a) :- R(a, b), R(a, c)"))  # equivalent to q1
    nodes = [
        DeductionNode("P", q1),
        DeductionNode("P", q2),
        DeductionNode("P", None),
        DeductionNode("Q", q1),
    ]
    sets = normalize(nodes)
    assert sets == {"P": frozenset({q1}), "Q": frozenset({q1})}


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
    report = TheoremReport(False, (("Pi", q),), ())
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


def test_closure_matches_agent_modulo_equivalence():
    rng = random.Random(2718)
    for _ in range(10):
        net = rand_network(rng, 2, 4)
        pid = net.peers[0].id
        q = rand_peer_query(rng, net, pid)
        agent_sets = run(net, pid, q).per_peer_queries
        closure = weak_closure(net, pid, q)
        for peer_id in agent_sets:
            a, c = agent_sets[peer_id], closure[peer_id]
            assert len(a) == len(c)
            for qa in a:
                assert any(equivalent(qa, qc) for qc in c)
