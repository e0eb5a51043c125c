import json
import random
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    ConjunctiveQuery,
    Const,
    Peer,
    QueryError,
    RelationSignature,
    TupleSet,
    Var,
    answer,
    assemble_report,
    evaluate,
    join,
    load_network,
    parse_query,
    render_network,
    row_key,
    run,
)
from generators import rand_network, rand_peer_query, rand_query
from oracles import nested_loop_evaluate

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def two_peer():
    return load_network(TWO_PEER.read_text())


def ts(arity, *rows):
    return TupleSet(arity, frozenset(rows))


def test_tuple_set_validation():
    with pytest.raises(QueryError):
        TupleSet(2, frozenset({(1,)}))
    with pytest.raises(QueryError):
        TupleSet(1, frozenset({(1.5,)}))
    with pytest.raises(QueryError):
        TupleSet(-1)
    with pytest.raises(QueryError, match="invalid arity True"):
        TupleSet(True, frozenset({(1,)}))


def test_row_key_orders_ints_before_strings():
    rows = [("b",), (2,), ("a",), (10,)]
    assert sorted(rows, key=row_key) == [(2,), (10,), ("a",), ("b",)]


def test_join_identities():
    r = ts(2, (1, 2), (3, "x"))
    empty = TupleSet(0)
    truth = ts(0, ())
    assert join(r, empty) == TupleSet(2)  # r x {} = {}
    assert join(r, truth) == r  # r x {<>} = r
    assert join(empty, r) == TupleSet(2)
    assert join(truth, r) == r


def test_join_on_shared_columns():
    r1 = ts(2, (1, 2), (3, 4))
    r2 = ts(2, (2, "a"), (2, "b"), (9, "c"))
    assert join(r1, r2, shared=1) == ts(3, (1, 2, "a"), (1, 2, "b"))


def test_join_rejects_bad_annotation():
    r1, r2 = ts(1, (1,)), ts(2, (1, 2))
    with pytest.raises(QueryError, match="join annotation arity mismatch"):
        join(r1, r2, shared=2)
    with pytest.raises(QueryError, match="join annotation arity mismatch"):
        join(r1, r2, shared=-1)
    with pytest.raises(QueryError, match="join annotation arity mismatch: True shared"):
        join(r1, r2, shared=True)


def test_join_identities_on_random_relations():
    rng = random.Random(5)
    for _ in range(50):
        arity = rng.randint(1, 3)
        rows = frozenset(
            tuple(rng.choice([1, 2, "a", "b"]) for _ in range(arity))
            for _ in range(rng.randint(0, 6))
        )
        r = TupleSet(arity, rows)
        assert join(r, TupleSet(0)) == TupleSet(arity)
        assert join(r, ts(0, ())) == r


def test_evaluate_worked_example():
    net = two_peer()
    pi = net.peer("Pi")
    assert evaluate(parse_query("q(x) :- A(x, y), B(y)"), pi) == ts(1, (1,), (3,))
    assert evaluate(parse_query("q(x) :- A(x, y), B(y), E(y)"), pi) == ts(1, (1,))
    assert evaluate(parse_query("q(x, y) :- A(x, y)"), pi) == ts(2, (1, 2), (3, 4))


def test_evaluate_filters_builtins():
    net = two_peer()
    pi = net.peer("Pi")
    assert evaluate(parse_query("q(x) :- A(x, y), x > 1"), pi) == ts(1, (3,))
    assert evaluate(parse_query("q(x) :- A(x, y), x >= 1, x <= 1"), pi) == ts(1, (1,))


def test_evaluate_constants_in_atoms():
    net = two_peer()
    pi = net.peer("Pi")
    assert evaluate(parse_query("q(x) :- A(x, 2)"), pi) == ts(1, (1,))
    assert evaluate(parse_query("q(x) :- A(3, x)"), pi) == ts(1, (4,))


def test_evaluate_boolean_queries():
    net = two_peer()
    pi = net.peer("Pi")
    assert evaluate(parse_query("q() :- B(2)"), pi) == ts(0, ())  # true
    assert evaluate(parse_query("q() :- B(9)"), pi) == TupleSet(0)  # false


def test_evaluate_cross_type_comparisons():
    doc = {
        "peers": [
            {
                "id": "P",
                "schema": [{"name": "R", "arity": 1}],
                "views": [{"name": "v", "def": "v(x) :- R(x)"}],
                "facts": ["R(1)", 'R("b")'],
            }
        ],
        "mappings": [],
    }
    p = load_network(json.dumps(doc)).peer("P")
    # int/str pairs satisfy only inequality
    assert evaluate(parse_query("q(x) :- R(x), x != 1"), p) == ts(1, ("b",))
    assert evaluate(parse_query('q(x) :- R(x), x < "b"'), p) == TupleSet(1)


def test_evaluate_rejects_view_level_query():
    net = two_peer()
    with pytest.raises(QueryError, match="query/schema mismatch"):
        evaluate(parse_query("q(x) :- v1(x, y)"), net.peer("Pi"))


def test_evaluate_matches_nested_loop_oracle():
    rng = random.Random(90210)
    for _ in range(100):
        net = rand_network(rng, 2, 3)
        peer = rng.choice(net.peers)
        q = rand_query(rng, peer.relations(), max_atoms=3, builtin_prob=0.4)
        assert evaluate(q, peer) == nested_loop_evaluate(q, peer), f"{q} on {peer.id}"


def test_evaluate_long_chain_is_iterative():
    # the constant at the chain's end is the only place to start from
    n = 1200
    xs = [Var(f"x{i}") for i in range(n)]
    body = [Atom("R", (xs[i], xs[i + 1])) for i in range(n - 1)] + [Atom("R", (xs[-1], Const(n)))]
    q = ConjunctiveQuery("q", (xs[0],), tuple(body))
    facts = frozenset(Atom("R", (Const(i), Const(i + 1))) for i in range(n + 5))
    peer = Peer("P", (RelationSignature("R", 2),), (), facts)
    assert evaluate(q, peer) == ts(1, (0,))


def test_answer_two_peer():
    net = two_peer()
    report = answer(net, "Pi", parse_query("q(x) :- A(x, y), B(y)"))
    assert report.origin == "Pi"
    assert report.per_peer["Pi"][1] == ts(1, (1,), (3,))
    assert report.per_peer["Pj"][1] == ts(1, (5,))
    assert report.union == ts(1, (1,), (3,), (5,))


def test_answer_extends_local_evaluation():
    net = two_peer()
    q = parse_query("q(x) :- A(x, y), B(y)")
    local = evaluate(q, net.peer("Pi"))
    report = answer(net, "Pi", q)
    assert local.rows < report.union.rows  # the network added rows


def test_answer_depends_on_origin():
    net = two_peer()
    at_i = answer(net, "Pi", parse_query("q(x) :- A(x, y), B(y)"))
    at_j = answer(net, "Pj", parse_query("q(x) :- C(x, y), D(y)"))
    assert at_i.union == ts(1, (1,), (3,), (5,))
    assert at_j.union == ts(1, (1,), (5,))


def test_answer_matches_run_plus_assemble():
    net = two_peer()
    q = parse_query("q(x) :- A(x, y), B(y)")
    report = answer(net, "Pi", q)
    rebuilt = assemble_report(net, "Pi", q, run(net, "Pi", q))
    assert rebuilt == report


def test_answer_monotone_under_fact_addition():
    rng = random.Random(321)
    grew = 0
    for _ in range(20):
        net = rand_network(rng, 2, 3)
        pid = net.peers[0].id
        q = rand_peer_query(rng, net, pid, builtin_prob=0.0)
        before = answer(net, pid, q)
        doc = json.loads(render_network(net))
        for peer_doc in doc["peers"]:
            peer = net.peer(peer_doc["id"])
            name, arity = sorted(peer.relations().items())[0]
            args = ", ".join(str(rng.choice([1, 3, 5])) for _ in range(arity))
            peer_doc["facts"] = peer_doc["facts"] + [f"{name}({args})"]
        bigger = load_network(json.dumps(doc))
        after = answer(bigger, pid, q)
        assert before.union.rows <= after.union.rows
        grew += before.union.rows < after.union.rows
    assert grew > 0
