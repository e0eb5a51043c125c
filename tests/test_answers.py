import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    BuiltinAtom,
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
import generators
import p2pq.queries as queries_module
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
    # a frozenset's rows are made tuples like any other rows
    assert TupleSet(1, frozenset({"a"})) == TupleSet(1, {("a",)})
    with pytest.raises(QueryError, match=r"row \('a', 'b'\) does not have arity 1"):
        TupleSet(1, frozenset({"ab"}))


_FIRST_BAD_ROW = """
from p2pq import P2pqError, TupleSet
from p2pq.cli import answer_report_from_dict
for make in (
    lambda: TupleSet(1, [("a",), ("b", "c"), ("d", "e", "f"), ("g", "h")]),
    lambda: TupleSet(1, [("a",), (True,), ("b",), (None,), ("c",), (1.5,)]),
    lambda: answer_report_from_dict({"origin": "P", "query": "q(x) :- R(x)", "peers": {},
        "union": {"arity": 1, "rows": [["a"], ["b", "c"], ["d", "e", "f"], ["g", "h"]]}}),
):
    try:
        make()
    except P2pqError as e:
        print(e)
"""


def test_tuple_set_names_the_first_bad_row_given_under_every_hash_seed():
    # a set iterates in an order that the hash seed decides
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=str(TWO_PEER.parents[2] / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _FIRST_BAD_ROW], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            "row ('b', 'c') does not have arity 1",
            "row value True must be int or str",
            "report.union.rows: row ('b', 'c') does not have arity 1",
        ], seed


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


@pytest.mark.parametrize(
    "text, rows",
    [
        # ground constraints: false drops every match, true keeps every one
        ("q(x) :- R(x, y), 1 < 0", set()),
        ("q(x) :- R(x, y), 1 < 2", {(1,), (2,), ("a",)}),
        # ground comparisons across types: only != holds
        ('q(x) :- R(x, y), 1 < "a"', set()),
        ('q(x) :- R(x, y), 1 != "a"', {(1,), (2,), ("a",)}),
        # = and != read the same both ways round
        ("q(x, y) :- R(x, y), x = y", {(1, 1), ("a", "a")}),
        ("q(x, y) :- R(x, y), y = x", {(1, 1), ("a", "a")}),
        ("q(x, y) :- R(x, y), x != y", {(1, 2), (2, 1), ("a", 1)}),
        ("q(x, y) :- R(x, y), y != x", {(1, 2), (2, 1), ("a", 1)}),
    ],
)
def test_evaluate_ground_and_symmetric_constraints(text, rows):
    facts = [Atom("R", (Const(x), Const(y))) for x, y in [(1, 1), (1, 2), (2, 1), ("a", "a"), ("a", 1)]]
    peer = Peer("P", (RelationSignature("R", 2),), (), facts)
    q = parse_query(text)
    assert evaluate(q, peer) == nested_loop_evaluate(q, peer) == TupleSet(len(q.head_vars), rows)
    # a query contains itself, a false ground constraint included: the
    # image of a constraint is first looked up among the target's own
    assert queries_module.contains(q, q)


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


def test_evaluate_matches_nested_loop_oracle_on_every_step_test():
    # R(x, x, 1), S(1, x), constants away from the key and variables
    # checked where the key is elsewhere, over facts that repeat values
    rng = random.Random(2526)
    relations = {"R": 3, "S": 2}
    schema = tuple(RelationSignature(name, arity) for name, arity in relations.items())
    values = [Const(v) for v in (1, 2, "a")]
    pool = [Var(f"x{i}") for i in range(3)]
    seen = dict.fromkeys(("repeat", "constant check", "check"), 0)
    nonempty = 0
    for _ in range(150):
        facts = [Atom(p, tuple(rng.choices(values, k=relations[p]))) for p in rng.choices("RS", k=12)]
        peer = Peer("P", schema, (), facts)
        body = generators.step_test_body(rng, relations, pool, rng.randint(1, 3))
        body_vars = list(dict.fromkeys(v for atom in body for v in atom.variables()))
        head = rng.sample(body_vars, rng.randint(0, min(2, len(body_vars))))
        builtins = [BuiltinAtom("<", body_vars[0], Const(2))] if body_vars and rng.random() < 0.3 else []
        q = ConjunctiveQuery("q", head, body, builtins)
        for _, _, check, _, repeat in queries_module._connected_order(body, ()):
            seen["repeat"] += repeat is not None
            for t in check[1] if check is not None else ():
                seen["constant check" if isinstance(t, Const) else "check"] += 1
        result = evaluate(q, peer)
        assert result == nested_loop_evaluate(q, peer), f"{q} on {sorted(map(str, facts))}"
        nonempty += len(result) > 0
    assert min(seen.values()) >= 20, seen  # the generator must reach every branch
    assert nonempty >= 50


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
