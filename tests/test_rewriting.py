import json
import random
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    ConjunctiveQuery,
    MappingPair,
    Network,
    QueryError,
    UnknownViewError,
    ValidationError,
    ViewDefinition,
    ViewExpression,
    answer,
    canonicalize,
    check_theorem,
    contains,
    equivalent,
    load_network,
    minicon,
    parse_query,
    render_network,
    rew,
    split_builtins,
    subst,
    unfold,
    Var,
)
from p2pq import queries, rewriting
from generators import rand_network, rand_peer_query
from oracles import brute_force_equivalent_rewriting, reference_minicon

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def two_peer():
    return load_network(TWO_PEER.read_text())


def views(*texts):
    out = []
    for t in texts:
        q = parse_query(t)
        out.append(ViewDefinition(q.name, q))
    return tuple(out)


def test_split_builtins():
    q = parse_query("q(x) :- A(x, y), B(y), x >= 1")
    reduct, constraints = split_builtins(q)
    assert reduct == parse_query("q(x) :- A(x, y), B(y)")
    assert len(constraints) == 1
    assert split_builtins(reduct) == (reduct, ())


def test_unfold_worked_example():
    defs = views("v1(x, y) :- A(x, y)", "v2(y) :- B(y)")
    phi = ViewExpression(parse_query("q(x) :- v1(x, y), v2(y)"), "Pi")
    q = unfold(phi, defs)
    assert equivalent(q, parse_query("q(x) :- A(x, y), B(y)"))


def test_unfold_freshens_against_capture():
    defs = views("v(x) :- R(x, y)")
    phi = ViewExpression(parse_query("q(y) :- v(y), v(w)"), "P")
    q = unfold(phi, defs)
    assert equivalent(q, parse_query("q(y) :- R(y, z)"))
    assert not equivalent(q, parse_query("q(y) :- R(y, y)"))
    # exact names: a clash takes the first free suffix, and each
    # instance reserves its head variables' fresh names too
    defs = views("v(x) :- R(x, y)", "w(y, z) :- S(y, x), T(x, z)")
    phi = ViewExpression(parse_query("q(y) :- v(y), v(y_2), w(y, x)"), "P")
    assert str(unfold(phi, defs)) == "q(y) :- R(y, y_3), R(y_2, y_4), S(y, x_4), T(x_4, x)"


def test_unfold_carries_builtins():
    defs = views("v(x) :- R(x, y)")
    phi = ViewExpression(parse_query("q(x) :- v(x), x < 5"), "P")
    q = unfold(phi, defs)
    assert equivalent(q, parse_query("q(x) :- R(x, y), x < 5"))


def test_unfold_unknown_view():
    defs = views("v(x) :- R(x, y)")
    phi = ViewExpression(parse_query("q(x) :- nope(x)"), "P")
    with pytest.raises(UnknownViewError):
        unfold(phi, defs)


def test_unfold_arity_disagreement():
    defs = views("v(x) :- R(x, y)")
    phi = ViewExpression(parse_query("q(x) :- v(x, z), R2(z)"), "P")
    with pytest.raises(ValidationError, match="malformed mapping"):
        unfold(phi, defs)


def test_minicon_finds_equivalent_expression():
    defs = views("v1(x, y) :- A(x, y)", "v2(y) :- B(y)")
    q = parse_query("q(x) :- A(x, y), B(y)")
    psi = minicon(q, defs, "Pi")
    assert psi is not None
    assert psi.owner == "Pi"
    assert str(psi) == "q(x) :- v1(x, y), v2(y)  [views of Pi]"
    assert {a.predicate for a in psi.query.body} <= {"v1", "v2"}
    assert equivalent(unfold(psi, defs), q)


def test_minicon_refuses_a_query_with_constraints():
    defs = views("v1(x, y) :- A(x, y)")
    with pytest.raises(QueryError) as err:
        minicon(parse_query("q(x) :- A(x, y), y < 3"), defs, "Pi")
    assert str(err.value) == "minicon expects a constraint-free query, got 'q'"


def test_minicon_none_when_views_too_weak():
    defs = views("v1(x, y) :- A(x, y)", "v2(y) :- B(y)")
    assert minicon(parse_query("q(x) :- E(x)"), defs, "Pi") is None
    # strict containment is not enough: B(y), E(y) is weaker than E(y)
    weak = views("u2(y) :- B(y), E(y)")
    assert minicon(parse_query("q(y) :- E(y)"), weak, "Pi") is None


def test_minicon_uses_projection_views():
    defs = views("p1(x) :- R(x, y)")
    q = parse_query("q(x) :- R(x, y)")
    psi = minicon(q, defs, "P")
    assert psi is not None
    assert equivalent(unfold(psi, defs), q)


def test_minicon_is_deterministic():
    defs = views("v1(x, y) :- A(x, y)", "v2(y) :- B(y)", "u1(x, y) :- A(x, y)")
    q = parse_query("q(x) :- A(x, y), B(y)")
    assert minicon(q, defs, "Pi") == minicon(q, defs, "Pi")
    assert str(minicon(q, defs, "Pi").query) == "q(x) :- u1(x, y), v2(y)"


def test_minicon_agrees_with_brute_force_search():
    # completeness check: both find a rewriting or both report none
    rng = random.Random(424242)
    found = none = 0
    for _ in range(25):
        net = rand_network(rng, 2, 3)
        peer = net.peers[0]
        q = rand_peer_query(rng, net, peer.id, builtin_prob=0.0)
        if len(q.body) > 2 or q.builtins:
            q, _ = split_builtins(q)
            if len(q.body) > 2:
                continue
        mine = minicon(q, peer.views, peer.id)
        ref = brute_force_equivalent_rewriting(q, peer.views, peer.id)
        assert (mine is None) == (ref is None), f"{q} over {peer.id}"
        if mine is None:
            none += 1
        else:
            found += 1
            assert equivalent(unfold(mine, peer.views), q)
            assert equivalent(unfold(ref, peer.views), q)
    assert found > 0 and none > 0


def chain(m):
    body = ", ".join(f"R{k % 2}(x{k}, x{k + 1})" for k in range(m))
    return parse_query(f"q(x0, x{m}) :- {body}")


def test_minicon_agrees_with_reference():
    rng = random.Random(5150)
    found = none = 0
    for _ in range(100):
        net = rand_network(rng, 2, 3)
        peer = rng.choice(net.peers)
        q, _ = split_builtins(rand_peer_query(rng, net, peer.id, builtin_prob=0.0))
        mine = minicon(q, peer.views, peer.id)
        assert mine == reference_minicon(q, peer.views, peer.id), f"{q} over {peer.id}"
        if mine is None:
            none += 1
        else:
            found += 1
    assert found > 0 and none > 0
    # the cover rule: a non-core q answered by a cover short of its body,
    # a repeated body atom, a view folding twice onto one candidate, and
    # an EMPTY result decided by the cover test alone
    fixed = [
        ("q(x) :- R(x, y), R(x, z)", ("r(x, y) :- R(x, y)",), "q(x) :- r(x, y)"),
        ("q(x) :- R(x, y), R(x, y), S(y)", ("r(x, y) :- R(x, y)", "s(y) :- S(y)"), "q(x) :- r(x, y), s(y)"),
        ("q(x) :- R(x, y), R(x, z)", ("v(x) :- R(x, y)",), "q(x) :- v(x)"),
        ("q(x) :- R(x, y), S(y)", ("r(x, y) :- R(x, y)",), None),
    ]
    # the reduct of a canonical query with constraints need not be a
    # core: both atoms stay for their constraints, and the first hit
    # covers only one of them
    constrained = canonicalize(parse_query("q(x) :- R(x, y), R(x, z), y < 5, z > 7"))
    assert len(constrained.body) == 2
    fixed.append((str(split_builtins(constrained)[0]), ("r(x, y) :- R(x, y)",), "q(v0) :- r(v0, v1)"))
    for text, view_texts, expected in fixed:
        q, defs = parse_query(text), views(*view_texts)
        mine = minicon(q, defs, "P")
        assert (None if mine is None else str(mine.query)) == expected, text
        assert mine == reference_minicon(q, defs, "P"), text
    defs = views("r0(x, y) :- R0(x, y)", "r1(x, y) :- R1(x, y)", "j(x, z) :- R0(x, y), R1(y, z)")
    for m in range(2, 9):
        q = chain(m)
        mine = minicon(q, defs, "P0")
        assert mine is not None
        assert mine == reference_minicon(q, defs, "P0"), f"chain({m})"
    # chain(12) is pinned directly: six disjoint j atoms, in atom_key order
    assert str(minicon(chain(12), defs, "P0").query) == (
        "q(x0, x12) :- j(x0, x2), j(x10, x12), j(x2, x4), j(x4, x6), j(x6, x8), j(x8, x10)"
    )


def test_minicon_makes_no_cover_test_on_a_core(monkeypatch):
    # chain(m) is a core, so it maps into none of its proper sub-bodies
    # and minicon refuses those covers without a containment test
    calls = []

    def counting(general, specific):
        calls.append((general, specific))
        return contains(general, specific)

    monkeypatch.setattr(rewriting, "contains", counting)
    defs = views("r0(x, y) :- R0(x, y)", "r1(x, y) :- R1(x, y)", "j(x, z) :- R0(x, y), R1(y, z)")
    for m in range(2, 10):
        q = chain(m)
        start = len(calls)
        assert minicon(q, defs, "P0") is not None
        assert len(calls) > start
        for general, specific in calls[start:]:
            assert general == q
            assert not set(specific.body) < set(q.body), f"chain({m}): {specific}"


def test_minicon_containment_work_on_the_boolean_3_clique(monkeypatch):
    # the output does not show how much work the cover pruning saves, so
    # the number of containment tests is pinned: with a candidate's cover
    # mask seeded with 1 instead of 0, minicon returns the same rewriting
    # after 2,546 tests
    calls = 0

    def counting(general, specific):
        nonlocal calls
        calls += 1
        return contains(general, specific)

    monkeypatch.setattr(rewriting, "contains", counting)
    q = parse_query("q() :- R(x0, x1), R(x0, x2), R(x1, x0), R(x1, x2), R(x2, x0), R(x2, x1)")
    psi = minicon(q, views("r(x, y) :- R(x, y)", "s(x, z) :- R(x, y), R(y, z)"), "P0")
    assert str(psi.query) == "q() :- r(x0, x1), r(x0, x2), r(x1, x0), r(x1, x2), r(x2, x0), r(x2, x1)"
    assert calls == 2234


def test_minicon_core_probe_on_the_six_clique_prunes_by_automorphisms(monkeypatch):
    # the first cover short of the body asks whether q is a core.  The
    # boolean 6-clique is one, with 720 automorphisms: that search visits
    # 24,691 nodes walking them all, 465 pruning with those it meets
    calls = 0
    probing = False
    candidates, smaller_image = queries._candidates, rewriting._smaller_image

    def counting_candidates(*args):
        nonlocal calls
        calls += probing
        return candidates(*args)

    def probe(*args):
        nonlocal probing
        probing = True
        try:
            return smaller_image(*args)
        finally:
            probing = False

    monkeypatch.setattr(queries, "_candidates", counting_candidates)
    monkeypatch.setattr(rewriting, "_smaller_image", probe)
    edges = ", ".join(f"E(x{i}, x{j})" for i in range(6) for j in range(6) if i != j)
    psi = minicon(parse_query(f"q() :- {edges}"), views("e(x, y) :- E(x, y)", f"k() :- {edges}"), "P")
    assert str(psi.query) == "q() :- k()"
    assert 0 < calls <= 1_000


def test_minicon_tests_each_cover_of_a_non_core_once(monkeypatch):
    # R(x, z) folds into R(x, y), so q is not a core and its short covers
    # are tested; r and t fold onto the same atoms, so each of their
    # masks comes twice and is tested once: the sub-bodies {R(x, y)},
    # {R(x, z)}, {R(x, y), R(x, z)} and {R(x, y), S(y)}, then one test of
    # the hit's unfolding
    calls = []

    def counting(general, specific):
        calls.append(specific)
        return contains(general, specific)

    monkeypatch.setattr(rewriting, "contains", counting)
    q = parse_query("q(x) :- R(x, y), R(x, z), S(y)")
    defs = views("r(x, y) :- R(x, y)", "s(y) :- S(y)", "t(x, y) :- R(x, y)")
    psi = minicon(q, defs, "P")
    assert str(psi.query) == "q(x) :- r(x, y), s(y)"
    assert [str(c) for c in calls] == [
        "q(x) :- R(x, y)",
        "q(x) :- R(x, z)",
        "q(x) :- R(x, y), R(x, z)",
        "q(x) :- R(x, y), S(y)",
        "q(x) :- R(x, y), S(y)",
    ]


def test_minicon_agrees_with_reference_on_non_cores():
    # a copy of a body atom with one non-head variable renamed fresh
    # folds back onto the atom, so every q here is not a core
    rng = random.Random(2323)
    checked = found = 0
    while checked < 200:
        net = rand_network(rng, 2, 3)
        peer = rng.choice(net.peers)
        q, _ = split_builtins(rand_peer_query(rng, net, peer.id, builtin_prob=0.0))
        atom = rng.choice(q.body)
        free = [v for v in dict.fromkeys(atom.variables()) if v not in q.head_vars]
        if not free:
            continue
        old = rng.choice(free)
        copy = Atom(atom.predicate, tuple(Var("fresh") if t == old else t for t in atom.args))
        q = ConjunctiveQuery(q.name, q.head_vars, q.body + (copy,), ())
        assert len(canonicalize(q).body) < len(q.body), str(q)
        mine = minicon(q, peer.views, peer.id)
        assert mine == reference_minicon(q, peer.views, peer.id), f"{q} over {peer.id}"
        checked += 1
        found += mine is not None
    assert 0 < found < checked


def test_subst_translates_each_view():
    psi = ViewExpression(parse_query("q(x) :- v1(x, y), v2(y)"), "Pi")
    group = (MappingPair("v1", "w1"), MappingPair("v2", "w2"))
    out = subst(psi, group, owner="Pj")
    assert out is not None
    assert out.owner == "Pj"
    assert out.query == parse_query("q(x) :- w1(x, y), w2(y)")


def test_subst_first_declared_pair_wins():
    psi = ViewExpression(parse_query("q(x) :- v1(x, y)"), "Pi")
    group = (MappingPair("v1", "wa"), MappingPair("v1", "wb"))
    out = subst(psi, group, owner="Pj")
    assert out.query.body[0].predicate == "wa"


def test_subst_none_when_a_view_is_unpaired():
    psi = ViewExpression(parse_query("q(x) :- v1(x, y), v2(y)"), "Pi")
    group = (MappingPair("v1", "w1"),)
    assert subst(psi, group, owner="Pj") is None


def test_rew_forward_example():
    net = two_peer()
    q = parse_query("q(x) :- A(x, y), B(y)")
    out = rew(q, net, "Pi", "Pj")
    assert out == parse_query("q(v0) :- C(v0, v1), D(v1)")


def test_rew_backward_example():
    net = two_peer()
    fwd = rew(parse_query("q(x) :- A(x, y), B(y)"), net, "Pi", "Pj")
    back = rew(fwd, net, "Pj", "Pi")
    assert back == parse_query("q(v0) :- A(v0, v1), B(v1), E(v1)")
    # the round trip landed strictly inside the original
    q = parse_query("q(x) :- A(x, y), B(y)")
    from p2pq import contains

    assert contains(q, back)
    assert not contains(back, q)


def test_rew_empty_when_not_expressible():
    net = two_peer()
    assert rew(parse_query("q(x) :- E(x)"), net, "Pi", "Pj") is None


def test_rew_carries_builtins():
    net = two_peer()
    out = rew(parse_query("q(x) :- A(x, y), B(y), x >= 1"), net, "Pi", "Pj")
    assert out == parse_query("q(v0) :- C(v0, v1), D(v1), 1 <= v0")


def test_rew_empty_when_constraint_var_projected_away():
    doc = {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 2}],
                "views": [{"name": "p1", "def": "p1(x) :- R(x, y)"}],
                "facts": [],
            },
            {
                "id": "P2",
                "schema": [{"name": "T", "arity": 1}],
                "views": [{"name": "t1", "def": "t1(x) :- T(x)"}],
                "facts": [],
            },
        ],
        "mappings": [
            {"from_peer": "P1", "from_view": "p1", "to_peer": "P2", "to_view": "t1"}
        ],
    }
    net = load_network(json.dumps(doc))
    # without the constraint the rewriting exists
    assert rew(parse_query("q(x) :- R(x, y)"), net, "P1", "P2") is not None
    # y is projected away by p1, so the constraint cannot be re-attached
    assert rew(parse_query("q(x) :- R(x, y), y < 5"), net, "P1", "P2") is None


def test_rew_empty_when_constrained_reduct_is_not_a_core():
    # canonical is not core: both R atoms stay for their constraints,
    # minicon answers the reduct with r(v0, v1) alone, and the target
    # view has no spare variable that could carry 7 < v2
    doc = {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 2}],
                "views": [{"name": "r", "def": "r(x, y) :- R(x, y)"}],
                "facts": [],
            },
            {
                "id": "P2",
                "schema": [{"name": "C", "arity": 2}],
                "views": [{"name": "w", "def": "w(a, b) :- C(a, b)"}],
                "facts": [],
            },
        ],
        "mappings": [{"from_peer": "P1", "from_view": "r", "to_peer": "P2", "to_view": "w"}],
    }
    net = load_network(json.dumps(doc))
    q = canonicalize(parse_query("q(x) :- R(x, y), R(x, z), y < 5, z > 7"))
    assert rew(q, net, "P1", "P2") is None


def test_rew_requires_declared_interface():
    from p2pq import render_network

    net = two_peer()
    doc = json.loads(render_network(net))
    doc["mappings"] = [m for m in doc["mappings"] if m["from_peer"] == "Pi"]
    pruned = load_network(json.dumps(doc))
    with pytest.raises(ValidationError):
        rew(parse_query("q(x) :- C(x, y), D(y)"), pruned, "Pj", "Pi")


def test_rew_rejects_view_level_query():
    net = two_peer()
    with pytest.raises(QueryError):
        rew(parse_query("q(x) :- v1(x, y)"), net, "Pi", "Pj")


def test_rew_rejects_unknown_peers():
    net = two_peer()
    with pytest.raises(ValidationError, match="unknown peer"):
        rew(parse_query("q(x) :- A(x, y)"), net, "Px", "Pj")


def test_rew_output_is_canonical():
    net = two_peer()
    out = rew(parse_query("q(a) :- A(a, b), B(b)"), net, "Pi", "Pj")
    from p2pq import canonicalize

    assert out == canonicalize(out)


# --- the per-network minicon memo


def ring3():
    """Three peers in a ring, as the chain workload builds them: peer k
    has R{k}_0, R{k}_1, an identity view of each and the two-hop view
    j{k}; neighbours map all three views both ways."""
    peers = [
        {
            "id": f"P{k}",
            "schema": [{"name": f"R{k}_0", "arity": 2}, {"name": f"R{k}_1", "arity": 2}],
            "views": [
                {"name": f"i{k}_0", "def": f"i{k}_0(x, y) :- R{k}_0(x, y)"},
                {"name": f"i{k}_1", "def": f"i{k}_1(x, y) :- R{k}_1(x, y)"},
                {"name": f"j{k}", "def": f"j{k}(x, z) :- R{k}_0(x, y), R{k}_1(y, z)"},
            ],
            "facts": [f"R{k}_0(0, 1)", f"R{k}_1(1, 2)"],
        }
        for k in range(3)
    ]
    mappings = [
        {"from_peer": f"P{a}", "from_view": v.format(a), "to_peer": f"P{b}", "to_view": v.format(b)}
        for a, b in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))
        for v in ("i{}_0", "i{}_1", "j{}")
    ]
    return json.dumps({"peers": peers, "mappings": mappings})


def counting_minicon(monkeypatch):
    """Replace rewriting.minicon with a wrapper; the returned list gets
    one (owner, view names, query) key per search made."""
    searches = []
    real = rewriting.minicon

    def wrapper(q, views, owner):
        views = tuple(views)
        searches.append((owner, tuple(v.name for v in views), q))
        return real(q, views, owner)

    monkeypatch.setattr(rewriting, "minicon", wrapper)
    return searches


def test_one_minicon_search_per_peer_view_set_and_reduct(monkeypatch):
    # P0's two interfaces map the same three views, so without the memo
    # every query P0 elaborates is searched twice
    text = ring3()
    q = parse_query("q(x0, x4) :- R0_0(x0, x1), R0_1(x1, x2), R0_0(x2, x3), R0_1(x3, x4)")
    searches = counting_minicon(monkeypatch)
    answer(load_network(text), "P0", q)
    answered = len(searches)
    assert answered > 0
    assert answered == len(set(searches))

    searches.clear()
    assert check_theorem(load_network(text), "P0", q).agrees
    # the closure reuses every search the agent made on the same network
    assert len(searches) == len(set(searches))
    assert len(searches) <= answered


def test_rew_with_a_warm_memo_equals_rew_on_a_fresh_network():
    rng = random.Random(1919)
    checked = 0
    for _ in range(30):
        net = rand_network(rng)
        text = render_network(net)
        warm = load_network(text)
        calls = [
            (rand_peer_query(rng, net, i), i, j)
            for (i, j) in net.interfaces
            for _ in range(3)
        ]
        calls += calls[: len(calls) // 2]  # repeats, answered from the memo
        rng.shuffle(calls)
        for q, i, j in calls:
            out = rew(q, warm, i, j)
            fresh = rew(q, load_network(text), i, j)
            assert out == fresh, (str(q), i, j)
            assert str(out) == str(fresh)
            checked += out is not None
    assert checked > 50


def test_rew_returns_each_caller_its_own_name(monkeypatch):
    searches = counting_minicon(monkeypatch)
    net = two_peer()
    qa = parse_query("qa(x) :- A(x, y), B(y)")
    qb = parse_query("qb(x) :- A(x, y), B(y)")
    assert qa == qb  # names take no part in equality
    out_a = rew(qa, net, "Pi", "Pj")
    out_b = rew(qb, net, "Pi", "Pj")
    assert len(searches) == 1  # qb reuses qa's search, psi named qa
    assert out_a == out_b
    assert (out_a.name, out_b.name) == ("qa", "qb")
    assert str(out_b).startswith("qb(")


def test_minicon_memo_is_not_part_of_the_network_value():
    net = two_peer()
    before = repr(net)
    rew(parse_query("q(x) :- A(x, y), B(y)"), net, "Pi", "Pj")
    assert net._minicon
    assert repr(net) == before
    assert net == two_peer()
    assert Network(net.peers, net.interfaces)._minicon == {}
