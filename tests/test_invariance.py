"""Metamorphic invariance over whole networks.

Each transform takes a network document as `render_network` writes it,
with a query and its origin, and gives the same network spelled
another way, with the names it renamed.  `answer` must then give the
same union, and each peer the same derived queries once names are
mapped back and the queries canonicalized (Chen et al., "Metamorphic
testing: a review of challenges and opportunities", ACM CSUR 2018).

The generated cases run `rand_network(rng, 2, 4)` instances from one
fixed seed.  Known failures are strict xfails on fixed documents, each
naming its ROADMAP item: a view's name and the order of the mappings
decide which of two equivalent view expressions crosses (item 15).
Renaming a query's variables is item 1, whose strict xfail is in
test_cli.py.
"""

import copy
import functools
import json
import random

import pytest

from p2pq import (
    Atom,
    BuiltinAtom,
    CeilingError,
    ConjunctiveQuery,
    Var,
    answer,
    canonicalize,
    load_network,
    parse_atom,
    parse_query,
    render_network,
    row_key,
)
from generators import rand_network, rand_peer_query

SEED = 1626
INSTANCES = 300
STEP_CEILING = 300  # a diverging instance must diverge under every spelling


def _renamed(q: ConjunctiveQuery, relations=None, variables=None) -> ConjunctiveQuery:
    relations, variables = relations or {}, variables or {}

    def term(t):
        return Var(variables.get(t.name, t.name)) if isinstance(t, Var) else t

    body = [Atom(relations.get(a.predicate, a.predicate), tuple(map(term, a.args))) for a in q.body]
    builtins = [BuiltinAtom(b.op, term(b.lhs), term(b.rhs)) for b in q.builtins]
    return ConjunctiveQuery(q.name, tuple(map(term, q.head_vars)), body, builtins)


def _fresh(prefix: str, old, rng: random.Random) -> dict:
    # fresh names in a shuffled order, so a rename also reorders
    names = [f"{prefix}{i}" for i in range(len(old))]
    rng.shuffle(names)
    return dict(zip(old, names))


def permute(doc, q, origin, rng):
    """Shuffle the peers, and each peer's schema entries, views and facts."""
    doc = copy.deepcopy(doc)
    rng.shuffle(doc["peers"])
    for peer in doc["peers"]:
        for key in ("schema", "views", "facts"):
            rng.shuffle(peer[key])
    return doc, q, origin, {}, {}


def rename_view_variables(doc, q, origin, rng):
    """Rename the variables of every view definition."""
    doc = copy.deepcopy(doc)
    for peer in doc["peers"]:
        for view in peer["views"]:
            definition = parse_query(view["def"])
            variables = _fresh("y", [v.name for v in definition.variables()], rng)
            view["def"] = str(_renamed(definition, variables=variables))
    return doc, q, origin, {}, {}


def rename_peers_and_relations(doc, q, origin, rng):
    """Rename every peer and every relation, consistently."""
    doc = copy.deepcopy(doc)
    peers = _fresh("Q", [p["id"] for p in doc["peers"]], rng)
    relations = _fresh("S", list(dict.fromkeys(s["name"] for p in doc["peers"] for s in p["schema"])), rng)
    for peer in doc["peers"]:
        peer["id"] = peers[peer["id"]]
        for entry in peer["schema"]:
            entry["name"] = relations[entry["name"]]
        for view in peer["views"]:
            view["def"] = str(_renamed(parse_query(view["def"]), relations=relations))
        facts = [parse_atom(text) for text in peer["facts"]]
        peer["facts"] = [str(Atom(relations[a.predicate], a.args)) for a in facts]
    for m in doc["mappings"]:
        m["from_peer"], m["to_peer"] = peers[m["from_peer"]], peers[m["to_peer"]]
    back = {new: old for old, new in relations.items()}
    return doc, _renamed(q, relations=relations), peers[origin], peers, back


TRANSFORMS = [permute, rename_view_variables, rename_peers_and_relations]


def _answer(doc, q, origin):
    try:
        return answer(load_network(json.dumps(doc)), origin, q, step_ceiling=STEP_CEILING)
    except CeilingError as e:
        return str(e)


@functools.lru_cache(maxsize=None)
def _instances():
    rng = random.Random(SEED)
    out = []
    for _ in range(INSTANCES):
        net = rand_network(rng, 2, 4)
        origin = rng.choice(net.peers).id
        q = rand_peer_query(rng, net, origin)
        doc = json.loads(render_network(net))
        out.append((doc, q, origin, _answer(doc, q, origin)))
    return out


def _difference(before, after, peers, relations_back):
    """Why `after`, the answer to the transformed document, is not
    `before` under the renaming; None when it is."""
    if isinstance(before, str) or isinstance(after, str):
        return None if before == after else f"{before!r} became {after!r}"
    if before.union != after.union:
        rows = [sorted(r.union.rows, key=row_key) for r in (before, after)]
        return f"union {rows[0]} became {rows[1]}"
    for pid, (derived, _) in before.per_peer.items():
        then = {canonicalize(d) for d in derived}
        now = {canonicalize(_renamed(d, relations=relations_back)) for d in after.per_peer[peers.get(pid, pid)][0]}
        if then != now:
            return f"peer {pid}'s derived queries {sorted(map(str, then))} became {sorted(map(str, now))}"
    return None


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.__name__)
def test_answer_is_invariant_under(transform):
    failures = []
    for i, (doc, q, origin, before) in enumerate(_instances()):
        rng = random.Random(f"{transform.__name__}/{SEED}/{i}")
        doc2, q2, origin2, peers, relations_back = transform(doc, q, origin, rng)
        why = _difference(before, _answer(doc2, q2, origin2), peers, relations_back)
        if why is not None:
            failures.append(f"{transform.__name__}, seed {SEED}, instance {i} ({q} at {origin}): {why}")
    assert not failures, "\n".join(failures)


def test_the_instances_reach_other_peers():
    # a suite whose queries never cross would show nothing
    crossed = [
        i for i, (_, _, origin, report) in enumerate(_instances())
        if not isinstance(report, str) and any(d for pid, (d, _) in report.per_peer.items() if pid != origin)
    ]
    assert len(crossed) >= INSTANCES // 4, crossed


def _two_views_doc(views, mappings):
    # `answer` of q(x) :- A(x) at Pi: each view of Pi is A itself, and
    # Pj's w1 and w2 are C and D, which hold different facts
    return {
        "peers": [
            {"id": "Pi", "schema": [{"name": "A", "arity": 1}],
             "views": [{"name": v, "def": f"{v}(x) :- A(x)"} for v in views], "facts": ["A(1)"]},
            {"id": "Pj", "schema": [{"name": "C", "arity": 1}, {"name": "D", "arity": 1}],
             "views": [{"name": "w1", "def": "w1(x) :- C(x)"}, {"name": "w2", "def": "w2(x) :- D(x)"}],
             "facts": ["C(2)", "D(3)"]},
        ],
        "mappings": [{"from_peer": "Pi", "from_view": v, "to_peer": "Pj", "to_view": w} for v, w in mappings],
    }


_ITEM_15 = (
    "rew pushes one view expression per call: minicon's first equivalent combination and "
    "subst's first declared pair decide which of Pj's queries crosses (ROADMAP item 15)"
)


@pytest.mark.xfail(strict=True, reason=_ITEM_15)
def test_answer_does_not_depend_on_view_names():
    q = parse_query("q(x) :- A(x)")
    before = _answer(_two_views_doc(["v1", "v2"], [("v1", "w1"), ("v2", "w2")]), q, "Pi")
    after = _answer(_two_views_doc(["z1", "v2"], [("z1", "w1"), ("v2", "w2")]), q, "Pi")
    assert before.union.rows == {(1,), (2,)}
    assert _difference(before, after, {}, {}) is None


@pytest.mark.xfail(strict=True, reason=_ITEM_15)
def test_answer_does_not_depend_on_mapping_order():
    q = parse_query("q(x) :- A(x)")
    before = _answer(_two_views_doc(["v1"], [("v1", "w1"), ("v1", "w2")]), q, "Pi")
    after = _answer(_two_views_doc(["v1"], [("v1", "w2"), ("v1", "w1")]), q, "Pi")
    assert before.union.rows == {(1,), (2,)}
    assert _difference(before, after, {}, {}) is None
