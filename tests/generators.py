"""Seeded random instance generators for the test campaigns."""

from __future__ import annotations

import random

from p2pq import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Const,
    MappingPair,
    Network,
    Peer,
    QueryError,
    RelationSignature,
    Var,
    ViewDefinition,
    ViewExpression,
    unfold,
)

_CONSTS = [Const(v) for v in (1, 2, 3, 5, 8, "a", "b", "c")]
_OPS = ["=", "!=", "<", "<=", ">", ">="]


def rand_query(
    rng: random.Random,
    relations: dict[str, int],
    max_atoms: int = 3,
    max_vars: int = 5,
    const_prob: float = 0.15,
    builtin_prob: float = 0.0,
    name: str = "q",
) -> ConjunctiveQuery:
    """A random safe query over the given relation signatures."""
    pool = [Var(f"x{i}") for i in range(max_vars)]
    preds = sorted(relations)
    n_atoms = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n_atoms):
        pred = rng.choice(preds)
        args = []
        for _ in range(relations[pred]):
            if rng.random() < const_prob:
                args.append(rng.choice(_CONSTS))
            else:
                # a short prefix of the pool keeps joins likely
                args.append(rng.choice(pool[: rng.randint(2, max_vars)]))
        atoms.append(Atom(pred, tuple(args)))
    body_vars = list({v: None for a in atoms for v in a.variables()})
    if body_vars:
        k = rng.randint(0 if rng.random() < 0.1 else 1, min(2, len(body_vars)))
        head = tuple(rng.sample(body_vars, k))
    else:
        head = ()
    builtins = []
    if body_vars and rng.random() < builtin_prob:
        builtins.append(
            BuiltinAtom(rng.choice(_OPS), rng.choice(body_vars), rng.choice(_CONSTS))
        )
    return ConjunctiveQuery(name, head, tuple(atoms), tuple(builtins))


def rand_fact(rng: random.Random, relations: dict[str, int]) -> Atom:
    """A random ground atom over the given relation signatures."""
    pred = rng.choice(sorted(relations))
    return Atom(pred, tuple(rng.choice(_CONSTS) for _ in range(relations[pred])))


def rand_query_pair(rng: random.Random, max_atoms: int = 4, max_vars: int = 5):
    """Two random queries over a shared schema with equal head arity,
    biased so that containment holds reasonably often."""
    relations = {"R": 2, "S": rng.choice([1, 2]), "T": 1}
    q1 = rand_query(rng, relations, max_atoms, max_vars, builtin_prob=0.3, name="qa")
    if rng.random() < 0.45:
        # derive the second from the first so the pair is related
        extra = rand_query(rng, relations, 2, max_vars, builtin_prob=0.2, name="qb")
        atoms = q1.body + extra.body[: rng.randint(0, len(extra.body))]
        bound = {v for a in atoms for v in a.variables()}
        builtins = tuple(
            b
            for b in q1.builtins + extra.builtins
            if all(v in bound for v in b.variables())
        )
        q2 = ConjunctiveQuery("qb", q1.head_vars, atoms, builtins)
    else:
        q2 = rand_query(rng, relations, max_atoms, max_vars, builtin_prob=0.3, name="qb")
        guard = 0
        while len(q2.head_vars) != len(q1.head_vars):
            guard += 1
            q2 = rand_query(rng, relations, max_atoms, max_vars, builtin_prob=0.3, name="qb")
            if guard > 200:
                raise AssertionError("generator failed to match head arities")
    return q1, q2


def step_test_body(rng: random.Random, relations: dict[str, int], pool, n_atoms: int) -> list[Atom]:
    """n_atoms random atoms whose arguments come from a small variable
    pool and three constants, so that a variable often repeats within
    an atom and a constant falls at every position: the argument tests
    of each step of `match_atoms`'s plan."""
    consts = _CONSTS[:2] + _CONSTS[5:6]
    preds = sorted(relations)
    atoms = []
    for _ in range(n_atoms):
        pred = rng.choice(preds)
        args = [rng.choice(consts) if rng.random() < 0.25 else rng.choice(pool) for _ in range(relations[pred])]
        atoms.append(Atom(pred, tuple(args)))
    return atoms


def _rand_view(rng: random.Random, peer_tag: str, index: int, relations: dict[str, int]):
    pool = [Var(f"x{i}") for i in range(4)]
    preds = sorted(relations)
    atoms = []
    for _ in range(rng.randint(1, 2)):
        pred = rng.choice(preds)
        args = tuple(rng.choice(pool) for _ in range(relations[pred]))
        atoms.append(Atom(pred, args))
    body_vars = list({v: None for a in atoms for v in a.variables()})
    k = rng.randint(1, min(2, len(body_vars)))
    head = tuple(rng.sample(body_vars, k))
    name = f"{peer_tag}v{index}"
    return ViewDefinition(name, ConjunctiveQuery(name, head, tuple(atoms), ()))


def rand_network(rng: random.Random, min_peers: int = 2, max_peers: int = 5) -> Network:
    """A random valid network: per-peer schemas, 1-4 views each, fact
    sets, and directional mapping groups of 1-3 arity-matched pairs;
    reverse edges are common so cycles occur."""
    n = rng.randint(min_peers, max_peers)
    peers = []
    for k in range(n):
        tag = f"p{k + 1}"
        relations = {f"R{k + 1}{chr(97 + i)}": rng.choice([1, 2, 2]) for i in range(rng.randint(1, 3))}
        schema = tuple(RelationSignature(name, arity) for name, arity in sorted(relations.items()))
        views = tuple(_rand_view(rng, tag, i + 1, relations) for i in range(rng.randint(1, 4)))
        facts = set()
        for name, arity in relations.items():
            for _ in range(rng.randint(0, 4)):
                facts.add(Atom(name, tuple(rng.choice(_CONSTS) for _ in range(arity))))
        peers.append(Peer(f"P{k + 1}", schema, views, frozenset(facts)))

    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (j, i) in [(a, b) for a, b in edges]:
                if rng.random() < 0.6:
                    edges.append((i, j))
            elif rng.random() < 0.45:
                edges.append((i, j))
    if not edges and n > 1:
        edges = [(0, 1), (1, 0)]

    interfaces = {}
    for i, j in edges:
        src, dst = peers[i], peers[j]
        pairs = []
        wanted = rng.randint(1, 3)
        for _ in range(wanted * 3):
            if len(pairs) >= wanted:
                break
            fv = rng.choice(src.views)
            matching = [tv for tv in dst.views if tv.arity == fv.arity]
            if not matching:
                continue
            pair = MappingPair(fv.name, rng.choice(matching).name)
            if pair not in pairs:
                pairs.append(pair)
        if pairs:
            interfaces[(src.id, dst.id)] = tuple(pairs)
    return Network(tuple(peers), interfaces)


def rand_peer_query(rng: random.Random, net: Network, pid: str, builtin_prob: float = 0.2) -> ConjunctiveQuery:
    """A random base-level query at the given peer, biased toward shapes
    the peer's own views can express so rewriting fires often."""
    peer = net.peer(pid)
    relations = peer.relations()
    if rng.random() < 0.65 and peer.views:
        pool = [Var(f"x{i}") for i in range(4)]
        atoms = []
        for _ in range(rng.randint(1, 2)):
            view = rng.choice(peer.views)
            args = tuple(rng.choice(pool) for _ in range(view.arity))
            atoms.append(Atom(view.name, args))
        vars_ = list({v: None for a in atoms for v in a.variables()})
        head = tuple(rng.sample(vars_, rng.randint(1, min(2, len(vars_)))))
        psi = ViewExpression(ConjunctiveQuery("q", head, tuple(atoms), ()), pid)
        q = unfold(psi, peer.views)
        if len(q.body) > 3:
            try:
                # truncation may break safety; fall back to a plain query
                q = ConjunctiveQuery("q", q.head_vars, q.body[:3], ())
            except QueryError:
                q = rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
                while not q.head_vars:
                    q = rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
                return q
    else:
        q = rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
        while not q.head_vars:
            q = rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
    if q.builtins == () and rng.random() < builtin_prob:
        body_vars = list(q.body_var_set())
        body_vars.sort(key=lambda v: v.name)
        b = BuiltinAtom(rng.choice(_OPS), rng.choice(body_vars), rng.choice(_CONSTS))
        q = ConjunctiveQuery(q.name, q.head_vars, q.body, (b,))
    return q
