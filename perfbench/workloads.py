"""Seeded workload generators for the p2pq benchmark.

Every generator is pure standard library and never imports p2pq: the
inputs are network documents and query strings, so a change to the
program cannot change what the benchmark sends it.  ``build`` writes
the documents of one workload into a directory and returns its fixed
request list; each request carries the data its output is checked
against (see ``checks.py``).

Workloads (``run.py --workload NAME``), all posed at P0 or the origin:

chain      ring(3), 3 facts per relation over {0, 1, 2}; answer and
           rewrite for chain(m), m = 2..9, oracle-check for m = 2..7.
           Loads minicon: its combination search, unfold and two-way
           equivalence tests.
join       ring(2), 100 facts per relation over 30 values; answer,
           rewrite and oracle-check for chain(2) and chain(3).  Loads
           evaluate's nested loop.
symmetric  answer and rewrite (EMPTY) for the boolean 4-clique, the
           5-clique with 2 head variables, the boolean 7-star and the
           8-star with head x0, over relations no mapped view covers
           and a fixed fact pattern whose values the seed renames;
           oracle-check for the 4-clique and the boolean 5-star; rewrite
           and oracle-check for a query over the one mapped relation.
           Loads canonicalize (core retraction, tie branching).
corpus     CORPUS_SAMPLE small random networks drawn by the seed from a
           recorded pool; answer, rewrite toward the origin's first
           neighbour, and oracle-check on each.  Loads network loading
           and the per-call costs of every layer.
"""

from __future__ import annotations

import json
import os
import random
from typing import Union

WORKLOADS = ("chain", "join", "symmetric", "corpus")

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_REFERENCE = os.path.join(HERE, "corpus_reference.json")
CORPUS_SAMPLE = 325


def request(kind: str, doc: str, peer: str, query: str, expect: dict, target: str = None) -> dict:
    """One CLI invocation: ``p2pq <kind> <doc> --peer ... --query ...``."""
    argv = [kind, doc, "--peer", peer]
    if target is not None:
        argv += ["--target", target]
    argv += ["--query", query]
    return {"kind": kind, "argv": argv, "expect": expect}


def _write(directory: str, name: str, doc: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


class Var(str):
    """A variable name, told apart from string constants."""


def term_text(t: Union[Var, int, str]) -> str:
    if isinstance(t, Var):
        return t
    return str(t) if isinstance(t, int) else f'"{t}"'


def atom_text(pred: str, args) -> str:
    return f"{pred}({', '.join(map(term_text, args))})"


def cq_text(head, atoms, builtins=()) -> str:
    parts = [atom_text(p, args) for p, args in atoms]
    parts += [f"{v} {op} {term_text(c)}" for op, v, c in builtins]
    return f"q({', '.join(head)}) :- {', '.join(parts)}"


# ---------------------------------------------------------------------------
# ring(n) and chain(m), as ROADMAP.md defines them


def ring(n: int, facts_per_relation: int, domain: int, rng: random.Random):
    """n peers in a ring; peer k has binary Rk_0, Rk_1, an identity view
    per relation and the two-hop view jk; neighbours are mapped both
    ways, pairing views of the same shape.  Returns the document and
    each peer's facts as {relation: set of pairs}."""
    peers, mappings, facts = [], [], {}
    for k in range(n):
        rels = {}
        for r in (0, 1):
            pairs = set()
            while len(pairs) < facts_per_relation:
                pairs.add((rng.randrange(domain), rng.randrange(domain)))
            rels[r] = pairs
        facts[f"P{k}"] = rels
        peers.append({
            "id": f"P{k}",
            "schema": [{"name": f"R{k}_0", "arity": 2}, {"name": f"R{k}_1", "arity": 2}],
            "views": [
                {"name": f"i{k}_0", "def": f"i{k}_0(x, y) :- R{k}_0(x, y)"},
                {"name": f"i{k}_1", "def": f"i{k}_1(x, y) :- R{k}_1(x, y)"},
                {"name": f"j{k}", "def": f"j{k}(x, z) :- R{k}_0(x, y), R{k}_1(y, z)"},
            ],
            "facts": [f"R{k}_{r}({a}, {b})" for r in (0, 1) for a, b in sorted(rels[r])],
        })
    directions = []
    for k in range(n):
        for a, b in ((k, (k + 1) % n), ((k + 1) % n, k)):
            if (a, b) not in directions:
                directions.append((a, b))
    for a, b in directions:
        for view in ("i{}_0", "i{}_1", "j{}"):
            mappings.append({"from_peer": f"P{a}", "from_view": view.format(a),
                             "to_peer": f"P{b}", "to_view": view.format(b)})
    return {"peers": peers, "mappings": mappings}, facts


def chain_query(m: int) -> str:
    """chain(m) at P0."""
    atoms = ", ".join(f"R0_{i % 2}(x{i}, x{i + 1})" for i in range(m))
    return f"q(x0, x{m}) :- {atoms}"


def walks(rels: dict, m: int) -> set:
    """(start, end) of every walk of length m alternating R_0, R_1."""
    frontier = {(a, a) for pairs in rels.values() for pair in pairs for a in pair}
    for i in range(m):
        step = {}
        for a, b in rels[i % 2]:
            step.setdefault(a, []).append(b)
        frontier = {(s, b) for s, e in frontier for b in step.get(e, ())}
    return frontier


def _row(values) -> str:
    return "(" + ", ".join(term_text(v) for v in values) + ")"


def _ring_requests(path: str, facts: dict, answer_ms, rewrite_ms, oracle_ms) -> list:
    reqs = []
    for m in answer_ms:
        per_peer = {pid: sorted(_row(w) for w in walks(facts[pid], m)) for pid in facts}
        union = sorted({r for rows in per_peer.values() for r in rows})
        reqs.append(request("answer", path, "P0", chain_query(m),
                            {"rows": {"peers": per_peer, "union": union}}))
    for m in rewrite_ms:
        reqs.append(request("rewrite", path, "P0", chain_query(m),
                            {"chain": {"m": m, "peer": 1}}, target="P1"))
    for m in oracle_ms:
        reqs.append(request("oracle-check", path, "P0", chain_query(m), {"oracle": True}))
    return reqs


def build_chain(seed: int, directory: str) -> list:
    doc, facts = ring(3, 3, 3, random.Random(seed))
    path = _write(directory, "chain.json", doc)
    return _ring_requests(path, facts, range(2, 10), range(2, 10), range(2, 8))


def build_join(seed: int, directory: str) -> list:
    doc, facts = ring(2, 100, 30, random.Random(seed))
    path = _write(directory, "join.json", doc)
    return _ring_requests(path, facts, (2, 3), (2, 3), (2, 3))


# ---------------------------------------------------------------------------
# symmetric: cliques and stars over relations no mapped view covers


def clique(n: int, head: int):
    atoms = [("E", (Var(f"x{i}"), Var(f"x{j}"))) for i in range(n) for j in range(n) if i != j]
    return [f"x{i}" for i in range(head)], atoms


def star(n: int, head: int):
    atoms = []
    for i in range(n):
        atoms += [("E", (Var(f"x{i}"), Var(f"y{i}"))), ("S", (Var(f"y{i}"), i))]
    return [f"x{i}" for i in range(head)], atoms


def search_rows(head, atoms, facts: dict) -> set:
    """Head tuples of every assignment that maps each atom onto a fact:
    a plain backtracking search over the values in `facts`."""
    order = list({a: None for _, args in atoms for a in args if isinstance(a, Var)})
    domain = sorted({v for rows in facts.values() for row in rows for v in row})
    rows = set()

    def consistent(env):
        for pred, args in atoms:
            if all(not isinstance(a, Var) or a in env for a in args):
                if tuple(env[a] if isinstance(a, Var) else a for a in args) not in facts[pred]:
                    return False
        return True

    def rec(i, env):
        if i == len(order):
            rows.add(tuple(env[v] for v in head))
            return
        for value in domain:
            env[order[i]] = value
            if consistent(env):
                rec(i + 1, env)
            del env[order[i]]

    rec(0, {})
    return rows


def star_rows(n: int, head: int, facts: dict) -> set:
    """Stars evaluated component by component: component i holds the x
    with some y such that E(x, y) and S(y, i)."""
    comps = [{x for x, y in facts["E"] if (y, i) in facts["S"]} for i in range(n)]
    if not all(comps):
        return set()
    if head == 0:
        return {()}
    return {(x,) for x in comps[0]}


# E and S of `symmetric` up to renaming: E has a loop, so the cliques
# hold, and every star component is non-empty.  Keeping the pattern fixed
# keeps evaluate's work the same for every seed.
E_PATTERN = ((0, 0), (0, 1), (1, 2))
S_PATTERN = tuple((0, i) for i in range(8)) + ((1, 0), (2, 1), (1, 3), (2, 5))


def build_symmetric(seed: int, directory: str) -> list:
    """The fact pattern above with its values 0, 1, 2 renamed to three
    distinct values drawn by the seed."""
    name = random.Random(seed).sample(range(1000), 3)
    facts = {
        "E": {(name[a], name[b]) for a, b in E_PATTERN},
        "S": {(name[y], i) for y, i in S_PATTERN},
    }
    doc = {
        "peers": [
            {"id": "P0",
             "schema": [{"name": "E", "arity": 2}, {"name": "S", "arity": 2}, {"name": "M", "arity": 2}],
             "views": [{"name": "m0", "def": "m0(x, y) :- M(x, y)"}],
             "facts": [atom_text(p, t) for p in ("E", "S") for t in sorted(facts[p])] + ["M(1, 2)"]},
            {"id": "P1",
             "schema": [{"name": "N", "arity": 2}],
             "views": [{"name": "m1", "def": "m1(x, y) :- N(x, y)"}],
             "facts": ["N(3, 4)"]},
        ],
        "mappings": [
            {"from_peer": "P0", "from_view": "m0", "to_peer": "P1", "to_view": "m1"},
            {"from_peer": "P1", "from_view": "m1", "to_peer": "P0", "to_view": "m0"},
        ],
    }
    path = _write(directory, "symmetric.json", doc)
    shapes = [
        (clique(4, 0), search_rows(*clique(4, 0), facts)),
        (clique(5, 2), search_rows(*clique(5, 2), facts)),
        (star(7, 0), star_rows(7, 0, facts)),
        (star(8, 1), star_rows(8, 1, facts)),
    ]
    reqs = []
    for (head, atoms), rows in shapes:
        expected = sorted(_row(r) for r in rows)
        reqs.append(request("answer", path, "P0", cq_text(head, atoms),
                            {"rows": {"peers": {"P0": expected, "P1": []}, "union": expected}}))
    for (head, atoms), _ in shapes:
        reqs.append(request("rewrite", path, "P0", cq_text(head, atoms), {"text": "EMPTY"}, target="P1"))
    reqs.append(request("rewrite", path, "P0", "q(x) :- M(x, y)", {"text": "(v0) :- N(v0, v1)"}, target="P1"))
    for head, atoms in (clique(4, 0), star(5, 0)):
        reqs.append(request("oracle-check", path, "P0", cq_text(head, atoms), {"oracle": True}))
    reqs.append(request("oracle-check", path, "P0", "q(x) :- M(x, y)", {"oracle": True}))
    return reqs


# ---------------------------------------------------------------------------
# corpus: random networks with the shape of the test suite's generator

_CONSTS: list = [1, 2, 3, 5, 8, "a", "b", "c"]
_OPS = ["=", "!=", "<", "<=", ">", ">="]


def _rand_query(rng, relations, max_atoms=3, max_vars=5, const_prob=0.15, builtin_prob=0.0):
    pool = [Var(f"x{i}") for i in range(max_vars)]
    preds = sorted(relations)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        pred = rng.choice(preds)
        args = []
        for _ in range(relations[pred]):
            if rng.random() < const_prob:
                args.append(rng.choice(_CONSTS))
            else:
                args.append(rng.choice(pool[: rng.randint(2, max_vars)]))
        atoms.append((pred, tuple(args)))
    body_vars = list({a: None for _, args in atoms for a in args if isinstance(a, Var)})
    head = []
    if body_vars:
        k = rng.randint(0 if rng.random() < 0.1 else 1, min(2, len(body_vars)))
        head = rng.sample(body_vars, k)
    builtins = []
    if body_vars and rng.random() < builtin_prob:
        builtins.append((rng.choice(_OPS), rng.choice(body_vars), rng.choice(_CONSTS)))
    return head, atoms, builtins


def _rand_view(rng, tag, index, relations):
    pool = [Var(f"x{i}") for i in range(4)]
    preds = sorted(relations)
    atoms = []
    for _ in range(rng.randint(1, 2)):
        pred = rng.choice(preds)
        atoms.append((pred, tuple(rng.choice(pool) for _ in range(relations[pred]))))
    body_vars = list({a: None for _, args in atoms for a in args})
    head = rng.sample(body_vars, rng.randint(1, min(2, len(body_vars))))
    name = f"{tag}v{index}"
    body = ", ".join(atom_text(p, args) for p, args in atoms)
    return {"name": name, "head": head, "atoms": atoms,
            "def": f"{name}({', '.join(head)}) :- {body}"}


def rand_network(rng: random.Random, min_peers: int = 2, max_peers: int = 5):
    """A random network: 1-3 relations, 1-4 views and up to 4 facts per
    relation on each peer, and directional mapping groups of 1-3
    arity-matched pairs; reverse edges are common so cycles occur.
    Returns the document and, per peer, its relations and views."""
    n = rng.randint(min_peers, max_peers)
    peers = []
    for k in range(n):
        tag = f"p{k + 1}"
        relations = {f"R{k + 1}{chr(97 + i)}": rng.choice([1, 2, 2]) for i in range(rng.randint(1, 3))}
        views = [_rand_view(rng, tag, i + 1, relations) for i in range(rng.randint(1, 4))]
        facts = set()
        for name, arity in relations.items():
            for _ in range(rng.randint(0, 4)):
                facts.add(atom_text(name, tuple(rng.choice(_CONSTS) for _ in range(arity))))
        peers.append({"id": f"P{k + 1}", "relations": relations, "views": views, "facts": sorted(facts)})

    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (j, i) in edges:
                if rng.random() < 0.6:
                    edges.append((i, j))
            elif rng.random() < 0.45:
                edges.append((i, j))
    if not edges and n > 1:
        edges = [(0, 1), (1, 0)]

    mappings = []
    for i, j in edges:
        src, dst = peers[i], peers[j]
        pairs = []
        wanted = rng.randint(1, 3)
        for _ in range(wanted * 3):
            if len(pairs) >= wanted:
                break
            fv = rng.choice(src["views"])
            matching = [tv for tv in dst["views"] if len(tv["head"]) == len(fv["head"])]
            if not matching:
                continue
            pair = (fv["name"], rng.choice(matching)["name"])
            if pair not in pairs:
                pairs.append(pair)
        for fv, tv in pairs:
            mappings.append({"from_peer": src["id"], "from_view": fv, "to_peer": dst["id"], "to_view": tv})

    doc = {
        "peers": [
            {"id": p["id"],
             "schema": [{"name": r, "arity": a} for r, a in sorted(p["relations"].items())],
             "views": [{"name": v["name"], "def": v["def"]} for v in p["views"]],
             "facts": p["facts"]}
            for p in peers
        ],
        "mappings": mappings,
    }
    return doc, peers


def _unfold(view_atoms, views_by_name):
    """Expand view atoms with their definitions; existential variables
    get fresh names, distinct across instances."""
    atoms, fresh = [], 0
    for name, args in view_atoms:
        view = views_by_name[name]
        env = dict(zip(view["head"], args))
        for pred, vargs in view["atoms"]:
            out = []
            for a in vargs:
                if a not in env:
                    env[a] = Var(f"z{fresh}")
                    fresh += 1
                out.append(env[a])
            atoms.append((pred, tuple(out)))
    return atoms


def rand_peer_query(rng: random.Random, peer: dict, builtin_prob: float = 0.2) -> str:
    """A random query at the peer, biased toward shapes its own views
    can express so that rewriting fires often."""
    relations = peer["relations"]
    head, builtins = None, []
    if rng.random() < 0.65 and peer["views"]:
        pool = [Var(f"x{i}") for i in range(4)]
        view_atoms = []
        for _ in range(rng.randint(1, 2)):
            view = rng.choice(peer["views"])
            view_atoms.append((view["name"], tuple(rng.choice(pool) for _ in view["head"])))
        vars_ = list({a: None for _, args in view_atoms for a in args})
        head = rng.sample(vars_, rng.randint(1, min(2, len(vars_))))
        atoms = _unfold(view_atoms, {v["name"]: v for v in peer["views"]})
        if len(atoms) > 3:
            atoms = atoms[:3]
            bound = {a for _, args in atoms for a in args}
            if not all(v in bound for v in head):
                # truncation broke safety; fall back to a plain query
                head = None
    if head is None:
        head, atoms, builtins = _rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
        while not head:
            head, atoms, builtins = _rand_query(rng, relations, 3, 4, builtin_prob=builtin_prob)
    if not builtins and rng.random() < builtin_prob:
        body_vars = sorted({a for _, args in atoms for a in args if isinstance(a, Var)})
        builtins = [(rng.choice(_OPS), rng.choice(body_vars), rng.choice(_CONSTS))]
    return cq_text(head, atoms, builtins)


def corpus_instance(instance: int):
    """Instance `instance` of the corpus pool: (document, origin, query,
    rewrite target or None).  The target is the origin's first declared
    neighbour."""
    rng = random.Random(instance)
    doc, peers = rand_network(rng)
    origin = rng.choice(peers)
    query = rand_peer_query(rng, origin)
    targets = [m["to_peer"] for m in doc["mappings"] if m["from_peer"] == origin["id"]]
    return doc, origin["id"], query, (targets[0] if targets else None)


def corpus_requests(instance: int, path: str, reference: dict = None) -> list:
    """The requests sent for one corpus instance; expectations come
    from the recorded reference when one is given."""
    doc, origin, query, target = corpus_instance(instance)
    ref = reference or {}
    reqs = [request("answer", path, origin, query, {"rows": ref.get("rows")})]
    if target is not None:
        reqs.append(request("rewrite", path, origin, query, {"text": ref.get("rewrite")}, target=target))
    reqs.append(request("oracle-check", path, origin, query, {"oracle": True}))
    return reqs


def build_corpus(seed: int, directory: str) -> list:
    """CORPUS_SAMPLE instances drawn by `seed` from the recorded pool,
    in the order drawn."""
    with open(CORPUS_REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    pool = sorted(reference["instances"], key=int)
    chosen = random.Random(seed).sample(pool, min(CORPUS_SAMPLE, len(pool)))
    reqs = []
    for key in chosen:
        instance = int(key)
        doc = corpus_instance(instance)[0]
        path = _write(directory, f"corpus_{instance}.json", doc)
        reqs += corpus_requests(instance, path, reference["instances"][key])
    return reqs


BUILDERS = {
    "chain": build_chain,
    "join": build_join,
    "symmetric": build_symmetric,
    "corpus": build_corpus,
}


def build(name: str, seed: int, directory: str) -> list:
    """Write the workload's documents into `directory` and return its
    request list."""
    os.makedirs(directory, exist_ok=True)
    return BUILDERS[name](seed, directory)
