"""Acceptance gate: six criteria, one verdict line each.

The random corpus is drawn from a pinned seed scheme (seed k feeds
random.Random(k) through the shared generators).  Instances whose
fixpoint does not fit the pinned step budget are recorded and replaced
by the next seed: chain-composing view definitions can make the
reachable query space infinite, so termination is a per-instance
property, not a corpus-wide one.  The skip count is part of the
printed verdict.
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from p2pq import (
    AgentResult,
    AgentState,
    Atom,
    BuiltinAtom,
    CeilingError,
    ConjunctiveQuery,
    Const,
    canonicalize,
    check_theorem,
    contains,
    equivalent,
    evaluate,
    join,
    load_network,
    minicon,
    new_agent,
    parse_query,
    Peer,
    RelationSignature,
    rew,
    run,
    split_builtins,
    step,
    trace,
    unfold,
    TupleSet,
)
from conftest import record_criterion
from generators import rand_network, rand_peer_query, rand_query, rand_query_pair
from oracles import brute_force_contains, nested_loop_evaluate

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"

CORPUS_SIZE = 100
STEP_BUDGET = 3_000  # agent elaborations per instance
NODE_BUDGET = 3_000  # oracle deduction nodes per instance
RETRY_FACTOR = 10


@pytest.fixture(scope="session")
def corpus():
    """First CORPUS_SIZE convergent instances of the seed scheme, plus
    the seeds that were skipped as divergent."""
    instances = []
    skipped = []
    for seed in itertools.count():
        if len(instances) >= CORPUS_SIZE:
            break
        rng = random.Random(seed)
        net = rand_network(rng)
        pid = rng.choice(net.peers).id
        q = rand_peer_query(rng, net, pid)
        try:
            run(net, pid, q, step_ceiling=STEP_BUDGET)
        except CeilingError:
            try:
                run(net, pid, q, step_ceiling=STEP_BUDGET * RETRY_FACTOR)
            except CeilingError:
                skipped.append(seed)
                continue
        instances.append((seed, net, pid, q))
    return instances, skipped


def test_criterion_1_example_reproduction():
    net = load_network(TWO_PEER.read_text())
    q_i = parse_query("q(x) :- A(x, y), B(y)")
    t0 = time.monotonic()
    result = run(net, "Pi", q_i)
    elapsed = time.monotonic() - t0

    counts = {pid: len(qs) for pid, qs in result.per_peer_queries.items()}
    derived = result.per_peer_queries["Pi"] - {canonicalize(q_i)}
    q_i_1 = next(iter(derived)) if len(derived) == 1 else None
    ok = (
        result.total() == 3
        and counts == {"Pi": 2, "Pj": 1}
        and q_i_1 is not None
        and contains(q_i, q_i_1)
        and elapsed < 1.0
    )
    record_criterion(
        f"criterion 1 {'PASS' if ok else 'FAIL'}: two-peer fixture yields "
        f"{result.total()} queries {counts}, subsumption "
        f"{'holds' if q_i_1 is not None and contains(q_i, q_i_1) else 'fails'}, "
        f"{elapsed:.3f}s < 1s"
    )
    assert counts == {"Pi": 2, "Pj": 1}
    assert result.total() == 3
    assert q_i_1 is not None and contains(q_i, q_i_1)
    assert elapsed < 1.0


def test_criterion_2_theorem_certification(corpus):
    instances, skipped = corpus
    t0 = time.monotonic()
    disagreements = []
    for seed, net, pid, q in instances:
        report = check_theorem(
            net, pid, q, step_ceiling=STEP_BUDGET * RETRY_FACTOR,
            node_ceiling=NODE_BUDGET * RETRY_FACTOR,
        )
        if not report.agrees:
            disagreements.append((seed, report))
    elapsed = time.monotonic() - t0
    ok = not disagreements and len(instances) == CORPUS_SIZE and elapsed < 300
    record_criterion(
        f"criterion 2 {'PASS' if ok else 'FAIL'}: check_theorem agrees on "
        f"{len(instances) - len(disagreements)}/{len(instances)} random networks "
        f"(seed scheme 0.., {len(skipped)} divergent seeds skipped), "
        f"{elapsed:.1f}s < 300s"
    )
    assert len(instances) == CORPUS_SIZE
    assert disagreements == [], disagreements[:3]
    assert elapsed < 300


def test_criterion_3_containment_oracle_agreement():
    rng = random.Random(20260821)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(500):
        a, b = rand_query_pair(rng, max_atoms=4, max_vars=5)
        if contains(a, b) != brute_force_contains(a, b):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30
    record_criterion(
        f"criterion 3 {'PASS' if ok else 'FAIL'}: contains matches brute force on "
        f"{500 - mismatches}/500 pairs, {elapsed:.1f}s < 30s"
    )
    assert mismatches == 0
    assert elapsed < 30


def _interface_views(net, i, j):
    peer = net.peer(i)
    seen = []
    for pair in net.interfaces[(i, j)]:
        view = peer.view(pair.from_view)
        if view not in seen:
            seen.append(view)
    return tuple(seen)


def test_criterion_4_rewriting_equivalence(corpus):
    instances, _ = corpus
    checked = 0
    failures = []
    transparency_fixtures = []
    for seed, net, pid, q in instances:
        result = run(net, pid, q, step_ceiling=STEP_BUDGET * RETRY_FACTOR)
        for peer_id, queries in result.per_peer_queries.items():
            for derived in sorted(queries, key=str):
                for (i, j) in net.interfaces:
                    if i != peer_id:
                        continue
                    out = rew(derived, net, i, j)
                    if out is None:
                        continue
                    checked += 1
                    reduct, _constraints = split_builtins(derived)
                    views = _interface_views(net, i, j)
                    psi = minicon(reduct, views, i)
                    if psi is None or not equivalent(unfold(psi, views), reduct):
                        failures.append((seed, i, j, derived))
                    if not derived.builtins and derived.head_vars:
                        transparency_fixtures.append((net, i, j, derived))

    # built-in transparency: attaching one comparison to a head variable
    # commutes with rewriting through the head correspondence
    ops = itertools.cycle(["<", "<=", ">", ">=", "=", "!="])
    consts = itertools.cycle([Const(0), Const(2), Const(7), Const("m")])
    transparent = 0
    transparency_failures = []
    for net, i, j, reduct in transparency_fixtures:
        if transparent >= 100:
            break
        k = transparent % len(reduct.head_vars)
        var = reduct.head_vars[k]
        b = BuiltinAtom(next(ops), var, next(consts))
        constrained = ConjunctiveQuery(reduct.name, reduct.head_vars, reduct.body, (b,))
        out_plain = rew(reduct, net, i, j)
        out_full = rew(constrained, net, i, j)
        # rename through the positional head correspondence; construction
        # normalization may have put the variable on either side
        renamed = BuiltinAtom(
            b.op,
            out_plain.head_vars[k] if b.lhs == var else b.lhs,
            out_plain.head_vars[k] if b.rhs == var else b.rhs,
        )
        expected = canonicalize(
            ConjunctiveQuery(
                out_plain.name,
                out_plain.head_vars,
                out_plain.body,
                out_plain.builtins + (renamed,),
            )
        )
        if out_full == expected:
            transparent += 1
        else:
            transparency_failures.append((i, j, constrained, out_full, expected))

    ok = not failures and transparent >= 100 and not transparency_failures
    record_criterion(
        f"criterion 4 {'PASS' if ok else 'FAIL'}: {checked} non-EMPTY rewritings all "
        f"satisfy equivalent(unfold(minicon(reduct)), reduct) "
        f"({len(failures)} failures); built-in transparency on "
        f"{transparent}/100 fixtures ({len(transparency_failures)} failures)"
    )
    assert checked > 0
    assert failures == [], failures[:3]
    assert transparency_failures == [], transparency_failures[:2]
    assert transparent >= 100


# Query shapes the random generator seldom produces: bodies whose
# predicate-sorted order is disconnected, constants in atoms, repeated
# variables and comparison constraints.  At most four variables each,
# so the all-assignments oracle stays small.
EVALUATION_SHAPES = tuple(
    parse_query(text)
    for text in (
        "q(x, w) :- A(x, y), A(z, w), B(y, z)",
        "q(x) :- A(u, x), B(y, z), B(x, u), C(y)",
        "q(x) :- A(x, 1), B(1, y), C(y)",
        'q(y) :- A("a", y), B(y, 2)',
        "q(x) :- A(x, x)",
        "q(x, y) :- A(x, y), A(y, x), B(y, y)",
        "q() :- A(x, x), B(x, y), C(y)",
        "q(x, y) :- A(x, y), B(y, z), x < z",
        'q(x) :- A(x, y), C(y), y != "a"',
        "q(x, z) :- A(x, y), A(y, z), x >= 2, z <= 3",
    )
)
SHAPE_SCHEMA = (RelationSignature("A", 2), RelationSignature("B", 2), RelationSignature("C", 1))


def _shape_peer(rng):
    facts = set()
    for sig in SHAPE_SCHEMA:
        for _ in range(rng.randint(3, 10)):
            facts.add(Atom(sig.name, tuple(Const(rng.choice([1, 2, 3, "a"])) for _ in range(sig.arity))))
    return Peer("S", SHAPE_SCHEMA, (), frozenset(facts))


def test_criterion_5_evaluation_correctness():
    rng = random.Random(777)
    t0 = time.monotonic()
    instances = []
    for _ in range(300):
        net = rand_network(rng, 2, 3)
        peer = rng.choice(net.peers)
        assert sum(1 for _ in peer.facts) <= 20
        instances.append((rand_query(rng, peer.relations(), max_atoms=3, builtin_prob=0.4), peer))
    shape_rng = random.Random(778)
    for _ in range(20):
        peer = _shape_peer(shape_rng)
        instances.extend((q, peer) for q in EVALUATION_SHAPES)
    mismatches = sum(evaluate(q, peer) != nested_loop_evaluate(q, peer) for q, peer in instances)
    identity_failures = 0
    for _ in range(50):
        arity = rng.randint(1, 3)
        rows = frozenset(
            tuple(rng.choice([1, 2, 3, "a", "b"]) for _ in range(arity))
            for _ in range(rng.randint(0, 8))
        )
        r = TupleSet(arity, rows)
        if join(r, TupleSet(0)) != TupleSet(arity):
            identity_failures += 1
        if join(r, TupleSet(0, frozenset({()}))) != r:
            identity_failures += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and identity_failures == 0
    record_criterion(
        f"criterion 5 {'PASS' if ok else 'FAIL'}: evaluate matches nested-loop oracle on "
        f"{len(instances) - mismatches}/{len(instances)} instances; join identities hold on 50/50 relations "
        f"({identity_failures} failures), {elapsed:.1f}s"
    )
    assert mismatches == 0
    assert identity_failures == 0


def test_criterion_6_termination_and_monotonicity(corpus):
    instances, _ = corpus
    t0 = time.monotonic()
    violations = []
    for seed, net, pid, q in instances:
        result, steps = trace(net, pid, q, step_ceiling=STEP_BUDGET * RETRY_FACTOR)
        if len(steps) >= STEP_BUDGET * RETRY_FACTOR:
            violations.append((seed, "ceiling"))
            continue
        state = new_agent(net, pid, q)
        prev = {pid_: pq.queries for pid_, pq in state.per_peer.items()}
        while isinstance(state, AgentState):
            state = step(net, state)
            if isinstance(state, AgentResult):
                break
            for pid_, pq in state.per_peer.items():
                if pq.queries[: len(prev[pid_])] != prev[pid_]:
                    violations.append((seed, f"non-monotone at {pid_}"))
            prev = {pid_: pq.queries for pid_, pq in state.per_peer.items()}
        for pid_, queries in result.per_peer_queries.items():
            ordered = sorted(queries, key=str)
            for a in range(len(ordered)):
                for b in range(a + 1, len(ordered)):
                    if equivalent(ordered[a], ordered[b]):
                        violations.append((seed, f"duplicate modulo equivalence at {pid_}"))
    elapsed = time.monotonic() - t0
    ok = not violations
    record_criterion(
        f"criterion 6 {'PASS' if ok else 'FAIL'}: {len(instances)}/{len(instances)} corpus runs "
        f"terminate below the step ceiling with append-only lists and "
        f"equivalence-free final sets ({len(violations)} violations), {elapsed:.1f}s"
    )
    assert violations == [], violations[:5]
