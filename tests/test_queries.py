import itertools
import operator
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2pq import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Const,
    QueryError,
    Var,
    canonicalize,
    contains,
    equivalent,
    homomorphisms,
    parse_query,
)
import generators
from generators import rand_query, rand_query_pair
import p2pq.queries as queries_module
from oracles import brute_force_contains, brute_force_homomorphisms, reference_canonicalize, reference_labeling

x, y = Var("x"), Var("y")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Var("1x"), "invalid variable name '1x'"),
        (lambda: Const(True), "constants must be int or str, got True"),
        (lambda: Atom("1R", (x,)), "invalid predicate name '1R'"),
        (lambda: Atom("R", (x, 1)), "not a term: 1"),
        (lambda: BuiltinAtom("~", x, y), "unknown comparison operator '~'"),
        (lambda: BuiltinAtom("<", x, 3), "not a term: 3"),
        (lambda: BuiltinAtom("<", x, Const(1)).holds_ground(), "constraint x < 1 is not ground"),
        (lambda: queries_module.compare_constants("~", 1, 2), "unknown comparison operator '~'"),
        (lambda: ConjunctiveQuery("1q", (x,), (Atom("A", (x,)),)), "invalid query name '1q'"),
        (lambda: ConjunctiveQuery("q", (), ()), "query 'q' has an empty body"),
        (lambda: ConjunctiveQuery("q", (), (x,)), "not an atom in body of 'q': Var(name='x')"),
        (lambda: ConjunctiveQuery("q", (), (Atom("A", (x,)),), (Atom("A", (x,)),)),
         "not a constraint in 'q': Atom(predicate='A', args=(Var(name='x'),))"),
        (lambda: contains(parse_query("q(x) :- R(x)"), parse_query("q() :- R(x)")),
         "incomparable queries: head arity 1 vs 0"),
    ],
)
def test_kernel_rejects_invalid_input_with_its_message(make, message):
    with pytest.raises(QueryError) as err:
        make()
    assert str(err.value) == message


def test_atom_stores_list_args_as_a_tuple():
    assert Atom("R", [x, Const(1)]).args == (x, Const(1))
    assert type(Atom("R", [x]).args) is tuple


def test_compare_constants_greater():
    compare = queries_module.compare_constants
    assert compare(">", 2, 1) and not compare(">", 1, 1) and not compare(">", "b", 1)
    assert compare(">=", 1, 1) and compare(">=", "b", "a") and not compare(">=", 0, 1)


@pytest.mark.parametrize("op, python_op", [
    ("=", operator.eq), ("!=", operator.ne), ("<", operator.lt),
    ("<=", operator.le), (">", operator.gt), (">=", operator.ge),
])
def test_compare_constants_is_pythons_within_a_type_and_only_not_equal_across(op, python_op):
    # evaluate and the nested-loop oracle both read this one function
    compare = queries_module.compare_constants
    same_type = [(a, b) for a in (-1, 0, 2) for b in (-1, 0, 2)]
    same_type += [(a, b) for a in ("", "a", "b") for b in ("", "a", "b")]
    for a, b in same_type:
        assert compare(op, a, b) is python_op(a, b), (a, op, b)
    for a, b in [(0, "0"), ("0", 0), (1, "a"), ("a", 1)]:
        assert compare(op, a, b) is (op == "!="), (a, op, b)


def test_match_atoms_of_no_atoms_yields_the_start_once():
    env0 = {x: Const(1)}
    assert list(queries_module.match_atoms([], [Atom("R", (x,))], env0)) == [env0]


def test_construction_rejects_unsafe_head():
    with pytest.raises(QueryError, match="unsafe query"):
        ConjunctiveQuery("q", (x,), (Atom("A", (y,)),), ())


def test_construction_rejects_unsafe_constraint():
    with pytest.raises(QueryError, match="unsafe constraint"):
        ConjunctiveQuery("q", (x,), (Atom("A", (x,)),), (BuiltinAtom("<", y, Const(3)),))


def test_construction_rejects_duplicate_head_var():
    with pytest.raises(QueryError, match="head collapse"):
        ConjunctiveQuery("q", (x, x), (Atom("A", (x,)),), ())
    with pytest.raises(QueryError, match=r"head collapse: head position Const\(value=1\) is not a variable"):
        ConjunctiveQuery("q", (Const(1),), (Atom("A", (x,)),), ())


def test_name_is_a_label_not_identity():
    q1 = parse_query("q(x) :- A(x)")
    q2 = parse_query("p(x) :- A(x)")
    assert q1 == q2
    assert hash(q1) == hash(q2)


def test_builtin_orientation_normalized():
    # > and >= are stored flipped; =/!= operands are sorted
    assert BuiltinAtom(">", x, Const(3)) == BuiltinAtom("<", Const(3), x)
    assert BuiltinAtom(">=", x, y) == BuiltinAtom("<=", y, x)
    assert BuiltinAtom("=", y, x) == BuiltinAtom("=", x, y)


def test_homomorphisms_fix_head_positionally():
    general = parse_query("q(x) :- R(x, y)")
    specific = parse_query("q(u) :- R(u, u)")
    homs = homomorphisms(general, specific)
    assert homs == [{x: Var("u"), y: Var("u")}]


def test_homomorphisms_none_across_predicates():
    assert homomorphisms(parse_query("q(x) :- R(x)"), parse_query("q(x) :- S(x)")) == []


def test_containment_on_a_long_chain():
    # each search runs 1,200 atoms deep, past the recursion limit
    n = 1200
    xs = [Var(f"x{i}") for i in range(n + 1)]
    body = tuple(Atom("R", (xs[i], xs[i + 1])) for i in range(n))
    q = ConjunctiveQuery("q", (xs[0],), body)
    p = ConjunctiveQuery("q", (xs[0],), body[:-1])
    assert contains(q, q)
    assert contains(p, q)
    assert not contains(q, p)
    assert len(homomorphisms(q, q)) == 1


def test_containment_classic_pairs():
    r1 = parse_query("q(x) :- R(x, y), R(x, w)")
    r2 = parse_query("q(x) :- R(x, y)")
    r3 = parse_query("q(x) :- S(x, y)")
    r4 = parse_query("q(x) :- R(x, y), S(x, w)")
    assert contains(r1, r1)
    assert contains(r2, r1)
    assert contains(r1, r2)
    assert not contains(r1, r3)
    assert not contains(r3, r1)
    assert contains(r1, r4)
    assert contains(r3, r4)
    assert not contains(r4, r1)
    assert not contains(r4, r3)


def test_containment_with_constants():
    general = parse_query("q(x) :- R(x, y)")
    specific = parse_query("q(x) :- R(x, 3)")
    assert contains(general, specific)
    assert not contains(specific, general)


def test_containment_conservative_builtins():
    loose = parse_query("q(x) :- R(x), x < 10")
    tight = parse_query("q(x) :- R(x), x < 10, x < 4")
    assert contains(loose, tight)  # syntactic image present
    assert not contains(tight, loose)
    grounded = parse_query("q(x) :- R(x, 2), x < 9")
    host = parse_query("q(x) :- R(x, 2), x < 9, 2 < 9")
    # ground-true images are accepted even without a syntactic twin
    assert contains(host, grounded)
    # a ground false constraint is its own image, so containment stays reflexive
    unsatisfiable = parse_query("q(x) :- A(x), 1 < 0")
    assert contains(unsatisfiable, unsatisfiable)


def test_containment_agrees_with_brute_force():
    rng = random.Random(20260821)
    for _ in range(150):
        a, b = rand_query_pair(rng)
        assert contains(a, b) == brute_force_contains(a, b), f"{a} || {b}"
        maps = {frozenset(h.items()) for h in homomorphisms(a, b)}
        assert maps == brute_force_homomorphisms(a, b), f"{a} || {b}"


def _step_tests_seen(plan, head_vars) -> set[str]:
    seen = set()
    for a, _, check, _, repeat in plan:
        if not a.args:
            seen.add("no arguments")
        if repeat is not None:
            seen.add("repeat")
        for t in check[1] if check is not None else ():
            seen.add("head check" if t in head_vars else "constant check" if isinstance(t, Const) else "check")
    return seen


def test_homomorphisms_agree_with_brute_force_on_every_step_test():
    # R(x, x, 1), constants away from the key, head variables checked
    # where the key is elsewhere, and Z() with no arguments
    rng = random.Random(2525)
    relations = {"R": 3, "S": 2, "Z": 0}
    pool = [Var(f"x{i}") for i in range(4)]
    seen = dict.fromkeys(("repeat", "constant check", "head check", "check", "no arguments"), 0)
    found = 0
    for _ in range(150):
        a_body = generators.step_test_body(rng, relations, pool, rng.randint(1, 4))
        a_vars = list(dict.fromkeys(v for atom in a_body for v in atom.variables()))
        head = rng.sample(a_vars, rng.randint(0, min(2, len(a_vars))))
        a = ConjunctiveQuery("qa", head, a_body)
        # b holds an image of a's body, head fixed, beside random atoms
        image = {v: rng.choice(pool[:3] + [Const(1)]) for v in a_vars if v not in head}
        b_body = [Atom(atom.predicate, tuple(image.get(t, t) for t in atom.args)) for atom in a_body]
        b_body += generators.step_test_body(rng, relations, pool[:3], rng.randint(1, 4))
        b = ConjunctiveQuery("qb", head, rng.sample(b_body, len(b_body)))
        for frm, to in ((a, b), (b, a), (a, a)):
            plan = queries_module._connected_order(frm.body, dict(zip(frm.head_vars, to.head_vars)))
            for branch in _step_tests_seen(plan, frm.head_vars):
                seen[branch] += 1
            maps = {frozenset(h.items()) for h in homomorphisms(frm, to)}
            assert maps == brute_force_homomorphisms(frm, to), f"{frm} || {to}"
            found += len(maps) > 1
    assert min(seen.values()) >= 20, seen  # the generator must reach every branch
    assert found >= 20  # searches that find several maps


def test_equivalent_modulo_renaming_and_redundancy():
    q1 = parse_query("q(x) :- R(x, y), R(x, w)")
    q2 = parse_query("q(u) :- R(u, t)")
    assert equivalent(q1, q2)
    assert not equivalent(q1, parse_query("q(u) :- R(t, u)"))


def test_canonicalize_core_example():
    q = parse_query("q(x) :- A(x, y), A(y, x), A(x, x)")
    c = canonicalize(q)
    assert c == parse_query("q(v0) :- A(v0, v0)")


def test_canonicalize_is_idempotent_and_head_named():
    q = parse_query("q(b, a) :- R(a, b), S(b, c)")
    c = canonicalize(q)
    assert canonicalize(c) == c
    assert c.head_vars == (Var("v0"), Var("v1"))


def test_canonicalize_keeps_the_callers_name():
    alpha = parse_query("alpha(x) :- R(x, y)")
    beta = parse_query("beta(x) :- R(x, y)")
    canonicalize.cache_clear()
    assert canonicalize(alpha).name == "alpha"
    # same structure: served from the cache, under the caller's name
    assert canonicalize(beta).name == "beta"
    assert canonicalize.cache_info().hits == 1
    assert canonicalize(beta) == canonicalize(alpha)


def test_canonicalize_drops_ground_true_builtins():
    q = parse_query("q(x) :- R(x), 1 < 2")
    assert canonicalize(q).builtins == ()
    kept = parse_query("q(x) :- R(x), x != 1")
    assert canonicalize(kept).builtins != ()


def test_canonicalize_respects_head_order():
    q1 = parse_query("q(x, y) :- R(x, y)")
    q2 = parse_query("q(y, x) :- R(x, y)")
    assert canonicalize(q1) != canonicalize(q2)


def test_canonicalize_agrees_with_reference():
    rng = random.Random(20261018)
    consts = [Const(1), Const(3), Const("a")]
    for _ in range(400):
        # two relations make redundant atoms common: about one query in
        # five is not a core
        q = rand_query(rng, {"R": 2, "S": 1}, max_atoms=6, max_vars=4)
        body_vars = list({v: None for a in q.body for v in a.variables()})
        builtins = []
        for _ in range(rng.randint(0, 2) if body_vars else 0):
            other = rng.choice(body_vars + consts)
            builtins.append(BuiltinAtom(rng.choice(["=", "!=", "<", "<=", ">", ">="]), rng.choice(body_vars), other))
        q = ConjunctiveQuery(q.name, q.head_vars, q.body, builtins)
        assert repr(canonicalize(q)) == repr(reference_canonicalize(q)), str(q)


def _timed_canonical_text(q: ConjunctiveQuery, bound_s: float = 10) -> str:
    canonicalize.cache_clear()
    start = time.perf_counter()
    text = str(canonicalize(q))
    assert time.perf_counter() - start < bound_s
    return text


def test_canonicalize_skips_atoms_that_failed():
    # one endomorphism, sending y and z to x, retracts the body onto R(x, x)
    q = parse_query("q(x) :- R(x, x), R(y, x), R(x, z)")
    out = canonicalize(q)
    assert str(out) == "q(v0) :- R(v0, v0)"
    assert repr(out) == repr(reference_canonicalize(q))


def test_canonicalize_clique_with_head():
    # the clique is a core; its six endomorphisms are all onto
    q = parse_query("q(x0, x1) :- " + ", ".join(f"E(x{i}, x{j})" for i in range(5) for j in range(5) if i != j))
    assert _timed_canonical_text(q) == (
        "q(v0, v1) :- E(v0, v1), E(v0, v2), E(v0, v3), E(v0, v4), E(v1, v0), E(v1, v2), E(v1, v3), "
        "E(v1, v4), E(v2, v0), E(v2, v1), E(v2, v3), E(v2, v4), E(v3, v0), E(v3, v1), E(v3, v2), "
        "E(v3, v4), E(v4, v0), E(v4, v1), E(v4, v2), E(v4, v3)"
    )


def test_canonicalize_disjoint_stars():
    # the eight R atoms form one cell, and the S atoms' constants place
    # its members one by one, without trying the 8! orders
    q = parse_query("q() :- " + ", ".join(f"R(x{i}, y{i}), S(y{i}, {i})" for i in range(8)))
    assert _timed_canonical_text(q) == (
        "q() :- R(v0, v1), R(v10, v11), R(v12, v13), R(v14, v15), R(v2, v3), R(v4, v5), R(v6, v7), "
        "R(v8, v9), S(v1, 0), S(v11, 5), S(v13, 6), S(v15, 7), S(v3, 1), S(v5, 2), S(v7, 3), S(v9, 4)"
    )


def test_canonicalize_ten_disjoint_stars():
    # one cell: the 10! orders of the R atoms, close to a minute's search, are never tried
    q = parse_query("q() :- " + ", ".join(f"R(x{i}, y{i}), S(y{i}, {i})" for i in range(10)))
    assert _timed_canonical_text(q) == (
        "q() :- R(v0, v1), R(v10, v11), R(v12, v13), R(v14, v15), R(v16, v17), R(v18, v19), R(v2, v3), "
        "R(v4, v5), R(v6, v7), R(v8, v9), S(v1, 0), S(v11, 5), S(v13, 6), S(v15, 7), S(v17, 8), S(v19, 9), "
        "S(v3, 1), S(v5, 2), S(v7, 3), S(v9, 4)"
    )


def star_family(rng: random.Random, stars: int, centres: int, extras: int) -> ConjunctiveQuery:
    """Stars R(x, yi), S(yi, c) over `centres` centres, shared in turn,
    the first of them now and then a constant, with S constants drawn
    from a few values so that they repeat, a second atom on `extras` of
    the yi, 0-2 head variables, now and then a constraint on a star
    variable, and the body shuffled."""
    xs = [Var(f"x{i}") for i in range(centres)]
    if rng.random() < 0.5:
        xs[0] = Const(9)
    ys = [Var(f"y{i}") for i in range(stars)]
    consts = [Const(c) for c in rng.sample(range(4), rng.randint(2, 3))]
    body = []
    for i, y in enumerate(ys):
        body += [Atom("R", (xs[i % centres], y)), Atom("S", (y, rng.choice(consts)))]
    for y in rng.sample(ys, extras):
        body.append(rng.choice([Atom("T", (y,)), Atom("S", (y, rng.choice(consts))), Atom("R", (y, rng.choice(xs)))]))
    body = list(dict.fromkeys(body))
    rng.shuffle(body)
    builtins = []
    if rng.random() < 0.25:
        builtins.append(BuiltinAtom(rng.choice(["<", "<=", "!="]), rng.choice(ys), rng.choice(consts + xs)))
    star_vars = [t for t in xs + ys if isinstance(t, Var)]
    return ConjunctiveQuery("q", tuple(rng.sample(star_vars, rng.randint(0, 2))), tuple(body), tuple(builtins))


def test_canonicalize_star_families_agree_with_reference(monkeypatch):
    cells = []  # what each cell test returned
    cell_vars = queries_module._cell_vars

    def counted(*args):
        cells.append(cell_vars(*args))
        return cells[-1]

    monkeypatch.setattr(queries_module, "_cell_vars", counted)
    rng = random.Random(20261019)
    for _ in range(100):
        stars = rng.choice((2, 3, 3))
        q = star_family(rng, stars, rng.randint(1, 2), rng.randint(0, min(stars, 7 - 2 * stars)))
        if len(q.variables()) > 4:
            continue  # the brute-force retraction tries every map of the variables
        canonicalize.cache_clear()
        assert repr(canonicalize(q)) == repr(reference_canonicalize(q)), str(q)
    # cells formed, and ties that could not form one were searched
    assert sum(c is not None for c in cells) >= 10
    assert sum(c is None for c in cells) >= 10


def _labeled(q: ConjunctiveQuery) -> str:
    # q under the labeling alone, without core retraction
    head, body, builtins = queries_module._canonical_labeling(q.head_vars, q.body, q.builtins)
    return repr(ConjunctiveQuery(q.name, head, body, builtins))


def test_labeling_agrees_with_reference_on_star_families():
    # bodies that are not cores, too
    rng = random.Random(20261020)
    for _ in range(60):
        stars = rng.randint(2, 3)
        q = star_family(rng, stars, rng.randint(1, stars), rng.randint(0, min(stars, 7 - 2 * stars)))
        assert _labeled(q) == repr(reference_labeling(q)), str(q)


@pytest.mark.parametrize(
    "text",
    [
        # x1's R atoms form a cell; x2's do not, as R(x2, z1, w) shares
        # z1.  Both tie at the cell's first depth, and x2's branch, tried
        # first, is below at the second: the cell must be cut there, or
        # its leaf, with the lesser constraint key, would win.
        "q() :- A(x2, s), A(x1, s), R(x1, y1, y1), R(x1, y2, y2), R(x2, z1, z1), R(x2, z2, z2), R(x2, z1, w), x1 < 5",
        # The R atoms form a cell.  RZ(y1, w1) and RZ(y2, w2) then tie,
        # each placing its own star first, so they must not form a second
        # cell: w1 and w2 would be ordered apart from y1 and y2.
        "q() :- R(x2, y2), R(x1, y1), RZ(y1, w1), RZ(y2, w2), S(w1, 1), S(w2, 2)",
        # Constants key by their rank in term_key order: 9 before 10, and
        # an integer before a string, where their texts order the other
        # way round.
        "q() :- R(x, y), S(y, 10), R(u, w), S(w, 9)",
        "q(x) :- R(x, y), y < 10, R(x, z), z < 9",
        'q() :- R(x0, y0), S(y0, "10"), R(x1, y1), S(y1, 2)',
        # The S atoms tie with no variable left to label, so they form no
        # cell: a cell needs a fresh variable per member.
        "q() :- R(a, b), S(a), S(a)",
    ],
)
def test_labeling_agrees_with_reference_on_ties_around_cells(text):
    q = parse_query(text)
    assert _labeled(q) == repr(reference_labeling(q))


def test_canonical_form_ignores_the_names_of_symmetric_operands():
    # the same query twice, with x1 != y2 stored as written in one and
    # turned round by the operands' names in the other (b sorts before p)
    a = parse_query("q() :- R(x1, y1), S(y1, 3), R(x2, y2), S(y2, 3), x1 != y2")
    b = parse_query("q() :- R(p, q), S(q, 3), R(c, b), S(b, 3), p != b")
    assert str(canonicalize(a)) == str(canonicalize(b)) == "q() :- R(v0, v1), R(v2, v3), S(v1, 3), S(v3, 3), v0 != v3"
    assert repr(canonicalize(b)) == repr(reference_canonicalize(b))


def _renamed(rng: random.Random, q: ConjunctiveQuery) -> ConjunctiveQuery:
    names = [v for v in q.variables()]
    fresh = dict(zip(names, (Var(f"w{i}") for i in rng.sample(range(100), len(names)))))
    body = [Atom(a.predicate, tuple(fresh.get(t, t) for t in a.args)) for a in q.body]
    rng.shuffle(body)
    builtins = [BuiltinAtom(b.op, fresh.get(b.lhs, b.lhs), fresh.get(b.rhs, b.rhs)) for b in q.builtins]
    return ConjunctiveQuery(q.name, tuple(fresh[v] for v in q.head_vars), tuple(body), tuple(builtins))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_canonical_form_of_large_star_families_is_invariant(seed):
    # 12-20 atoms, past the reference's permutation search
    rng = random.Random(seed)
    stars = rng.randint(6, 9)
    q = star_family(rng, stars, rng.choice([1, 2, stars]), rng.randint(0, min(stars, 20 - 2 * stars)))
    assert 12 <= len(q.body) <= 20
    canonicalize.cache_clear()
    expected = canonicalize(q)
    canonicalize.cache_clear()
    assert repr(canonicalize(_renamed(rng, q))) == repr(expected), str(q)


def test_canonicalize_long_chain():
    n = 1200
    xs = [Var(f"x{i}") for i in range(n + 1)]
    q = ConjunctiveQuery("q", (xs[0],), tuple(Atom("R", (xs[i], xs[i + 1])) for i in range(n)))
    # labels follow the chain; the body is sorted on the label names
    edges = sorted((f"v{i}", f"v{i + 1}") for i in range(n))
    assert _timed_canonical_text(q) == "q(v0) :- " + ", ".join(f"R({a}, {b})" for a, b in edges)


def _plan(text: str, bound=()) -> list[str]:
    return [str(step[0]) for step in queries_module._connected_order(parse_query(text).body, bound)]


def test_plan_checks_an_atom_as_soon_as_its_variables_are_bound():
    # body order would leave the pure check S(x, y) for last
    assert _plan("q() :- R(x, y), R(y, z), S(x, y)") == ["R(x, y)", "S(x, y)", "R(y, z)"]


def test_plan_takes_the_fewest_unbound_variables_then_body_order():
    # S and T tie on one unbound variable each; R has two
    assert _plan("q(x) :- R(x, y, z), S(x, u), T(x, w)", (x,)) == ["S(x, u)", "T(x, w)", "R(x, y, z)"]


def test_plan_starts_a_new_component_at_the_first_unplaced_atom():
    assert _plan("q() :- R(x, y), T(z, w), R(y, u), S(y, 1), T(w, z)") == [
        "S(y, 1)",
        "R(x, y)",
        "R(y, u)",
        "T(z, w)",
        "T(w, z)",
    ]


def test_plan_steps_carry_their_argument_tests():
    # with y bound, R(x, 1, x, y) is keyed on the constant, checks y,
    # binds x at 0 and compares its repeat at 2 with it
    (step,) = queries_module._connected_order([Atom("R", (x, Const(1), x, y))], (y,))
    _, key, (pick, terms), binds, (later, first) = step
    assert (key, terms, binds) == (1, (y,), ((x, 0),))
    args = ("a", "b", "c", "d")
    assert (pick(args), later(args), first(args)) == ("d", "c", "a")


def test_plan_building_is_not_quadratic():
    # every atom is ready from the start, so a rescan of the unplaced
    # atoms at each step would take 5,000 steps of 5,000 atoms
    n = 5000
    xs = [Var(f"x{i}") for i in range(n + 1)]
    body = [Atom("R", (xs[i], xs[i + 1], Const(0))) for i in range(n)]
    start = time.perf_counter()
    plan = queries_module._connected_order(body, ())
    assert time.perf_counter() - start < 2
    assert [step[0] for step in plan] == body


def _counted_canonical_text(monkeypatch, q: ConjunctiveQuery) -> tuple[str, int]:
    # search nodes: `match_atoms` looks up each node's candidates once
    calls = 0
    candidates = queries_module._candidates

    def counting(*args):
        nonlocal calls
        calls += 1
        return candidates(*args)

    monkeypatch.setattr(queries_module, "_candidates", counting)
    canonicalize.cache_clear()
    return str(canonicalize(q)), calls


def test_core_of_a_single_centre_star_family_checks_constants_early(monkeypatch):
    # in body order, S(y5, 1), which rejects most images of y5, is placed
    # 16th: that plan visits 472,129 search nodes, the fail-first one 73
    q = parse_query(
        "q(y3) :- R(x0, y3), R(x0, y5), S(y1, 1), S(y6, 1), S(y2, 3), R(x0, y4), R(x0, y7), R(x0, y8), "
        "R(x0, y2), S(y3, 3), R(x0, y6), S(y4, 1), R(x0, y0), R(x0, y1), S(y7, 2), S(y5, 1), S(y0, 2), S(y8, 3)"
    )
    text, calls = _counted_canonical_text(monkeypatch, q)
    assert text == "q(v0) :- R(v1, v0), R(v1, v2), R(v1, v3), S(v0, 3), S(v2, 1), S(v3, 2)"
    assert calls <= 1000


def _clique(k: int) -> ConjunctiveQuery:
    xs = [Var(f"x{i}") for i in range(k)]
    return ConjunctiveQuery("q", (), tuple(Atom("R", (a, b)) for a in xs for b in xs if a != b))


def _clique_text(k: int) -> str:
    return "q() :- " + ", ".join(sorted(f"R(v{i}, v{j})" for i in range(k) for j in range(k) if i != j))


def test_core_of_the_six_clique_checks_edges_early(monkeypatch):
    # 720 automorphisms; body order visits 137,821 search nodes, the
    # fail-first plan 24,691, and pruning with the automorphisms found
    # so far 465
    text, calls = _counted_canonical_text(monkeypatch, _clique(6))
    assert text == _clique_text(6)
    assert calls <= 1_000


def test_labeling_of_the_six_clique_prunes_by_automorphisms(monkeypatch):
    # `_cell_vars` runs once per labeling level whose atoms tie.  Every
    # vertex order of the clique ties, so without the automorphisms the
    # labeling opens 511 such levels.  With them it opens 4, one for each
    # choice of a next vertex while two or more are open: there, a
    # recorded automorphism maps each tie but the first onto an earlier one
    levels = 0
    cell_vars = queries_module._cell_vars

    def counting(*args):
        nonlocal levels
        levels += 1
        return cell_vars(*args)

    monkeypatch.setattr(queries_module, "_cell_vars", counting)
    canonicalize.cache_clear()
    assert str(canonicalize(_clique(6))) == _clique_text(6)
    assert levels <= 20


def test_canonicalize_eight_clique():
    # 40,320 automorphisms, none of them enumerated
    assert _timed_canonical_text(_clique(8), bound_s=2) == _clique_text(8)


def symmetric_family(rng: random.Random, kind: str) -> ConjunctiveQuery:
    """A body with many automorphisms, shuffled: a clique, a directed
    cycle or a complete bipartite graph over R; or a random body twice
    over, the copy with its own non-head variables; or one of the
    symmetric bodies with constraints between its variables; or a clique
    or cycle with pendant R atoms and a copy with its own variables,
    which retracts onto it.  The bipartite graph keeps the variables of
    each side apart with `!=`, so that it is a core.  0-2 head
    variables."""
    if kind in ("doubled", "constrained", "retracting"):
        bases = {"doubled": ["random"], "constrained": ["clique", "cycle", "bipartite"],
                 "retracting": ["clique", "cycle"]}
        base = symmetric_family(rng, rng.choice(bases[kind]))
        body, head, builtins = list(base.body), base.head_vars, list(base.builtins)
        variables = list(dict.fromkeys(v for a in body for v in a.variables()))
        if kind == "constrained":
            for _ in range(rng.randint(1, 2)):
                builtins.append(BuiltinAtom(rng.choice(["!=", "=", "<"]), *rng.sample(variables, 2)))
        else:
            if kind == "retracting":
                body += [Atom("R", (v, Var(f"z{i}"))) for i, v in enumerate(rng.sample(variables, 2))]
            fresh = {v: Var(f"{v.name}c") for v in variables if v not in head}
            body += [Atom(a.predicate, tuple(fresh.get(t, t) for t in a.args)) for a in body]
            builtins += [BuiltinAtom(b.op, fresh.get(b.lhs, b.lhs), fresh.get(b.rhs, b.rhs)) for b in builtins]
        rng.shuffle(body)
        return ConjunctiveQuery("q", head, tuple(body), tuple(builtins))
    builtins = []
    if kind == "clique":
        k = rng.randint(3, 5)
        pairs = [(f"x{i}", f"x{j}") for i in range(k) for j in range(k) if i != j]
    elif kind == "cycle":
        k = rng.randint(3, 8)
        pairs = [(f"x{i}", f"x{(i + 1) % k}") for i in range(k)]
    elif kind == "bipartite":
        pairs = [(f"x{i}", f"y{j}") for i in range(rng.randint(1, 3)) for j in range(rng.randint(2, 3))]
        # a side's variables pairwise apart, or one edge would be the core
        builtins = [BuiltinAtom("!=", Var(f"{side}{i}"), Var(f"{side}{j}"))
                    for side in "xy" for i in range(3) for j in range(i) if any(f"{side}{i}" in p for p in pairs)]
    else:
        body = list(rand_query(rng, {"R": 2, "S": 1}, max_atoms=5, max_vars=4).body)
        pairs = None
    if pairs is not None:
        body = [Atom("R", (Var(a), Var(b))) for a, b in pairs]
    rng.shuffle(body)
    variables = list(dict.fromkeys(v for a in body for v in a.variables()))
    head = tuple(rng.sample(variables, rng.randint(0, min(2, len(variables)))))
    return ConjunctiveQuery("q", head, tuple(body), tuple(builtins))


def permutation_closed(rng: random.Random) -> ConjunctiveQuery:
    """A body over 4-6 variables closed under a random permutation of
    them, so that the permutation is one of its automorphisms: a few
    random atoms over R, T and S and their images, at most 12 atoms,
    with 0-1 head variables fixed by the permutation or not."""
    while True:
        xs = [Var(f"x{i}") for i in range(rng.randint(4, 6))]
        p = dict(zip(xs, rng.sample(xs, len(xs))))
        body = {}
        for _ in range(rng.randint(2, 4)):
            predicate, arity = rng.choice([("R", 2), ("R", 2), ("T", 3), ("S", 1)])
            a = Atom(predicate, tuple(rng.choice(xs) for _ in range(arity)))
            while a not in body:
                body[a] = None
                a = Atom(a.predicate, tuple(p[t] for t in a.args))
        if len(body) <= 12:
            body = list(body)
            rng.shuffle(body)
            variables = list(dict.fromkeys(v for a in body for v in a.variables()))
            return ConjunctiveQuery("q", tuple(rng.sample(variables, rng.randint(0, 1))), tuple(body))


def every_automorphism(q: ConjunctiveQuery) -> list[dict]:
    # every permutation of q's variables, fixing the head, that maps the
    # body onto itself, but the identity
    variables, atoms = q.variables(), set(q.body)
    found = []
    for image in itertools.permutations(variables):
        h = dict(zip(variables, image))
        if all(h[v] == v for v in q.head_vars) and any(h[v] != v for v in variables):
            if {Atom(a.predicate, tuple(h[t] for t in a.args)) for a in q.body} == atoms:
                found.append(h)
    return found


def test_labeling_pruned_by_every_automorphism_agrees_with_unpruned():
    # The labeling may take any automorphisms of the body, not only those
    # the core search records: given the whole group, it still names the
    # body as the unpruned search does, core or not.  An automorphism
    # that moves a labelled variable must not prune: these bodies tell
    # that apart.
    rng = random.Random(20261021)
    symmetric = 0
    for _ in range(300):
        q = permutation_closed(rng)
        automorphisms = every_automorphism(q)
        symmetric += bool(automorphisms)
        pruned = queries_module._canonical_labeling(q.head_vars, q.body, q.builtins, automorphisms)
        assert pruned == queries_module._canonical_labeling(q.head_vars, q.body, q.builtins), str(q)
    assert symmetric >= 100, symmetric


def _unpruned_core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    # `_core` without the automorphisms: retract onto the first smaller image
    while (h := queries_module._smaller_image(q, len(q.body))) is not None:
        body = dict.fromkeys(Atom(a.predicate, tuple(h.get(t, t) for t in a.args)) for a in q.body)
        images = dict.fromkeys(BuiltinAtom(b.op, h.get(b.lhs, b.lhs), h.get(b.rhs, b.rhs)) for b in q.builtins)
        builtins = [b for b in images if not (b.is_ground() and b.holds_ground())]
        q = ConjunctiveQuery(q.name, q.head_vars, list(body), builtins)
    return q


@pytest.mark.parametrize("kind", ["clique", "cycle", "bipartite", "doubled", "constrained", "retracting"])
def test_pruned_search_agrees_with_unpruned(kind):
    rng = random.Random(f"pruning/{kind}")
    recorded = 0
    for _ in range(40):
        q = symmetric_family(rng, kind)
        q = ConjunctiveQuery(q.name, q.head_vars, list(dict.fromkeys(q.body)), q.builtins)
        n = len(q.body)
        # the first map with a smaller image, or None, is the same
        first: list = []
        assert queries_module._smaller_image(q, n, first) == queries_module._smaller_image(q, n), str(q)
        core, automorphisms = queries_module._core(q)
        assert repr(core) == repr(_unpruned_core(q)), str(q)
        assert queries_module._smaller_image(core, len(core.body)) is None
        # each recorded map is an automorphism of the core, and not the identity
        atoms = set(core.body)
        for h in automorphisms:
            image = {Atom(a.predicate, tuple(h[t] if isinstance(t, Var) else t for t in a.args)) for a in core.body}
            assert image == atoms
            assert any(h[v] != v for v in h)
        recorded += bool(first or automorphisms)
        labeled = queries_module._canonical_labeling(core.head_vars, core.body, core.builtins, automorphisms)
        assert labeled == queries_module._canonical_labeling(core.head_vars, core.body, core.builtins), str(q)
        if len(q.variables()) <= 4 and len(q.body) <= 7:
            canonicalize.cache_clear()
            assert repr(canonicalize(q)) == repr(reference_canonicalize(q)), str(q)
    # the families have automorphisms for the search to record, but for
    # a doubled random body, whose first map folds the copy before any
    if kind != "doubled":
        assert recorded >= 10, recorded


def test_canonical_forms_equal_iff_equivalent():
    rng = random.Random(97)
    # a constraint on an atom that folds away must not keep the atom
    fixed = [
        ('qa(x0) :- T("a"), T(x0)', 'qb(x0) :- T("a"), T(x0), T(x1), x1 <= "b"'),
        ("qa(x2) :- R(x4, x2), T(x4), T(2), 5 <= x4", "qb(x2) :- R(x4, x2), T(x4), T(2), T(x1), 5 <= x4, x1 <= 8"),
    ]
    pairs = [tuple(map(parse_query, pair)) for pair in fixed] + [rand_query_pair(rng) for _ in range(150)]
    seen_equivalent = 0
    for a, b in pairs:
        same = canonicalize(a) == canonicalize(b)
        eq = equivalent(a, b)
        assert same == eq, f"{a} || {b}"
        seen_equivalent += eq
    assert seen_equivalent > len(fixed)  # the generator must exercise the interesting case too


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_containment_is_reflexive_and_canonical_invariant(seed):
    rng = random.Random(seed)
    a, b = rand_query_pair(rng)
    assert contains(a, a)
    assert contains(b, b)
    # canonicalization preserves meaning, hence containment both ways
    assert contains(a, canonicalize(a)) and contains(canonicalize(a), a)
    assert contains(a, b) == contains(canonicalize(a), canonicalize(b))


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_containment_is_transitive_on_samples(seed):
    rng = random.Random(seed)
    a, b = rand_query_pair(rng)
    c, _ = rand_query_pair(rng)
    if len(c.head_vars) == len(a.head_vars):
        if contains(a, b) and contains(b, c):
            assert contains(a, c)
    if contains(a, b) and contains(b, a):
        assert equivalent(a, b)
