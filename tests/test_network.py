import json
import sys
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    Const,
    MappingPair,
    Network,
    NetworkSyntaxError,
    Peer,
    QueryError,
    RelationSignature,
    ValidationError,
    Var,
    ViewDefinition,
    load_network,
    neighbors,
    parse_atom,
    parse_query,
    render_network,
)

TWO_PEER = Path(__file__).resolve().parent.parent / "demos" / "networks" / "two_peer.json"


def minimal_doc():
    return {
        "peers": [
            {
                "id": "P1",
                "schema": [{"name": "R", "arity": 2}],
                "views": [{"name": "v", "def": "v(x) :- R(x, y)"}],
                "facts": ["R(1, 2)"],
            },
            {
                "id": "P2",
                "schema": [{"name": "S", "arity": 2}],
                "views": [{"name": "w", "def": "w(x) :- S(x, y)"}],
                "facts": [],
            },
        ],
        "mappings": [
            {"from_peer": "P1", "from_view": "v", "to_peer": "P2", "to_view": "w"}
        ],
    }


def test_load_two_peer_fixture():
    net = load_network(TWO_PEER.read_text())
    assert [p.id for p in net.peers] == ["Pi", "Pj"]
    assert net.peer("Pi").relations() == {"A": 2, "B": 1, "E": 1}
    assert len(net.interfaces[("Pi", "Pj")]) == 2
    assert Atom("A", (Const(1), Const(2))) in net.peer("Pi").facts


def test_load_rejects_malformed_json():
    with pytest.raises(NetworkSyntaxError, match="malformed JSON"):
        load_network("{not json")


def test_load_rejects_duplicate_peer_ids():
    doc = minimal_doc()
    doc["peers"][1]["id"] = "P1"
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))


def test_load_rejects_non_ground_fact():
    doc = minimal_doc()
    doc["peers"][0]["facts"] = ["R(1, x)"]
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))


def test_load_rejects_fact_schema_mismatch():
    doc = minimal_doc()
    doc["peers"][0]["facts"] = ["R(1)"]
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))
    doc["peers"][0]["facts"] = ["T(1)"]
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))


@pytest.mark.parametrize(
    "facts, vdef, message",
    [
        (["R(1, 2)", "R(1,\n 2 3)"], "v(x) :- R(x, y)",
         "peer 'P1', facts[1]: line 2, column 4: expected ')', got '3'"),
        (["R(1, 2)"], "v(x) :- R(x, %)",
         "peer 'P1', view 'v': line 1, column 14: unexpected character '%'"),
        (["R(1, 2)"], "v(x) :-\n R(x, y",
         "peer 'P1', view 'v': line 2, column 8: expected ')', got 'end of input'"),
        # each location is named once
        (["R(1, 2)", 7], "v(x) :- R(x, y)", "peer 'P1'.facts[1]: expected a string"),
        (["R(1, 2)"], "w(x) :- R(x, y)", "peer 'P1', view 'v': definition head is named 'w'"),
        (["R(1, 2)"], "v(x) :- R(x, y), x < 3", "peer 'P1', view 'v': views must be constraint-free"),
        pytest.param(
            ["R(1, " + "2" * 5000 + ")"], "v(x) :- R(x, y)",
            "peer 'P1', facts[0]: line 1, column 6: integer constant too long (5000 digits)",
            id="integer-past-the-digit-limit",
            marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"),
        ),
    ],
)
def test_load_reports_parse_errors_with_position(facts, vdef, message):
    doc = minimal_doc()
    doc["peers"][0]["facts"] = facts
    doc["peers"][0]["views"][0]["def"] = vdef
    with pytest.raises(ValidationError) as err:
        load_network(json.dumps(doc))
    assert str(err.value) == message


# Term texts that one memo over a whole document must keep apart: the
# variable x and the string "x", the integer 1 and the string "1"; and
# -0 and 0, which spell one constant.  Each recurs across peers, view
# definitions and facts.
SHARED_TERMS_DOC = {"peers": [
    {"id": "P", "schema": [{"name": "R", "arity": 2}, {"name": "S", "arity": 1}],
     "views": [{"name": "v", "def": "v(x) :- R(x, 1), S(x)"}, {"name": "w", "def": "w(x) :- R(x, -0)"}],
     "facts": ['R("x", 1)', 'R("1", -0)', 'R(0, "x")', 'S("1")', "S(1)"]},
    {"id": "Q", "schema": [{"name": "T", "arity": 2}],
     "views": [{"name": "u", "def": 'u(x) :- T(x, "x"), T("1", 0)'}],
     "facts": ['T(1, "1")', "T(-0, 0)", 'T("x", "x")']},
]}


def test_one_document_memo_builds_the_network_text_by_text_parsing_builds():
    expected = Network(tuple(
        Peer(
            p["id"],
            tuple(RelationSignature(s["name"], s["arity"]) for s in p["schema"]),
            tuple(ViewDefinition(v["name"], parse_query(v["def"])) for v in p["views"]),
            [parse_atom(f) for f in p["facts"]],
        )
        for p in SHARED_TERMS_DOC["peers"]
    ))
    net = load_network(json.dumps(SHARED_TERMS_DOC))
    assert net == expected
    assert net.peer("P").view("v").definition.body[0].args == (Var("x"), Const(1))
    assert net.peer("Q").facts == {
        Atom("T", (Const(1), Const("1"))), Atom("T", (Const(0), Const(0))), Atom("T", (Const("x"), Const("x"))),
    }


@pytest.mark.parametrize("bad, message", [
    ('R("x",\n  1 $)', "line 2, column 5: unexpected character '$'"),
    ("R(-0, X)", "line 1, column 7: 'X' is not a term: variables are lowercase, string constants are double-quoted"),
    ('R("1", 1', "line 1, column 9: expected ')', got 'end of input'"),
])
def test_a_bad_fact_after_memoised_terms_reports_its_own_place(bad, message):
    doc = json.loads(json.dumps(SHARED_TERMS_DOC))
    doc["peers"][0]["facts"].append(bad)
    with pytest.raises(ValidationError) as err:
        load_network(json.dumps(doc))
    assert str(err.value) == f"peer 'P', facts[5]: {message}"


def test_load_rejects_unknown_mapping_view():
    doc = minimal_doc()
    doc["mappings"][0]["from_view"] = "nope"
    with pytest.raises(ValidationError, match="unknown view"):
        load_network(json.dumps(doc))


def test_load_rejects_unknown_mapping_peer():
    doc = minimal_doc()
    doc["mappings"][0]["to_peer"] = "P9"
    with pytest.raises(ValidationError, match="unknown peer"):
        load_network(json.dumps(doc))


def test_load_rejects_self_mapping():
    doc = minimal_doc()
    doc["mappings"][0]["to_peer"] = "P1"
    doc["mappings"][0]["to_view"] = "v"
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))


def test_load_rejects_arity_mismatch_in_pair():
    doc = minimal_doc()
    doc["peers"][1]["views"][0]["def"] = "w(x, y) :- S(x, y)"
    with pytest.raises(ValidationError):
        load_network(json.dumps(doc))


def test_view_definition_must_be_base_level():
    r = RelationSignature("R", 2)
    v1 = ViewDefinition("v1", parse_query("v1(x) :- R(x, y)"))
    v2 = ViewDefinition("v2", parse_query("v2(x) :- v1(x)"))
    with pytest.raises(ValidationError):
        Peer("P", (r,), (v1, v2))


def test_view_name_must_match_definition_head():
    with pytest.raises(ValidationError):
        ViewDefinition("v", parse_query("other(x) :- R(x)"))


def test_views_must_be_constraint_free():
    with pytest.raises(ValidationError, match="constraint-free"):
        ViewDefinition("v", parse_query("v(x) :- R(x), x < 3"))


def test_peer_rejects_view_relation_name_clash():
    r = RelationSignature("R", 2)
    v = ViewDefinition("R", parse_query("R(x) :- R(x, y)"))
    with pytest.raises(ValidationError):
        Peer("P", (r,), (v,))


def test_query_level_classification():
    net = load_network(TWO_PEER.read_text())
    pi = net.peer("Pi")
    assert pi.require_base(parse_query("q(x) :- A(x, y)")) is None
    with pytest.raises(QueryError) as err:
        pi.require_base(parse_query("q(x) :- v1(x, y)"))
    assert str(err.value) == "query/schema mismatch: 'q' is not base-level on 'Pi'"
    with pytest.raises(QueryError, match="query/schema mismatch"):
        pi.require_base(parse_query("q(x) :- A(x, y), v2(y)"))
    with pytest.raises(QueryError, match="query/schema mismatch"):
        pi.require_base(parse_query("q(x) :- Zz(x)"))
    with pytest.raises(QueryError):
        pi.require_base(parse_query("q(x) :- A(x)"))  # wrong arity


def test_query_level_on_directly_built_peer():
    peer = Peer(
        "P",
        (RelationSignature("A", 2), RelationSignature("B", 1)),
        (ViewDefinition("v", parse_query("v(x) :- A(x, y), B(y)")),),
    )
    before = repr(peer)
    assert peer.require_base(parse_query("q(x) :- A(x, y), B(y)")) is None
    with pytest.raises(QueryError) as err:
        peer.require_base(parse_query("q(x) :- v(x), v(y)"))
    assert str(err.value) == "query/schema mismatch: 'q' is not base-level on 'P'"
    with pytest.raises(QueryError) as err:
        peer.require_base(parse_query("q(x) :- A(x, y), v(y)"))
    assert str(err.value) == (
        "query/schema mismatch: query 'q' mixes base relations and views of peer 'P'"
    )
    for text, culprit in [("q(x) :- A(x)", "A/1"), ("q(x) :- v(x, y)", "v/2"), ("q(x) :- C(x)", "C/1")]:
        with pytest.raises(QueryError) as err:
            peer.require_base(parse_query(text))
        assert str(err.value) == (
            f"query/schema mismatch: {culprit} is neither a relation nor a view of peer 'P'"
        )
    # the level lookup takes no part in repr, equality or hashing
    assert repr(peer) == before
    assert "_levels" not in before
    twin = Peer("P", peer.schema, peer.views)
    assert twin == peer and hash(twin) == hash(peer)
    with pytest.raises(ValidationError) as err:
        Peer("P", peer.schema, peer.views + (ViewDefinition("w", parse_query("w(x) :- v(x)")),))
    assert str(err.value) == "peer 'P': view 'w' must be defined over base relations"


def test_query_level_leaves_network_round_trip_intact():
    net = load_network(TWO_PEER.read_text())
    reprs = [repr(p) for p in net.peers]
    for p in net.peers:
        for v in p.views:
            p.require_base(v.definition)
    assert [repr(p) for p in net.peers] == reprs
    assert load_network(render_network(net)) == net
    assert hash(load_network(render_network(net)).peer("Pi")) == hash(net.peer("Pi"))


def test_neighbors_follow_declaration_order():
    doc = minimal_doc()
    doc["peers"].append(
        {
            "id": "P3",
            "schema": [{"name": "T", "arity": 2}],
            "views": [{"name": "t", "def": "t(x) :- T(x, y)"}],
            "facts": [],
        }
    )
    doc["mappings"] = [
        {"from_peer": "P1", "from_view": "v", "to_peer": "P3", "to_view": "t"},
        {"from_peer": "P1", "from_view": "v", "to_peer": "P2", "to_view": "w"},
    ]
    net = load_network(json.dumps(doc))
    assert neighbors(net, "P1") == ("P3", "P2")
    assert neighbors(net, "P2") == ()


def test_unknown_peer_lookup():
    net = load_network(TWO_PEER.read_text())
    with pytest.raises(ValidationError, match="unknown peer"):
        net.peer("Px")


def test_render_round_trip():
    net = load_network(TWO_PEER.read_text())
    again = load_network(render_network(net))
    assert again == net
    # rendering is deterministic
    assert render_network(again) == render_network(net)


def test_interfaces_preserve_pair_order():
    net = load_network(TWO_PEER.read_text())
    assert net.interfaces[("Pi", "Pj")] == (
        MappingPair("v1", "w1"),
        MappingPair("v2", "w2"),
    )


def test_network_rejects_duplicate_relation():
    r = RelationSignature("R", 2)
    with pytest.raises(ValidationError):
        Peer("P", (r, RelationSignature("R", 1)), ())


def test_relation_arity_positive():
    with pytest.raises(ValidationError):
        RelationSignature("R", 0)


_DELETE = object()
_VIEW = {"name": "v", "def": "v(x) :- R(x, y)"}
_MAPPING = {"from_peer": "P1", "from_view": "v", "to_peer": "P2", "to_view": "w"}


def _set(path, value):
    # minimal_doc with the value at the key path, or with that key
    # deleted when value is _DELETE
    def change(doc):
        *parents, last = path
        part = doc
        for key in parents:
            part = part[key]
        if value is _DELETE:
            del part[last]
        else:
            part[last] = value
        return doc

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: [doc], "document: expected an object"),
        (_set(("extra",), 1), "document: unknown key 'extra'"),
        (_set(("peers",), {}), "peers: expected an array"),
        (_set(("mappings",), {}), "mappings: expected an array"),
        (_set(("peers", 0), 5), "peers[0]: expected an object"),
        (_set(("peers", 0, "nickname"), "p"), "peers[0]: unknown key 'nickname'"),
        (
            lambda doc: _set(("peers", 0, "views"), {})(_set(("peers", 0, "id"), "{0}")(doc)),
            "peer '{0}'.views: expected an array",
        ),
        (_set(("peers", 0, "id"), _DELETE), "peers[0]: missing 'id'"),
        (_set(("peers", 0, "id"), 3), "peers[0].id: expected a string"),
        (_set(("peers", 0, "schema"), {}), "peer 'P1'.schema: expected an array"),
        (_set(("peers", 0, "schema", 0), 1), "peer 'P1'.schema[0]: expected an object"),
        (_set(("peers", 0, "schema", 0, "type"), "int"), "peer 'P1'.schema[0]: unknown key 'type'"),
        (_set(("peers", 0, "schema", 0, "arity"), _DELETE), "peer 'P1'.schema[0]: needs 'name' and 'arity'"),
        (_set(("peers", 0, "views"), {}), "peer 'P1'.views: expected an array"),
        (_set(("peers", 0, "views", 0), "v"), "peer 'P1'.views[0]: expected an object"),
        (_set(("peers", 0, "views", 0, "kind"), "view"), "peer 'P1'.views[0]: unknown key 'kind'"),
        (_set(("peers", 0, "views", 0, "def"), _DELETE), "peer 'P1'.views[0]: needs 'name' and 'def'"),
        (_set(("peers", 0, "views", 0, "name"), 1), "peer 'P1'.views[0].name: expected a string"),
        (_set(("peers", 0, "views", 0, "def"), None), "peer 'P1'.views[0].def: expected a string"),
        (_set(("peers", 0, "facts"), "R(1, 2)"), "peer 'P1'.facts: expected an array"),
        (_set(("mappings", 0), []), "mappings[0]: expected an object"),
        (_set(("mappings", 0, "via"), "P3"), "mappings[0]: unknown key 'via'"),
        (_set(("mappings", 0, "to_view"), _DELETE), "mappings[0]: missing 'to_view'"),
        (_set(("mappings", 0, "from_peer"), 1), "mappings[0].from_peer: expected a string"),
        (_set(("mappings", 0, "from_peer"), "P9"), "mapping 'P9'->'P2': unknown peer 'P9'"),
        (_set(("mappings", 0, "to_peer"), "P9"), "mapping 'P1'->'P9': unknown peer 'P9'"),
        (_set(("peers", 0, "schema", 0, "name"), "1R"), "peer 'P1'.schema[0]: invalid relation name '1R'"),
        (
            _set(("peers", 0, "schema", 0, "arity"), 0),
            "peer 'P1'.schema[0]: relation 'R': arity must be a positive integer",
        ),
        (_set(("peers", 0, "id"), ""), "peers[0]: invalid peer id ''"),
        (_set(("peers", 0, "views"), [_VIEW, _VIEW]), "peer 'P1': duplicate view 'v'"),
        # faults past the first entry name that entry
        (_set(("peers", 1, "id"), _DELETE), "peers[1]: missing 'id'"),
        (_set(("peers", 1, "schema", 0, "arity"), _DELETE), "peer 'P2'.schema[0]: needs 'name' and 'arity'"),
        (
            _set(("peers", 0, "schema"), [{"name": "R", "arity": 2}, {"name": "T"}]),
            "peer 'P1'.schema[1]: needs 'name' and 'arity'",
        ),
        (_set(("peers", 0, "views"), [_VIEW, {"name": "u"}]), "peer 'P1'.views[1]: needs 'name' and 'def'"),
        (
            _set(("peers", 0, "views"), [_VIEW, {"name": "u", "def": "u(x) :- R(x, %)"}]),
            "peer 'P1', view 'u': line 1, column 14: unexpected character '%'",
        ),
        (
            _set(("mappings",), [_MAPPING, {"from_peer": "P2", "from_view": "w", "to_peer": "P1"}]),
            "mappings[1]: missing 'to_view'",
        ),
    ],
)
def test_load_rejects_each_malformed_part_with_its_message(change, message):
    with pytest.raises(ValidationError) as err:
        load_network(json.dumps(change(minimal_doc())))
    assert str(err.value) == message


def test_view_definition_must_be_a_query():
    with pytest.raises(ValidationError) as err:
        ViewDefinition("v", "v(x) :- R(x, y)")
    assert str(err.value) == "view 'v': definition is not a query"
