import json
import sys
from pathlib import Path

import pytest

from p2pq import (
    Atom,
    Const,
    MappingPair,
    NetworkSyntaxError,
    Peer,
    QueryError,
    RelationSignature,
    ValidationError,
    ViewDefinition,
    load_network,
    neighbors,
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


def test_load_rejects_unknown_keys():
    doc = minimal_doc()
    doc["extra"] = 1
    with pytest.raises(ValidationError, match="extra"):
        load_network(json.dumps(doc))
    doc = minimal_doc()
    doc["peers"][0]["nickname"] = "p"
    with pytest.raises(ValidationError, match="nickname"):
        load_network(json.dumps(doc))


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
