"""Peer network model: schemas, views, facts, mapping interfaces.

A network document is JSON:

    {"peers": [{"id": "P1",
                "schema": [{"name": "A", "arity": 2}],
                "views":  [{"name": "v1", "def": "v1(x,y) :- A(x,y)"}],
                "facts":  ["A(1,2)", "A(2,3)"]}],
     "mappings": [{"from_peer": "P1", "from_view": "v1",
                   "to_peer": "P2", "to_view": "w1"}]}

Unknown keys are rejected.  View definitions and facts reuse the query
grammar.  Mapping pairs are directional: a pair under (i, j) lets peer i
push rewritings toward peer j only.  Self-mappings are not allowed.
Networks are immutable once loaded; the one thing a network gains after
loading is `rew`'s memo of MiniCon searches, which takes no part in its
value (see `Network`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import NetworkSyntaxError, P2pqError, QueryError, ValidationError
from .parsing import _read_atom, _read_query
from .queries import Atom, ConjunctiveQuery, atom_key

__all__ = [
    "RelationSignature",
    "ViewDefinition",
    "Peer",
    "MappingPair",
    "Network",
    "load_network",
    "render_network",
    "neighbors",
]


@dataclass(frozen=True, slots=True)
class RelationSignature:
    """A base relation name with its arity."""

    name: str
    arity: int

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ValidationError(f"invalid relation name {self.name!r}")
        if not isinstance(self.arity, int) or isinstance(self.arity, bool) or self.arity < 1:
            raise ValidationError(f"relation {self.name!r}: arity must be a positive integer")


@dataclass(frozen=True, slots=True)
class ViewDefinition:
    """A named view over one peer's base relations.

    The definition must be constraint-free and its head name must match
    the view name; conformance to the owner's schema is checked by Peer.
    """

    name: str
    definition: ConjunctiveQuery

    def __post_init__(self):
        if not isinstance(self.definition, ConjunctiveQuery):
            raise ValidationError(f"view {self.name!r}: definition is not a query")
        if self.name != self.definition.name:
            raise ValidationError(
                f"view {self.name!r}: definition head is named {self.definition.name!r}"
            )
        if self.definition.builtins:
            raise ValidationError(f"view {self.name!r}: views must be constraint-free")

    @property
    def arity(self) -> int:
        return len(self.definition.head_vars)


@dataclass(frozen=True)
class Peer:
    """One peer: its schema, the views it exposes, and its local facts."""

    id: str
    schema: tuple[RelationSignature, ...] = ()
    views: tuple[ViewDefinition, ...] = ()
    facts: frozenset[Atom] = frozenset()
    # (name, arity) -> True for a relation, False for a view, for _is_base
    _levels: dict[tuple[str, int], bool] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"invalid peer id {self.id!r}")
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "views", tuple(self.views))
        relations = {}
        for sig in self.schema:
            if sig.name in relations:
                raise ValidationError(f"peer {self.id!r}: duplicate relation {sig.name!r}")
            relations[sig.name] = sig.arity
        levels = {(v.name, v.arity): False for v in self.views}
        levels.update((key, True) for key in relations.items())
        object.__setattr__(self, "_levels", levels)
        names = set()
        for view in self.views:
            if view.name in names:
                raise ValidationError(f"peer {self.id!r}: duplicate view {view.name!r}")
            if view.name in relations:
                raise ValidationError(
                    f"peer {self.id!r}: view {view.name!r} clashes with a relation name"
                )
            names.add(view.name)
            if not self._is_base(view.definition):
                raise ValidationError(
                    f"peer {self.id!r}: view {view.name!r} must be defined over base relations"
                )
        # checked in the order given, so the first bad fact is the one named
        facts = tuple(self.facts)
        for fact in facts:
            if not fact.is_ground():
                raise ValidationError(f"peer {self.id!r}: fact {fact} is not ground")
            if relations.get(fact.predicate) != len(fact.args):
                raise ValidationError(
                    f"peer {self.id!r}: fact {fact} does not match the schema"
                )
        object.__setattr__(self, "facts", frozenset(facts))

    def relations(self) -> dict[str, int]:
        return {sig.name: sig.arity for sig in self.schema}

    def view(self, name: str) -> Optional[ViewDefinition]:
        for v in self.views:
            if v.name == name:
                return v
        return None

    def require_base(self, q: ConjunctiveQuery) -> None:
        """Raise "query/schema mismatch" unless q is base-level: its body
        uses this peer's schema relations only."""
        if not self._is_base(q):
            raise QueryError(f"query/schema mismatch: {q.name!r} is not base-level on {self.id!r}")

    def _is_base(self, q: ConjunctiveQuery) -> bool:
        """True for schema relations only, False for this peer's views
        only; a mixed or unknown body raises "query/schema mismatch"."""
        levels = set()
        for a in q.body:
            level = self._levels.get((a.predicate, len(a.args)))
            if level is None:
                raise QueryError(
                    f"query/schema mismatch: {a.predicate}/{len(a.args)} "
                    f"is neither a relation nor a view of peer {self.id!r}"
                )
            levels.add(level)
        if len(levels) != 1:
            raise QueryError(
                f"query/schema mismatch: query {q.name!r} mixes base relations "
                f"and views of peer {self.id!r}"
            )
        return levels.pop()


@dataclass(frozen=True, slots=True)
class MappingPair:
    """One directional view pair: the source peer's from_view corresponds
    to the target peer's to_view."""

    from_view: str
    to_view: str


@dataclass(frozen=True)
class Network:
    """An immutable peer network.

    `interfaces` maps (from_peer, to_peer) to the declared pairs, in
    declaration order; its key order fixes the neighbor traversal order.

    `_minicon` is `rew`'s memo of MiniCon searches.  It is not part of
    the network's value: equality and repr leave it out, and it lives
    exactly as long as the network, so one loaded document (one CLI
    request) shares its searches and nothing outlives it.
    """

    peers: tuple[Peer, ...]
    interfaces: dict[tuple[str, str], tuple[MappingPair, ...]] = field(default_factory=dict)
    # (source peer, mapped view names, reduct) -> minicon's result, for rew
    _minicon: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "peers", tuple(self.peers))
        object.__setattr__(
            self, "interfaces", {k: tuple(v) for k, v in self.interfaces.items()}
        )
        ids = set()
        for p in self.peers:
            if p.id in ids:
                raise ValidationError(f"duplicate peer id {p.id!r}")
            ids.add(p.id)
        for (i, j), pairs in self.interfaces.items():
            if i == j:
                raise ValidationError(f"peer {i!r}: self-mappings are not allowed")
            try:
                src, dst = self.peer(i), self.peer(j)
            except ValidationError as e:
                raise ValidationError(f"mapping {i!r}->{j!r}: {e}") from e
            for pair in pairs:
                fv = src.view(pair.from_view)
                if fv is None:
                    raise ValidationError(
                        f"mapping {i!r}->{j!r}: unknown view {pair.from_view!r} on peer {i!r}"
                    )
                tv = dst.view(pair.to_view)
                if tv is None:
                    raise ValidationError(
                        f"mapping {i!r}->{j!r}: unknown view {pair.to_view!r} on peer {j!r}"
                    )
                if fv.arity != tv.arity:
                    raise ValidationError(
                        f"mapping {i!r}->{j!r}: arity mismatch between "
                        f"{pair.from_view}/{fv.arity} and {pair.to_view}/{tv.arity}"
                    )

    def peer(self, pid: str) -> Peer:
        for p in self.peers:
            if p.id == pid:
                return p
        raise ValidationError(f"unknown peer {pid!r}")

    def peer_ids(self) -> tuple[str, ...]:
        return tuple(p.id for p in self.peers)


def neighbors(net: Network, pid: str) -> tuple[str, ...]:
    """Peers that `pid` has a declared interface toward, in declaration
    order."""
    net.peer(pid)
    return tuple(j for (i, j) in net.interfaces if i == pid)


# ---------------------------------------------------------------------------
# loading and rendering


# The shape checks of outside JSON, for `load_network` and for the CLI's
# answer-report reader.  Each names the part at fault by `where`, a
# str.format template with at most two fields, and fills them from `a`
# and `b` only on the failing path: loading is most of a short request,
# and a document that loads formats none.  Values from the document,
# such as a peer id, go in `a` and `b`, never in the template, where a
# brace would be read as a field.  They are plain parameters, not
# *args, since a call that packs *args takes the interpreter's slower
# path.  The checks made per fact, per mapping key and per view name and
# definition stay inline, since a call costs more than the check there.


def json_object(value, keys: Optional[frozenset], where: str, a=None, b=None) -> dict:
    """value, which must be a JSON object with no key outside `keys`
    (any keys when `keys` is None)."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where.format(a, b)}: expected an object")
    if keys is not None and not keys.issuperset(value):
        unknown = sorted(set(value) - keys)[0]
        raise ValidationError(f"{where.format(a, b)}: unknown key {unknown!r}")
    return value


def json_array(value, where: str, a=None) -> list:
    """value, which must be a JSON array."""
    if not isinstance(value, list):
        raise ValidationError(f"{where.format(a)}: expected an array")
    return value


def json_member(d: dict, key: str, where: str, a=None):
    """d[key]; d is the object at `where`."""
    if key not in d:
        raise ValidationError(f"{where.format(a)}: missing {key!r}")
    return d[key]


def json_string(d: dict, key: str, where: str, a=None) -> str:
    """d[key], which must be a JSON string; d is the object at `where`."""
    value = json_member(d, key, where, a)
    if not isinstance(value, str):
        raise ValidationError(f"{where.format(a)}.{key}: expected a string")
    return value


_DOCUMENT_KEYS = frozenset({"peers", "mappings"})
_PEER_KEYS = frozenset({"id", "schema", "views", "facts"})
_SIGNATURE_KEYS = frozenset({"name", "arity"})
_VIEW_KEYS = frozenset({"name", "def"})
_MAPPING_KEYS = ("from_peer", "from_view", "to_peer", "to_view")
_MAPPING_KEY_SET = frozenset(_MAPPING_KEYS)


def _load_peer(d, index: int, memo: dict) -> Peer:
    json_object(d, _PEER_KEYS, "peers[{}]", index)
    pid = json_string(d, "id", "peers[{}]", index)

    schema = []
    for k, s in enumerate(json_array(d.get("schema", []), "peer {!r}.schema", pid)):
        json_object(s, _SIGNATURE_KEYS, "peer {!r}.schema[{}]", pid, k)
        if "name" not in s or "arity" not in s:
            raise ValidationError(f"peer {pid!r}.schema[{k}]: needs 'name' and 'arity'")
        try:
            schema.append(RelationSignature(s["name"], s["arity"]))
        except ValidationError as e:
            raise ValidationError(f"peer {pid!r}.schema[{k}]: {e}") from e

    views = []
    for k, v in enumerate(json_array(d.get("views", []), "peer {!r}.views", pid)):
        json_object(v, _VIEW_KEYS, "peer {!r}.views[{}]", pid, k)
        if "name" not in v or "def" not in v:
            raise ValidationError(f"peer {pid!r}.views[{k}]: needs 'name' and 'def'")
        vname, text = v["name"], v["def"]
        if not isinstance(vname, str):
            raise ValidationError(f"peer {pid!r}.views[{k}].name: expected a string")
        if not isinstance(text, str):
            raise ValidationError(f"peer {pid!r}.views[{k}].def: expected a string")
        try:
            definition = _read_query(text, memo)
        except P2pqError as e:
            raise ValidationError(f"peer {pid!r}, view {vname!r}: {e}") from e
        try:
            views.append(ViewDefinition(vname, definition))
        except ValidationError as e:  # its message names the view
            raise ValidationError(f"peer {pid!r}, {e}") from e

    facts = []
    for k, text in enumerate(json_array(d.get("facts", []), "peer {!r}.facts", pid)):
        if not isinstance(text, str):
            raise ValidationError(f"peer {pid!r}.facts[{k}]: expected a string")
        try:
            facts.append(_read_atom(text, memo))
        except P2pqError as e:
            raise ValidationError(f"peer {pid!r}, facts[{k}]: {e}") from e

    try:
        return Peer(pid, tuple(schema), tuple(views), facts)
    except P2pqError as e:
        # Peer's messages name the peer, save the one for an empty id
        raise ValidationError(str(e) if pid else f"peers[{index}]: {e}") from e


def load_network(text: str) -> Network:
    """Parse and validate a network document.

    Raises NetworkSyntaxError for malformed JSON and ValidationError
    (naming the peer, view, fact, or mapping at fault) for everything
    else.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, a number past the integer digit limit, or nesting too deep
        raise NetworkSyntaxError(f"malformed JSON: {e}") from e

    d = json_object(doc, _DOCUMENT_KEYS, "document")
    # token text -> its term, for every view definition and fact of this
    # document: a variable or constant that recurs is built once per load
    memo: dict = {}
    peers = [
        _load_peer(entry, i, memo)
        for i, entry in enumerate(json_array(d.get("peers", []), "peers"))
    ]

    interfaces: dict[tuple[str, str], list[MappingPair]] = {}
    for k, m in enumerate(json_array(d.get("mappings", []), "mappings")):
        json_object(m, _MAPPING_KEY_SET, "mappings[{}]", k)
        for key in _MAPPING_KEYS:
            if key not in m:
                raise ValidationError(f"mappings[{k}]: missing {key!r}")
            if not isinstance(m[key], str):
                raise ValidationError(f"mappings[{k}].{key}: expected a string")
        pair = MappingPair(m["from_view"], m["to_view"])
        interfaces.setdefault((m["from_peer"], m["to_peer"]), []).append(pair)

    return Network(tuple(peers), {k: tuple(v) for k, v in interfaces.items()})


def render_network(net: Network) -> str:
    """Render a Network back to document text.  Reloading the result
    yields a structurally equal Network; facts are emitted in sorted
    order to keep the output deterministic."""
    doc = {
        "peers": [
            {
                "id": p.id,
                "schema": [{"name": s.name, "arity": s.arity} for s in p.schema],
                "views": [{"name": v.name, "def": str(v.definition)} for v in p.views],
                "facts": [str(a) for a in sorted(p.facts, key=atom_key)],
            }
            for p in net.peers
        ],
        "mappings": [
            {"from_peer": i, "from_view": pair.from_view, "to_peer": j, "to_view": pair.to_view}
            for (i, j), pairs in net.interfaces.items()
            for pair in pairs
        ],
    }
    return json.dumps(doc, indent=2)
