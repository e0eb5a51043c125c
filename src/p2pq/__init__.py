"""Query answering over peer-to-peer view mappings.

Peers expose views over their local schemas; directional mapping pairs
declare which views of one peer correspond to which views of another.
A query posed at one peer is propagated by rewriting it equivalently
through its views, swapping them for their mapped counterparts, and
unfolding on the neighbor; a deterministic agent drives this to a
fixpoint, an independent deduction oracle certifies the fixpoint, and
the derived queries are evaluated against each peer's own facts.
"""

from .agent import (
    DEFAULT_STEP_CEILING,
    AgentResult,
    AgentState,
    PeerQueue,
    TraceStep,
    new_agent,
    run,
    step,
    trace,
)
from .answers import AnswerReport, TupleSet, answer, assemble_report, evaluate, join, row_key
from .errors import (
    CeilingError,
    NetworkSyntaxError,
    P2pqError,
    ParseError,
    QueryError,
    UnknownViewError,
    ValidationError,
)
from .network import (
    MappingPair,
    Network,
    Peer,
    RelationSignature,
    ViewDefinition,
    load_network,
    neighbors,
    render_network,
)
from .oracle import DEFAULT_NODE_CEILING, TheoremReport, check_theorem, weak_closure
from .parsing import parse_atom, parse_query
from .queries import (
    Atom,
    BuiltinAtom,
    ConjunctiveQuery,
    Const,
    Term,
    Var,
    canonicalize,
    contains,
    equivalent,
    homomorphisms,
)
from .rewriting import ViewExpression, minicon, rew, split_builtins, subst, unfold

__version__ = "0.1.0"

__all__ = [
    "AgentResult",
    "AgentState",
    "AnswerReport",
    "Atom",
    "BuiltinAtom",
    "CeilingError",
    "ConjunctiveQuery",
    "Const",
    "DEFAULT_NODE_CEILING",
    "DEFAULT_STEP_CEILING",
    "MappingPair",
    "Network",
    "NetworkSyntaxError",
    "P2pqError",
    "ParseError",
    "Peer",
    "PeerQueue",
    "QueryError",
    "RelationSignature",
    "Term",
    "TheoremReport",
    "TraceStep",
    "TupleSet",
    "UnknownViewError",
    "ValidationError",
    "Var",
    "ViewDefinition",
    "ViewExpression",
    "answer",
    "assemble_report",
    "canonicalize",
    "check_theorem",
    "contains",
    "equivalent",
    "evaluate",
    "homomorphisms",
    "join",
    "row_key",
    "load_network",
    "minicon",
    "neighbors",
    "new_agent",
    "parse_atom",
    "parse_query",
    "render_network",
    "rew",
    "run",
    "split_builtins",
    "step",
    "subst",
    "trace",
    "unfold",
    "weak_closure",
]
