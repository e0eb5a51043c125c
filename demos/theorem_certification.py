"""Certifying the agent fixpoint against the independent closure oracle.

Run from the repository root:

    python3 demos/theorem_certification.py
"""

from pathlib import Path

from p2pq import (
    AgentState,
    CeilingError,
    check_theorem,
    load_network,
    new_agent,
    parse_query,
    step,
    weak_closure,
)

NETWORKS = Path(__file__).resolve().parent / "networks"


def main():
    net = load_network((NETWORKS / "two_peer.json").read_text())
    q = parse_query("q(x) :- A(x, y), B(y)")

    # The oracle explores the rewriting graph breadth-first, with no
    # queue or pointer machinery shared with the agent.
    closure = weak_closure(net, "Pi", q)
    print("weak closure, computed without the agent:")
    for pid in sorted(closure):
        for psi in sorted(closure[pid], key=str):
            print(f"  {pid}: {psi}")

    report = check_theorem(net, "Pi", q)
    print(f"\ncertificate: {report}")

    # Nothing guarantees the fixpoint exists.  In this three-peer
    # network (facts removed, only the mappings matter) a view composes
    # R4a with itself, so every round trip appends to an R4a chain and
    # the query sets grow forever.
    net2 = load_network((NETWORKS / "divergent.json").read_text())
    q2 = parse_query("q(x) :- R3a(y, y), R3b(x)")
    print("\na network whose fixpoint never arrives:")
    for p in net2.peers:
        for v in p.views:
            print(f"  {p.id}: {v.definition}")
    print(f"query at P3: {q2}")

    state = new_agent(net2, "P3", q2)
    for _ in range(12):
        assert isinstance(state, AgentState)
        state = step(net2, state)
    longest = max(
        (psi for queue in state.per_peer.values() for psi in queue.queries),
        key=lambda psi: len(psi.body),
    )
    print(f"\nafter 12 elaborations the longest derived query is\n  {longest}")

    # One ceiling guards both halves of the certificate, the agent's
    # steps and the closure's nodes, so a missing fixpoint is reported
    # instead of looping.
    try:
        check_theorem(net2, "P3", q2, step_ceiling=12)
    except CeilingError as exc:
        print(f"\nno certificate here: {exc}")


if __name__ == "__main__":
    main()
