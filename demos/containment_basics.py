"""Tour of the query kernel: containment, equivalence, canonical forms.

Run from the repository root:

    python3 demos/containment_basics.py
"""

from p2pq import canonicalize, contains, equivalent, homomorphisms, parse_query


def show(label, value):
    print(f"  {label:<46} {value}")


def main():
    print("containment is homomorphism existence (general -> specific):")
    general = parse_query("q(x) :- R(x, y)")
    specific = parse_query("q(x) :- R(x, y), S(y)")
    show(f"{general}  vs  {specific}", contains(general, specific))
    show(f"{specific}  vs  {general}", contains(specific, general))
    loops = parse_query("q(x) :- R(x, x)")
    show(f"{general}  vs  {loops}", contains(general, loops))
    for h in homomorphisms(general, loops):
        show("  witness", ", ".join(f"{v} -> {t}" for v, t in sorted(h.items(), key=lambda vt: vt[0].name)))

    print("\nequivalence ignores names, variable labels, and redundancy:")
    a = parse_query("q(x) :- R(x, y), R(x, w)")
    b = parse_query("p(u) :- R(u, t)")
    show(f"{a}  ~  {b}", equivalent(a, b))

    print("\ncanonicalize folds a query onto its core with fixed naming:")
    messy = parse_query("q(x) :- A(x, y), A(y, x), A(x, x), 1 < 2")
    show(str(messy), "->")
    show("", canonicalize(messy))
    show("idempotent", canonicalize(canonicalize(messy)) == canonicalize(messy))

    print("\nequivalent queries share one canonical form:")
    show(f"canonicalize({a})", canonicalize(a))
    show(f"canonicalize({b})", canonicalize(b))
    show("equal", canonicalize(a) == canonicalize(b))

    print("\ncomparison constraints are conservative:")
    tight = parse_query("q(x) :- R(x), x < 10, x < 4")
    loose = parse_query("q(x) :- R(x), x < 10")
    show(f"{loose}  vs  {tight}", contains(loose, tight))
    show(f"{tight}  vs  {loose}", contains(tight, loose))


if __name__ == "__main__":
    main()
