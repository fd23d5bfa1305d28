"""Node growth on the hardest known grammar: cubic on distinct tokens it names.

L : L L | T ; forces maximal sharing pressure: every substring of the input
is derivable, so the graph of derivatives is as dense as it gets.  Feeding
pairwise-distinct tokens that T names keeps every substring's derivative
distinct; nodes created divided by n^3 then settles to a constant instead
of blowing up.

Tokens that a grammar does not name match its wildcard '.' alone, so the
engine derives them all by the wildcard's class and they share one
derivative: L : L L | '.' ; over the same pairwise-distinct tokens builds
the graph of n identical tokens, and nodes created divided by n^2 settles.

Run:  python3 demos/03_worst_case_node_growth.py
"""

import time

from derivparse import load_grammar, parse

WILDCARD = "start = L ;\nL : L L | '.' ;"


def named(n: int) -> str:
    """L : L L | T with T naming the tokens t0 … t{n-1}."""
    terms = " | ".join(f"'t{i}'" for i in range(n))
    return f"start = L ;\nL : L L | T ;\nT : {terms} ;"


def table(title: str, power: int, source) -> None:
    print(title)
    print(f"{'n':>4} {'nodes created':>14} {f'nodes/n^{power}':>10} "
          f"{'seconds':>8}")
    for n in (20, 40, 80, 160):
        g = load_grammar(source(n))
        g.counters.reset()
        toks = [f"t{i}" for i in range(n)]
        t0 = time.perf_counter()
        fs = parse(g, toks)
        dt = time.perf_counter() - t0
        assert not fs.is_empty()
        made = g.counters.nodes_created
        print(f"{n:>4} {made:>14} {made / n**power:>10.4f} {dt:>8.2f}")
    print()


def main() -> None:
    table("distinct tokens the grammar names: cubic", 3, named)
    table("distinct tokens only the wildcard matches: quadratic", 2,
          lambda n: WILDCARD)


if __name__ == "__main__":
    main()
