"""Ambiguity: exponentially many trees, polynomially sized forests.

The grammar S : S S | 'a' ; parses a^n in Catalan(n-1) ways.  The forest
shares subtrees through ambiguity nodes, so its size stays small while the
tree count explodes.  Counting works directly on the shared structure; a
grammar with a unit cycle shows the count saturating to Infinite.

Run:  python3 demos/02_ambiguity_and_counting.py
"""

from derivparse import count_parses, forest_to_json, load_grammar, parse

CATALAN = "start = S ;\nS : S S | 'a' ;"
PUMP = "start = S ;\nS : S | 'a' ;"


def main() -> None:
    g = load_grammar(CATALAN)
    print(f"{'n':>3} {'trees':>12} {'forest nodes':>13}")
    for n in (1, 2, 4, 8, 12, 16):
        fs = parse(g, ["a"] * n)
        nodes = len(forest_to_json(fs)["nodes"])
        print(f"{n:>3} {count_parses(fs):>12} {nodes:>13}")

    pump = load_grammar(PUMP)
    fs = parse(pump, ["a"])
    print(f"\nwith a unit cycle S : S | 'a' the count is {count_parses(fs)}")


if __name__ == "__main__":
    main()
