"""Ambiguity: exponentially many trees, polynomially sized forests.

The grammar S : S S | 'a' ; parses a^n in Catalan(n-1) ways.  The forest
shares subtrees through ambiguity nodes, so its size stays small while the
tree count explodes.  Counting works directly on the shared structure;
enumerating the first few trees builds only what those trees need, so it
stays cheap on a forest of 10^20 trees; a grammar with a unit cycle shows
the count saturating to Infinite.

Run:  python3 demos/02_ambiguity_and_counting.py
"""

import os

from derivparse import (count_parses, enumerate_trees, forest_to_json,
                        load_grammar, parse, tree_text)

CATALAN = "start = S ;\nS : S S | 'a' ;"
PUMP = "start = S ;\nS : S | 'a' ;"


def main() -> None:
    g = load_grammar(CATALAN)
    print(f"{'n':>3} {'trees':>12} {'forest nodes':>13}")
    for n in (1, 2, 4, 8, 12, 16):
        fs = parse(g, ["a"] * n)
        nodes = len(forest_to_json(fs)["nodes"])
        print(f"{n:>3} {count_parses(fs):>12} {nodes:>13}")

    fs = parse(g, ["a"] * 40)
    texts = [tree_text(t) for t in enumerate_trees(fs, 3)]
    start = len(os.path.commonprefix(texts)) - 10
    print(f"\nthe first 3 of the {count_parses(fs)} trees of a^40, "
          f"from character {start} of {len(texts[0])}:")
    for text in texts:
        print(f"  ...{text[start:start + 50]}...")

    pump = load_grammar(PUMP)
    fs = parse(pump, ["a"])
    print(f"\nwith a unit cycle S : S | 'a' the count is {count_parses(fs)}")


if __name__ == "__main__":
    main()
