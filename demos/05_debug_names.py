"""Debug names: watch which input span each derived node covers.

With names enabled, every node the engine builds carries its origin: a base
symbol for nodes present before any input, then one appended token label per
derivative taken.  A bullet records the single split a nullable
concatenation head may introduce.  The engine cross-checks every memo hit
against the name it would have minted, so a run that completes has verified
the discipline on every hit.  Names build the same graph as --compaction off,
so a named parse gives that engine's answers.

Run:  python3 demos/05_debug_names.py
"""

from collections import Counter

from derivparse import derive, is_nullable, load_grammar, reachable_nodes


def main() -> None:
    # the grammar names each token: under a wildcard, a token it does not
    # name would derive by the wildcard's class, and names would carry '.'
    g = load_grammar("start = S ;\nS : S S | 'a' | 'b' | 'c' | 'd' | 'e' | 'f' ;")
    g.settings.debug_names = True
    toks = list("abcdef")
    word = "".join(toks)

    # the activation names the grammar's nodes; every node reachable from a
    # derivative is collected, token by token
    named = {}
    with g.activate():
        node = g.root
        for c in toks:
            node = derive(node, c)
            for n in reachable_nodes(node):
                if n.name is not None:
                    named[n] = n.name
        assert is_nullable(node)
    print(f"{len(named)} named nodes reached while consuming {word!r}\n")

    spans = Counter("".join(nm.parts) for nm in named.values())
    print("by the input span a name covers:")
    print(f"  {'span length':>11} {'spans':>5} {'nodes':>5}")
    for k in range(len(toks) + 1):
        runs = [s for s in spans if len(s) == k]
        print(f"  {k:>11} {len(runs):>5} {sum(spans[s] for s in runs):>5}")

    assert all(s in word for s in spans)
    assert all(nm.text().count("•") <= 1 for nm in named.values())
    marks = sum(nm.mark is not None for nm in named.values())
    print(f"\nnames carrying a split marker: {marks}")
    print("every name's token labels are one contiguous run of the input,")
    print("and no name carries two markers.")


if __name__ == "__main__":
    main()
