"""The three performance mechanisms, toggled one at a time.

Each switch changes work counts, never answers: the accelerated nullability
fixed point vs full recomputation, the full derivative memo (every token's
derivative kept per node, the default) vs the paper's one-slot cache, and
construction-time compaction vs raw construction.  Compaction also derives
a directly left-recursive rule through the right-recursive twin the loader
builds for it; without compaction the rule is derived as written.

Run:  python3 demos/04_engine_switches.py
"""

import sys

from derivparse import load_grammar, recognize

# without compaction the derived graph gets deep; recursive walks need room
sys.setrecursionlimit(20000)

ARITH = """
start = E ;
E : T '+' E | T ;
T : F '*' T | F ;
F : '-' F | '(' E ')' | 'n' ;
"""

# the same language, left-recursive
ARITH_LEFT = """
start = E ;
E : E '+' T | T ;
T : T '*' F | F ;
F : '-' F | '(' E ')' | 'n' ;
"""


def tokens(n: int) -> list:
    toks = ["-", "n"]
    ops = ["+", "*"]
    i = 0
    while len(toks) < n:
        toks.extend([ops[i % 2], "n"])
        i += 1
    return toks


def run(n: int, src: str = ARITH, toks: list = None, **settings) -> dict:
    g = load_grammar(src)
    for k, v in settings.items():
        setattr(g.settings, k, v)
    g.counters.reset()
    toks = toks or tokens(n)
    ok = recognize(g, toks)
    c = g.counters
    return {
        "accept": ok,
        "nodes": c.nodes_created,
        "uncached": c.derive_calls_uncached,
        "cached": c.derive_calls_cached,
        "visits": c.nullable_visits,
    }


def show(label: str, stats: dict) -> None:
    print(f"  {label:28} nodes={stats['nodes']:<7} uncached={stats['uncached']:<7} "
          f"cached={stats['cached']:<7} visits={stats['visits']}")
    assert stats["accept"]


def main() -> None:
    n = 600
    print(f"arithmetic grammar, {n} tokens\n")
    print("nullability:")
    fast, naive = run(n), run(n, naive_nullability=True)
    show("accelerated fixed point", fast)
    show("full recomputation", naive)
    # the switch changes nullability work only: the same nodes and derivatives
    for k in ("nodes", "uncached", "cached"):
        assert fast[k] == naive[k], (k, fast[k], naive[k])
    print("derivative cache:")
    show("full memo (default)", run(n))
    show("single slot (--memo single)", run(n, memo_full=False))
    print("compaction:")
    show("on", run(n))
    show("off", run(n, compaction=False))
    # the twin of a left-recursive rule is right-recursive: flat input and
    # nesting cost at most 10 nodes more than on the right-recursive grammar
    nested = ["("] * 100 + ["n"] + [")"] * 100
    for label, toks in ((f"{n} tokens", tokens(n)),
                        (f"{len(nested)} tokens nested", nested)):
        print(f"compaction, left-recursive grammar, {label}:")
        on = run(n, ARITH_LEFT, toks)
        off = run(n, ARITH_LEFT, toks, compaction=False)
        right = run(n, ARITH, toks)
        show("on", on)
        show("off", off)
        assert on["nodes"] - right["nodes"] <= 10, (on, right)


if __name__ == "__main__":
    main()
