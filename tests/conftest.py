import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from derivparse import (Context, Grammar, build_graph, enumerate_language,
                        forest_to_json, grammar, load_bnf, load_grammar, parse,
                        use_context)

# deep grammars on long inputs recurse past the default limit; a test that
# must see the default limit runs its code through run_python
sys.setrecursionlimit(20000)

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args, timeout: float = 120,
               env: dict = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` (a script path, or "-c" and a
    snippet) from the repo root, with src/ on the path, the default
    recursion limit and `env` added to the environment; output is captured
    as text."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


@contextmanager
def node_budget(n: int):
    """Raise AssertionError as soon as the block creates more than n graph
    nodes, so a test of a blow-up fails fast instead of exhausting memory."""
    real = grammar._new
    created = 0

    def counted(form):
        nonlocal created
        created += 1
        if created > n:
            raise AssertionError(f"more than {n} nodes created")
        return real(form)

    grammar._new = counted
    try:
        yield
    finally:
        grammar._new = real


def load_unnormalized(src: str) -> Grammar:
    """The grammar of src as the loader builds it, before normalize_grammar
    rewrites it: load_grammar's steps, the last one left out."""
    bnf = load_bnf(src)
    with use_context(Context()) as ctx:
        root, table = build_graph(bnf)
        g = Grammar(root, bnf.start, table, bnf)
    g.counters = ctx.counters
    return g


def _parse_record(g, tokens) -> tuple:
    """(nodes created, forest_to_json with ids renumbered by rank) of one
    parse: forest ids are global, so only their order is comparable."""
    before = g.counters.nodes_created
    doc = forest_to_json(parse(g, tokens))
    rank = {n["id"]: i for i, n in enumerate(doc["nodes"])}
    nodes = [(rank[n["id"]], n["kind"], n["label"],
              [rank[c] for c in n["children"]]) for n in doc["nodes"]]
    return g.counters.nodes_created - before, rank.get(doc["root"]), nodes


def assert_history_free(src: str, inputs: list) -> None:
    """Parse each input on a fresh grammar and on one that parsed every
    input first (in reverse order): the nodes created and the forest must
    not depend on what the grammar parsed before."""
    warm = load_grammar(src)
    for tokens in reversed(inputs):
        parse(warm, tokens)
    for tokens in inputs:
        fresh = _parse_record(load_grammar(src), tokens)
        assert _parse_record(warm, tokens) == fresh, tokens


NT_POOL = ["N0", "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "N9"]
ALPHABET = "abc"


def random_grammar_source(rng: random.Random) -> str:
    """A small random grammar as loader source text.

    Shapes vary from trivially regular to mutually recursive and ambiguous;
    empty alternatives are allowed so nullable chains show up often.
    """
    n_nts = rng.randint(1, 10)
    names = NT_POOL[:n_nts]
    sigma = ALPHABET[: rng.randint(1, 3)]
    lines = [f"start = {names[0]} ;"]
    for name in names:
        alts = []
        for _ in range(rng.randint(1, 3)):
            syms = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.4:
                    syms.append(rng.choice(names))
                else:
                    syms.append(f"'{rng.choice(sigma)}'")
            alts.append(" ".join(syms))
        lines.append(f"{name} : {' | '.join(alts)} ;")
    return "\n".join(lines) + "\n"


def all_strings(sigma: str, max_len: int):
    """Every token tuple over sigma up to max_len, shortest first."""
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (t,) for w in frontier for t in sigma]
        out.extend(frontier)
    return out


@pytest.fixture
def rng():
    return random.Random(0xD0E)


WORST_SRC = "start = L ;\nL : L L | '.' ;\n"
CATALAN_SRC = "start = S ;\nS : S S | 'a' ;\n"
ARITH_SRC = (
    "start = E ;\n"
    "E : T '+' E | T ;\n"
    "T : F '*' T | F ;\n"
    "F : '-' F | '(' E ')' | 'n' ;\n"
)
# the same language, left-recursive: the shape whose derivatives build
# cycles that denote the empty language
ARITH_LEFT_SRC = (
    "start = E ;\n"
    "E : E '+' T | T ;\n"
    "T : T '*' F | F ;\n"
    "F : '-' F | '(' E ')' | 'n' ;\n"
)

DYCK_SRC = "start = P ;\nP : '(' P ')' P | ;\n"

# fixed grammars exercised corpus-wide, plus seeded random ones where a
# criterion asks for volume
FIXED_CORPUS = [
    WORST_SRC,
    CATALAN_SRC,
    ARITH_SRC,
    DYCK_SRC,
    "start = P ;\nP : 'a' P 'a' | 'b' P 'b' | 'a' | 'b' | ;\n",
    "start = S ;\nS : A A A ;\nA : 'a' | ;\n",
    "start = S ;\nS : S | 'a' ;\n",
    "start = N ;\nN : E N | 'x' ;\nE : ;\n",
]


def nested_dyck(d: int) -> list:
    return ["("] * d + [")"] * d


def nested_parens(d: int) -> list:
    """An arithmetic operand inside d parentheses."""
    return ["("] * d + ["n"] + [")"] * d


def distinct_tokens(n: int) -> list:
    return [str(i) for i in range(n)]


def expr_tokens(n: int) -> list:
    """An arithmetic token stream of exactly n tokens (n even)."""
    toks = ["-", "n"]
    ops = ["+", "*"]
    i = 0
    while len(toks) < n:
        toks.extend([ops[i % 2], "n"])
        i += 1
    assert len(toks) == n
    return toks


def mixed_expression(rng: random.Random, n: int, max_depth: int = 4) -> list:
    """A valid arithmetic expression of about n tokens: operands 'n', binary
    '+' and '*', unary '-', parentheses nested at most max_depth deep."""
    out: list = []
    depth = 0
    while True:
        while True:
            r = rng.random()
            if r < 0.1:
                out.append("-")
            elif r < 0.25 and depth < max_depth:
                out.append("(")
                depth += 1
            else:
                out.append("n")
                break
        while depth and rng.random() < 0.5:
            out.append(")")
            depth -= 1
        if len(out) + depth >= n:
            break
        out.append(rng.choice("+*"))
    out.extend(")" * depth)
    return out


def probe_words(bg, extra_sigma: str) -> list:
    """Up to 40 shortest words of the language, then up to 15 words over
    extra_sigma that it rejects."""
    words = sorted(enumerate_language(bg, 4), key=lambda w: (len(w), w))
    rejected = [w for w in all_strings(extra_sigma, 3) if w not in set(words)]
    return words[:40] + rejected[:15]
