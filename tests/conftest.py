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
from derivparse.instrumentation import FORM_NAMES

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def default_recursion_limit():
    """Each test starts at the interpreter's default recursion limit:
    cli.main raises it in-process, and the raised limit would otherwise
    last for the rest of the session."""
    sys.setrecursionlimit(1000)


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
def _watch_new(seen):
    """Call seen(node) on every graph node the block creates."""
    real = grammar._new

    def watched(form):
        node = real(form)
        seen(node)
        return node

    grammar._new = watched
    try:
        yield
    finally:
        grammar._new = real


@contextmanager
def node_budget(n: int):
    """Raise AssertionError as soon as the block creates more than n graph
    nodes, so a test of a blow-up fails fast instead of exhausting memory."""
    created = 0

    def count(node):
        nonlocal created
        created += 1
        if created > n:
            raise AssertionError(f"more than {n} nodes created")

    with _watch_new(count):
        yield


@contextmanager
def created_nodes():
    """The list of every graph node the block creates, in creation order."""
    made = []
    with _watch_new(made.append):
        yield made


def load_unnormalized(src: str) -> Grammar:
    """The grammar of src as the loader builds it, before normalize_grammar
    rewrites it: load_grammar's steps, the last one left out."""
    bnf = load_bnf(src)
    with use_context(Context()) as ctx:
        root, table = build_graph(bnf)
        g = Grammar(root, bnf.start, table, bnf)
    g.counters = ctx.counters
    return g


def mk_empty() -> grammar.GrammarNode:
    """A new Empty node, counted as created.  The engine builds none: every
    failed derivative is the one grammar.SHARED_EMPTY."""
    n = grammar._new(grammar.EMPTY)
    n.n_value = grammar.NV_NOT
    n.never_null = True
    return n


def describe_node(n: grammar.GrammarNode, *, max_depth: int = 6) -> str:
    """A short structural sketch, cycle-safe.  Inner nodes are numbered in
    the order the sketch first meets them, and a node met again on its own
    path prints as its number."""
    num: dict = {}

    def go(x: grammar.GrammarNode, depth: int, seen: frozenset) -> str:
        if x in seen:
            return f"#{num[x]}"
        if depth >= max_depth:
            return "..."
        f = x.form
        if f == grammar.EMPTY:
            return "{}"
        if f == grammar.EPSILON:
            return "eps"
        if f == grammar.TOKEN:
            return repr(x.label)
        i = num.setdefault(x, len(num) + 1)
        s = seen | {x}
        kids = " ".join(go(c, depth + 1, s) for c in (x.left, x.right)
                        if c is not None)
        return f"({FORM_NAMES[f]}#{i} {kids})"

    return go(n, 0, frozenset())


def _parse_record(g, tokens) -> tuple:
    """(nodes created, forest_to_json) of one parse."""
    before = g.counters.nodes_created
    doc = forest_to_json(parse(g, tokens))
    return g.counters.nodes_created - before, doc


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


def unit_grammar_source(rng: random.Random) -> str:
    """A random grammar in which unit and empty alternatives dominate:
    1-5 rules of 1-4 alternatives of 0-3 symbols, 60% of them references,
    over the terminals a and b.  Same-span cycles, the ones that pump
    infinitely many trees, are common here and rare in
    random_grammar_source's shapes."""
    names = NT_POOL[:rng.randint(1, 5)]
    lines = [f"start = {names[0]} ;"]
    for name in names:
        alts = [" ".join(rng.choice(names) if rng.random() < 0.6
                         else f"'{rng.choice('ab')}'"
                         for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 4))]
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
# the same language, left-recursive: as written, the shape whose
# derivatives build cycles that denote the empty language; the loader
# gives E and T right-recursive twins
ARITH_LEFT_SRC = (
    "start = E ;\n"
    "E : E '+' T | T ;\n"
    "T : T '*' F | F ;\n"
    "F : '-' F | '(' E ')' | 'n' ;\n"
)
# the same language, left-recursive through a unit rule: no rule is
# directly left-recursive, so the loader builds no twin, and derivatives
# build the cycles that ARITH_LEFT_SRC's rules as written do
ARITH_INDIRECT_SRC = (
    "start = E ;\n"
    "E : X '+' T | T ;\n"
    "X : E ;\n"
    "T : Y '*' F | F ;\n"
    "Y : T ;\n"
    "F : '-' F | '(' E ')' | 'n' ;\n"
)

DYCK_SRC = "start = P ;\nP : '(' P ')' P | ;\n"

# cyclic and nullable: the empty word's forest is cyclic, and its shape
# depends on the node at which the empty-word extraction enters the cycle
NULL_CYCLE_SRC = "start = N0 ;\nN0 : N0 N0 | N0 'b' | ;\n"

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
