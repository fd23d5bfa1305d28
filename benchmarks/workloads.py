"""Seeded inputs and expected answers for the four benchmark workloads.

Everything here is made from a `random.Random` the caller seeds; the engine
under test only ever sees grammar text and token lists.  Expected answers
never come from the derivative engine: they are fixed by construction
(valid or invalid-by-construction expressions, balanced Dyck words, Catalan
closed forms) or, for random grammars, computed by the Earley oracle before
anything is timed.

Sizes follow fixed ladders, and the seed only picks the tokens, so two seeds
give inputs of the same shape and their timings can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from derivparse import INFINITE, earley_count, earley_recognize, load_bnf

# the right-recursive grammar of demos/04_engine_switches.py
ARITH_RIGHT = """start = E ;
E : T '+' E | T ;
T : F '*' T | F ;
F : '-' F | '(' E ')' | 'n' ;
"""

ARITH_LEFT = """start = E ;
E : E '+' T | T ;
T : T '*' F | F ;
F : '-' F | '(' E ')' | 'n' ;
"""

DYCK = """start = P ;
P : '(' P ')' P | ;
"""

CATALAN_SS = """start = S ;
S : S S | 'a' ;
"""

AMBIGUOUS_ARITH = """start = E ;
E : E '+' E | E '*' E | 'n' ;
"""

CATALAN_LL = """start = L ;
L : L L | '.' ;
"""

OPS = ("+", "*")

# enumerate_trees(fs, ENUMERATE_K) on ambiguous forests
ENUMERATE_K = 10


@dataclass
class Request:
    """One request: what to run, on which grammar, and the expected answer.

    kind is "parse" (parse, count, JSON), "ambiguous" (parse, count,
    ENUMERATE_K trees, JSON), "one_tree" (parse, one tree), "word" (parse,
    count) or "verdict" (parse only).  count may be derivparse.INFINITE for
    random grammars.
    """

    kind: str
    grammar: str
    tokens: list
    accept: bool
    count: object


@dataclass
class Workload:
    name: str
    grammars: dict            # grammar key -> source text
    requests: list
    ablation: list            # the fixed mid-size input(s) of the ablation


# --- token generators --------------------------------------------------------

def log_ladder(lo: int, hi: int, k: int) -> list:
    """k lengths spaced evenly in log scale from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (k - 1))) for i in range(k)]


def expression(rng: random.Random, n: int, max_depth: int = 4) -> list:
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
        out.append(rng.choice(OPS))
    out.extend(")" * depth)
    return out


def invalid_expression(rng: random.Random, n: int) -> list:
    """An expression with one binary operator doubled, near its middle.

    A binary operator must be followed by an operand, so the result is
    rejected by both arithmetic grammars."""
    toks = expression(rng, n)
    ops = [i for i, t in enumerate(toks) if t in OPS]
    if not ops:
        return toks + ["+", "*", "n"]
    middle = [i for i in ops if 0.4 * len(toks) <= i <= 0.6 * len(toks)]
    i = rng.choice(middle or ops)
    return toks[:i + 1] + [rng.choice(OPS)] + toks[i + 1:]


def nested_dyck(n: int) -> list:
    """n // 2 opening then n // 2 closing parentheses: the nested Dyck word
    on which the engine's node count grows quadratically.  It has no random
    part, so it adds nothing to the spread between seeds."""
    return ["("] * (n // 2) + [")"] * (n // 2)


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def ambiguous(rng: random.Random, family: str, n: int) -> Request:
    """n leaves under one of the three Catalan grammars: every binary
    bracketing is a distinct tree, so there are catalan(n - 1)."""
    if family == "catalan_ss":
        toks = ["a"] * n
    elif family == "ambiguous_arith":
        toks = ["n"]
        for _ in range(n - 1):
            toks += [rng.choice(OPS), "n"]
    else:
        toks = [f"w{i}" for i in rng.sample(range(10 ** 6), n)]
    return Request("ambiguous", family, toks, True, catalan(n - 1))


def _expression_request(rng, grammar: str, n: int, invalid: bool) -> Request:
    if invalid:
        return Request("parse", grammar, invalid_expression(rng, n), False, 0)
    return Request("parse", grammar, expression(rng, n), True, 1)


# --- random grammars ---------------------------------------------------------

NT_POOL = ["N0", "N1", "N2", "N3", "N4", "N5", "N6", "N7", "N8", "N9"]
ALPHABET = "abc"


def random_grammar(rng: random.Random, n_names: int, n_sigma: int) -> tuple:
    """(source, rules, sigma): a small random grammar over n_names
    nonterminals and n_sigma terminals, the shapes of the test suite's
    generator (empty alternatives, left and mutual recursion, unit cycles,
    infinite ambiguity).  rules maps each name to its alternatives, each a
    list of ("nt", name) / ("t", label) symbols."""
    names = NT_POOL[:n_names]
    sigma = ALPHABET[:n_sigma]
    rules: dict = {}
    lines = [f"start = {names[0]} ;"]
    for name in names:
        alts = []
        for _ in range(rng.randint(1, 3)):
            syms = []
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.4:
                    syms.append(("nt", rng.choice(names)))
                else:
                    syms.append(("t", rng.choice(sigma)))
            alts.append(syms)
        rules[name] = alts
        text = " | ".join(
            " ".join(s if k == "nt" else f"'{s}'" for k, s in alt) for alt in alts
        )
        lines.append(f"{name} : {text} ;")
    return "\n".join(lines) + "\n", rules, sigma


def sample_word(rng: random.Random, rules: dict, start: str, max_len: int):
    """A word of the grammar's language by random leftmost expansion, or None
    when a few attempts all run past max_len tokens or 200 expansions."""
    for _ in range(8):
        out: list = []
        stack = [("nt", start)]
        steps = 0
        while stack and len(out) <= max_len and steps < 200:
            kind, sym = stack.pop()
            if kind == "t":
                out.append(sym)
            else:
                steps += 1
                stack.extend(reversed(rng.choice(rules[sym])))
        if not stack and len(out) <= max_len:
            return out
    return None


def grammar_words(rng: random.Random, rules: dict, sigma: str, k: int = 10,
                  max_len: int = 12) -> list:
    """k short words: half sampled from the language where that succeeds,
    the rest uniform strings over sigma, of lengths spread evenly over
    0..max_len."""
    words = []
    for i in range(k):
        w = sample_word(rng, rules, NT_POOL[0], max_len) if i % 2 == 0 else None
        if w is None:
            w = [rng.choice(sigma) for _ in range(round(i * max_len / (k - 1)))]
        words.append(w)
    return words


# Counting is exponential at this commit (ROADMAP baseline): on a few random
# grammars in a hundred, one count of a word of 6-12 tokens takes seconds to
# minutes, which no bounded run survives, and the 1% of words with more than
# COUNT_LIMIT trees take as long to count as all the others together, so
# which of them a seed draws would decide its figures.  Random-grammar words
# are counted when the oracle's count is at most COUNT_LIMIT, or Infinite on
# a word of at most INFINITE_MAX_TOKENS tokens (measured worst case a few
# milliseconds); other words are parsed and their verdict checked.
# forest_consumers measures the counting defect itself, at sizes that end.
COUNT_LIMIT = 10
INFINITE_MAX_TOKENS = 4


def _word_request(key: str, bnf, word: list) -> Request:
    count = earley_count(bnf, word)
    counted = (len(word) <= INFINITE_MAX_TOKENS if count is INFINITE
               else count <= COUNT_LIMIT)
    return Request("word" if counted else "verdict", key, word,
                   earley_recognize(bnf, word), count)


# --- workloads ---------------------------------------------------------------

def arith_right(rng: random.Random) -> Workload:
    reqs = [_expression_request(rng, "arith_right", n, i % 10 == 5)
            for i, n in enumerate(log_ladder(200, 2500, 100))]
    rng.shuffle(reqs)
    return Workload(
        "arith_right", {"arith_right": ARITH_RIGHT}, reqs,
        ablation=[Request("parse", "arith_right", expression(rng, 150), True, 1)],
    )


def left_nested(rng: random.Random) -> Workload:
    reqs = [_expression_request(rng, "arith_left", n, i % 10 == 5)
            for i, n in enumerate(log_ladder(40, 160, 50))]
    reqs += [Request("parse", "dyck", nested_dyck(n), True, 1)
             for n in log_ladder(40, 320, 50)]
    rng.shuffle(reqs)
    return Workload(
        "left_nested", {"arith_left": ARITH_LEFT, "dyck": DYCK}, reqs,
        ablation=[Request("parse", "arith_left", expression(rng, 100), True, 1)],
    )


def forest_consumers(rng: random.Random) -> Workload:
    families = ("catalan_ss", "ambiguous_arith", "catalan_ll")
    reqs = [ambiguous(rng, fam, n)
            for fam in families for n in range(4, 12) for _ in range(2)]
    reqs += [Request("one_tree", "arith_right", expression(rng, n), True, 1)
             for n in log_ladder(100, 600, 52)]
    rng.shuffle(reqs)
    grammars = {"catalan_ss": CATALAN_SS, "ambiguous_arith": AMBIGUOUS_ARITH,
                "catalan_ll": CATALAN_LL, "arith_right": ARITH_RIGHT}
    return Workload("forest_consumers", grammars, reqs,
                    ablation=[ambiguous(rng, "catalan_ll", 8)])


def random_grammars(rng: random.Random, n_grammars: int = 200) -> Workload:
    """A fixed corpus of random grammars, and words drawn with `rng`.

    Grammar i has 1 + i % 10 nonterminals and 1 + (i // 10) % 3 terminals.
    The corpus comes from one fixed seed, as the other workloads use fixed
    grammars: drawing the grammars from the run's seed moved tokens_per_s
    by half between seeds, because a few grammars in a hundred cost more to
    parse than all the rest."""
    corpus = random.Random("random_grammars:corpus")
    grammars = {}
    reqs = []
    for gi in range(n_grammars):
        key = f"g{gi}"
        source, rules, sigma = random_grammar(corpus, 1 + gi % 10, 1 + (gi // 10) % 3)
        grammars[key] = source
        bnf = load_bnf(source)
        reqs += [_word_request(key, bnf, w)
                 for w in grammar_words(rng, rules, sigma)]
    # the ablation takes the words of g9, the first grammar of 10 nonterminals
    return Workload("random_grammars", grammars, reqs,
                    ablation=[r for r in reqs if r.grammar == "g9"])


WORKLOADS = {
    "arith_right": arith_right,
    "left_nested": left_nested,
    "forest_consumers": forest_consumers,
    "random_grammars": random_grammars,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def growth_ladders(rng: random.Random) -> dict:
    """Valid inputs of doubling length for the node-growth exponents:
    (grammar source, [token lists]) per input family."""
    return {
        "arith_right": (ARITH_RIGHT, [expression(rng, n) for n in (500, 1000, 2000, 4000)]),
        "arith_left": (ARITH_LEFT, [expression(rng, n) for n in (50, 100, 200, 400)]),
        "dyck": (DYCK, [nested_dyck(n) for n in (50, 100, 200, 400)]),
    }
