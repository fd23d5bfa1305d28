"""The engine's tree sets against an independent tree oracle.

oracle_trees reads the rules as written, the BnfGrammar that load_bnf
makes of the same source, and shares no code with the engine: not its
loader's factoring or twins, not parse_null, not the reductions or their
applier.  It takes its spans from the Earley chart's completed items
(oracle._chart), as earley_count does, so it reaches the spans the counter
reaches.  The engine's order is not compared here: the README promises
only the order cases it states, which tests/test_forest.py pins.
"""

import functools
import random
import time

import pytest

from derivparse import (
    INFINITE, earley_count, enumerate_trees, load_bnf, parse, tree_text,
)
from derivparse.grammar import WILDCARD
from derivparse.oracle import Term, _chart
from conftest import (
    FIXED_CORPUS, SWITCH_IDS, SWITCHES, WILDCARD_CASES, all_strings,
    random_grammar_source, switched_grammar, unit_grammar_source,
)


def oracle_trees(bnf, tokens: list) -> list:
    """The tree_text of every derivation tree of `tokens` by the rules as
    written, one per derivation: a tree that two equal alternatives derive
    is listed twice, so the list is as long as earley_count.  A tree is
    name[children], a terminal's child the token it matched.

    Exact on a word whose count is finite.  Each path down a derivation
    carries the chart items (name, i, j) it is inside, and an item met again
    on its own path gives nothing: in a finite count's trees no item lies
    inside itself, or it would pump.  What an item gives depends on that
    path, so nothing is memoized."""
    ends = _chart(bnf, tokens)

    def item(name: str, i: int, j: int, path: frozenset) -> list:
        if (name, i, j) in path:
            return []
        path = path | {(name, i, j)}
        return [f"{name}[{' '.join(kids)}]"
                for rhs in bnf.productions[name]
                for kids in rest(rhs, 0, i, j, path)]

    def rest(rhs: tuple, k: int, p: int, j: int, path: frozenset) -> list:
        """Every way rhs[k:] derives tokens[p:j], as tuples of child texts."""
        if k == len(rhs):
            return [()] if p == j else []
        sym = rhs[k]
        if type(sym) is Term:
            if p < j and sym.label in (tokens[p], WILDCARD):
                return [(tokens[p], *r)
                        for r in rest(rhs, k + 1, p + 1, j, path)]
            return []
        out = []
        for q in sorted(ends.get((sym.name, p), ())):
            tails = rest(rhs, k + 1, q, j, path) if q <= j else []
            if tails:
                out += [(t, *r) for t in item(sym.name, p, q, path)
                        for r in tails]
        return out

    if len(tokens) not in ends.get((bnf.start, 0), ()):
        return []
    return item(bnf.start, 0, len(tokens), frozenset())


MAX_TREES = 200


@functools.cache
def _corpus() -> tuple:
    """(source, ((word, oracle trees), ...)) for criterion 1's grammar
    families: FIXED_CORPUS, and at seeds 7 and 8 200 random and 200
    unit-heavy grammars, each with every word over abc of at most 5 tokens
    whose Earley count is finite and from 1 to MAX_TREES.  The oracle's
    list is as long as that count on each word."""
    sources = list(FIXED_CORPUS)
    for seed in (7, 8):
        rng = random.Random(seed)
        sources += [random_grammar_source(rng) for _ in range(200)]
        sources += [unit_grammar_source(rng) for _ in range(200)]
    words = all_strings("abc", 5)
    corpus = []
    for src in sources:
        bnf = load_bnf(src)
        cases = []
        for w in map(list, words):
            count = earley_count(bnf, w)
            if count is not INFINITE and 1 <= count <= MAX_TREES:
                trees = oracle_trees(bnf, w)
                assert len(trees) == count, (src, w)
                cases.append((w, trees))
        corpus.append((src, tuple(cases)))
    return tuple(corpus)


def _engine_texts(g, word: list, n: int) -> set:
    """The tree_text of each tree the engine enumerates for word, asked
    for one more than the n it should have."""
    return {tree_text(t) for t in enumerate_trees(parse(g, word), n + 1)}


@pytest.mark.parametrize("switches", SWITCHES, ids=SWITCH_IDS)
def test_tree_sets_equal_the_oracles(switches):
    _corpus()  # drawn once, for every switch
    t0 = time.perf_counter()
    words = wildcard = 0
    for src, cases in _corpus():
        g = switched_grammar(src, switches)
        for w, trees in cases:
            assert _engine_texts(g, w, len(trees)) == set(trees), (src, w)
        words += len(cases)
    assert words >= 2511, words
    # a wildcard grammar derives the tokens it does not name by one class
    for src, wildcard_words in WILDCARD_CASES:
        bnf = load_bnf(src)
        g = switched_grammar(src, switches)
        for w in wildcard_words:
            trees = oracle_trees(bnf, w)
            assert len(trees) == earley_count(bnf, w), (src, w)
            assert _engine_texts(g, w, len(trees)) == set(trees), (src, w)
        wildcard += len(wildcard_words)
    print(f"tree sets equal the oracle's on {words} corpus words and "
          f"{wildcard} wildcard words in {time.perf_counter() - t0:.1f}s")
