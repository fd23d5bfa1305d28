"""Both nullability engines: base cases, cycles, and cross-agreement."""

import random
import sys

import pytest

from derivparse import Context, derive, is_nullable, load_grammar, use_context
from derivparse.forest import ForestSet
from derivparse.grammar import (
    NV_NOT, NV_NULLABLE, NV_UNKNOWN, ParserSettings, mk_alt, mk_eps, mk_seq,
    mk_token, new_alt, new_red, new_seq, reachable_nodes,
)
from derivparse.nullability import is_nullable_naive
from conftest import (
    ARITH_INDIRECT_SRC, load_unnormalized, mk_empty, probe_words,
    random_grammar_source,
)


EPS_TREES = ForestSet.single_leaf("_")


@pytest.mark.parametrize("naive", [False, True])
def test_base_cases(naive):
    fn = is_nullable_naive if naive else is_nullable
    with use_context(Context(settings=ParserSettings(naive_nullability=naive))):
        assert fn(mk_eps(EPS_TREES))
        assert not fn(mk_token("a"))
        assert not fn(mk_empty())


@pytest.mark.parametrize("naive", [False, True])
def test_composed_cases(naive):
    fn = is_nullable_naive if naive else is_nullable
    with use_context(Context(settings=ParserSettings(naive_nullability=naive))):
        a = mk_token("a")
        e = mk_eps(EPS_TREES)
        assert not fn(mk_seq(a, mk_token("b")))
        assert fn(mk_alt(a, e))
        assert not fn(mk_alt(a, mk_empty()))
        assert fn(mk_seq(e, mk_eps(EPS_TREES)))
        assert not fn(mk_seq(e, a))


@pytest.mark.parametrize("naive", [False, True])
def test_cyclic_grammars(naive):
    cases = [
        ("start = S ;\nS : '(' S ')' S | ;", True),    # nullable base
        ("start = S ;\nS : S S | 'a' ;", False),       # no empty word
        ("start = S ;\nS : S | 'a' ;", False),         # useless self loop
        ("start = S ;\nS : A ;\nA : S | ;", True),     # mutual recursion
        ("start = S ;\nS : S ;", False),               # denotes the empty set
    ]
    for src, expect in cases:
        g = load_unnormalized(src)
        g.settings.naive_nullability = naive
        with g.activate():
            fn = is_nullable_naive if naive else is_nullable
            assert fn(g.root) == expect, src


@pytest.mark.parametrize("naive", [False, True])
def test_a_query_that_reaches_an_unfilled_shell_raises_and_decides_nothing(
        naive):
    fn = is_nullable_naive if naive else is_nullable
    error = KeyError if naive else ValueError
    with use_context(Context(settings=ParserSettings(naive_nullability=naive))):
        for shell in (new_alt(None, None), new_seq(None, mk_eps(EPS_TREES)),
                      new_red(None, None)):
            # through a parent whose other child is nullable, and
            # through a cycle p = alt(q, shell), q = red(p)
            parent = new_alt(new_red(mk_eps(EPS_TREES), None), shell)
            p = new_alt(None, shell)
            q = new_red(p, None)
            p.left = q
            nodes = reachable_nodes(parent) + reachable_nodes(q)
            before = [n.n_value for n in nodes]
            for top in (shell, parent, q):
                with pytest.raises(error):
                    fn(top)
                assert [n.n_value for n in nodes] == before


def test_a_deep_chain_and_a_long_cycle_are_decided_without_recursion():
    n = 100_000
    assert sys.getrecursionlimit() < n
    with use_context(Context()):
        a = mk_token("a")
        chain = [mk_eps(EPS_TREES)]
        for _ in range(n):
            chain.append(new_alt(chain[-1], a))
        assert chain[-1].n_value == NV_UNKNOWN
        assert is_nullable(chain[-1])
        assert all(x.n_value == NV_NULLABLE for x in chain)
        ring = [new_alt(None, a) for _ in range(n)]
        for x, y in zip(ring, ring[1:] + ring[:1]):
            x.left = y
        assert not is_nullable(ring[0])
        assert all(x.n_value == NV_NOT for x in ring)


@pytest.mark.parametrize("backward", [False, True])
def test_engines_agree_on_every_node_of_every_derivative(backward):
    # queried root first, one walk from the top decides a derivative's
    # nodes; queried in reverse, each walk starts over nodes that earlier
    # queries decided
    rng = random.Random(41)
    cases = [(random_grammar_source(rng), "abc") for _ in range(100)]
    cases.append((ARITH_INDIRECT_SRC, "n+*()"))
    queries = 0
    for src, sigma in cases:
        g = load_grammar(src)
        for w in probe_words(g.bnf, sigma):
            with g.activate():
                node = g.root
                for tok in (None,) + w:
                    if tok is not None:
                        node = derive(node, tok)
                    nodes = reachable_nodes(node)
                    if backward:
                        nodes.reverse()
                    for n in nodes:
                        assert is_nullable(n) == is_nullable_naive(n), (
                            src, w, tok)
                    queries += len(nodes)
    assert queries > 10_000


def test_engines_agree_on_random_grammars():
    rng = random.Random(17)
    for _ in range(150):
        src = random_grammar_source(rng)
        g = load_unnormalized(src)
        with g.activate():
            want = {name: is_nullable_naive(n)
                    for name, n in g.nonterminal_table.items()}
            got = {name: is_nullable(n)
                   for name, n in g.nonterminal_table.items()}
        assert got == want, src


def test_optimized_engine_reuses_settled_answers():
    g = load_unnormalized("start = S ;\nS : '(' S ')' S | ;")
    with g.activate():
        assert is_nullable(g.root)
        first = g.counters.nullable_visits
        assert is_nullable(g.root)
        assert g.counters.nullable_visits == first  # settled, no revisit


def test_naive_engine_recomputes_each_query():
    g = load_unnormalized("start = S ;\nS : '(' S ')' S | ;")
    g.settings.naive_nullability = True
    with g.activate():
        assert is_nullable_naive(g.root)
        first = g.counters.nullable_visits
        assert is_nullable_naive(g.root)
        assert g.counters.nullable_visits > first


def test_optimized_never_visits_more_than_naive():
    rng = random.Random(99)
    for _ in range(40):
        src = random_grammar_source(rng)
        g1 = load_unnormalized(src)
        with g1.activate():
            for n in g1.nonterminal_table.values():
                is_nullable(n)
            opt = g1.counters.nullable_visits
        g2 = load_unnormalized(src)
        g2.settings.naive_nullability = True
        with g2.activate():
            for n in g2.nonterminal_table.values():
                is_nullable_naive(n)
            naive = g2.counters.nullable_visits
        assert opt <= naive, src
