"""Both nullability engines: base cases, cycles, and cross-agreement."""

import random

import pytest

from derivparse import Context, is_nullable, use_context
from derivparse.forest import ForestSet
from derivparse.grammar import (
    NV_UNKNOWN, ParserSettings, mk_alt, mk_eps, mk_seq, mk_token,
    new_alt, new_red, new_seq,
)
from derivparse.nullability import is_nullable_naive
from conftest import load_unnormalized, mk_empty, random_grammar_source


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
def test_an_unfilled_shell_is_assumed_not_nullable_and_nothing_is_cached(naive):
    fn = is_nullable_naive if naive else is_nullable
    with use_context(Context(settings=ParserSettings(naive_nullability=naive))):
        shells = [new_alt(None, None), new_seq(None, mk_eps(EPS_TREES)),
                  new_red(None, None)]
        for shell in shells:
            parent = mk_alt(mk_token("a"), shell)
            assert not fn(shell) and not fn(parent)
            assert shell.n_value == NV_UNKNOWN
            # filled later, as the derivative engine fills its shells
            shell.left = mk_eps(EPS_TREES)
            if shell.right is None and shell.fn is None:
                shell.right = mk_token("b")
            assert fn(shell)


def test_a_verdict_that_leaned_on_an_unfilled_shell_is_not_kept():
    # the query's assumptions are no fixed point of the filled graph, so a
    # later query must not promote them to final verdicts
    with use_context(Context()):
        shell = new_red(None, None)
        p = new_alt(mk_token("a"), shell)
        assert not is_nullable(p)
        assert not is_nullable(p)
        shell.left = mk_eps(EPS_TREES)
        assert is_nullable(p)
        # an assumption that meets the shell only through a cycle
        shell = new_red(None, None)
        p = new_alt(None, shell)
        q = new_red(p, None)
        p.left = q
        assert not is_nullable(q)
        assert not is_nullable(q)
        shell.left = mk_eps(EPS_TREES)
        assert is_nullable(q)


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
