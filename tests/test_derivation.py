"""Token-derivative engine: semantics, sharing, memo policy, cyclic graphs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from derivparse import (
    ALT, SEQ,
    Context, ForestSet, Leaf, NamingError, ParserSettings,
    derive, fresh_name, is_nullable, load_grammar, mk_empty, mk_eps, mk_token,
    name_node, recognize, use_context,
)
from derivparse.grammar import new_alt, new_seq
from derivparse.instrumentation import EXTEND, MARK_EXTEND
from conftest import all_strings, random_grammar_source


def _lang(src: str, max_len: int = 4, sigma: str = "ab") -> set:
    g = load_grammar(src)
    return {w for w in all_strings(sigma, max_len) if recognize(g, list(w))}


def test_token_derivative_accepts_exactly_its_label():
    g = load_grammar("start = A ;\nA : 'a' ;")
    assert recognize(g, ["a"])
    assert not recognize(g, ["b"])
    assert not recognize(g, [])
    assert not recognize(g, ["a", "a"])


def test_sequence_derivative_splits_on_nullable_head():
    # A's head can vanish, so 'b' alone must be accepted
    lang = _lang("start = A ;\nA : B 'b' ;\nB : 'a' | ;")
    assert lang == {("b",), ("a", "b")}


def test_choice_derivative_is_union():
    lang = _lang("start = A ;\nA : 'a' 'a' | 'a' 'b' | 'b' ;")
    assert lang == {("a", "a"), ("a", "b"), ("b",)}


def test_nested_nullables():
    lang = _lang("start = A ;\nA : B C ;\nB : 'a' | ;\nC : 'b' | ;", max_len=2)
    assert lang == {(), ("a",), ("b",), ("a", "b")}


def test_left_recursion():
    lang = _lang("start = L ;\nL : L 'a' | 'a' ;", max_len=5, sigma="a")
    assert lang == {tuple("a" * k) for k in range(1, 6)}


def test_right_recursion():
    lang = _lang("start = R ;\nR : 'a' R | 'a' ;", max_len=5, sigma="a")
    assert lang == {tuple("a" * k) for k in range(1, 6)}


def test_palindromes():
    g = load_grammar("start = P ;\nP : 'a' P 'a' | 'b' P 'b' | 'a' | 'b' | ;")
    for w in all_strings("ab", 6):
        assert recognize(g, list(w)) == (w == w[::-1]), w


def test_derivative_of_cyclic_node_references_itself():
    # hand-built L = Alt(Seq(L, L), 'a'); the derivative graph must close the
    # knot: D(L).left is the derivative of the Seq, whose left child is D(L)
    with use_context(Context()):
        knot = new_alt(None, None)
        knot.in_progress = True
        body = new_seq(knot, knot)
        knot.left = body
        knot.right = mk_token("a")
        knot.in_progress = False
        d = derive(knot, "a")
        assert d.form == ALT
        assert d.left.form == SEQ
        assert d.left.left is d


def test_derivative_is_memoized_per_node():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    with g.activate():
        d1 = derive(g.root, "a")
        hits_before = g.counters.derive_calls_cached
        d2 = derive(g.root, "a")
    assert d1 is d2
    assert g.counters.derive_calls_cached == hits_before + 1


def test_single_entry_cache_evicts_on_new_token():
    g = load_grammar("start = S ;\nS : S S | 'a' 'b' ;")
    assert not g.settings.memo_full
    with g.activate():
        base = g.root
        da = derive(base, "a")
        uncached = g.counters.derive_calls_uncached
        db = derive(base, "b")       # evicts the "a" entry
        assert db is not da
        da2 = derive(base, "a")      # must rebuild
        assert g.counters.derive_calls_uncached > uncached
        assert da2 is not da


def test_full_map_cache_retains_every_token():
    g = load_grammar("start = S ;\nS : S S | 'a' 'b' ;")
    g.settings.memo_full = True
    with g.activate():
        base = g.root
        da = derive(base, "a")
        derive(base, "b")
        uncached = g.counters.derive_calls_uncached
        da2 = derive(base, "a")      # still cached
        assert da2 is da
        assert g.counters.derive_calls_uncached == uncached


def test_derivative_never_loops_on_pathological_self_reference():
    g = load_grammar("start = S ;\nS : S ;", normalize=False)
    assert not recognize(g, ["a"])
    assert not recognize(g, [])


def test_nullability_of_derivative_equals_word_membership():
    g = load_grammar("start = P ;\nP : '(' P ')' P | ;")
    with g.activate():
        n = g.root
        for tok in "()()":
            n = derive(n, tok)
        assert is_nullable(n)
        assert not is_nullable(derive(n, ")"))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 30))
def test_membership_matches_brute_force_enumeration(seed, salt):
    # derivative-based recognition vs the independent level-set oracle
    from derivparse import enumerate_language, load_bnf
    rng = random.Random(seed * 131 + salt)
    src = random_grammar_source(rng)
    g = load_grammar(src)
    words = enumerate_language(load_bnf(src), 4)
    for w in all_strings("abc", 4):
        assert recognize(g, list(w)) == (w in words), (src, w)


# the node a memo hit was cached for, and the rule its derivative is named by
HIT_OWNERS = {
    "token": (lambda: mk_token("a"), EXTEND),
    "seq": (lambda: new_seq(mk_token("a"), mk_token("b")), EXTEND),
    "nullable-left seq": (
        lambda: new_seq(mk_eps(ForestSet.from_tree(Leaf("_"))), mk_token("b")),
        MARK_EXTEND),
}


@pytest.mark.parametrize("owner", sorted(HIT_OWNERS))
@pytest.mark.parametrize("hit_form", ["empty", "alt"])
@pytest.mark.parametrize("rule", [EXTEND, MARK_EXTEND])
def test_memo_hit_name_is_checked_against_the_owner(owner, hit_form, rule):
    # the expected name follows from the node the hit was cached for, not
    # from the form of the cached node, so a planted misnamed hit is caught
    make, minted = HIT_OWNERS[owner]
    with use_context(Context(settings=ParserSettings(debug_names=True))):
        n = make()
        n.name = fresh_name()
        hit = mk_empty()
        if hit_form == "alt":
            hit = new_alt(mk_empty(), mk_empty())
        hit.name = name_node(n.name, "a", rule)
        n.d_key, n.d_val = "a", hit
        if rule == minted:
            assert derive(n, "a") is hit
        else:
            with pytest.raises(NamingError):
                derive(n, "a")
