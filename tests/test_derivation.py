"""Token-derivative engine: semantics, sharing, memo policy, cyclic graphs."""

import gc
import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from derivparse import (
    INFINITE, Context, NamingError,
    count_parses, derive, earley_count, earley_recognize, enumerate_trees,
    forest_to_json, is_nullable, load_bnf, load_grammar, parse,
    reachable_nodes, recognize, tree_text, use_context,
)
from derivparse import derivation, forest, grammar, nullability, reductions
from derivparse.forest import EMPTY_SET, ForestSet
from derivparse.grammar import (
    ALT, EMPTY, EPSILON, NV_NOT, RED, SEQ, SHARED_EMPTY, TOKEN,
    ParserSettings, mk_eps, mk_token, new_alt, new_seq,
)
from derivparse.instrumentation import (
    EXTEND, MARK_EXTEND, fresh_name, name_node,
)
from derivparse.nullability import is_nullable_naive
from conftest import (
    ARITH_INDIRECT_SRC, ARITH_LEFT_SRC, ARITH_SRC, CATALAN_SRC, DYCK_SRC,
    FIXED_CORPUS, _parse_record, WORST_SRC, all_strings, assert_history_free, created_nodes,
    distinct_tokens, expr_tokens, load_unnormalized,
    mixed_expression, mk_empty, nested_dyck, nested_parens, node_budget,
    NULL_CYCLE_SRC, probe_words,
    random_grammar_source, run_python,
)


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
    g.settings.memo_full = False
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
        # slot-first: a node derived by one token has no map
        assert (base.d_key, base.d_val, base.d_map) == ("a", da, None)
        db = derive(base, "b")
        assert (base.d_key, base.d_val, base.d_map) == ("a", da, {"b": db})
        uncached = g.counters.derive_calls_uncached
        da2 = derive(base, "a")      # still cached
        assert da2 is da and derive(base, "b") is db
        assert g.counters.derive_calls_uncached == uncached


def test_a_map_holds_only_other_tokens_and_single_mode_makes_none():
    toks = mixed_expression(random.Random(0x5107), 300)
    for memo_full in (True, False):
        g = load_grammar(ARITH_LEFT_SRC)
        g.settings.memo_full = memo_full
        with created_nodes() as made:
            assert count_parses(parse(g, toks)) == 1
        nodes = made + reachable_nodes(g.root)
        maps = [n for n in nodes if n.d_map is not None]
        assert all(n.d_key is not None and n.d_key not in n.d_map
                   for n in maps)
        assert bool(maps) == memo_full
        assert any(n.d_key is not None for n in nodes)


def test_a_dead_nodes_map_keeps_the_entries_under_construction():
    # the dead-subgraph rule leaves a dead node's memo as it was; a shell
    # made for an entry under construction replaces it where its builder
    # reads it back: the map under the full memo, the slot in single mode
    dead = new_seq(None, mk_token("b"))     # X = X 'b'
    dead.left = dead
    building = new_alt(None, None)
    building.in_progress = True
    finished = mk_token("c")
    dead.d_key, dead.d_val, dead.d_map = "a", finished, {"b": building}
    grammar.collapse_dead(dead)
    assert dead.form == EMPTY
    assert (dead.d_key, dead.d_val, dead.d_map) == (
        "a", finished, {"b": building})
    shell = new_alt(None, None)
    full = Context(settings=ParserSettings(memo_full=True))
    derivation._store(dead, "b", shell, full)
    assert (dead.d_key, dead.d_val, dead.d_map) == ("a", finished,
                                                    {"b": shell})
    single = Context(settings=ParserSettings(memo_full=False))
    derivation._store(dead, "b", shell, single)
    assert (dead.d_key, dead.d_val) == ("b", shell)


def test_derivative_never_loops_on_pathological_self_reference():
    g = load_unnormalized("start = S ;\nS : S ;")
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
        lambda: new_seq(mk_eps(ForestSet.single_leaf("_")), mk_token("b")),
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


# --- the dead-subgraph rule while deriving ------------------------------------

def _unproductive(root) -> list:
    """Reachable nodes, other than Empty, whose language is empty: a plain
    bottom-up productivity sweep that reads none of the engine's marks."""
    nodes = reachable_nodes(root)
    live = set()
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n in live:
                continue
            f = n.form
            if (f == TOKEN or f == EPSILON
                    or (f == ALT and (n.left in live or n.right in live))
                    or (f == SEQ and n.left in live and n.right in live)
                    or (f == RED and n.left in live)):
                live.add(n)
                changed = True
    return [n for n in nodes if n not in live and n.form != EMPTY]


def _dead_steps(src: str, words) -> tuple:
    """(steps, steps after which a reachable node is dead), deriving each
    word token by token, each in its own activation of one grammar."""
    g = load_grammar(src)
    steps = bad = 0
    for w in words:
        with g.activate():
            node = g.root
            for tok in w:
                node = derive(node, tok)
                steps += 1
                if _unproductive(node):
                    bad += 1
    return steps, bad


def test_no_reachable_node_is_dead_after_any_token():
    # a cycle such as X = red(seq(X, t)) denotes the empty language; every
    # one the engine builds is collapsed before the next token
    rng = random.Random(0xDEAD)
    cases = [(src, probe_words(load_bnf(src), "ab")) for src in FIXED_CORPUS]
    for _ in range(200):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")))
    cases.append((ARITH_LEFT_SRC, [expr_tokens(300)]))
    # on "a a", a node built over a shell still under construction is cached
    # and left out of that shell's cycle; a memo hit returns it after the
    # shell was proven dead
    cases.append(("start = N0 ;\nN0 : N2 | | 'a' N2 N0 'b' ;\n"
                  "N1 : 'b' N0 'b' 'a' | N2 ;\nN2 : N1 'b' ;\n",
                  [("a", "a"), ("a", "a", "b")]))
    total = 0
    for src, words in cases:
        steps, bad = _dead_steps(src, words)
        assert bad == 0, (src, bad, steps)
        total += steps
    assert total > 5000


def _unfinished(root) -> list:
    """Reachable nodes still under construction, or missing a child (or a
    reduction's rewrite) that their form needs."""
    return [n for n in reachable_nodes(root)
            if n.in_progress
            or (n.form >= SEQ and n.left is None)
            or (n.form in (SEQ, ALT) and n.right is None)
            or (n.form == RED and n.fn is None)]


@pytest.mark.parametrize("switches", [{}, {"memo_full": False},
                                      {"compaction": False}])
def test_every_step_leaves_finished_nodes_and_the_shared_empty_untouched(
        switches):
    # a cycle re-entry is the only place a shell is made; every shell must
    # be filled before the token's derivative is returned, even when the
    # dead-subgraph rule rewrote the node it derives from meanwhile
    rng = random.Random(0xF111)
    cases = [(src, probe_words(load_bnf(src), "ab")) for src in FIXED_CORPUS]
    for _ in range(200):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")))
    steps = 0
    for src, words in cases:
        g = load_grammar(src)
        for k, v in switches.items():
            setattr(g.settings, k, v)
        for w in words:
            with g.activate():
                node = g.root
                for tok in w:
                    node = derive(node, tok)
                    steps += 1
                    assert not _unfinished(node), (src, w)
            count_parses(parse(g, w))
    assert steps > 2000
    e = SHARED_EMPTY
    assert (e.form, e.left, e.right, e.label, e.results, e.fn) == (
        EMPTY, None, None, None, None, None)
    assert (e.d_key, e.d_val, e.d_map, e.name) == (None, None, None, None)
    assert (e.n_value, e.in_progress, e.productive) == (NV_NOT, False, False)
    assert e.pn_memo is EMPTY_SET


def _flat_nodes_per_token(src: str, tokens, sizes) -> dict:
    """Nodes created per token at each size, in order.  Each size must stay
    within 1.25 times the rate of the one before, and runs under that
    budget, so an engine that grows fails at the first larger size instead
    of exhausting memory; the first size may create 20 nodes per token."""
    per_token = {}
    rate = 20
    for n in sizes:
        g = load_grammar(src)
        toks = tokens(n)
        before = g.counters.nodes_created
        with node_budget(int(len(toks) * rate)):
            fs = parse(g, toks)
        per_token[n] = (g.counters.nodes_created - before) / len(toks)
        assert count_parses(fs) == 1, n
        rate = 1.25 * per_token[n]
    return per_token


def test_left_recursion_stays_linear_up_to_16k_tokens():
    per_token = _flat_nodes_per_token(ARITH_LEFT_SRC, expr_tokens,
                                      (250, 1000, 4000, 16000))
    assert per_token[16000] <= 1.25 * per_token[1000], per_token


def test_left_recursive_nesting_costs_what_right_recursive_nesting_does():
    # the rules as written rebuild the derivative cycle of every open
    # level per token: 238 nodes per token at d=100
    per_token = _flat_nodes_per_token(ARITH_LEFT_SRC,
                                      lambda n: nested_parens(n // 2),
                                      (1000, 16000))
    assert max(per_token.values()) <= 3.1, per_token


@pytest.mark.parametrize("memo_full", [True, False])
def test_repeated_left_recursive_nesting_costs_what_flat_operands_do(
        memo_full):
    # about 4k tokens of operands in d parentheses joined by '+'; the rules
    # as written cost 8.9 nodes per token at d=64 (157.9 with one slot per
    # node) against 4.0 at d=1.  Flat operands now cost next to nothing
    # (0.007 nodes per token), and nesting them adds 0.065
    per_token = {}
    for d, budget in ((1, 64), (64, 560)):
        unit = nested_parens(d)
        toks = unit + (["+"] + unit) * (4000 // (len(unit) + 1) - 1)
        g = load_grammar(ARITH_LEFT_SRC)
        g.settings.memo_full = memo_full
        before = g.counters.nodes_created
        with node_budget(budget):
            assert count_parses(parse(g, toks)) == 1
        per_token[d] = (g.counters.nodes_created - before) / len(toks)
    assert per_token[64] - per_token[1] <= 0.1, per_token
    assert per_token[1] <= 0.05, per_token


def test_compaction_off_derives_left_recursion_as_written():
    # rewritten to right recursion at load, the grammar's derivatives nest
    # deeper without compaction: the longest expr_tokens input parsed at the
    # default recursion limit fell from 990 tokens to 438
    g = load_grammar(ARITH_LEFT_SRC)
    g.settings.compaction = False
    assert count_parses(parse(g, expr_tokens(900))) == 1


def test_the_worst_case_grammar_gets_no_twin():
    # L : L L | '.' has an α that mentions L
    g = load_grammar(WORST_SRC)
    assert all(n.twin is None for n in reachable_nodes(g.root))
    before = g.counters.nodes_created
    parse(g, distinct_tokens(80))
    assert g.counters.nodes_created - before <= 177_516


def test_dead_subgraph_walk_follows_the_compaction_switch(monkeypatch):
    # indirect left recursion gets no twin: its derivatives still close
    # cycles that denote the empty language
    walks = []
    real = derivation.collapse_dead

    def counted(root):
        walks.append(root)
        real(root)

    monkeypatch.setattr(derivation, "collapse_dead", counted)
    toks = expr_tokens(60)
    results = {}
    for compaction in (False, True):
        for memo_full in (False, True):
            g = load_grammar(ARITH_INDIRECT_SRC)
            g.settings.compaction = compaction
            g.settings.memo_full = memo_full
            before = g.counters.compaction_firings.get("dead-subgraph", 0)
            walks.clear()
            fs = parse(g, toks)
            fired = (g.counters.compaction_firings.get("dead-subgraph", 0)
                     - before)
            if compaction:
                assert fired > 0 and walks, memo_full
            else:
                assert fired == 0 and not walks, memo_full
            results[compaction, memo_full] = (recognize(g, toks),
                                              count_parses(fs))
    assert set(results.values()) == {(True, 1)}


# left-recursive arithmetic expressions, and words of a mutually
# left-recursive grammar; one random edit makes most of them invalid
MUTUAL_LEFT_SRC = "start = A ;\nA : B 'a' | 'c' ;\nB : A 'b' | 'd' ;\n"

_expressions = st.recursive(
    st.just(["n"]),
    lambda inner: st.one_of(
        inner.map(lambda a: ["-"] + a),
        st.tuples(inner, st.sampled_from("+*"), inner).map(
            lambda t: ["("] + t[0] + [t[1]] + t[2] + [")"]),
        st.tuples(inner, st.sampled_from("+*"), inner).map(
            lambda t: t[0] + [t[1]] + t[2]),
    ),
    max_leaves=20,
)
_mutual_words = st.tuples(st.sampled_from([["c"], ["d", "a"]]),
                          st.integers(0, 39)).map(
    lambda t: t[0] + ["b", "a"] * t[1])


@st.composite
def _edited(draw, words, sigma):
    w = list(draw(words))
    kind = draw(st.sampled_from(["none", "delete", "insert", "replace"]))
    if kind != "none":
        i = draw(st.integers(0, len(w) - (kind != "insert")))
        if kind == "delete":
            del w[i]
        elif kind == "insert":
            w.insert(i, draw(st.sampled_from(sigma)))
        else:
            w[i] = draw(st.sampled_from(sigma))
    return w[:80]


_ORACLE_CASES = {
    "left-arith": (ARITH_LEFT_SRC, _edited(_expressions, "+*-()n")),
    "mutual-left": (MUTUAL_LEFT_SRC, _edited(_mutual_words, "abcd")),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_left_recursive_inputs_match_the_oracle(case, data):
    src, words = _ORACLE_CASES[case]
    g, bg = load_grammar(src), load_bnf(src)
    w = data.draw(words)
    assert recognize(g, w) == earley_recognize(bg, w), w
    assert count_parses(parse(g, w)) == earley_count(bg, w), w


@pytest.mark.parametrize("src", [ARITH_SRC, ARITH_LEFT_SRC], ids=["right", "left"])
def test_the_oracle_counts_a_thousand_tokens(src):
    # at the default recursion limit, and fast enough for tests to check
    # counts at length
    w = mixed_expression(random.Random(1), 1000)
    bg = load_bnf(src)
    t0 = time.perf_counter()
    want = earley_count(bg, w)
    assert time.perf_counter() - t0 < 5.0
    assert want == 1 == count_parses(parse(load_grammar(src), w))


# --- nesting depth: re-associated concatenation spines ----------------------

# grammars 12, 33, 48 and 144 of the benchmark's random corpus
# (random.Random("random_grammars:corpus")): shapes on which re-associating
# derived spines without the rule's guards multiplies the nodes
G12_SRC = ("start = N0 ;\nN0 : N1 | 'b' N1 ;\nN1 :  | 'a' N0 N0 N2 | N2 ;\n"
           "N2 : 'b' 'b' 'a' 'b' |  ;\n")
G33_SRC = ("start = N0 ;\nN0 : 'a' 'a' 'a' 'a' | N3 N1 'a' 'a' | 'a' 'a' ;\n"
           "N1 : N3 N3 'a' | 'a' 'a' 'a' ;\nN2 : 'a' 'a' |  | N1 N3 N2 ;\n"
           "N3 : N2 N1 'a' ;\n")
G48_SRC = ("start = N0 ;\nN0 : 'a' N4 'a' N7 |  ;\nN1 : N3 'a' N2 'a' ;\n"
           "N2 : 'b' 'b' 'b' ;\nN3 : 'a' 'a' 'b' ;\nN4 : 'b' N2 N2 N4 | N0 'a' 'a' ;\n"
           "N5 : N0 'b' |  ;\nN6 : 'a' N2 'b' | 'b' 'a' 'b' | N5 'b' ;\n"
           "N7 : N3 'a' | 'a' 'a' 'b' | N6 N3 'a' ;\nN8 : N1 N7 N4 'a' |  | N8 N7 ;\n")
G144_SRC = ("start = N0 ;\nN0 :  | N3 N4 'a' | N1 'a' N0 N0 ;\n"
            "N1 :  | 'b' 'b' 'c' 'a' | 'b' 'b' ;\nN2 : N3 | 'c' | N2 'c' 'c' 'c' ;\n"
            "N3 : 'b' N1 'c' ;\nN4 :  | 'b' 'b' N3 'a' ;\n")


def _nodes_within(src: str, toks: list, budget: float) -> None:
    """Recognize toks; fails once the parse creates more than budget nodes."""
    g = load_grammar(src)
    with node_budget(int(budget)):
        recognize(g, toks)


# the budgets are 1.25 times the counts before derived spines were
# re-associated
@pytest.mark.parametrize("n, before", [(14, 268), (40, 1776)])
def test_reassociation_keeps_ambiguous_stack_tops_shared(n, before):
    # unguarded, g12 doubles its nodes per token: 32,541 at a^12
    _nodes_within(G12_SRC, ["a"] * n, 1.25 * before)


@pytest.mark.parametrize("n, before", [(40, 725), (160, 2645)])
def test_a_spine_with_a_nullable_head_is_not_reassociated(n, before):
    # such a head forks into a fresh copy of the spine's tail per path:
    # 26,250 nodes at a^160 without this guard
    _nodes_within(G48_SRC, ["a"] * n, 1.25 * before)


def test_grammar_nodes_are_not_taken_apart():
    # grammar nodes keep their derivatives for the whole input: taking
    # them apart re-derives them per token, 13,377 nodes here
    toks = ["n", "+", "(", "n", "*", "-", "n", ")", "*"] * 60 + ["n"]
    _nodes_within(ARITH_SRC, toks, 1.25 * 1013)


@pytest.mark.parametrize("src", [G12_SRC, G33_SRC, G48_SRC, G144_SRC],
                         ids=["g12", "g33", "g48", "g144"])
def test_random_corpus_grammars_stay_inside_a_node_budget(src):
    _nodes_within(src, ["a"] * 40, 100_000)


def test_nested_dyck_stays_linear_up_to_16k_tokens():
    per_token = _flat_nodes_per_token(DYCK_SRC, lambda n: nested_dyck(n // 2),
                                      (1000, 2000, 4000, 8000, 16000))
    assert per_token[16000] <= 1.25 * per_token[1000], per_token


def test_nested_arithmetic_stays_linear_up_to_16k_tokens():
    # unless E : T '+' E | T has its shared head factored, every token
    # rebuilds one choice per open level, and nodes per token grow with d
    per_token = _flat_nodes_per_token(ARITH_SRC, lambda n: nested_parens(n // 2),
                                      (1000, 2000, 4000, 8000, 16000))
    assert per_token[16000] <= 1.25 * per_token[1000], per_token


# the budgets sit below what the engine created when it made a shell for
# every derivative it built: 2.0, 5.0, 6.5 and 5.0 nodes per token; flat
# products, which built a fresh continuation per operand (3.0 nodes per
# token), share it and meet the flat-sum budget
@pytest.mark.parametrize("src, tokens, per_token", [
    (ARITH_SRC, lambda: ["n"] + ["+", "n"] * 2000, 1.28),
    (ARITH_SRC, lambda: ["n"] + ["*", "n"] * 2000, 1.28),
    (DYCK_SRC, lambda: nested_dyck(2000), 5.0),
    (ARITH_SRC, lambda: nested_parens(2000), 3.8),
    # the left-recursive rules as written: 4.0 and 9.0 nodes per token
    (ARITH_LEFT_SRC, lambda: ["n"] + ["+", "n"] * 1000, 1.05),
    (ARITH_LEFT_SRC, lambda: ["n"] + ["*", "n"] * 1000, 1.05),
], ids=["flat-sum", "flat-product", "nested-dyck", "nested-parens",
        "left-flat-sum", "left-flat-product"])
def test_nodes_per_token_stay_inside_an_absolute_budget(src, tokens, per_token):
    toks = tokens()
    with node_budget(int(per_token * len(toks))):
        fs = parse(load_grammar(src), toks)
    assert count_parses(fs) == 1


def test_mixed_expressions_reuse_the_derivatives_of_earlier_operands():
    # a grammar node's derivative does not depend on the input position:
    # kept for every token, the derivatives of 'E', 'T' and those built
    # from them are reused at each operand, not rebuilt (3.43 nodes per
    # token with one slot per node; 1.63 before the continuations of
    # products were shared)
    toks = mixed_expression(random.Random(2400), 2400)
    g = load_grammar(ARITH_SRC)
    with node_budget(int(1.4 * len(toks))):
        fs = parse(g, toks)
    assert count_parses(fs) == 1


def _precedence_source(levels: int) -> str:
    """One binary operator per precedence level, each right-recursive:
    E0 : E1 'o0' E0 | E1 ; ... ; A : '(' E0 ')' | 'n' ;"""
    rules = [f"E{i} : E{i + 1} 'o{i}' E{i} | E{i + 1} ;"
             for i in range(levels - 1)]
    rules.append(f"E{levels - 1} : A 'o{levels - 1}' E{levels - 1} | A ;")
    rules.append("A : '(' E0 ')' | 'n' ;")
    return "start = E0 ;\n" + "\n".join(rules) + "\n"


@pytest.mark.parametrize("memo_full", [True, False])
def test_precedence_depth_does_not_multiply_the_nodes_per_token(memo_full):
    # each level's tail derives into the head of the next level's
    # continuation; before that continuation was shared, every operator
    # below the outermost cost 3.0 nodes per token against 1.0.  With the
    # top reduction out of the graph, every level costs at most 0.033
    src = _precedence_source(8)
    per_token = []
    for i in range(8):
        toks = ["n"] + [f"o{i}", "n"] * 400
        g = load_grammar(src)
        g.settings.memo_full = memo_full
        before = g.counters.nodes_created
        with node_budget(50):
            fs = parse(g, toks)
        assert count_parses(fs) == 1, i
        per_token.append((g.counters.nodes_created - before) / len(toks))
    assert max(per_token) <= 0.05, per_token


def test_without_compaction_flat_products_build_every_node():
    # no compaction, no sharing: the node count is the one the engine
    # built before continuations were shared
    toks = ["n"] + ["*", "n"] * 200
    g = load_grammar(ARITH_SRC)
    g.settings.compaction = False
    before = g.counters.nodes_created
    fs = parse(g, toks)
    assert g.counters.nodes_created - before == 89_604  # 223.45 per token
    assert count_parses(fs) == 1
    assert g.counters.seqs_shared == 0


def _last_derivative(g, toks):
    return derivation._run(g, toks, lambda node, ctx: node, trees=True)


def test_two_parses_never_share_a_derived_node():
    # the table that shares continuations lives for one parse
    for src, toks in [(ARITH_SRC, ["n"] + ["*", "n"] * 50),
                      (ARITH_SRC, mixed_expression(random.Random(7), 200)),
                      (_precedence_source(8), ["n"] + ["o3", "n"] * 5)]:
        g = load_grammar(src)
        first = _last_derivative(g, toks)
        shared = g.counters.seqs_shared
        assert shared > 0, src
        second = _last_derivative(g, toks)
        assert g.counters.seqs_shared == 2 * shared
        derived = [{n for n in reachable_nodes(d) if not n.in_grammar}
                   - {SHARED_EMPTY} for d in (first, second)]
        assert derived[0] and not derived[0] & derived[1], src


def test_only_a_parse_shares_continuations():
    # the loader and a bare context build every concatenation; an
    # activation shares one only under compaction, and only when both
    # halves are finished and productive
    p, q = mk_token("a"), mk_token("b")
    shell = grammar.new_seq(None, None)
    shell.in_progress = True
    with use_context(Context()) as ctx:
        assert ctx.seqs is None
        assert grammar._shared_seq(p, q) is not grammar._shared_seq(p, q)
    for compaction in (True, False):
        g = load_grammar(ARITH_SRC)
        g.settings.compaction = compaction
        with g.activate() as ctx:
            assert (ctx.seqs is not None) == compaction
            a, b = grammar._shared_seq(p, q), grammar._shared_seq(p, q)
            assert (a is b) == compaction
            assert grammar._shared_seq(shell, q) is not grammar._shared_seq(
                shell, q)
        assert g.counters.seqs_shared == int(compaction)


def _reductions_below(nodes) -> set:
    """The reductions the reduction nodes among `nodes` carry, with their
    parts."""
    found, todo = set(), [n.fn for n in nodes if n.form == RED]
    while todo:
        r = todo.pop()
        if r not in found:
            found.add(r)
            if r.kind == reductions.COMPOSE:
                todo += r.payload
            elif r.kind in reductions.LIFTS:
                todo.append(r.payload)
    return found


def _parse_reductions(g, top) -> set:
    """The reductions a parse of g built below its last derivative `top`:
    neither the grammar's own nor a tag without a payload."""
    derived = [n for n in reachable_nodes(top) if not n.in_grammar]
    return {r for r in _reductions_below(derived) if r.payload is not None
            } - _reductions_below(reachable_nodes(g.root))


def test_two_parses_never_share_a_reduction():
    # the table that shares reductions lives for one parse
    for src, toks in [(ARITH_SRC, ["n"] + ["*", "n"] * 50),
                      (ARITH_SRC, mixed_expression(random.Random(7), 200)),
                      (ARITH_LEFT_SRC, mixed_expression(random.Random(7), 200)),
                      (DYCK_SRC, nested_dyck(30))]:
        g = load_grammar(src)
        first = _last_derivative(g, toks)
        shared = g.counters.reductions_shared
        assert shared > 0, src
        second = _last_derivative(g, toks)
        assert g.counters.reductions_shared == 2 * shared
        built = [_parse_reductions(g, d) for d in (first, second)]
        assert built[0] and not built[0] & built[1], src


def test_only_a_parse_shares_reductions():
    # the loader, a bare context, compaction off and debug names build a
    # new reduction per call; a compacting activation hands back the one
    # first built from the same parts
    f = reductions.production("A", 1)
    makers = [(reductions.compose, f, reductions.reassociate()),
              (reductions.lift_left, f),
              (reductions.pair_left, ForestSet.single_leaf("a")),
              (reductions.pair_left_null, mk_token("a"))]
    with use_context(Context()) as ctx:
        assert ctx.reds is None
        for make, *parts in makers:
            assert grammar._shared_red(make, *parts) is not grammar._shared_red(
                make, *parts)
    for switches, shares in [({}, True), ({"compaction": False}, False),
                             ({"debug_names": True}, False)]:
        g = load_grammar(ARITH_SRC)
        assert g.counters.reductions_shared == 0
        for k, v in switches.items():
            setattr(g.settings, k, v)
        with g.activate() as ctx:
            assert (ctx.reds is not None) == shares
            for make, *parts in makers:
                a, b = grammar._shared_red(make, *parts), grammar._shared_red(
                    make, *parts)
                assert (a is b) == shares
                assert (a.kind, a.payload) == (b.kind, b.payload)
            # other parts, or the same parts under another tag, are another
            lift = grammar._shared_red(reductions.lift_left, f)
            assert lift is not grammar._shared_red(
                reductions.lift_left, reductions.production("A", 1))
            assert lift is not grammar._shared_red(reductions.lift_right, f)
        # a hit per maker, and one for `lift`
        assert g.counters.reductions_shared == (len(makers) + 1) * shares


@pytest.mark.parametrize("src, toks, distinct", [
    (ARITH_SRC, mixed_expression(random.Random(1), 2500), 18),
    (ARITH_LEFT_SRC, mixed_expression(random.Random(1), 2500), 28),
    (DYCK_SRC, nested_dyck(2000), 6),
], ids=["arith", "arith-left", "dyck"])
def test_a_parse_chain_holds_each_distinct_rewrite_once(src, toks, distinct):
    # one part per token, shared inside the parse: before the table, the
    # chains held 255, 195 and 4,000 distinct objects
    g = load_grammar(src)
    parts = _last_derivative(g, toks).fn.payload
    assert len(parts) == len(toks)
    assert len(set(parts)) == distinct


@pytest.mark.parametrize("src, toks, reads, occurrences, distinct", [
    (ARITH_SRC, mixed_expression(random.Random(1), 2500), 27, 3098, 11),
    (DYCK_SRC, nested_dyck(2000), 9, 6000, 3),
], ids=["arith", "dyck"])
def test_a_long_chain_is_read_once_per_distinct_part(src, toks, reads,
                                                     occurrences, distinct,
                                                     monkeypatch):
    # the payload-roots walk reads each distinct part of a parse's chain
    # once; a reader per occurrence would read a payload per root it lists.
    # It lists each distinct root once, with its pairing occurrences
    g = load_grammar(src)
    top = _last_derivative(g, toks).fn
    read = []
    real = forest._payload_root
    monkeypatch.setattr(forest, "_payload_root",
                        lambda r: read.append(r) or real(r))
    roots = forest._payload_roots(top)
    assert sum(roots.values()) == occurrences
    assert len(roots) == distinct
    assert len(read) == reads


def _answers(src: str, words, memo_full: bool) -> list:
    """Verdict, count and the ordered trees at limits 1, 3 and 10 of each
    word, under one memo mode."""
    g = load_grammar(src)
    g.settings.memo_full = memo_full
    out = []
    for w in words:
        fs = parse(g, w)
        out.append((recognize(g, w), count_parses(fs),
                    [[tree_text(t) for t in enumerate_trees(fs, k)]
                     for k in (1, 3, 10)]))
    return out


def test_memo_modes_give_the_same_answers_on_large_inputs():
    rng = random.Random(0x3E30)
    cases = [(src, probe_words(load_bnf(src), "ab")) for src in FIXED_CORPUS]
    for _ in range(60):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")))
    cases += [(src, [mixed_expression(rng, 2000)])
              for src in (ARITH_SRC, ARITH_LEFT_SRC)]
    cases += [(DYCK_SRC, [nested_dyck(160)]),
              (WORST_SRC, [distinct_tokens(12), ["."] * 12])]
    infinite = 0
    for src, words in cases:
        full = _answers(src, words, True)
        assert _answers(src, words, False) == full, src
        infinite += sum(count == INFINITE for _, count, _ in full)
    # cyclic grammars are among them
    assert infinite > 0


def _plain_loop_parse(g, tokens) -> ForestSet:
    """parse without peeling: derive the whole derivative by each token,
    so every token's top reduction is a node of the graph."""
    with g.activate():
        forest.build_null_forests(g)
        node = g.root
        for tok in tokens:
            node = derive(node, tok)
        return forest.parse_null(node)


def _forest_answers(fs) -> tuple:
    """The forest's export, its count and its first 5 trees."""
    return (forest_to_json(fs), count_parses(fs),
            [tree_text(t) for t in enumerate_trees(fs, 5)])


# the first shell closes a cycle at the third token, after two tokens have
# put reductions into the chain
SHELL_LATE_SRC = "start = S ;\nS : 'x' 'y' B ;\nB : C 'a' | 'b' ;\nC : B ;\n"


@pytest.mark.parametrize("switches", [{}, {"memo_full": False},
                                      {"naive_nullability": True}],
                         ids=["default", "single memo", "naive"])
def test_parse_equals_the_plain_derive_loop(switches):
    # parse keeps each token's top reduction in one chain; it must
    # build the forest the plain loop builds, node for node, and so must
    # the plain loop it falls back to once a derivative cycle closes
    rng = random.Random(0x9EE1)
    cases = [(src, probe_words(load_bnf(src), "ab")) for src in FIXED_CORPUS]
    for _ in range(60):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")))
    arith = [expr_tokens(300), ["n"] + ["+", "n"] * 150,
             mixed_expression(rng, 300), nested_parens(40)]
    cases += [(ARITH_SRC, arith), (ARITH_LEFT_SRC, arith),
              (ARITH_INDIRECT_SRC, arith),
              (DYCK_SRC, [nested_dyck(d) for d in (1, 5, 60)]),
              (CATALAN_SRC, [["a"] * n for n in range(1, 9)]),
              (SHELL_LATE_SRC, [["x", "y", "b"] + ["a"] * k
                                for k in range(4)])]
    for src, words in cases:
        peeled, plain = load_grammar(src), load_grammar(src)
        for k, v in switches.items():
            setattr(peeled.settings, k, v)
            setattr(plain.settings, k, v)
        for w in words:
            assert (_forest_answers(parse(peeled, w))
                    == _forest_answers(_plain_loop_parse(plain, w))), (src, w)
    # the fallback on SHELL_LATE_SRC starts from a non-empty chain
    g = load_grammar(SHELL_LATE_SRC)
    cycled = [derivation._run(g, ["x", "y", "b", "a"][:k],
                              lambda node, ctx: ctx.cycled, trees=True)
              for k in (2, 3)]
    assert cycled == [False, True]


def test_a_long_parse_derives_the_core_in_bounded_memory():
    # 256k tokens of mixed expressions: with each token's top reduction in
    # the graph, 1.015 nodes per token and a 113 MB peak.  The peak is the
    # interpreter's own VmHWM: ru_maxrss keeps the parent's peak across exec
    proc = run_python("-c", """
import random, sys
sys.path.insert(0, "tests")
from conftest import ARITH_SRC, mixed_expression
from derivparse import count_parses, load_grammar, parse
toks = mixed_expression(random.Random(1), 256000)
g = load_grammar(ARITH_SRC)
before = g.counters.nodes_created
assert count_parses(parse(g, toks)) == 1
print((g.counters.nodes_created - before) / len(toks))
with open("/proc/self/status") as f:
    [kb] = [line.split()[1] for line in f if line.startswith("VmHWM:")]
print(int(kb) / 1024)
""")
    assert proc.returncode == 0, proc.stderr
    per_token, peak_mb = map(float, proc.stdout.split())
    assert per_token < 0.05, per_token
    # 38.5 MB with the peeled reductions kept as one flat chain; 66 MB
    # when the chain was a binary compose per token
    assert peak_mb < 60, peak_mb


def test_recognize_keeps_no_chain():
    # 1M tokens of mixed expressions: a verdict drops each peeled
    # reduction, so the peak grows about 1.5 MB past the token list's
    # (VmHWM 158.6 MB in all when recognize composed a chain)
    proc = run_python("-c", """
import random, sys
sys.path.insert(0, "tests")
from conftest import ARITH_SRC, mixed_expression
from derivparse import load_grammar, recognize
def status(key):
    with open("/proc/self/status") as f:
        [kb] = [line.split()[1] for line in f if line.startswith(key + ":")]
    return int(kb) / 1024
toks = mixed_expression(random.Random(1), 1_000_000)
g = load_grammar(ARITH_SRC)
before = g.counters.nodes_created
rss = status("VmRSS")
assert recognize(g, toks)
print((g.counters.nodes_created - before) / len(toks))
print(status("VmHWM") - rss)
""")
    assert proc.returncode == 0, proc.stderr
    per_token, grown_mb = map(float, proc.stdout.split())
    assert per_token < 0.05, per_token
    assert grown_mb < 10, grown_mb


def _deep_at_the_default_recursion_limit(src: str, tokens: str, tree: str):
    """Parse, count, export and enumerate in a fresh interpreter at the
    default recursion limit; `tokens` is a Python expression."""
    proc = run_python("-c", f"""
from derivparse import (count_parses, enumerate_trees, forest_to_json,
                        load_grammar, parse, tree_text)
fs = parse(load_grammar({src!r}), {tokens})
print(count_parses(fs))
forest_to_json(fs)
[t] = enumerate_trees(fs, 1)
print(tree_text(t))
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"1\n{tree}\n"


def test_nested_dyck_10k_deep_at_the_default_recursion_limit():
    d = 10_000
    _deep_at_the_default_recursion_limit(
        DYCK_SRC, f'["("] * {d} + [")"] * {d}',
        "P[( " * d + "P[]" + " ) P[]]" * d)


def test_parentheses_10k_deep_at_the_default_recursion_limit():
    d = 10_000
    _deep_at_the_default_recursion_limit(
        ARITH_SRC, f'["("] * {d} + ["n"] + [")"] * {d}',
        "E[T[F[( " * d + "E[T[F[n]]]" + " )]]]" * d)


def test_left_recursive_parentheses_10k_deep_at_the_default_recursion_limit():
    # the rules as written raised RecursionError from about d=200; their
    # right-recursive twins derive as ARITH_SRC's rules do
    d = 10_000
    _deep_at_the_default_recursion_limit(
        ARITH_LEFT_SRC, f'["("] * {d} + ["n"] + [")"] * {d}',
        "E[T[F[( " * d + "E[T[F[n]]]" + " )]]]" * d)


def _nested_dyck_word(rng: random.Random, max_len: int) -> list:
    """A balanced word that opens again with probability 0.7 while open."""
    opens = rng.randint(1, max_len // 2)
    word, depth, opened = [], 0, 0
    while opened < opens or depth:
        if opened < opens and (depth == 0 or rng.random() < 0.7):
            word.append("(")
            depth += 1
            opened += 1
        else:
            word.append(")")
            depth -= 1
    return word


def _nested_expression(rng: random.Random, max_len: int) -> list:
    """An arithmetic word grown by wrapping, half the time in parentheses."""
    w = ["n"]
    while True:
        k = rng.random()
        if k < 0.5:
            grown = ["("] + w + [")"]
        elif k < 0.65:
            grown = ["-"] + w
        elif k < 0.8:
            grown = w + [rng.choice("+*"), "n"]
        else:
            grown = ["n", rng.choice("+*")] + w
        if len(grown) > max_len:
            return w
        w = grown


def _one_edit(rng: random.Random, w: list, sigma: str) -> list:
    w = list(w)
    kind = rng.choice(["delete", "insert", "replace"])
    i = rng.randint(0, len(w) - (kind != "insert"))
    if kind == "delete":
        del w[i]
    elif kind == "insert":
        w.insert(i, rng.choice(sigma))
    else:
        w[i] = rng.choice(sigma)
    return w


def test_nested_words_match_the_oracle_under_every_switch():
    rng = random.Random(0x5E8)
    cases = [(DYCK_SRC, _nested_dyck_word, "()"),
             (ARITH_SRC, _nested_expression, "+*-()n"),
             (ARITH_LEFT_SRC, _nested_expression, "+*-()n")]
    configs = [{}, {"memo_full": False}, {"compaction": False},
               {"naive_nullability": True}]
    checks = accepted = 0
    for src, make, sigma in cases:
        bg = load_bnf(src)
        words = []
        for _ in range(15):
            w = make(rng, rng.randint(2, 40))
            words += [w, _one_edit(rng, w, sigma)]
        expected = [(earley_recognize(bg, w), earley_count(bg, w))
                    for w in words]
        accepted += sum(ok for ok, _ in expected)
        for config in configs:
            g = load_grammar(src)
            for k, v in config.items():
                setattr(g.settings, k, v)
            for w, (ok, count) in zip(words, expected):
                assert recognize(g, w) == ok, (config, w)
                assert count_parses(parse(g, w)) == count, (config, w)
                checks += 2
    assert checks >= 600 and 0 < accepted < 90, (checks, accepted)


def test_parse_history_does_not_change_the_work_or_the_forest():
    # the spine rule's guard once read a grammar node's nullability cell,
    # which is set only once some parse has asked; a fresh grammar then
    # built other nodes and another forest than a warm one
    rng = random.Random(0x4157)
    expressions = [_nested_expression(rng, rng.randint(2, 60))
                   for _ in range(12)]
    cases = [(ARITH_SRC, expressions), (ARITH_LEFT_SRC, expressions),
             (DYCK_SRC, [_nested_dyck_word(rng, 40) for _ in range(8)])]
    cases += [(src, [["a"] * n for n in (1, 3, 8, 14)] + [["b", "a", "a"]])
              for src in (G12_SRC, G48_SRC)]
    for src, words in cases:
        assert_history_free(src, words + [_one_edit(rng, w, "ab()n+")
                                          for w in words[:4]])
    # a grammar cycle's empty-word forest depends on the node parse_null
    # enters it at, which build_null_forests fixes per grammar
    assert_history_free(NULL_CYCLE_SRC, [["b"] * n for n in range(5)])


def test_a_never_null_mark_on_a_derivative_is_never_wrong():
    # a mark built over an unfilled shell may be missing, but the spine
    # rule trusts every mark it finds
    rng = random.Random(0x5AFE)
    for _ in range(40):
        g = load_grammar(random_grammar_source(rng))
        for w in all_strings("ab", 3):
            with g.activate():
                node = g.root
                for c in w:
                    node = derive(node, c)
                    for n in reachable_nodes(node):
                        assert not (n.never_null and is_nullable_naive(n))


# --- a parse's derivatives die with it --------------------------------------

def _live_nodes() -> set:
    gc.collect()
    return {o for o in gc.get_objects() if type(o) is grammar.GrammarNode}


def _retention_inputs() -> list:
    """(source, words): arithmetic on both grammars, nested Dyck,
    FIXED_CORPUS on its probe words and 30 seeded random grammars."""
    rng = random.Random(0x11FE)
    cases = [(ARITH_SRC, [mixed_expression(rng, 120), nested_parens(20)]),
             (ARITH_LEFT_SRC, [mixed_expression(rng, 120)]),
             (DYCK_SRC, [nested_dyck(30), _nested_dyck_word(rng, 40)])]
    cases += [(src, probe_words(load_bnf(src), "ab")[:8])
              for src in FIXED_CORPUS]
    for _ in range(30):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")[:8]))
    return cases


@pytest.mark.parametrize("switches", [{}, {"memo_full": False},
                                      {"compaction": False}])
def test_after_a_parse_only_the_grammar_is_alive(switches):
    # the grammar nodes' memo slots once held the last parse's whole
    # derivative graph until the next parse of the grammar
    for src, words in _retention_inputs():
        g = load_grammar(src)
        for k, v in switches.items():
            setattr(g.settings, k, v)
        loaded = _live_nodes()
        for w in words:
            recognize(g, w)
            count_parses(parse(g, w))
        assert _live_nodes() <= loaded, src


def test_a_parse_that_raised_leaves_only_the_grammar_alive(monkeypatch):
    real = derivation._derive
    calls = [0]

    def failing(n, c, ctx):
        calls[0] += 1
        if calls[0] == 40:
            raise RuntimeError("derive failed")
        return real(n, c, ctx)

    for src, words in [(ARITH_SRC, [expr_tokens(200)]),
                       (DYCK_SRC, [nested_dyck(40)])]:
        g = load_grammar(src)
        loaded = _live_nodes()
        monkeypatch.setattr(derivation, "_derive", failing)
        for run in (recognize, parse):
            calls[0] = 0
            with pytest.raises(RuntimeError, match="derive failed"):
                run(g, words[0])
        monkeypatch.setattr(derivation, "_derive", real)
        assert _live_nodes() <= loaded, src
        # and the next parse starts from the grammar alone
        assert _parse_record(g, words[0]) == _parse_record(load_grammar(src),
                                                           words[0])


def test_a_parse_after_the_first_walks_no_grammar(monkeypatch):
    # clearing the memos once walked every grammar node before each parse;
    # the first parse still walks once, to build the empty-word forests
    def walk(root):
        raise AssertionError("a grammar walk")

    for src, words in _retention_inputs():
        g = load_grammar(src)
        parse(g, words[0])
        monkeypatch.setattr(grammar, "reachable_nodes", walk)
        for w in words:
            recognize(g, w)
            count_parses(parse(g, w))
        monkeypatch.undo()


# --- the nullability ablation changes nullability work only -----------------

def _ablation_inputs() -> list:
    """(source, words): FIXED_CORPUS on its probe words, nested Dyck, nested
    ARITH_SRC, flat ARITH_LEFT_SRC and a seeded random corpus."""
    cases = [(src, probe_words(load_bnf(src), "ab")[:12])
             for src in FIXED_CORPUS]
    cases += [(DYCK_SRC, [nested_dyck(d) for d in (1, 3, 10, 40)]),
              (ARITH_SRC, [nested_parens(d) for d in (1, 3, 10, 40)]),
              (ARITH_LEFT_SRC, [expr_tokens(n) for n in (2, 6, 20, 80)])]
    rng = random.Random(0xAB1)
    words = [list(w) for w in all_strings("abc", 2)[:6]] + [["a"] * 8]
    cases += [(random_grammar_source(rng), words) for _ in range(40)]
    return cases


def test_naive_nullability_never_asks_the_accelerated_engine(monkeypatch):
    # the spine rule's head guard once queried the accelerated engine on a
    # grammar node, whatever the switch said
    def accelerated(node):
        raise AssertionError("accelerated nullability engine asked")

    monkeypatch.setattr(nullability, "is_nullable", accelerated)
    monkeypatch.setattr(derivation, "is_nullable", accelerated)
    for src, words in _ablation_inputs():
        for w in words:
            g = load_grammar(src)  # fresh: a warm grammar's cells hide a query
            g.settings.naive_nullability = True
            recognize(g, w)


def test_naive_nullability_builds_the_same_nodes_and_forests():
    # both parse through forest.parse_null, which prunes with the
    # accelerated engine under either switch: it needs the exact verdict,
    # and the naive engine would sweep the whole graph once per node
    for src, words in _ablation_inputs():
        fast, naive = load_grammar(src), load_grammar(src)
        naive.settings.naive_nullability = True
        for w in words:
            assert _parse_record(naive, w) == _parse_record(fast, w), (src, w)


@pytest.mark.parametrize("naive", [False, True], ids=["accelerated", "naive"])
def test_a_head_marked_never_null_is_never_asked_whether_it_splits(
        monkeypatch, naive):
    # the mark settles the split; asking anyway was 2,009 of the 2,011 split
    # queries on ARITH_SRC's nested_parens(1000), each a graph sweep under
    # the naive engine
    real = derivation._nullable
    asked = [0]

    def checked(node, ctx):
        assert not node.never_null, node
        asked[0] += 1
        return real(node, ctx)

    monkeypatch.setattr(derivation, "_nullable", checked)
    for src, words in _ablation_inputs() + [(ARITH_SRC, [expr_tokens(400)])]:
        g = load_grammar(src)
        g.settings.naive_nullability = naive
        for w in words:
            parse(g, w)  # recognize would also ask about the last derivative
    assert asked[0] > 0  # unmarked heads are still asked


def test_a_node_marked_never_null_is_never_asked_for_empty_word_parses(
        monkeypatch):
    # parse_null reads the mark first, as the derivative engine's split does
    real = forest.is_nullable
    asked = [0]

    def checked(node):
        assert not node.never_null, node
        asked[0] += 1
        return real(node)

    monkeypatch.setattr(forest, "is_nullable", checked)
    for src, words in _ablation_inputs():
        g = load_grammar(src)
        for w in words:
            count_parses(parse(g, w))
    assert asked[0] > 0  # unmarked nodes are still asked


# --- binding the engine variant -----------------------------------------------

class _CountingSettings(ParserSettings):
    """Settings that count every read of a switch field."""

    __slots__ = ("reads",)

    def __init__(self):
        super().__init__()
        self.reads = 0

    def __getattribute__(self, name):
        if name in ParserSettings.__slots__:
            self.reads += 1
        return super().__getattribute__(name)


@pytest.mark.parametrize("switches", [
    {}, {"memo_full": False}, {"compaction": False}, {"naive_nullability": True},
])
def test_switches_are_read_once_per_parse_not_per_token(switches):
    reads = []
    for n in (50, 500):
        g = load_grammar(ARITH_LEFT_SRC)
        g.settings = _CountingSettings()
        for k, v in switches.items():
            setattr(g.settings, k, v)
        g.settings.reads = 0
        assert count_parses(parse(g, expr_tokens(n))) == 1
        assert recognize(g, expr_tokens(n))
        reads.append(g.settings.reads)
    assert reads[0] == reads[1], reads


def test_a_switch_changed_while_active_applies_from_the_next_activation():
    # switched to the single-entry mode while active, the full memo keeps
    # the 'n' entry past a '+'; from the next activation '+' evicts it
    g = load_grammar(ARITH_SRC)
    for active in (True, False):
        with g.activate() as ctx:
            if active:
                g.settings.memo_full = False
                assert ctx.memo_full
            dn = derive(g.root, "n")
            derive(g.root, "+")
            uncached = g.counters.derive_calls_uncached
            assert (derive(g.root, "n") is dn) == active
            assert (g.counters.derive_calls_uncached == uncached) == active
    assert recognize(g, ["n"])


def test_a_nested_activation_raises_and_leaves_the_grammar_usable():
    g = load_grammar(ARITH_SRC)
    with g.activate():
        with pytest.raises(RuntimeError):
            recognize(g, ["n"])
    assert recognize(g, expr_tokens(6))
    assert count_parses(parse(g, expr_tokens(6))) == 1


def test_an_activation_on_another_thread_raises():
    g = load_grammar(ARITH_SRC)
    active, finished = threading.Event(), threading.Event()
    errors = []

    def other():
        active.wait(10)
        try:
            recognize(g, ["n"])
        except RuntimeError as e:
            errors.append(e)
        finished.set()

    t = threading.Thread(target=other)
    t.start()
    with g.activate():
        active.set()
        assert finished.wait(10)
    t.join()
    assert len(errors) == 1
    assert recognize(g, ["n"])
