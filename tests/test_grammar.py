"""Node constructors, compaction rules, and whole-graph normalization."""

import random

import pytest

from derivparse import (
    ALT, EMPTY, EPSILON, RED, SEQ, TOKEN,
    Context, Leaf,
    become_node, describe_node, enumerate_trees, load_grammar, mk_alt,
    mk_empty, mk_eps, mk_red, mk_seq, mk_token, normalize_grammar,
    reachable_nodes, recognize, tree_text, use_context,
)
from derivparse.forest import ForestSet
from derivparse.grammar import new_alt, new_seq
from derivparse.reductions import production
from conftest import all_strings, random_grammar_source


def eps(label: str = "_"):
    return mk_eps(ForestSet.from_tree(Leaf(label)))


@pytest.fixture(autouse=True)
def ctx():
    with use_context(Context()) as c:
        yield c


def test_alt_drops_empty_branches():
    a = mk_token("a")
    assert mk_alt(mk_empty(), a) is a
    assert mk_alt(a, mk_empty()) is a


def test_alt_merges_epsilon_branches():
    n = mk_alt(eps("x"), eps("y"))
    assert n.form == EPSILON
    assert sorted(tree_text(t) for t in enumerate_trees(n.results, 10)) == ["x", "y"]


def test_seq_annihilates_on_empty_left():
    n = mk_seq(mk_empty(), mk_token("a"))
    assert n.form == EMPTY


def test_seq_absorbs_epsilon_left_into_reduction():
    n = mk_seq(eps(), mk_token("a"))
    # one grammar node instead of two: the pairing moved into a rewrite
    assert n.form == RED
    assert n.left.form == TOKEN


def test_seq_reassociates_left_nesting():
    a, b, c = mk_token("a"), mk_token("b"), mk_token("c")
    n = mk_seq(new_seq(a, b), c)
    assert n.form == RED
    assert n.left.form == SEQ
    assert n.left.left is a
    assert n.left.right.form == SEQ


def test_seq_floats_left_reduction_out():
    inner = mk_red(mk_token("a"), production("K", 1))
    n = mk_seq(inner, mk_token("b"))
    assert n.form == RED
    assert n.left.form == SEQ
    assert n.left.left.form == TOKEN


def test_red_collapses_empty_and_epsilon():
    assert mk_red(mk_empty(), production("K", 1)).form == EMPTY
    folded = mk_red(eps(), production("K", 1))
    assert folded.form == EPSILON
    assert [tree_text(t) for t in enumerate_trees(folded.results, 10)] == ["K[_]"]


def test_red_composes_with_inner_red():
    inner = mk_red(mk_token("a"), production("X", 1))
    outer = mk_red(inner, production("Y", 1))
    assert outer.form == RED
    assert outer.left.form == TOKEN  # single layer left


def test_compaction_declines_on_under_construction_nodes():
    shell = new_alt(None, None)
    shell.in_progress = True
    n = mk_seq(mk_empty(), shell)
    # would normally annihilate, but the child cannot be inspected yet
    assert n.form == SEQ


def test_become_node_redirects_existing_references():
    a = mk_token("a")
    holder = new_alt(a, a)
    b = mk_token("b")
    assert become_node(a, b)
    assert holder.left.form == TOKEN
    assert holder.left.label == "b"
    assert holder.left is a


def test_reachable_nodes_terminates_on_cycles():
    knot = new_alt(None, None)
    knot.left = knot
    knot.right = mk_token("a")
    nodes = reachable_nodes(knot)
    assert knot in nodes
    assert len(nodes) == 2


def test_describe_node_is_cycle_safe():
    g = load_grammar("start = S ;\nS : S S | 'a' ;", normalize=False)
    text = describe_node(g.root)
    assert "#" in text
    assert "'a'" in text


def test_dead_subgraphs_collapse_to_empty():
    g = load_grammar("start = S ;\nS : 'a' S ;")  # no base case
    assert g.root.form == EMPTY


def test_dead_collapse_keeps_live_siblings():
    g = load_grammar("start = S ;\nS : D | 'a' ;\nD : 'x' D ;")
    assert recognize(g, ["a"])
    assert not recognize(g, ["x"])


NORMAL_RIGHT_BAN = (EMPTY, EPSILON, RED)


def _check_normal_form(root):
    for n in reachable_nodes(root):
        if n.form == SEQ:
            assert n.left.form in (TOKEN, ALT), describe_node(n)
            assert n.right.form not in NORMAL_RIGHT_BAN, describe_node(n)
        elif n.form == ALT:
            assert n.left.form != EMPTY and n.right.form != EMPTY
            assert not (n.left.form == EPSILON and n.right.form == EPSILON)
        elif n.form == RED:
            assert n.left.form in (TOKEN, SEQ, ALT), describe_node(n)


def test_normalization_postcondition_on_random_grammars():
    rng = random.Random(4242)
    for _ in range(120):
        g = load_grammar(random_grammar_source(rng))
        _check_normal_form(g.root)


def test_normalization_is_idempotent():
    rng = random.Random(77)
    for _ in range(30):
        g = load_grammar(random_grammar_source(rng))
        before = g.counters.compactions
        normalize_grammar(g)
        assert g.counters.compactions == before


def test_normalization_preserves_the_language():
    rng = random.Random(2024)
    words = all_strings("ab", 3)
    for _ in range(60):
        src = random_grammar_source(rng)
        raw = load_grammar(src, normalize=False)
        cooked = load_grammar(src)
        for w in words:
            assert recognize(raw, list(w)) == recognize(cooked, list(w)), (src, w)


def test_size_accounting_updates_after_normalization():
    g = load_grammar("start = S ;\nS : 'a' S | ;")
    assert g.size_G == len(reachable_nodes(g.root))
