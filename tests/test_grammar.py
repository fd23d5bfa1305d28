"""Node constructors, compaction rules, and whole-graph normalization."""

import random
import threading

import pytest

from derivparse import (
    Context, Grammar,
    count_parses, enumerate_trees, load_bnf, load_grammar, normalize_grammar,
    parse, reachable_nodes, recognize, tree_text, use_context,
)
from derivparse import grammar as grammar_mod
from derivparse.forest import ForestSet, leaf_node
from derivparse.grammar import (
    ALT, EMPTY, EPSILON, RED, SEQ, TOKEN,
    _normalize_step, become_node, collapse_dead,
    mk_eps, mk_red, mk_seq, mk_token,
    new_alt, new_red, new_seq,
)
from derivparse.nullability import is_nullable_naive
from derivparse.reductions import production
from conftest import (
    ARITH_INDIRECT_SRC, FIXED_CORPUS, all_strings, describe_node, expr_tokens,
    load_unnormalized, mk_alt, mk_empty, probe_words, random_grammar_source,
)


def eps(label: str = "_"):
    return mk_eps(leaf_node(label))


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
    trees = enumerate_trees(ForestSet(n.results), 10)
    assert sorted(tree_text(t) for t in trees) == ["x", "y"]


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
    trees = enumerate_trees(ForestSet(folded.results), 10)
    assert [tree_text(t) for t in trees] == ["K[_]"]


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


K = production("K", 1)

# one hand-built (form, child, child-or-reduction) per local rule, chosen so
# that this rule and no other fires on it
RULE_CASES = {
    "alt-empty-left": lambda: (ALT, mk_empty(), mk_token("a")),
    "alt-empty-right": lambda: (ALT, mk_token("a"), mk_empty()),
    "alt-epsilon-merge": lambda: (ALT, eps("x"), eps("y")),
    "seq-empty-left": lambda: (SEQ, mk_empty(), mk_token("a")),
    "seq-epsilon-left": lambda: (SEQ, eps(), mk_token("a")),
    "seq-associate": lambda: (SEQ, new_seq(mk_token("a"), mk_token("b")),
                              mk_token("c")),
    "seq-float-left": lambda: (SEQ, new_red(mk_token("a"), K), mk_token("b")),
    "seq-empty-right": lambda: (SEQ, mk_token("a"), mk_empty()),
    "seq-epsilon-right": lambda: (SEQ, mk_token("a"), eps()),
    "seq-float-right": lambda: (SEQ, mk_token("a"), new_red(mk_token("b"), K)),
    "red-empty": lambda: (RED, mk_empty(), K),
    "red-epsilon": lambda: (RED, eps(), K),
    "red-compose": lambda: (RED, new_red(mk_token("a"), K), production("Y", 1)),
}

RAW = {ALT: new_alt, SEQ: new_seq, RED: new_red}
BUILT = {ALT: mk_alt, SEQ: mk_seq, RED: mk_red}


@pytest.mark.parametrize("rule", sorted(RULE_CASES))
def test_normalizing_a_node_fires_the_construction_rule(rule, ctx):
    form, x, y = RULE_CASES[rule]()
    n = RAW[form](x, y)
    ctx.counters.reset()
    assert _normalize_step(n)
    assert ctx.counters.compaction_firings == {rule: 1}
    assert not _normalize_step(n)  # one rule reached the normal form
    built = BUILT[form](x, y)
    assert n.form == built.form
    if n.form == RED:
        assert n.left.form == built.left.form


def test_parsing_a_normalized_grammar_fires_no_right_child_rule():
    # the normal form has no Empty/Epsilon/reduction right child, and every
    # derivative keeps it, so the right-child rules never fire while parsing
    right_rules = {"seq-empty-right", "seq-epsilon-right", "seq-float-right"}
    rng = random.Random(0x5EC)
    sources = FIXED_CORPUS + [random_grammar_source(rng) for _ in range(30)]
    fired = 0
    for src in sources:
        g = load_grammar(src)
        g.counters.reset()
        for w in probe_words(load_bnf(src), "ab"):
            parse(g, list(w))
        firings = g.counters.compaction_firings
        assert not right_rules & firings.keys(), (src, firings)
        fired += sum(firings.values())
    assert fired > 0


def test_become_node_redirects_existing_references():
    a = mk_token("a")
    holder = new_alt(a, a)
    b = mk_token("b")
    assert become_node(a, b)
    assert holder.left.form == TOKEN
    assert holder.left.label == "b"
    assert holder.left is a
    assert not become_node(a, a)  # normalization stops on a self-replacement


def test_reachable_nodes_terminates_on_cycles():
    knot = new_alt(None, None)
    knot.left = knot
    knot.right = mk_token("a")
    nodes = reachable_nodes(knot)
    assert knot in nodes
    assert len(nodes) == 2


def test_describe_node_is_cycle_safe():
    g = load_unnormalized("start = S ;\nS : S S | 'a' ;")
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


def test_every_node_of_a_normalized_grammar_is_marked_productive():
    # so the dead-subgraph walk run while deriving never enters the grammar
    rng = random.Random(31)
    for _ in range(60):
        g = load_grammar(random_grammar_source(rng))
        if g.root.form != EMPTY:
            assert all(n.productive for n in reachable_nodes(g.root))


def test_a_normalized_grammar_has_exact_never_null_marks():
    # the loader builds rules over unmarked placeholders, so the local rule
    # alone leaves grammar heads unmarked that reject the empty word
    rng = random.Random(0x4E11)
    for src in FIXED_CORPUS + [random_grammar_source(rng) for _ in range(60)]:
        g = load_grammar(src)
        with g.activate():
            for n in reachable_nodes(g.root):
                assert n.never_null != is_nullable_naive(n), (
                    src, describe_node(n))


def test_node_under_construction_counts_as_productive_but_proves_nothing(ctx):
    pending = new_alt(None, None)
    pending.in_progress = True
    cycle = new_red(None, production("X", 2))   # X = red(seq(X, 'b'))
    cycle.left = new_seq(cycle, mk_token("b"))
    top = new_alt(cycle, pending)
    collapse_dead(top)
    assert cycle.form == EMPTY  # dead whatever the pending node becomes
    assert top.form == ALT and not top.productive
    assert ctx.counters.compaction_firings["dead-subgraph"] == 2
    pending.left, pending.right = mk_token("a"), mk_token("c")
    pending.in_progress = False
    pending.productive = True
    collapse_dead(top)
    assert top.form == ALT and top.productive
    assert ctx.counters.compaction_firings["dead-subgraph"] == 2


def _dead_cycle():
    cycle = new_red(None, production("X", 2))   # X = red(seq(X, 'b'))
    cycle.left = new_seq(cycle, mk_token("b"))
    return cycle


def test_the_dead_subgraph_rule_leaves_memo_entries_to_the_engine():
    # the rule rewrites structure only: a dead node keeps its entries, and
    # an entry under construction stays where its builder reads it back
    building = new_alt(None, None)
    building.in_progress = True
    finished = mk_token("c")
    dead = _dead_cycle()
    dead.d_key, dead.d_val, dead.d_map = "a", finished, {"b": building}
    collapse_dead(dead)
    assert dead.form == EMPTY
    assert (dead.d_key, dead.d_val, dead.d_map) == (
        "a", finished, {"b": building})
    # parses that prove derivatives dead still give the right answer
    toks = expr_tokens(60)
    for memo_full in (True, False):
        g = load_grammar(ARITH_INDIRECT_SRC)
        g.settings.memo_full = memo_full
        before = g.counters.compaction_firings.get("dead-subgraph", 0)
        assert count_parses(parse(g, toks)) == 1
        assert g.counters.compaction_firings["dead-subgraph"] > before


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
        raw = load_unnormalized(src)
        cooked = load_grammar(src)
        for w in words:
            assert recognize(raw, list(w)) == recognize(cooked, list(w)), (src, w)


def _raw_right_children():
    # load_grammar builds through mk_seq, which already applies the
    # right-child rules, so an unnormalized graph that still has Epsilon,
    # reduction and Empty right children is built by hand
    tail = new_seq(mk_token("b"), eps("x"))
    body = new_seq(mk_token("a"), new_red(tail, production("K", 2)))
    dead = new_seq(mk_token("b"), mk_empty())
    nullable = new_seq(new_alt(mk_token("a"), eps("n")), eps("y"))
    return Grammar(new_alt(body, new_alt(dead, nullable)), "S")


def test_engine_agrees_before_and_after_normalizing_right_children():
    raw = _raw_right_children()
    assert {n.right.form for n in reachable_nodes(raw.root) if n.form == SEQ} \
        >= {EMPTY, EPSILON, RED}
    cooked = normalize_grammar(_raw_right_children())
    _check_normal_form(cooked.root)
    for w in all_strings("ab", 3):
        assert recognize(raw, list(w)) == recognize(cooked, list(w)), w
        raw_trees, cooked_trees = (
            sorted(tree_text(t) for t in enumerate_trees(parse(g, list(w)), 5))
            for g in (raw, cooked))
        assert raw_trees == cooked_trees, w


def test_size_accounting_updates_after_normalization():
    g = load_grammar("start = S ;\nS : 'a' S | ;")
    assert g.size_G == len(reachable_nodes(g.root))


def test_each_thread_builds_under_its_own_default_context(ctx):
    counts = []

    def other():
        mk_token("b")
        default = grammar_mod._active.ctx
        with use_context(Context()) as mine:
            mk_token("c")
            mk_token("d")
        counts.append((default.counters.nodes_created,
                       mine.counters.nodes_created))

    mk_token("a")
    t = threading.Thread(target=other)
    t.start()
    t.join()
    assert counts == [(1, 2)]
    assert ctx.counters.nodes_created == 1
