"""Parse forests: null parses, counting, enumeration, JSON export."""

import itertools
import json
import random
import re
from math import comb

import pytest

from derivparse import (
    Context, INFINITE, Leaf, Pair, Prod,
    count_parses, derive, earley_count, enumerate_trees, forest_to_json,
    load_bnf, load_grammar, parse, parse_null, reachable_nodes, recognize,
    tree_text, use_context,
)
from derivparse import derivation, forest
from derivparse.forest import (
    NO_TREES, PAIR, FNode, ForestSet, amb_node, leaf_node,
)
from derivparse.grammar import RED, WILDCARD, mk_token
from derivparse.oracle import Term
from derivparse.reductions import (
    COMPOSE, FOLD_LEFT, LIFT_LEFT, LIFTS, PAIR_LEFT, PAIR_RIGHT, PAIRINGS,
    PRODUCTION, REASSOCIATE, SPLICE, Reduction, compose, fold_left,
    lift_left, lift_right, pair_left, pair_right, production, reassociate,
    splice,
)
from conftest import (
    ARITH_LEFT_SRC, ARITH_SRC, CATALAN_SRC, DYCK_SRC, FIXED_CORPUS,
    NULL_CYCLE_SRC, SWITCH_IDS, SWITCHES, WILDCARD_CASES, WORST_SRC,
    distinct_tokens, expr_tokens, load_unnormalized, mixed_expression,
    nested_dyck, nested_parens, probe_words, random_grammar_source, run_python,
    switched_grammar,
)


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def _counts(src: str, words) -> list:
    g = load_grammar(src)
    return [count_parses(parse(g, list(w))) for w in words]


def test_reject_gives_empty_forest():
    g = load_grammar("start = A ;\nA : 'a' ;")
    fs = parse(g, ["b"])
    assert fs.is_empty()
    assert count_parses(fs) == 0
    assert enumerate_trees(fs, 10) == []


def test_unambiguous_parse_yields_one_tree():
    g = load_grammar("start = A ;\nA : 'a' B ;\nB : 'b' ;")
    fs = parse(g, ["a", "b"])
    assert count_parses(fs) == 1
    [t] = enumerate_trees(fs, 10)
    assert tree_text(t) == "A[a B[b]]"


def test_empty_word_parse_uses_null_results():
    g = load_grammar("start = A ;\nA : | 'a' ;")
    fs = parse(g, [])
    assert count_parses(fs) == 1
    [t] = enumerate_trees(fs, 10)
    assert tree_text(t) == "A[]"


def test_ambiguous_word_lists_every_tree():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    fs = parse(g, ["a", "a", "a"])
    assert count_parses(fs) == 2
    texts = sorted(tree_text(t) for t in enumerate_trees(fs, 10))
    assert texts == [
        "S[S[S[a] S[a]] S[a]]",
        "S[S[a] S[S[a] S[a]]]",
    ]


def test_catalan_counts():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    for n in range(1, 10):
        fs = parse(g, ["a"] * n)
        assert count_parses(fs) == CATALAN[n - 1], n
    # one pass over the shared forest: exact far beyond enumerable sizes;
    # n tokens have Catalan(n - 1) = comb(2n - 2, n - 1) / n parses
    assert count_parses(parse(g, ["a"] * 200)) == comb(398, 199) // 200
    wild = load_grammar("start = L ;\nL : L L | '.' ;")
    fs = parse(wild, [f"t{i}" for i in range(40)])
    assert count_parses(fs) == comb(78, 39) // 40


def test_deferred_node_with_empty_payload_counts_zero():
    # pairing against no trees leaves no trees, whatever the inner count
    fs = ForestSet(leaf_node("a").apply(pair_left(NO_TREES)))
    assert count_parses(fs) == 0
    assert enumerate_trees(fs, 10) == []


def test_infinitely_ambiguous_count():
    # the unit cycle S -> S pumps forever on any accepted word
    g = load_unnormalized("start = S ;\nS : S | 'a' ;")
    fs = parse(g, ["a"])
    assert count_parses(fs) is INFINITE
    assert repr(count_parses(fs)) == "Infinite"


def test_infinite_absorbs_in_arithmetic():
    from derivparse.forest import _add, _mul
    assert _add(INFINITE, 1) is INFINITE
    assert _mul(INFINITE, 2) is INFINITE
    assert _mul(0, INFINITE) == 0  # no parse remains no parse
    assert _mul(INFINITE, 0) == 0


def test_enumeration_is_capped_but_counting_is_not():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    fs = parse(g, ["a"] * 8)
    assert count_parses(fs) == CATALAN[7]
    got = enumerate_trees(fs, 5)
    assert len(got) == 5
    assert len({tree_text(t) for t in got}) == 5


def test_enumeration_order_does_not_depend_on_node_ids():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")

    def first_trees():
        return [tree_text(t) for t in enumerate_trees(parse(g, ["a"] * 7), 5)]

    expected = first_trees()
    for shift in (1, 2, 3, 17, 100):
        # throwaway nodes move every later forest node id
        with use_context(Context()):
            for _ in range(shift):
                mk_token("x")
                leaf_node("x")
        assert first_trees() == expected, shift


# grammars with more than 5 trees per probe word: infinitely ambiguous ones,
# whose forests are cyclic, and Catalan (42 trees of a^6)
UNIT_CYCLE_SRC = "start = S ;\nS : T ;\nT : S | U ;\nU : 'a' U | 'a' ;\n"
TRUNCATED_FORESTS = [
    (UNIT_CYCLE_SRC, ["a", "aa", "aaaa"]),
    ("start = S ;\nS : S | A ;\nA : 'a' 'b' 'c' 'd' 'e' 'f' 'g' ;\n",
     ["abcdefg"]),
    ("start = S ;\nS : S | E ;\nE : '(' E ')' | 'x' ;\n", ["x", "((x))"]),
    (CATALAN_SRC, ["aaaaaa"]),
]


def _leaves(t) -> list:
    if isinstance(t, Leaf):
        return [t.label]
    parts = (t.left, t.right) if isinstance(t, Pair) else t.children
    return [x for c in parts for x in _leaves(c)]


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_cyclic_forest_enumerates_trees_of_the_word(k):
    # every passage round the S -> T -> S cycle is another tree
    word = ["a"] * k
    fs = parse(load_grammar(UNIT_CYCLE_SRC), word)
    assert count_parses(fs) is INFINITE
    got = enumerate_trees(fs, 3)
    assert len({tree_text(t) for t in got}) == 3
    assert all(_leaves(t) == word for t in got)


@pytest.mark.parametrize("src, words", TRUNCATED_FORESTS,
                         ids=["unit-cycle", "unit-loop", "nested-parens",
                              "catalan"])
def test_truncated_tree_subsets_do_not_depend_on_switches(src, words):
    def trees(**switches) -> list:
        g = load_grammar(src)
        for name, value in switches.items():
            setattr(g.settings, name, value)
        return [sorted(tree_text(t)
                       for t in enumerate_trees(parse(g, list(w)), 5))
                for w in words]

    want = trees()
    assert all(len(ts) == 5 for ts in want)
    for compaction in (True, False):
        for memo_full in (False, True):
            for naive in (False, True):
                assert trees(compaction=compaction, memo_full=memo_full,
                             naive_nullability=naive) == want


def _first_trees(src: str, word, compaction: bool) -> tuple:
    g = load_grammar(src)
    g.settings.compaction = compaction
    fs = parse(g, list(word))
    return count_parses(fs), [tree_text(t) for t in enumerate_trees(fs, 10)]


def _has_twin(src: str) -> bool:
    return any(n.twin is not None
               for n in reachable_nodes(load_grammar(src).root))


def test_compaction_keeps_the_tree_order_but_for_a_twins_splits():
    # a left-recursive rule's twin lists the trees that split the input
    # between base and tail in more than one way longest base first; the
    # rule as written lists them in its alternatives' order.  From an
    # infinitely ambiguous forest the two engines may take different trees
    # of least pumping, twin or not
    src = "start = A ;\nA : A 'a' | 'a' | 'a' 'a' ;\n"
    assert _first_trees(src, "aaa", True) == (
        2, ["A[A[a a] a]", "A[A[A[a] a] a]"])
    assert _first_trees(src, "aaa", False) == (
        2, ["A[A[A[a] a] a]", "A[A[a a] a]"])
    assert not any(map(_has_twin, FIXED_CORPUS))
    for src in FIXED_CORPUS:
        for w in probe_words(load_bnf(src), "ab."):
            assert (_first_trees(src, w, True)
                    == _first_trees(src, w, False)), (src, w)
    rng = random.Random(0x0DE7)
    twins = 0
    for _ in range(60):
        src = random_grammar_source(rng)
        twin = _has_twin(src)
        twins += twin
        for w in probe_words(load_bnf(src), "abc"):
            on, off = _first_trees(src, w, True), _first_trees(src, w, False)
            assert on[0] == off[0], (src, w)
            if on[0] is INFINITE:
                assert len(on[1]) == len(off[1]) == 10, (src, w)
            elif not twin:
                assert on[1] == off[1], (src, w)
            elif on[0] <= 10:
                assert set(on[1]) == set(off[1]), (src, w)
    assert twins >= 3, twins


def test_enumeration_order_does_not_depend_on_the_hash_seed():
    # the order is the engine's construction order, so it is only as stable
    # as the engine is deterministic
    code = f"""
from derivparse import enumerate_trees, load_grammar, parse, tree_text
for src, word in (({CATALAN_SRC!r}, "a" * 7), ({UNIT_CYCLE_SRC!r}, "aa")):
    for t in enumerate_trees(parse(load_grammar(src), list(word)), 5):
        print(tree_text(t))
"""
    runs = [run_python("-c", code, env={"PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.splitlines()) == 10
    assert runs[0].stdout == runs[1].stdout


def test_enumeration_of_infinite_forest_terminates():
    g = load_unnormalized("start = S ;\nS : S | 'a' ;")
    fs = parse(g, ["a"])
    got = enumerate_trees(fs, 8)
    # finitely many distinct finite trees exist even though the count is not
    assert got
    assert all("a" in tree_text(t) for t in got)


def test_forest_shares_subtrees_across_ambiguity():
    # exponential tree count, polynomial forest size
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    fs = parse(g, ["a"] * 16)
    assert count_parses(fs) == 9694845
    payload = forest_to_json(fs)
    assert len(payload["nodes"]) < 2000


def test_parse_null_on_nullable_choice():
    g = load_unnormalized("start = A ;\nA : | B ;\nB : ;")
    with g.activate():
        fs = parse_null(g.root)
    texts = sorted(tree_text(t) for t in enumerate_trees(fs, 10))
    assert texts == ["A[B[]]", "A[]"]


def test_parse_null_of_non_nullable_is_empty():
    g = load_grammar("start = A ;\nA : 'a' ;")
    with g.activate():
        assert parse_null(g.root).is_empty()


def test_union_deduplicates_and_flattens():
    def count(root):
        return count_parses(ForestSet(root))

    a, b = leaf_node("a"), leaf_node("b")
    u = a.union(b)
    assert count(u) == 2
    assert count(u.union(a)) == 2   # same object, deduplicated
    fresh = leaf_node("a")
    assert count(u.union(fresh)) == 3  # same label, new object
    assert u.union(u) is u
    assert NO_TREES.union(a) is a
    assert a.union(NO_TREES) is a


def test_forest_json_schema():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    payload = forest_to_json(parse(g, ["a", "a", "a"]))
    assert set(payload) == {"root", "nodes"}
    ids = {n["id"] for n in payload["nodes"]}
    assert payload["root"] in ids
    kinds = {n["kind"] for n in payload["nodes"]}
    assert kinds <= {"leaf", "pair", "prod", "amb", "defer"}
    assert "amb" in kinds
    for n in payload["nodes"]:
        assert set(n) == {"id", "kind", "label", "children"}
        for c in n["children"]:
            assert c in ids
    json.dumps(payload)  # round-trippable


def test_forest_json_empty_marker():
    g = load_grammar("start = S ;\nS : 'a' ;")
    assert forest_to_json(parse(g, ["b"])) == {"root": None, "nodes": []}


SUM_SRC = "start = E ;\nE : E '+' E | 'n' ;\n"


def test_equal_forests_export_equal_json():
    # ids are positions in the forest's postorder, so they depend on
    # nothing built before: not another parse in the process, nor what the
    # grammar parsed
    toks = list("n+n+n")
    g = load_grammar(SUM_SRC)
    first = forest_to_json(parse(g, toks))
    assert forest_to_json(parse(g, toks)) == first
    warm = load_grammar(SUM_SRC)
    for w in ("n", "n+n", "n+"):
        parse(warm, list(w))
    assert forest_to_json(parse(warm, toks)) == first


def _has_cycle(doc: dict) -> bool:
    """Whether an export's graph has a cycle: peeling the nodes whose
    children are all peeled leaves some behind exactly then."""
    kids = {n["id"]: set(n["children"]) for n in doc["nodes"]}
    peeled: set = set()
    while ready := [i for i, cs in kids.items()
                    if i not in peeled and cs <= peeled]:
        peeled.update(ready)
    return len(peeled) < len(kids)


def test_the_export_lists_every_child_first_but_over_a_back_edge():
    seen = set()
    for src, word in ((SUM_SRC, "n+n+n"), (CATALAN_SRC, "aaaa"),
                      (ARITH_SRC, "(n+n)*-n"), (UNIT_CYCLE_SRC, "aa"),
                      (NULL_CYCLE_SRC, ""), (NULL_CYCLE_SRC, "bb")):
        doc = forest_to_json(parse(load_grammar(src), list(word)))
        nodes = doc["nodes"]
        at = {n["id"]: i for i, n in enumerate(nodes)}
        back = [c for i, n in enumerate(nodes) for c in n["children"]
                if at[c] >= i]
        assert bool(back) == _has_cycle(doc), (src, word, back)
        seen.add(bool(back))
        # the ids are the positions, the root's the last
        assert list(at) == list(range(len(nodes)))
        assert doc["root"] == len(nodes) - 1
    assert seen == {False, True}


def test_ambiguity_nodes_have_at_least_two_children():
    g = load_grammar("start = S ;\nS : S S | 'a' ;")
    payload = forest_to_json(parse(g, ["a"] * 6))
    for n in payload["nodes"]:
        if n["kind"] == "amb":
            assert len(n["children"]) >= 2


def test_tree_text_orders_pairs_and_prods():
    t = Prod("P", (Pair(Leaf("a"), Leaf("b")),))
    assert tree_text(t) == "P[(a,b)]"


def test_first_tree_of_a_forest_takes_linear_hash_work(monkeypatch):
    # enumeration dedups whole trees; a tree that rehashed its subtree on
    # every lookup made this quadratic (ratio about 16 for 4x the tokens)
    calls = [0]
    for cls in (Leaf, Pair, Prod):
        def counted(self, _hash=cls.__hash__):
            calls[0] += 1
            return _hash(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    g = load_grammar(ARITH_SRC)
    work = {}
    for n in (100, 400):
        fs = parse(g, expr_tokens(n))
        calls[0] = 0
        assert len(enumerate_trees(fs, 1)) == 1
        work[n] = calls[0]
    assert work[400] <= 6 * work[100], work


def test_nested_dyck_json_grows_linearly():
    # a left-nested spine once gave one lift-left per open level per token:
    # the JSON grew with the square of the input
    size = {}
    for n in (320, 640):
        fs = parse(load_grammar(DYCK_SRC), nested_dyck(n // 2))
        size[n] = len(json.dumps(forest_to_json(fs)))
    assert size[640] <= 2.5 * size[320], size


def test_describe_writes_a_compose_chain_flat():
    a, b = lift_left(production("E", 3)), reassociate()
    c = lift_right(compose(pair_right(NO_TREES), reassociate()))
    red = compose(a, compose(b, c))
    assert red.describe() == (
        "lift-left(production:E/3) . reassociate"
        " . lift-right(pair-right . reassociate)")
    # composition is associative, so both groupings are one reduction
    assert compose(compose(a, b), c).describe() == red.describe()
    assert lift_left(compose(compose(a, b), c)).describe() == (
        f"lift-left({red.describe()})")


def test_a_describe_memo_renders_each_shared_part_once():
    inner = lift_left(compose(production("T", 3), reassociate()))
    a = compose(inner, lift_right(inner))
    texts: dict = {}
    assert a.describe(texts) == a.describe()
    assert texts[inner] == inner.describe()
    # a part found in the memo is not rendered again
    texts[inner] = "INNER"
    b = lift_left(compose(inner, splice()))
    assert b.describe(texts) == "lift-left(INNER . splice)"
    assert texts[b] == "lift-left(INNER . splice)"


def test_json_labels_equal_their_reductions_described_alone():
    # the export keeps one memo for all its labels; the bytes are those of
    # describing each defer node's reduction by itself, each pairing named
    # by its payload root's id
    g = load_grammar(ARITH_SRC)
    for toks in (mixed_expression(random.Random(11), 600), nested_parens(40),
                 ["n"] + ["*", "n"] * 100):
        fs = parse(g, toks)
        order = forest._walk(fs)  # an id is a position in the postorder
        ids = {n: i for i, (n, _, _) in enumerate(order)}

        def payload_id(red):
            return ids[forest._payload_root(red)]

        nodes = forest_to_json(fs)["nodes"]
        defers = [d for d in nodes if d["kind"] == forest.DEFER]
        assert defers
        named = 0
        for d in defers:
            red = order[d["id"]][0].red
            assert d["label"] == red.describe(None, payload_id)
            # only the payload names differ from the plain text
            assert re.sub(r"@\d+", "", d["label"]) == red.describe()
            named += "@" in d["label"]
        assert named


def test_deep_forests_export_at_the_default_recursion_limit():
    # 1,999 tokens compose reductions 1,001 deep on the right-recursive
    # grammar and nest the first tree 1,000 deep on both grammars; an
    # operand in 1,000 parentheses nests the lifts of its chain 1,000 deep
    toks = ["n"] + ["+", "n"] * 999
    nested = nested_parens(1000)
    proc = run_python("-c", f"""
from derivparse import enumerate_trees, forest_to_json, load_grammar, parse, tree_text
g = load_grammar({ARITH_SRC!r})
fs, deep = parse(g, {toks!r}), parse(g, {nested!r})
forest_to_json(fs)
forest_to_json(deep)
for fs in (fs, parse(load_grammar({ARITH_LEFT_SRC!r}), {toks!r}), deep):
    [t] = enumerate_trees(fs, 1)
    print(tree_text(t))
""")
    assert proc.returncode == 0, proc.stderr
    right = left = deep = "E[T[F[n]]]"
    for _ in range(999):
        right = f"E[T[F[n]] + {right}]"
        left = f"E[{left} + T[F[n]]]"
    for _ in range(1000):
        deep = f"E[T[F[( {deep} )]]]"
    assert proc.stdout == f"{right}\n{left}\n{deep}\n"


# --- reduction parts that pair nothing, and the kept walk --------------------

def _defer_entry(doc: dict) -> dict:
    [entry] = [n for n in doc["nodes"] if n["kind"] == "defer"]
    return entry


def _defer_children(fs: ForestSet) -> list:
    """The nodes the export of fs lists as its defer node's children, read
    by their ids, which are positions in the forest's postorder."""
    order = forest._walk(fs)
    return [order[i][0] for i in _defer_entry(forest_to_json(fs))["children"]]


def _two(a: str, b: str) -> FNode:
    return leaf_node(a).union(leaf_node(b))


def _pair_node(left: FNode, right: FNode) -> FNode:
    pair = FNode(PAIR)
    pair.left, pair.right = left, right
    return pair


def _pairs_with_c(root: FNode) -> FNode:
    """A pair node: each tree of root paired with the leaf c."""
    return _pair_node(root, leaf_node("c"))


def test_pairs_bit_follows_the_parts():
    root = leaf_node("a")
    assert Reduction(PAIR_LEFT, root).pairs
    assert pair_right(root).pairs
    assert not reassociate().pairs
    assert not production("E", 2).pairs
    assert lift_right(Reduction(PAIR_LEFT, root)).pairs
    assert not lift_left(reassociate()).pairs
    assert compose(reassociate(), pair_right(root)).pairs
    assert compose(pair_right(root), reassociate()).pairs
    assert not compose(reassociate(), lift_left(production("E", 2))).pairs
    # a tag built at run time is stored as the module's own string, which
    # enumeration compares by identity
    assert Reduction("-".join(("pair", "left")), root).kind is PAIR_LEFT


def test_a_hand_built_pairing_inside_a_chain_is_walked():
    # built without the pair_left helper, below a lift and a compose
    payload = _two("x", "y")
    pair = _pairs_with_c(_two("a", "b"))
    red = compose(production("P", 1),
                  lift_left(Reduction(PAIR_LEFT, payload)))
    fs = ForestSet(pair.apply(red))
    assert count_parses(fs) == 4
    assert sorted(tree_text(t) for t in enumerate_trees(fs, 10)) == [
        "P[((x,a),c)]", "P[((x,b),c)]", "P[((y,a),c)]", "P[((y,b),c)]"]
    assert _defer_children(fs) == [pair, payload]


def test_a_hand_built_pairing_with_an_empty_payload_counts_zero():
    red = compose(reassociate(), lift_right(Reduction(PAIR_RIGHT, NO_TREES)))
    fs = ForestSet(_pairs_with_c(_two("a", "b")).apply(red))
    assert count_parses(fs) == 0
    assert enumerate_trees(fs, 10) == []


@pytest.mark.parametrize("root, red", [
    # counted 0, but enumerated a and b
    (_two("a", "b"),
     compose(reassociate(), lift_right(Reduction(PAIR_RIGHT, NO_TREES)))),
    # counted 2, but enumerated one tree
    (leaf_node("a"),
     lift_left(Reduction(PAIR_RIGHT, _two("x", "y")))),
], ids=["empty-payload", "two-tree-payload"])
def test_a_lift_of_a_tree_that_is_not_a_pair_raises(root, red):
    # count_parses multiplies by the pairings inside a lift wherever it
    # sits; a lift skipped on a tree that is not a pair enumerated trees
    # that disagree with the count
    with pytest.raises(ValueError):
        enumerate_trees(ForestSet(root.apply(red)), 10)


# --- a parse's flat chain against the same parts composed two at a time ------

def _grouped(parts: list, left: bool) -> Reduction:
    """The parts composed two at a time, grouped to the left or right."""
    if left:
        red = parts[0]
        for p in parts[1:]:
            red = compose(red, p)
        return red
    red = parts[-1]
    for p in reversed(parts[:-1]):
        red = compose(p, red)
    return red


def _chain_cases() -> list:
    """(tree, parts) pairs: the parts run last to first on the tree.  The
    first list repeats a lift and a binary compose, and pairs with forests
    of two trees, so its chain branches."""
    x, y, z = _two("x1", "x2"), _two("y1", "y2"), _two("z1", "z2")
    lift = lift_left(production("A", 1))
    both = compose(lift_right(production("B", 1)), pair_right(z))
    px, two = pair_left(x), compose(pair_left(y), pair_right(z))
    return [
        (Leaf("a"), [production("P", 2), both, lift, reassociate(), both,
                     lift, pair_right(x)]),
        # recurring pairings of one forest and of two, and a chain inside
        # a chain
        (Leaf("a"), [lift, two, compose(lift, lift, both), px, lift, two,
                     px, px]),
        # three pairings, none of them twice
        (Leaf("a"), [production("P", 1), pair_left(z),
                     lift_left(pair_right(x)), pair_right(y)]),
        # nothing pairs
        (Pair(Leaf("a"), Leaf("b")), [production("P", 2), lift, splice(),
                                      lift, reassociate()]),
        (Leaf("a"), [production("P", 1), pair_right(x)]),
    ]


def _applied(red: Reduction, t) -> list:
    roots = forest._payload_roots(red)
    table = {r: enumerate_trees(ForestSet(r), 10) for r in roots}
    return [tree_text(u) for u in forest._apply(red, t, table)]


@pytest.mark.parametrize("case", range(len(_chain_cases())))
def test_a_flat_chain_reads_as_its_parts_composed_two_at_a_time(case):
    t, parts = _chain_cases()[case]
    flat = compose(*parts)
    assert flat.kind == COMPOSE and flat.payload == tuple(parts)
    inner = leaf_node("t")
    want = None
    for red in (flat, _grouped(parts, True), _grouped(parts, False)):
        fs = ForestSet(inner.apply(red))
        entry = _defer_entry(forest_to_json(fs))
        got = (red.describe(), red.pairs, forest._payload_roots(red),
               _applied(red, t), entry["label"], entry["children"])
        want = want or got
        assert got == want
    assert want[2] or not flat.pairs
    # a tree per pick from each pairing occurrence's two trees
    assert len(want[3]) == 2 ** sum(want[2].values())


def test_a_chain_of_one_part_is_the_part():
    part = lift_left(production("A", 1))
    assert compose(part) is part


def test_compose_makes_one_compose_of_every_part():
    a, b, c = production("A", 1), reassociate(), lift_left(splice())
    red = compose(a, b, c)
    assert red.kind == COMPOSE and red.payload == (a, b, c)
    assert compose(a, b).payload == (a, b)


def test_a_flat_sum_parses_to_one_chain_with_a_part_per_peeled_token():
    g = load_grammar(ARITH_SRC)
    toks = ["n"] + ["+", "n"] * 50
    # the fold _run makes, with each peeled reduction kept in order
    with g.activate() as ctx:
        node, peeled = g.root, []
        for c in toks:
            node = derivation._derive(node, c, ctx)
            if node.form == RED:
                peeled.append(node.fn.describe())
                node = node.left
        assert not ctx.cycled
    assert len(peeled) == len(toks)
    red = parse(g, toks).root.red
    assert red.kind == COMPOSE
    assert [p.describe() for p in red.payload] == peeled
    assert all(p.kind != COMPOSE or len(p.payload) == 2 for p in red.payload)


# --- a chain that pairs with one forest many times ---------------------------

def _paired(t: str, picks, right: bool) -> str:
    """The tree_text of t paired with each pick in turn."""
    for s in picks:
        t = f"({t},{s})" if right else f"({s},{t})"
    return t


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("make", [pair_right, pair_left], ids=["right", "left"])
def test_a_repeated_pairing_is_one_edge_that_counts_each_use(make, k):
    two = _two("x", "y")
    fs = ForestSet(leaf_node("t").apply(compose(*[make(two)] * k)))
    inner = fs.root.left
    assert forest._payload_roots(fs.root.red) == {two: k}
    assert _defer_children(fs) == [inner, two]
    assert count_parses(fs) == 2 ** k
    # the pairing applied first varies slowest, as when the forest listed
    # the payload once per pairing
    want = [_paired("t", picks, make is pair_right)
            for picks in itertools.product("xy", repeat=k)]
    assert [tree_text(t) for t in enumerate_trees(fs, 2 ** k)] == want
    assert [tree_text(t) for t in enumerate_trees(ForestSet(fs.root), 3)] \
        == want[:3]
    demands = forest._demands(forest._walk(fs), forest._counts(fs), 2 ** k)
    assert demands[two] == 2 and demands[inner] == 1


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_repeated_empty_or_pumping_payload_counts_as_each_use_does(k):
    pumps = amb_node([leaf_node("x")])
    pumps.children.append(pumps)  # a cycle through the ambiguity node
    assert count_parses(ForestSet(pumps)) is INFINITE
    empty = pair_right(NO_TREES)
    cases = [([empty] * k, 0),
             ([pair_left(pumps)] * k, INFINITE),
             # no parse remains no parse, however often the other pumps
             ([pair_left(pumps), empty] * k, 0)]
    for parts, count in cases:
        fs = ForestSet(leaf_node("t").apply(compose(*parts)))
        if count is INFINITE:
            assert count_parses(fs) is INFINITE
        else:
            assert count_parses(fs) == 0
            assert enumerate_trees(fs, 10) == []


def test_counting_a_long_parse_multiplies_per_distinct_edge(monkeypatch):
    # one multiplication per distinct child edge of a product node of the
    # walk, however many times the chain pairs with each payload root
    g = load_grammar(ARITH_SRC)
    real = forest._mul
    muls = {}
    for n in (2000, 16000):
        fs = parse(g, mixed_expression(random.Random(1), n))
        calls = []
        monkeypatch.setattr(forest, "_mul",
                            lambda a, b: calls.append(1) or real(a, b))
        assert count_parses(fs) == 1
        order = forest._walk(fs)
        edges = sum(len(kids) for node, kids, _ in order
                    if node.kind != forest.AMB)
        uses = sum(sum(roots.values()) for _, _, roots in order if roots)
        assert len(calls) == edges and uses > n
        muls[n] = len(calls)
    # 8 times the input, no more multiplications: the 2,000-token input
    # ends in a product, which leaves one pair node (two multiplications)
    # more in its forest than the 16,000-token input's sum does
    assert muls == {2000: 21, 16000: 19}


def test_the_export_of_a_long_parse_lists_each_payload_edge_once():
    g = load_grammar(ARITH_SRC)
    doc = forest_to_json(parse(g, mixed_expression(random.Random(1), 20000)))
    assert sum(len(node["children"]) for node in doc["nodes"]) < 50


# --- reading an export back, from the JSON alone -----------------------------

def _read_label(label: str) -> list:
    """A defer label's parts, as written (applied last to first): each a
    (tag, argument) pair, the argument a lift's own parts, a production's
    (name, arity), a pairing's payload id, or None."""
    pos = 0

    def parts() -> list:
        nonlocal pos
        out = [part()]
        while label.startswith(" . ", pos):
            pos += 3
            out.append(part())
        return out

    def part() -> tuple:
        nonlocal pos
        for lift in ("lift-left(", "lift-right("):
            if label.startswith(lift, pos):
                pos += len(lift)
                inner = parts()
                assert label[pos] == ")", label
                pos += 1
                return lift[:-1], inner
        end = pos
        while end < len(label) and label[end] not in " )":
            end += 1
        atom, pos = label[pos:end], end
        if atom.startswith("production:"):
            name, _, arity = atom[len("production:"):].rpartition("/")
            return "production", (name, int(arity))
        tag, at, payload = atom.partition("@")
        return tag, int(payload) if at else None

    out = parts()
    assert pos == len(label), label
    return out


def _rewrite(parts: list, t, trees: dict) -> list:
    """Every tree the parts map t to, the last part applied first, with the
    trees of node i in trees[i]; a step that pairs branches, one tree per
    payload tree, in the payload's order."""
    out = [t]
    for tag, arg in reversed(parts):
        step = []
        for t in out:
            if tag in ("pair-left", "pair-left-null"):
                step += [Pair(s, t) for s in trees[arg]]
            elif tag == "pair-right":
                step += [Pair(t, s) for s in trees[arg]]
            elif tag == "lift-left":
                step += [Pair(u, t.right) for u in _rewrite(arg, t.left, trees)]
            elif tag == "lift-right":
                step += [Pair(t.left, u) for u in _rewrite(arg, t.right, trees)]
            elif tag == "reassociate":
                if isinstance(t, Pair) and isinstance(t.right, Pair):
                    t = Pair(Pair(t.left, t.right.left), t.right.right)
                step.append(t)
            elif tag == "production":
                name, arity = arg
                kids, cur = [], t
                while len(kids) < arity - 1 and isinstance(cur, Pair):
                    kids.append(cur.left)
                    cur = cur.right
                kids.append(cur)
                step.append(Prod(name, tuple(kids) if len(kids) == arity
                                 else (t,)))
            elif tag == "splice":
                if isinstance(t, Pair) and isinstance(t.right, Prod):
                    t = Prod(t.right.name, (t.left,) + t.right.children)
                step.append(t)
            else:
                assert tag == "fold-left", tag
                if isinstance(t, Pair) and isinstance(t.right, Prod):
                    acc, tail = t.left, t.right
                    while tail.children:
                        acc = Prod(tail.name, (acc,) + tail.children[:-1])
                        tail = tail.children[-1]
                    t = acc
                step.append(t)
        out = step
    return out


def _payload_ids(parts: list) -> list:
    """The payload ids of the parts' pairings, in the order they apply."""
    out = []
    for tag, arg in reversed(parts):
        if tag.startswith("lift"):
            out += _payload_ids(arg)
        elif tag.startswith("pair"):
            out.append(arg)
    return out


def _filled(t, tokens):
    """t with its leaves, left to right, read from the iterator `tokens`."""
    if isinstance(t, Leaf):
        return Leaf(next(tokens))
    if isinstance(t, Pair):
        left = _filled(t.left, tokens)
        return Pair(left, _filled(t.right, tokens))
    return Prod(t.name, tuple(_filled(c, tokens) for c in t.children))


def _read_export(doc: dict) -> list:
    """The trees of an acyclic export, in enumeration order, rebuilt from
    its JSON alone: a defer node's label names every forest it pairs with,
    and its children are its inner forest, then each of those once, in the
    order of first use.  An export that lists its "tokens" has the i-th
    leaf of every tree, in frontier order, read the i-th token."""
    trees: dict = {}
    for node in doc["nodes"]:
        i, kind, label, kids = (node["id"], node["kind"], node["label"],
                                node["children"])
        assert all(c < i for c in kids)  # no back edge
        if kind == "leaf":
            got = [Leaf(label)]
        elif kind == "prod":
            got = [Prod(label, ())]
        elif kind == "pair":
            got = [Pair(a, b) for a in trees[kids[0]] for b in trees[kids[1]]]
        elif kind == "amb":
            got = [t for c in kids for t in trees[c]]
        else:
            parts = _read_label(label)
            assert kids[1:] == list(dict.fromkeys(_payload_ids(parts)))
            got = [u for t in trees[kids[0]] for u in _rewrite(parts, t, trees)]
        trees[i] = list(dict.fromkeys(got))
    got = trees[doc["root"]]
    if "tokens" in doc:
        got = [_filled(t, iter(doc["tokens"])) for t in got]
    return got


def _export_inputs() -> list:
    """(grammar source, words): every probe word of the fixed corpus, mixed
    and nested expressions on both arithmetic grammars, and the Catalan
    grammars' ambiguous words."""
    rng = random.Random(0x7E57)
    cases = [(src, probe_words(load_bnf(src), "ab")) for src in FIXED_CORPUS]
    exprs = [mixed_expression(rng, n)
             for n in (3, 5, 8, 13, 20, 30, 45, 60, 90, 120)]
    exprs += [nested_parens(6), expr_tokens(30)]
    cases += [(src, exprs) for src in (ARITH_SRC, ARITH_LEFT_SRC)]
    cases += [(CATALAN_SRC, ["a" * n for n in range(1, 9)]),
              (WORST_SRC, [distinct_tokens(n) for n in range(1, 8)])]
    return cases


def test_an_export_alone_rebuilds_the_trees_enumeration_gives():
    read = 0
    for src, words in _export_inputs():
        g = load_grammar(src)
        for w in words:
            fs = parse(g, list(w))
            if fs.is_empty():
                continue
            doc = forest_to_json(fs)
            if any(c >= node["id"] for node in doc["nodes"]
                   for c in node["children"]):
                continue  # a cyclic forest: no finite list to rebuild
            want = enumerate_trees(fs, count_parses(fs))
            assert _read_export(doc) == want, (src, w)
            read += 1
    assert read > 90


# --- the applier against a reference that builds a Pair per step -------------

_PUT_LEFT, _PUT_RIGHT = object(), object()


def _reference_apply(red: Reduction, t, table) -> list:
    """The reference for forest._apply, step by step: every pairing, lift
    and reassociation step builds a Pair, and production, splice and
    fold-left take Pairs apart.  The trees it gives, in its order, are the ones
    enumeration must return."""
    out = []
    work = [(t, (red, None))]
    while work:
        t, frames = work.pop()
        while frames is not None:
            f, frames = frames
            if f is _PUT_LEFT or f is _PUT_RIGHT:
                other, frames = frames
                t = Pair(t, other) if f is _PUT_LEFT else Pair(other, t)
                continue
            k = f.kind
            if k == COMPOSE:
                for g in f.payload:
                    frames = (g, frames)
            elif k in LIFTS:
                if not isinstance(t, Pair):
                    raise ValueError(f"cannot apply {k!r} to a {t!r}")
                if k == LIFT_LEFT:
                    frames = (f.payload, (_PUT_LEFT, (t.right, frames)))
                    t = t.left
                else:
                    frames = (f.payload, (_PUT_RIGHT, (t.left, frames)))
                    t = t.right
            elif k in PAIRINGS:
                trees = table[forest._payload_root(f)]
                work += [(Pair(t, s) if k == PAIR_RIGHT else Pair(s, t), frames)
                         for s in reversed(trees)]
                break
            elif k == SPLICE:
                if isinstance(t, Pair) and isinstance(t.right, Prod):
                    t = Prod(t.right.name, (t.left,) + t.right.children)
            elif k == PRODUCTION:
                name, arity = f.payload
                parts = []
                cur = t
                while len(parts) < arity - 1 and isinstance(cur, Pair):
                    parts.append(cur.left)
                    cur = cur.right
                parts.append(cur)
                if len(parts) != arity:
                    parts = [t]
                t = Prod(name, tuple(parts))
            elif k == REASSOCIATE:
                if isinstance(t, Pair) and isinstance(t.right, Pair):
                    t = Pair(Pair(t.left, t.right.left), t.right.right)
            elif k == FOLD_LEFT:
                if isinstance(t, Pair) and isinstance(t.right, Prod):
                    acc, step = t.left, t.right
                    while step.children:
                        acc = Prod(step.name, (acc,) + step.children[:-1])
                        step = step.children[-1]
                    t = acc
            else:
                raise ValueError(f"cannot apply {k!r} to a {t!r}")
        else:
            out.append(t)
    return out


def _enumerated_by_reference(monkeypatch, fs: ForestSet, k: int) -> list:
    with monkeypatch.context() as m:
        m.setattr(forest, "_apply", _reference_apply)
        return enumerate_trees(ForestSet(fs.root, fs.tokens), k)


def _assert_same_trees(got: list, want: list, where) -> None:
    assert [tree_text(t) for t in got] == [tree_text(t) for t in want], where
    assert got == want and [hash(t) for t in got] == [hash(t) for t in want]


def test_enumeration_gives_the_reference_appliers_trees(monkeypatch):
    for src, words in _demand_fold_inputs():
        g = load_grammar(src)
        for w in words:
            fs = parse(g, list(w))
            for k in (1, 2, 3, 10):
                _assert_same_trees(enumerate_trees(fs, k),
                                   _enumerated_by_reference(monkeypatch, fs, k),
                                   (src, w, k))


def _tail(*labels: str) -> FNode:
    """The tree N[l1 N[l2 … []]] of a twin's tail, one step per label."""
    root = FNode("prod")
    root.label = ""
    for a in reversed(labels):
        root = leaf_node(a).apply(compose(production("N", 2),
                                          pair_right(root)))
    return root


@pytest.mark.parametrize("root, red, texts", [
    # a spine shorter than the arity: the whole pair is the one child
    (leaf_node("a"), compose(production("P", 3), pair_right(leaf_node("b"))),
     ["P[(a,b)]"]),
    # a splice onto a right half that is not a production changes nothing
    (leaf_node("a"), compose(splice(), pair_right(_two("b", "c"))),
     ["(a,b)", "(a,c)"]),
    # a splice whose head is a pair the chain made
    (_pairs_with_c(leaf_node("a")),
     compose(splice(), compose(lift_right(production("N", 1)),
                               lift_left(pair_right(leaf_node("b"))))),
     ["N[(a,b) c]"]),
    # a reassociation of a pair whose right half is not a pair
    (leaf_node("a"), compose(reassociate(), pair_left(leaf_node("b"))),
     ["(b,a)"]),
    # a reassociation of a table pair whose right half is a table pair
    (_pair_node(leaf_node("a"), _pairs_with_c(leaf_node("b"))),
     reassociate(), ["((a,b),c)"]),
    # a lift of a table pair: the inner tree of a pair node
    (_pairs_with_c(_two("a", "b")), lift_left(production("P", 1)),
     ["(P[a],c)", "(P[b],c)"]),
    # a pairing with two payload trees inside a lift inside a compose
    (_pairs_with_c(leaf_node("a")),
     compose(production("Q", 3), lift_right(pair_right(_two("x", "y")))),
     ["Q[a c x]", "Q[a c y]"]),
    # a fold of a base onto a tail of two steps, and onto an empty tail
    (leaf_node("a"), compose(fold_left(), pair_right(_tail("b", "c"))),
     ["N[N[a b] c]"]),
    (leaf_node("a"), compose(fold_left(), pair_right(_tail())), ["a"]),
    # a fold whose base is a pair the chain made
    (leaf_node("a"),
     compose(fold_left(), compose(lift_left(pair_right(leaf_node("b"))),
                                  pair_right(_tail("c")))),
     ["N[(a,b) c]"]),
    # a fold onto a right half that is not a production changes nothing
    (leaf_node("a"), compose(fold_left(), pair_right(leaf_node("b"))),
     ["(a,b)"]),
], ids=["short-spine", "splice-no-prod", "splice-pair-head",
        "reassociate-no-pair", "reassociate-table-pairs", "lift-table-pair",
        "pairing-in-lift-in-compose", "fold-left", "fold-left-empty-tail",
        "fold-left-pair-base", "fold-left-no-prod"])
def test_each_case_of_the_applier_matches_the_reference(monkeypatch, root,
                                                        red, texts):
    fs = ForestSet(root.apply(red))
    got = enumerate_trees(fs, 10)
    assert [tree_text(t) for t in got] == texts
    _assert_same_trees(got, _enumerated_by_reference(monkeypatch, fs, 10), red)


@pytest.mark.parametrize("src", [ARITH_SRC, ARITH_LEFT_SRC],
                         ids=["right", "left"])
def test_a_first_tree_builds_about_its_own_nodes(monkeypatch, src):
    # a Pair per pairing, lift and reassociation step built 5.24 tree nodes
    # per token on the right-recursive grammar; the tree holds 1.27
    built = [0]
    for cls in (Pair, Prod):
        def counted(self, *args, _init=cls.__init__):
            built[0] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    toks = mixed_expression(random.Random(400), 400)
    fs = parse(load_grammar(src), toks)
    count_parses(fs)
    built[0] = 0
    assert len(enumerate_trees(fs, 1)) == 1
    assert built[0] <= 2.0 * len(toks), built[0] / len(toks)


def test_a_chain_of_pairings_becomes_a_tree_without_recursion():
    # 50,000 pairings nest the chain's cells deeper than the recursion limit
    b = leaf_node("b")
    red = pair_right(b)
    for _ in range(49_999):
        red = compose(pair_right(b), red)
    [t] = enumerate_trees(ForestSet(leaf_node("a").apply(red)), 1)
    assert tree_text(t) == "(" * 50_000 + "a" + ",b)" * 50_000


def test_a_long_chain_that_pairs_nothing_has_only_its_inner_child():
    red = reassociate()
    for i in range(100_000):
        part = lift_left(reassociate()) if i % 2 else production("P", 1)
        red = compose(part, red)
    assert not red.pairs
    inner = leaf_node("a")
    fs = ForestSet(inner.apply(red))
    assert count_parses(fs) == 1
    assert _defer_children(fs) == [inner]


def test_consumers_of_one_forest_set_walk_it_once(monkeypatch):
    walks = [0]
    real = forest._postorder

    def counting(root):
        walks[0] += 1
        return real(root)

    monkeypatch.setattr(forest, "_postorder", counting)
    fs = parse(load_grammar(CATALAN_SRC), ["a"] * 6)
    assert count_parses(fs) == CATALAN[5]
    assert len(enumerate_trees(fs, 10)) == 10
    forest_to_json(fs)
    assert walks[0] == 1


@pytest.mark.parametrize("src, toks", [
    (NULL_CYCLE_SRC, ["b", "b"]),
    (WORST_SRC, distinct_tokens(6)),
], ids=["cyclic", "wildcard"])
def test_a_request_builds_one_forest_set(monkeypatch, src, toks):
    # inside the engine a set of trees is its root node: an epsilon's
    # results, a parse_null memo and a pairing's payload are roots, and only
    # parse_null, at the end of a parse, makes a set
    made = [0]
    real = ForestSet.__init__

    def counted(self, *args):
        made[0] += 1
        real(self, *args)

    monkeypatch.setattr(ForestSet, "__init__", counted)
    fs = parse(load_grammar(src), toks)
    assert count_parses(fs) in (INFINITE, 42)
    assert len(enumerate_trees(fs, 10)) == 10
    forest_to_json(fs)
    assert made[0] == 1


@pytest.mark.parametrize("src, toks", [
    (CATALAN_SRC, ["a"] * 8),
    (ARITH_SRC, expr_tokens(500)),
], ids=["catalan-8", "arith-500"])
def test_export_after_a_count_is_a_fresh_export(src, toks):
    fs = parse(load_grammar(src), toks)
    count_parses(fs)
    assert forest_to_json(fs) == forest_to_json(ForestSet(fs.root))


_NULL_PAIRING_SRC = ("start = S ;\nS : A 'z' ;\nA : B C | 'a' ;\n"
                     "B : 'x' | ;\nC : 'y' | ;\n")


@pytest.mark.parametrize("toks", [["z"], ["x", "z"], ["y", "z"]])
def test_a_forest_outlives_later_parses_of_its_grammar(toks):
    # a null pairing's payload is forced from the grammar's own nodes, whose
    # empty-word memos every later parse resets
    g = load_grammar(_NULL_PAIRING_SRC)
    fs = parse(g, toks)
    n = count_parses(fs)
    parse(g, ["a", "z"])
    recognize(g, ["x", "y", "z"])
    trees = enumerate_trees(fs, 10)
    doc = forest_to_json(fs)
    parse(g, toks)
    assert count_parses(fs) == n
    assert enumerate_trees(fs, 10) == trees
    assert forest_to_json(fs) == doc
    fresh = parse(load_grammar(_NULL_PAIRING_SRC), toks)
    assert count_parses(fresh) == n
    assert enumerate_trees(fresh, 10) == trees


# --- demand-driven enumeration ----------------------------------------------

AMBIGUOUS_ARITH_SRC = "start = E ;\nE : E '+' E | E '*' E | 'n' ;\n"


def _demand_fold_inputs() -> list:
    """(source, words): FIXED_CORPUS on its probe words, 60 seeded random
    grammars (cyclic ones among them), the three Catalan families at
    n = 4..11, and flat and nested arithmetic on both grammars."""
    cases = [(src, probe_words(load_bnf(src), "ab.")) for src in FIXED_CORPUS]
    rng = random.Random(0xDE3A)
    for _ in range(60):
        src = random_grammar_source(rng)
        cases.append((src, probe_words(load_bnf(src), "abc")[:40]))
    ops = ["+", "*"]
    cases += [
        (CATALAN_SRC, [["a"] * n for n in range(4, 12)]),
        (WORST_SRC, [distinct_tokens(n) for n in range(4, 12)]),
        (AMBIGUOUS_ARITH_SRC,
         [[ops[i % 2] if i % 2 else "n" for i in range(2 * n - 1)]
          for n in range(4, 12)]),
    ]
    arith = [expr_tokens(n) for n in (2, 10, 60)] + [
        nested_parens(d) for d in (1, 5, 30)]
    cases += [(ARITH_SRC, arith), (ARITH_LEFT_SRC, arith)]
    return cases


def test_demand_fold_gives_the_full_folds_trees_in_order(monkeypatch):
    # the full fold, every node's demand the limit, is the reference; the
    # engine's counts are exact, so only a forest whose count is infinite
    # falls back to it
    full = forest._full_fold
    fell_back = []

    def recorded(order, limit):
        fell_back.append(order[-1][0])
        return full(order, limit)

    monkeypatch.setattr(forest, "_full_fold", recorded)
    demanded = infinite = 0
    for src, words in _demand_fold_inputs():
        g = load_grammar(src)
        for w in words:
            fs = parse(g, list(w))
            if fs.is_empty():
                continue
            pumps = count_parses(fs) is INFINITE
            for k in (1, 2, 3, 10):
                fell_back.clear()
                got = [tree_text(t) for t in enumerate_trees(fs, k)]
                want = full(forest._walk(fs), k)
                if fs.tokens is not None:  # a wildcard grammar's input
                    want = [_filled(t, iter(fs.tokens)) for t in want]
                want = [tree_text(t) for t in want]
                assert got == want, (src, w, k)
                assert bool(fell_back) == pumps, (src, w, k)
            infinite += pumps
            demanded += not pumps
    assert demanded > 150 and infinite > 10, (demanded, infinite)


def test_enumeration_work_follows_the_trees_returned(monkeypatch):
    # at the full fold every node of the cubic forest got 10 trees:
    # 7,589 and 56,349 reduction applications at n = 20 and 40
    calls = [0]
    real = forest._apply

    def counted(red, t, table):
        calls[0] += 1
        return real(red, t, table)

    monkeypatch.setattr(forest, "_apply", counted)
    g = load_grammar(WORST_SRC)
    work = {}
    for n in (20, 40):
        fs = parse(g, distinct_tokens(n))
        calls[0] = 0
        assert len(enumerate_trees(fs, 10)) == 10
        work[n] = calls[0]
    assert work[40] <= 2.5 * work[20] and work[40] <= 1000, work


def test_a_forest_that_repeats_a_tree_enumerates_it_once():
    # the count (3) promises a second tree in the first two alternatives;
    # the shortfall sends the enumeration to the full fold
    with use_context(Context()):
        a1, a2, b, c = map(leaf_node, "aabc")
        fs = ForestSet(amb_node([a1, a2, b]))
        assert count_parses(fs) == 3
        assert [tree_text(t) for t in enumerate_trees(fs, 2)] == ["a", "b"]
        # the repeat must not be skipped either: the demand leaves c out,
        # and b has trees only because the right half asks for them
        pair = FNode(PAIR)
        pair.left = amb_node([a1, a2, c, b])
        pair.right = b
        fs = ForestSet(pair)
        assert count_parses(fs) == 4
        assert [tree_text(t) for t in enumerate_trees(fs, 2)] == [
            "(a,b)", "(c,b)"]


def test_counting_then_enumerating_folds_the_counts_once(monkeypatch):
    calls = [0]
    real = forest.count_parses

    def counted(fs):
        calls[0] += 1
        return real(fs)

    monkeypatch.setattr(forest, "count_parses", counted)
    fs = parse(load_grammar(CATALAN_SRC), ["a"] * 6)
    assert forest.count_parses(fs) == CATALAN[5]
    counts = fs._counts
    assert len(enumerate_trees(fs, 10)) == 10
    assert fs._counts is counts
    fresh = ForestSet(fs.root)  # enumerating first folds the counts itself
    assert enumerate_trees(fresh, 10) == enumerate_trees(fs, 10)
    assert fresh._counts == counts
    assert calls[0] == 1


# --- wildcard grammars: tokens derived by their class --------------------------

def _spelled_out(src: str, word) -> str:
    """src with each alternative that holds the wildcard written once per
    way to put one of the word's distinct tokens at each wildcard: a
    grammar without a wildcard, which names every token of the word, with
    the same trees on it."""
    bnf = load_bnf(src)
    toks = [f"'{t}'" for t in dict.fromkeys(word)]
    lines = [f"start = {bnf.start} ;"]
    for name, alts in bnf.productions.items():
        spelled = []
        for rhs in alts:
            choices = [toks if type(s) is Term and s.label == WILDCARD
                       else [f"'{s.label}'" if type(s) is Term else s.name]
                       for s in rhs]
            spelled += [" ".join(p) for p in itertools.product(*choices)]
        lines.append(f"{name} : {' | '.join(spelled)} ;")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("switches", SWITCHES, ids=SWITCH_IDS)
def test_wildcard_trees_equal_the_spelled_out_grammars(switches):
    # a token the grammar does not name derives by the wildcard's class;
    # the grammar that names the word's tokens instead derives each by
    # itself, and must give the same trees
    compared = 0
    for src, words in WILDCARD_CASES:
        bnf = load_bnf(src)
        g = switched_grammar(src, switches)
        for w in words:
            fs = parse(g, w)
            count = count_parses(fs)
            assert count == earley_count(bnf, w), (src, w)
            trees = enumerate_trees(fs, count + 1)
            assert len(trees) == count, (src, w)
            assert all(_leaves(t) == w for t in trees), (src, w)
            if WILDCARD in w or not trees:
                continue  # no grammar names the wildcard's own label
            named = switched_grammar(_spelled_out(src, w), switches)
            assert named.named is None
            fs = parse(named, w)
            assert fs.tokens is None  # each token derived by itself
            want = enumerate_trees(fs, count + 1)
            assert sorted(map(tree_text, want)) == sorted(map(tree_text, trees))
            compared += 1
    assert compared >= 15


def test_a_wildcard_forest_exports_its_leaves_as_read_and_its_tokens():
    g = load_grammar("start = A ;\nA : '.' '.' ;\n")
    assert g.named == frozenset()
    doc = forest_to_json(parse(g, ["x", "y"]))
    assert doc == {"root": 2, "tokens": ["x", "y"], "nodes": [
        {"id": 0, "kind": "leaf", "label": ".", "children": []},
        {"id": 1, "kind": "leaf", "label": ".", "children": []},
        {"id": 2, "kind": "defer", "label": "production:A/2 . pair-left@1",
         "children": [0, 1]}]}
    assert _read_export(doc) == [Prod("A", (Leaf("x"), Leaf("y")))]
    # a grammar without a wildcard keeps no tokens, and a rejected input
    # has no forest to fill
    assert load_grammar(CATALAN_SRC).named is None
    assert "tokens" not in forest_to_json(parse(load_grammar(CATALAN_SRC),
                                                ["a", "a"]))
    assert forest_to_json(parse(g, ["x"])) == {"root": None, "nodes": []}


def test_a_wildcard_parse_never_writes_its_tokens_on_a_shared_set():
    # the forest of a nullable grammar node is a constant of the grammar;
    # the tokens go on a new set over the same root
    g = load_grammar("start = P ;\nP : '.' P | ;\n")
    empty = parse(g, [])
    assert empty.tokens is None and empty.root is parse_null(g.root).root
    fs = parse(g, ["a", "b"])
    assert fs.tokens == ["a", "b"]
    assert [tree_text(t) for t in enumerate_trees(fs, 2)] == ["P[a P[b P[]]]"]
    assert enumerate_trees(parse(g, ["c", "d"]), 2) != enumerate_trees(fs, 2)
    assert parse_null(g.root).tokens is None


def _derive_loop(src: str, toks) -> tuple:
    """(nodes the loop creates, its forest) of a derive call per token."""
    g = load_grammar(src)
    made = g.counters.nodes_created
    with g.activate():
        node = g.root
        for c in toks:
            node = derive(node, c)
        fs = parse_null(node)
    return g.counters.nodes_created - made, fs


@pytest.mark.parametrize("n", [1, 5, 12])
def test_the_derive_loop_derives_by_class_as_parse_does(n):
    # derive takes the input off the node it is given and puts it back one
    # token longer: distinct tokens build the graph of identical ones, and
    # the forest parse builds
    made, fs = _derive_loop(WORST_SRC, distinct_tokens(n))
    assert made == _derive_loop(WORST_SRC, ["a"] * n)[0]
    assert fs.tokens == distinct_tokens(n)
    parsed = parse(load_grammar(WORST_SRC), distinct_tokens(n))
    assert forest_to_json(fs) == forest_to_json(parsed)
    assert enumerate_trees(fs, 10) == enumerate_trees(parsed, 10)
