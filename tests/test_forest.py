"""Parse forests: null parses, counting, enumeration, JSON export."""

import json
import random
from math import comb

import pytest

from derivparse import (
    Context, INFINITE, Leaf, Pair, Prod,
    count_parses, enumerate_trees, forest_to_json, load_bnf, load_grammar,
    parse, parse_null, recognize, tree_text, use_context,
)
from derivparse import forest
from derivparse.forest import EMPTY_SET, PAIR, FNode, ForestSet, amb_node
from derivparse.grammar import mk_token
from derivparse.reductions import (
    PAIR_LEFT, PAIR_RIGHT, Reduction, compose, lift_left, lift_right,
    pair_left, pair_right, production, reassociate,
)
from conftest import (
    ARITH_LEFT_SRC, ARITH_SRC, CATALAN_SRC, DYCK_SRC, FIXED_CORPUS, WORST_SRC,
    distinct_tokens, expr_tokens, load_unnormalized, nested_dyck,
    nested_parens, probe_words, random_grammar_source, run_python,
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
    fs = ForestSet.single_leaf("a").apply(pair_left(EMPTY_SET))
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
        # throwaway nodes move every later grammar and forest node id
        with use_context(Context()):
            for _ in range(shift):
                mk_token("x")
                ForestSet.single_leaf("x")
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
    with use_context(Context()):
        a = ForestSet.single_leaf("a")
        b = ForestSet.single_leaf("b")
        u = a.union(b)
        assert count_parses(u) == 2
        assert count_parses(u.union(a)) == 2   # same object, deduplicated
        fresh = ForestSet.single_leaf("a")
        assert count_parses(u.union(fresh)) == 3  # same label, new object
        assert u.union(u) is u
        assert EMPTY_SET.union(a) is a
        assert a.union(EMPTY_SET) is a


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
    for cls in (Pair, Prod):
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
    c = lift_right(compose(pair_right(EMPTY_SET), reassociate()))
    red = compose(a, compose(b, c))
    assert red.describe() == (
        "lift-left(production:E/3) . reassociate"
        " . lift-right(pair-right . reassociate)")
    # composition is associative, so both groupings are one reduction
    assert compose(compose(a, b), c).describe() == red.describe()
    assert lift_left(compose(compose(a, b), c)).describe() == (
        f"lift-left({red.describe()})")


def test_deep_forests_export_at_the_default_recursion_limit():
    # 1,999 tokens compose reductions 1,001 deep on the right-recursive
    # grammar and nest the first tree 1,000 deep on both grammars
    toks = ["n"] + ["+", "n"] * 999
    proc = run_python("-c", f"""
from derivparse import enumerate_trees, forest_to_json, load_grammar, parse, tree_text
fs = parse(load_grammar({ARITH_SRC!r}), {toks!r})
forest_to_json(fs)
for fs in (fs, parse(load_grammar({ARITH_LEFT_SRC!r}), {toks!r})):
    [t] = enumerate_trees(fs, 1)
    print(tree_text(t))
""")
    assert proc.returncode == 0, proc.stderr
    right = left = "E[T[F[n]]]"
    for _ in range(999):
        right = f"E[T[F[n]] + {right}]"
        left = f"E[{left} + T[F[n]]]"
    assert proc.stdout == f"{right}\n{left}\n"


# --- reduction parts that pair nothing, and the kept walk --------------------

def _defer_entry(doc: dict) -> dict:
    [entry] = [n for n in doc["nodes"] if n["kind"] == "defer"]
    return entry


def _two(a: str, b: str) -> ForestSet:
    return ForestSet.single_leaf(a).union(ForestSet.single_leaf(b))


def _pairs_with_c(fs: ForestSet) -> FNode:
    """A pair node: each tree of fs paired with the leaf c."""
    pair = FNode(PAIR)
    pair.left = fs.root
    pair.right = ForestSet.single_leaf("c").root
    return pair


def test_pairs_bit_follows_the_parts():
    fs = ForestSet.single_leaf("a")
    assert Reduction(PAIR_LEFT, fs).pairs
    assert pair_right(fs).pairs
    assert not reassociate().pairs
    assert not production("E", 2).pairs
    assert lift_right(Reduction(PAIR_LEFT, fs)).pairs
    assert not lift_left(reassociate()).pairs
    assert compose(reassociate(), pair_right(fs)).pairs
    assert compose(pair_right(fs), reassociate()).pairs
    assert not compose(reassociate(), lift_left(production("E", 2))).pairs
    # a tag built at run time is stored as the module's own string, which
    # enumeration compares by identity
    assert Reduction("-".join(("pair", "left")), fs).kind is PAIR_LEFT


def test_a_hand_built_pairing_inside_a_chain_is_walked():
    # built without the pair_left helper, below a lift and a compose
    payload = _two("x", "y")
    pair = _pairs_with_c(_two("a", "b"))
    red = compose(production("P", 1),
                  lift_left(Reduction(PAIR_LEFT, payload)))
    fs = ForestSet(pair).apply(red)
    assert count_parses(fs) == 4
    assert sorted(tree_text(t) for t in enumerate_trees(fs, 10)) == [
        "P[((x,a),c)]", "P[((x,b),c)]", "P[((y,a),c)]", "P[((y,b),c)]"]
    entry = _defer_entry(forest_to_json(fs))
    assert entry["children"] == [pair.id, payload.root.id]


def test_a_hand_built_pairing_with_an_empty_payload_counts_zero():
    red = compose(reassociate(), lift_right(Reduction(PAIR_RIGHT, EMPTY_SET)))
    fs = ForestSet(_pairs_with_c(_two("a", "b"))).apply(red)
    assert count_parses(fs) == 0
    assert enumerate_trees(fs, 10) == []


@pytest.mark.parametrize("fs, red", [
    # counted 0, but enumerated a and b
    (_two("a", "b"),
     compose(reassociate(), lift_right(Reduction(PAIR_RIGHT, EMPTY_SET)))),
    # counted 2, but enumerated one tree
    (ForestSet.single_leaf("a"),
     lift_left(Reduction(PAIR_RIGHT, _two("x", "y")))),
], ids=["empty-payload", "two-tree-payload"])
def test_a_lift_of_a_tree_that_is_not_a_pair_raises(fs, red):
    # count_parses multiplies by the pairings inside a lift wherever it
    # sits; a lift skipped on a tree that is not a pair enumerated trees
    # that disagree with the count
    with pytest.raises(ValueError):
        enumerate_trees(fs.apply(red), 10)


def test_a_long_chain_that_pairs_nothing_has_only_its_inner_child():
    red = reassociate()
    for i in range(100_000):
        part = lift_left(reassociate()) if i % 2 else production("P", 1)
        red = compose(part, red)
    assert not red.pairs
    inner = ForestSet.single_leaf("a")
    fs = inner.apply(red)
    assert count_parses(fs) == 1
    assert _defer_entry(forest_to_json(fs))["children"] == [inner.root.id]


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
                want = [tree_text(t) for t in full(forest._walk(fs), k)]
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
        a1, a2, b, c = (ForestSet.single_leaf(x).root for x in "aabc")
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
