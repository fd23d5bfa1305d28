"""Grammar text format: happy paths and every diagnostic."""

import random

import pytest

from derivparse import (
    Context, Grammar, GrammarError,
    build_graph, count_parses, enumerate_trees, load_bnf, load_grammar,
    normalize_grammar, parse, recognize, tree_text, use_context,
)
from derivparse import grammar
from derivparse.grammar import ALT, EPSILON, RED, SEQ, TOKEN
from derivparse.loader import load_grammar_file, parse_source
from derivparse.oracle import Ref, Term
from derivparse.reductions import SPLICE
from conftest import (
    ARITH_SRC, FIXED_CORPUS, load_unnormalized, random_grammar_source,
)


BALANCED = """
# matched parens
start = S ;
S : '(' S ')' S | ;
"""


def test_parse_source_shapes():
    start, prods = parse_source(BALANCED)
    assert start == "S"
    assert list(prods) == ["S"]
    assert prods["S"] == [
        (Term("("), Ref("S"), Term(")"), Ref("S")),
        (),
    ]


def test_load_bnf_roundtrip_symbols():
    g = load_bnf("start = A ;\nA : 'x' B | B ;\nB : ;")
    assert g.start == "A"
    assert g.productions["A"][0] == (Term("x"), Ref("B"))
    assert g.productions["B"] == [()]


def test_duplicate_alternatives_are_dropped():
    g = load_bnf("start = A ;\nA : 'x' | 'x' | 'y' ;")
    assert g.productions["A"] == [(Term("x"),), (Term("y"),)]


def test_load_grammar_recognizes():
    g = load_grammar(BALANCED)
    assert recognize(g, [])
    assert recognize(g, ["(", ")", "(", ")"])
    assert recognize(g, ["(", "(", ")", ")"])
    assert not recognize(g, ["(", "(", ")"])


def test_wildcard_token_matches_anything():
    g = load_grammar("start = A ;\nA : '.' '.' ;")
    assert recognize(g, ["q", "zz"])
    assert not recognize(g, ["q"])


def test_comments_and_blank_lines_ignored():
    g = load_grammar("# top\nstart = A ;\n\nA : 'a' ; # trailing\n")
    assert recognize(g, ["a"])


def _err(src: str) -> GrammarError:
    with pytest.raises(GrammarError) as info:
        load_grammar(src)
    return info.value


def test_missing_start_header():
    e = _err("A : 'a' ;")
    assert "must begin with 'start" in str(e)
    assert (e.line, e.col) == (1, 1)


def test_undefined_start_symbol():
    e = _err("start = Z ;\nA : 'a' ;")
    assert "start symbol 'Z' is not defined" in str(e)
    assert e.line == 1


def test_duplicate_definition():
    e = _err("start = A ;\nA : 'a' ;\nA : 'b' ;")
    assert "duplicate definition of 'A'" in str(e)
    assert e.line == 3


def test_undefined_nonterminal_reports_use_site():
    e = _err("start = A ;\nA : 'a'\n  | Missing ;")
    assert "undefined nonterminal 'Missing'" in str(e)
    assert (e.line, e.col) == (3, 5)


def test_unterminated_rule():
    e = _err("start = A ;\nA : 'a'")
    assert "missing ';'" in str(e)


def test_unterminated_terminal():
    e = _err("start = A ;\nA : 'a ;")
    assert "unterminated terminal" in str(e)
    assert (e.line, e.col) == (2, 5)


def test_empty_terminal():
    e = _err("start = A ;\nA : '' ;")
    assert "empty terminal" in str(e)


def test_unexpected_character():
    e = _err("start = A ;\nA : 'a' + 'b' ;")
    assert "unexpected character '+'" in str(e)


def test_names_are_letters_digits_and_underscores_of_any_script():
    # a name starts with a letter or '_' (str.isalpha) and goes on with
    # str.isalnum characters or '_': a numeric character such as '½'
    # continues a name but starts none; a tab is one column
    g = load_bnf("start = Größe ;\nGröße : 'a' Ω_½ ;\nΩ_½ : 'b' ;")
    assert g.productions["Größe"] == [(Term("a"), Ref("Ω_½"))]
    e = _err("start = A ;\nA :\t½ ;")
    assert "unexpected character '½'" in str(e)
    assert (e.line, e.col) == (2, 5)


def test_unexpected_token_in_body():
    e = _err("start = A ;\nA : 'a' : 'b' ;")
    assert "unexpected ':' in rule body" in str(e)


def test_message_carries_position_prefix():
    e = _err("start = A ;\nA : 'a ;")
    assert str(e).startswith("2:5: ")


def test_error_is_a_value_error():
    with pytest.raises(ValueError):
        load_grammar("nope")


def test_unnormalized_graph_shares_reference_identity():
    # loading without normalization keeps one node per nonterminal, so both
    # uses of B below are literally the same object
    g = load_unnormalized("start = A ;\nA : B B ;\nB : 'b' ;")
    a = g.nonterminal_table["A"]
    assert a.form == RED
    body = a.left
    assert body.form == SEQ
    assert body.left is body.right
    assert body.left is g.nonterminal_table["B"]


def test_load_grammar_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("start = A ;\nA : 'a' ;\n")
    g = load_grammar_file(str(p))
    assert recognize(g, ["a"])
    assert not recognize(g, ["b"])


def test_token_node_survives_normalization():
    g = load_grammar("start = A ;\nA : 'a' ;")
    # the start wrapper reduces a plain token alternative
    node = g.root
    while node.form == RED:
        node = node.left
    assert node.form == TOKEN
    assert node.label == "a"


def test_unreachable_productions_are_not_built():
    base = "start = S ;\nS : 'a' S | T ;\nT : 'b' | ;\n"
    g = load_grammar(base)
    g2 = load_grammar(base + "Z : Z 'z' | 'y' ;\n")
    assert g2.counters.nodes_created == g.counters.nodes_created
    assert g2.counters.compaction_firings == g.counters.compaction_firings
    assert g2.size_G == g.size_G
    assert set(g2.nonterminal_table) == {"S", "T"}
    # the oracle's view keeps every production
    assert set(g2.bnf.productions) == {"S", "T", "Z"}
    assert recognize(g2, ["a", "b"]) and not recognize(g2, ["y"])


def test_adjacent_alternatives_sharing_a_first_symbol_are_factored():
    g = load_unnormalized("start = S ;\nS : 'a' 'b' | 'a' | 'c' | 'a' 'c' ;")
    # the first two share 'a' and become one group; the last 'a' alternative
    # is not adjacent to them, so the alternative order stays as written
    body = g.nonterminal_table["S"]
    group, rest = body.left, body.right
    assert body.form == ALT and group.form == RED and group.fn.kind == SPLICE
    assert group.left.form == SEQ and group.left.left.label == "a"
    rests = group.left.right
    assert rests.form == ALT and rests.right.form == EPSILON
    assert rest.form == ALT and rest.right.fn.kind != SPLICE
    # the oracle's view keeps every production as written
    assert len(g.bnf.productions["S"]) == 4
    assert [tree_text(t) for t in enumerate_trees(parse(g, ["a"]), 2)] \
        == ["S[a]"]
    assert recognize(g, ["a", "c"]) and not recognize(g, ["c", "c"])


def test_factored_rules_give_the_trees_of_the_rules_as_written():
    g = load_grammar(ARITH_SRC)
    [t] = enumerate_trees(parse(g, "n + n * n".split()), 10)
    assert tree_text(t) == "E[T[F[n]] + E[T[F[n] * T[F[n]]]]]"
    # A is ambiguous under the factored head; trees still come in the
    # order of the alternatives as written, each head tree in A's order
    g = load_grammar("start = S ;\nS : A B | A C ;\nA : 'a' | D ;\n"
                     "D : 'a' ;\nB : 'x' ;\nC : 'x' ;\n")
    fs = parse(g, ["a", "x"])
    order = ["S[A[a] B[x]]", "S[A[D[a]] B[x]]",
             "S[A[a] C[x]]", "S[A[D[a]] C[x]]"]
    assert count_parses(fs) == 4
    assert [tree_text(t) for t in enumerate_trees(fs, 4)] == order
    assert [tree_text(t) for t in enumerate_trees(fs, 2)] == order[:2]


def test_load_grammar_counts_into_the_counters_it_builds(monkeypatch):
    # one Counters per load: the loader's context counts the load, and the
    # grammar keeps counting in it
    made = []

    class Counting(grammar.Counters):
        def __init__(self):
            made.append(self)
            super().__init__()

    monkeypatch.setattr(grammar, "Counters", Counting)
    g = load_grammar(ARITH_SRC)
    assert made == [g.counters] and g.counters.compactions > 0


def test_both_load_paths_normalize_alike():
    # load_grammar normalizes a bare root and then makes the Grammar; the
    # traced benchmark loader makes the Grammar and then normalizes it.
    # The spine rule's guards must see the same marks on both.
    rng = random.Random(0x10AD)
    for src in FIXED_CORPUS + [random_grammar_source(rng) for _ in range(200)]:
        direct = load_grammar(src)
        bnf = load_bnf(src)
        with use_context(Context()) as ctx:
            root, table = build_graph(bnf)
            g = normalize_grammar(Grammar(root, bnf.start, table, bnf))
        c, d = ctx.counters, direct.counters
        assert (g.size_G, c.compactions, c.nodes_created) == (
            direct.size_G, d.compactions, d.nodes_created), src
