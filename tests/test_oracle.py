"""The independent reference implementations: chart recognizer, chart
counter, and bounded language enumeration.  These never touch the
derivative engine, so the main suite can use them as ground truth."""

import ast
import random
from pathlib import Path

import pytest

import derivparse
from derivparse import (
    INFINITE,
    earley_count, earley_recognize, enumerate_language, load_bnf, oracle,
)
from conftest import all_strings, random_grammar_source


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def bnf(src: str):
    return load_bnf(src)


def test_oracle_imports_only_constants_from_the_engine():
    # ground truth must not share the engine's algorithms, its counting
    # arithmetic included; the two constants name the same values
    engine = {p.stem for p in Path(derivparse.__file__).parent.glob("*.py")}
    taken = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level or module[0] == "derivparse":
                taken |= {(module[-1], a.name) for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                assert a.name.split(".")[0] not in engine | {"derivparse"}
    assert taken <= {("forest", "INFINITE"), ("grammar", "WILDCARD")}, taken


def test_recognizer_base_cases():
    g = bnf("start = A ;\nA : 'a' ;")
    assert earley_recognize(g, ["a"])
    assert not earley_recognize(g, [])
    assert not earley_recognize(g, ["b"])
    assert not earley_recognize(g, ["a", "a"])


def test_recognizer_handles_nullable_completion():
    # B is completed at width zero inside a longer item; a textbook chart
    # bug drops this word
    g = bnf("start = S ;\nS : A B 'c' ;\nA : 'a' ;\nB : ;")
    assert earley_recognize(g, ["a", "c"])


def test_recognizer_nullable_chains():
    g = bnf("start = S ;\nS : A A A ;\nA : 'a' | ;")
    for w in all_strings("a", 3):
        assert earley_recognize(g, list(w))
    assert not earley_recognize(g, ["a"] * 4)


def test_recognizer_wildcard():
    g = bnf("start = S ;\nS : '.' 'x' ;")
    assert earley_recognize(g, ["anything", "x"])
    assert not earley_recognize(g, ["anything", "y"])


def test_counter_matches_catalan():
    g = bnf("start = S ;\nS : S S | 'a' ;")
    for n in range(1, 11):
        assert earley_count(g, ["a"] * n) == CATALAN[n - 1], n


def test_counter_zero_on_reject():
    g = bnf("start = S ;\nS : 'a' ;")
    assert earley_count(g, ["b"]) == 0
    assert earley_count(g, []) == 0


def test_counter_unit_cycle_is_infinite():
    g = bnf("start = S ;\nS : S | 'a' ;")
    assert earley_count(g, ["a"]) is INFINITE
    assert earley_count(g, ["b"]) == 0


def test_counter_epsilon_pump_is_infinite():
    # N can wrap any parse of itself inside an empty E, unboundedly
    g = bnf("start = N ;\nN : E N | 'x' ;\nE : ;")
    assert earley_count(g, ["x"]) is INFINITE


def test_counter_empty_word_ambiguity():
    g = bnf("start = S ;\nS : A A ;\nA : ;")
    assert earley_count(g, []) == 1
    g2 = bnf("start = S ;\nS : | A ;\nA : ;")
    assert earley_count(g2, []) == 2


def test_counter_finite_ambiguity_with_harmless_cycle_elsewhere():
    # the cyclic D never derives anything, so counts stay finite
    g = bnf("start = S ;\nS : 'a' | D ;\nD : D ;")
    assert earley_count(g, ["a"]) == 1


def test_enumeration_finite_language():
    g = bnf("start = S ;\nS : 'a' 'b' | 'c' ;")
    assert enumerate_language(g, 3) == {("a", "b"), ("c",)}


def test_enumeration_respects_length_bound():
    g = bnf("start = S ;\nS : 'a' S | ;")
    assert enumerate_language(g, 3) == {(), ("a",), ("a", "a"), ("a", "a", "a")}


def test_enumeration_empty_language():
    assert enumerate_language(bnf("start = S ;\nS : 'a' S ;"), 5) == set()
    assert enumerate_language(bnf("start = S ;\nS : S ;"), 5) == set()


def test_enumeration_epsilon_only():
    assert enumerate_language(bnf("start = S ;\nS : ;"), 4) == {()}


def test_enumeration_survives_nullable_pumps():
    # naive expansion would loop on E; elimination of empty symbols keeps
    # every sentential form at most as long as the words it can still yield
    g = bnf("start = N ;\nN : E N | 'x' ;\nE : ;")
    assert enumerate_language(g, 2) == {("x",)}


def test_enumeration_matches_recognizer_on_random_grammars():
    rng = random.Random(31337)
    words = all_strings("abc", 4)
    for _ in range(60):
        src = random_grammar_source(rng)
        g = bnf(src)
        lang = enumerate_language(g, 4)
        for w in words:
            assert earley_recognize(g, list(w)) == (w in lang), (src, w)


def test_count_agrees_with_enumeration_on_unambiguous_grammar():
    g = bnf("start = S ;\nS : 'a' S 'b' | ;")
    for w in enumerate_language(g, 6):
        assert earley_count(g, list(w)) == 1, w
