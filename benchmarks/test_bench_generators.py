"""The benchmark's input generators: valid by construction means accepted by
the Earley oracle, invalid by construction means rejected, the closed-form
counts hold, and the seed alone decides the inputs."""

import random

import pytest

from derivparse import earley_count, earley_recognize, load_bnf

import workloads as W


@pytest.mark.parametrize("source", [W.ARITH_RIGHT, W.ARITH_LEFT])
def test_expressions_valid_and_invalid_by_construction(source):
    bnf = load_bnf(source)
    rng = random.Random(7)
    for n in range(1, 40):
        assert earley_recognize(bnf, W.expression(rng, n))
        assert not earley_recognize(bnf, W.invalid_expression(rng, n))


def test_nested_dyck_words_are_balanced():
    bnf = load_bnf(W.DYCK)
    for n in range(0, 60, 2):
        word = W.nested_dyck(n)
        assert len(word) == n
        assert earley_count(bnf, word) == 1


@pytest.mark.parametrize("family", ["catalan_ss", "ambiguous_arith", "catalan_ll"])
def test_catalan_closed_form_matches_oracle(family):
    bnf = load_bnf({"catalan_ss": W.CATALAN_SS, "ambiguous_arith": W.AMBIGUOUS_ARITH,
                    "catalan_ll": W.CATALAN_LL}[family])
    rng = random.Random(7)
    for n in range(1, 8):
        req = W.ambiguous(rng, family, n)
        assert earley_count(bnf, req.tokens) == req.count == W.catalan(n - 1)


def test_random_grammar_words_match_oracle_expectations():
    wl = W.random_grammars(random.Random(3), n_grammars=8)
    assert len(wl.grammars) == 8 and len(wl.requests) == 80
    assert any(r.accept for r in wl.requests)
    for req in wl.requests:
        assert len(req.tokens) <= 12
        bnf = load_bnf(wl.grammars[req.grammar])
        assert earley_recognize(bnf, req.tokens) == req.accept


def _small(name, seed):
    rng = random.Random(f"{name}:{seed}")
    if name == "random_grammars":
        return W.random_grammars(rng, n_grammars=6)
    return W.WORKLOADS[name](rng)


def _inputs(wl):
    return (wl.grammars,
            [(r.kind, r.grammar, r.tokens, r.accept, r.count) for r in wl.requests],
            [(r.grammar, r.tokens) for r in wl.ablation])


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert _inputs(_small(name, 5)) == _inputs(_small(name, 5))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_other_seed_other_inputs_same_shape(name):
    a, b = _small(name, 5), _small(name, 6)
    assert _inputs(a) != _inputs(b)
    assert len(a.requests) == len(b.requests)
    assert a.grammars == b.grammars
    if name == "random_grammars":
        return
    shape = sorted((r.kind, r.grammar, r.accept, r.count) for r in a.requests)
    assert shape == sorted((r.kind, r.grammar, r.accept, r.count) for r in b.requests)
    for la, lb in zip(sorted(len(r.tokens) for r in a.requests),
                      sorted(len(r.tokens) for r in b.requests)):
        assert abs(la - lb) <= max(12, la // 10)
