"""Counters, metric emission, and the debug naming discipline."""

import json
import random
from collections import Counter

import pytest

from derivparse import (
    Context, NamingError, count_parses, enumerate_trees, load_bnf,
    load_grammar, parse, recognize, tree_text, use_context,
)
from derivparse import derivation, grammar
from derivparse.grammar import RED, mk_token
from derivparse.instrumentation import (
    CSV_FIELDS, EXTEND, FORM_NAMES, MARK, MARK_EXTEND, Counters,
    NodeName, emit, fresh_name, name_node,
)
from conftest import (
    ARITH_INDIRECT_SRC, ARITH_SRC, DYCK_SRC, FIXED_CORPUS, created_nodes,
    expr_tokens, mk_alt, mk_empty, probe_words, random_grammar_source,
)


def test_counters_reset():
    with use_context(Context()) as ctx:
        mk_alt(mk_token("a"), mk_token("b"))
    c = ctx.counters
    c.derive_calls_cached += 3
    assert c.nodes_created == 3
    c.reset()
    assert c.nodes_created == 0
    assert c.derive_calls_cached == 0
    assert c.compactions == 0


def test_counters_snapshot_is_detached():
    with use_context(Context()) as ctx:
        a = mk_token("a")
        snap = ctx.counters.snapshot()
        mk_alt(mk_empty(), a)
    assert snap.nodes_created == 1
    assert ctx.counters.nodes_created == 2
    assert snap.compaction_firings == {}
    assert ctx.counters.compaction_firings == {"alt-empty-left": 1}


def _record_rewrites(monkeypatch) -> list:
    """Every node that become_node rewrites in place from now on."""
    rewritten = []
    real = grammar.become_node

    def recording(dst, src):
        rewritten.append(dst)
        return real(dst, src)

    monkeypatch.setattr(grammar, "become_node", recording)
    monkeypatch.setattr(derivation, "become_node", recording)
    return rewritten


def test_counters_by_form_match_the_nodes_a_parse_creates(monkeypatch):
    rewritten = _record_rewrites(monkeypatch)
    # the recording sees the rewrites of a parse that makes some
    parse(load_grammar(ARITH_INDIRECT_SRC), expr_tokens(40))
    assert rewritten
    rewritten.clear()
    g = load_grammar(ARITH_SRC)
    before = g.counters.as_dict()["nodes_by_form"]
    with created_nodes() as nodes:
        parse(g, expr_tokens(40))
    after = g.counters.as_dict()["nodes_by_form"]
    # nodes a rule rewrote in place changed form after they were counted
    assert not set(rewritten) & set(nodes)
    made = Counter(FORM_NAMES[n.form] for n in nodes)
    assert {f: after[f] - before[f] for f in FORM_NAMES} == {
        f: made[f] for f in FORM_NAMES}
    assert g.counters.nodes_created == sum(after.values())


def test_counters_dict_lists_forms_in_order():
    g = load_grammar(ARITH_SRC)
    recognize(g, expr_tokens(10))
    by_form = g.counters.as_dict()["nodes_by_form"]
    assert tuple(by_form) == FORM_NAMES
    assert sum(by_form.values()) == g.counters.nodes_created


def test_emit_csv_has_header_and_row():
    c = Counters()
    c.derive_calls_uncached = 7
    out = emit(c, "csv", file="x.txt", tokens=12, seconds_per_token=2.5e-06)
    header, row, tail = out.split("\n")
    assert header == ",".join(CSV_FIELDS)
    cells = row.split(",")
    assert cells[0] == "x.txt"
    assert cells[1] == "12"
    assert cells[CSV_FIELDS.index("derive_uncached")] == "7"
    assert float(cells[-1]) == 2.5e-06
    assert tail == ""


def test_emit_json_is_parseable_and_complete():
    with use_context(Context()) as ctx:
        mk_alt(mk_empty(), mk_token("a"))
    c = ctx.counters
    out = json.loads(emit(c, "json", file="y.txt", tokens=3))
    assert out["file"] == "y.txt"
    assert out["tokens"] == 3
    assert out["compaction_firings"] == {"alt-empty-left": 1}
    for field in ("nodes_created", "derive_cached", "nullable_visits"):
        assert field in out


def test_shared_continuations_are_counted_copied_and_emitted():
    # a flat product shares its continuation once; the memo hit on it
    # does the rest
    g = load_grammar(ARITH_SRC)
    recognize(g, ["n"] + ["*", "n"] * 20)
    c = g.counters
    snap = c.snapshot()
    assert snap.seqs_shared == c.seqs_shared == 1
    assert c.as_dict()["seqs_shared"] == 1
    assert json.loads(emit(c, "json"))["seqs_shared"] == 1
    assert "seqs_shared" not in CSV_FIELDS
    c.reset()
    assert c.seqs_shared == 0 and snap.seqs_shared == 1


def test_shared_reductions_are_counted_copied_and_emitted():
    # a flat product floats the same reduction out at three operands; the
    # memo hit on the shared continuation does the rest
    g = load_grammar(ARITH_SRC)
    recognize(g, ["n"] + ["*", "n"] * 20)
    c = g.counters
    snap = c.snapshot()
    assert snap.reductions_shared == c.reductions_shared == 3
    assert c.as_dict()["reductions_shared"] == 3
    assert json.loads(emit(c, "json"))["reductions_shared"] == 3
    assert "reductions_shared" not in CSV_FIELDS
    c.reset()
    assert c.reductions_shared == 0 and snap.reductions_shared == 3


# firings of the two parses below, under the single-entry memo as the
# dict-counting engine recorded them, and under the default full memo,
# which rebuilds no derivative that a slot evicted, and so fires fewer.
# The Dyck parse closes no derivative cycle, so each token's top reduction
# goes to the parse's chain, not through red-compose (63 and 62
# firings when it did)
_PINNED_PARSE_FIRINGS = {
    False: ({"seq-empty-left": 20, "red-empty": 55, "seq-epsilon-left": 13,
             "red-compose": 34, "alt-empty-right": 57, "alt-empty-left": 7,
             "red-epsilon": 10, "dead-subgraph": 16, "seq-float-left": 21},
            233,
            {"seq-epsilon-left": 3, "red-compose": 22, "alt-empty-right": 3,
             "seq-float-left": 38, "seq-empty-left": 22, "red-empty": 2,
             "seq-associate": 18, "alt-empty-left": 21},
            129),
    True: ({"seq-empty-left": 11, "red-empty": 55, "seq-epsilon-left": 4,
            "red-compose": 34, "alt-empty-right": 57, "alt-empty-left": 7,
            "red-epsilon": 10, "dead-subgraph": 16, "seq-float-left": 21},
           215,
           {"seq-epsilon-left": 2, "red-compose": 21, "alt-empty-right": 2,
            "seq-float-left": 38, "seq-empty-left": 22, "red-empty": 2,
            "seq-associate": 18, "alt-empty-left": 21},
           126),
}


def test_per_rule_firings_are_pinned():
    # firing counts of a load and of two parses that between them fire 11
    # of the 14 rules (the load's since the spine rule's head guard reads
    # the never-null mark); the left-recursive parse is of the indirect
    # variant, which gets no twin and fires what ARITH_LEFT_SRC's rules as
    # written fire
    nested_left = ["("] * 3 + expr_tokens(40) + [")"] * 3
    g = load_grammar(ARITH_SRC)
    assert g.counters.compaction_firings == {
        "seq-float-left": 2, "seq-float-right": 4, "red-compose": 5,
        "seq-associate": 3}
    for memo_full, pinned in _PINNED_PARSE_FIRINGS.items():
        left, left_total, dyck, dyck_total = pinned
        g = load_grammar(ARITH_INDIRECT_SRC)
        g.settings.memo_full = memo_full
        g.counters.reset()
        parse(g, nested_left)
        assert g.counters.compaction_firings == left, memo_full
        assert g.counters.compactions == left_total, memo_full
        with pytest.raises(TypeError):  # a view of the per-rule list
            g.counters.compaction_firings["red-empty"] = 0
        g = load_grammar(DYCK_SRC)
        g.settings.memo_full = memo_full
        g.counters.reset()
        parse(g, ["("] * 20 + [")"] * 20 + ["(", ")"])
        out = json.loads(emit(g.counters, "json"))
        assert out["compaction_firings"] == dyck, memo_full
        assert out["compactions"] == dyck_total, memo_full


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(Counters(), "xml")


def test_fresh_names_are_distinct():
    assert fresh_name() != fresh_name()


def test_extend_appends_token():
    base = NodeName("g0")
    n1 = name_node(base, "a", EXTEND)
    n2 = name_node(n1, "b", EXTEND)
    assert n2.base == "g0"
    assert n2.parts == ("a", "b")
    assert n2.mark is None
    assert n2.text() == "g0ab"


def test_mark_extend_records_split_point():
    base = NodeName("g0", ("a",))
    n = name_node(base, "b", MARK_EXTEND)
    assert n.parts == ("a", "b")
    assert n.mark == 1
    assert n.text() == f"g0a{MARK}b"
    # further plain extensions keep the marker where it was
    n2 = name_node(n, "c", EXTEND)
    assert n2.mark == 1
    assert n2.text() == f"g0a{MARK}bc"


def test_second_mark_is_rejected():
    base = NodeName("g0", ("a",))
    marked = name_node(base, "b", MARK_EXTEND)
    with pytest.raises(NamingError):
        name_node(marked, "c", MARK_EXTEND)


def test_naming_rules_need_parent_and_token():
    with pytest.raises(NamingError):
        name_node(None, "a", EXTEND)
    with pytest.raises(NamingError):
        name_node(NodeName("g0"), None, MARK_EXTEND)
    with pytest.raises(NamingError):
        name_node(NodeName("g0"), "a", "bogus")


def test_names_hash_by_value():
    a = NodeName("g0", ("a", "b"), 1)
    b = NodeName("g0", ("a", "b"), 1)
    assert a == b
    assert hash(a) == hash(b)
    assert a != NodeName("g0", ("a", "b"), None)


def _collect_names(g, tokens):
    g.settings.debug_names = True
    with created_nodes() as made:
        assert recognize(g, tokens)
    return [n.name for n in made if n.name is not None]


def test_engine_names_are_suffix_contiguous():
    # every minted name's token labels must be a contiguous run of the
    # input's class word: a token the grammar does not name derives by the
    # wildcard's class, and its names carry '.'
    g = load_grammar("start = S ;\nS : S S | '.' | '3' ;")
    toks = [str(i) for i in range(12)]
    classes = [t if t == "3" else "." for t in toks]
    names = _collect_names(g, toks)
    assert names
    assert any("3" in nm.parts for nm in names)
    for nm in names:
        parts = nm.parts
        if not parts:
            continue
        assert len(parts) <= len(toks)
        joined = list(parts)
        pos = [i for i in range(len(toks) - len(joined) + 1)
               if classes[i:i + len(joined)] == joined]
        assert pos, nm.text()
        assert nm.mark is None or 0 <= nm.mark <= len(parts)


def test_engine_never_double_marks():
    g = load_grammar("start = S ;\nS : A 'x' | ;\nA : | 'a' ;")
    g.settings.debug_names = True
    parse_ok = recognize(g, ["a", "x"])
    assert parse_ok  # if a second mark had been needed, NamingError would raise


def _answer(g, w) -> tuple:
    """Verdict, count and the ordered first 5 trees of one parse."""
    fs = parse(g, w)
    return (recognize(g, w), count_parses(fs),
            [tree_text(t) for t in enumerate_trees(fs, 5)])


def _engine_work(c) -> tuple:
    """The counters the naming engine shares with --compaction off: all but
    the nullability ones, since minting a name asks for nullability."""
    return (c.derive_calls_cached, c.derive_calls_uncached, c.nodes_by_form,
            c.firings_by_rule)


def test_debug_names_parse_as_compaction_off():
    # the naming engine builds the --compaction off graph, the split's
    # pair-left-null reductions included, so it gives that engine's answers
    # after the same derive calls, nodes and firings
    rng = random.Random(0xA3E)
    sources = FIXED_CORPUS + [random_grammar_source(rng) for _ in range(80)]
    words_seen = named_reds = 0
    for src in sources:
        off, named = load_grammar(src), load_grammar(src)
        off.settings.compaction = False
        named.settings.debug_names = True
        for w in probe_words(load_bnf(src), "abc"):
            w = list(w)
            with created_nodes() as made:
                got = _answer(named, w)
            assert got == _answer(off, w), (src, w)
            assert _engine_work(named.counters) == _engine_work(
                off.counters), (src, w)
            words_seen += 1
            for n in made:
                assert n.name is not None, (src, w, n)
                assert n.name.text().count(MARK) <= 1, n.name.text()
                named_reds += n.form == RED
    assert words_seen > 1000 and named_reds > 0
